"""Vectorised NFA simulation backend for automata with many states.

The integer-mask :class:`~repro.automata.bitset.BitsetEngine` is excellent
while a state set fits a few machine words: its byte-chunked lookup loop
costs ``ceil(m / 8)`` Python-level iterations per simulation step.  For the
regime the paper's FPRAS actually targets — automata with hundreds of
states, where the polynomial advantage over brute force matters — that
Python loop becomes the bottleneck.  :class:`BlockEngine` removes it by
keeping every state set as a fixed-width vector of ``uint64`` *blocks* and
every per-symbol relation as a dense packed chunk-table tensor, so one
simulation step is a handful of NumPy array operations whose Python-level
cost is independent of ``m``:

* a handle is the little-endian ``bytes`` of the block vector (hashable,
  equal iff the decoded state sets are equal, exactly like the integer
  masks of the bitset backend; state ``j`` lives in byte ``j // 8``, bit
  ``j % 8``);
* each relation is stored as a flattened ``(chunks * 256, blocks)``
  ``uint64`` tensor: row ``c * 256 + v`` holds the packed image of the
  state set whose mask is ``v << 8c`` — the bitset backend's byte-chunked
  lookup tables, materialised as one NumPy array;
* ``step`` / ``pre`` / ``step_all`` view the handle as its ``chunks``
  bytes, gather the matching tensor rows in one fancy-index and OR-reduce
  them — a fixed-size gather regardless of how many states are set;
* the batched ``simulate_batch`` / ``accepts_batch`` paths walk a whole
  batch's prefix trie level by level in NumPy (words as integer symbol
  codes, trie children found by ``np.unique``, each symbol's children
  stepped by one gather over their parents' non-zero chunk bytes and one
  segmented OR), keeping the trie-walk accounting bit-identical to the
  other backends.

The backend registers itself as ``"numpy"``.  The counting layer drives it
through the same per-handle ``step`` / ``pre`` calls as every other
backend.  The ``"auto"`` pseudo-backend resolved by
:func:`repro.automata.engine.resolve_backend` selects this engine once the
automaton crosses :data:`repro.automata.engine.AUTO_BLOCK_THRESHOLD`
states; ``benchmarks/bench_block.py`` records the measured crossover.

Example::

    >>> from repro.automata.nfa import NFA
    >>> nfa = NFA.build(
    ...     [("s", "0", "s"), ("s", "1", "t"), ("t", "0", "t"), ("t", "1", "t")],
    ...     initial="s", accepting=["t"])
    >>> engine = BlockEngine(nfa)
    >>> sorted(engine.decode(engine.simulate("01")))
    ['t']
    >>> engine.accepts("01"), engine.accepts("00")
    (True, False)
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

import numpy as np

from repro.automata.engine import (
    DECODE_CACHE_LIMIT,
    Engine,
    WordBatch,
    check_positions,
    decode_mask,
    register_engine,
)
from repro.automata.nfa import NFA, State, Symbol, as_word
from repro.errors import AutomatonError

#: Bits per block of the packed state-set representation.
BLOCK_BITS = 64

#: Explicit little-endian dtype so handles are platform-independent bytes.
_BLOCK_DTYPE = "<u8"


class BlockEngine(Engine):
    """NumPy block-vector implementation of the :class:`Engine` interface.

    Handles are the raw little-endian bytes of a fixed-width ``uint64``
    block vector; all set algebra happens on NumPy views of those bytes.
    The engine is observationally identical to the ``reference`` and
    ``bitset`` backends — the three-way differential suites in
    ``tests/test_engine_parity.py`` / ``tests/test_batch_parity.py`` pin
    estimates, RNG streams and the locked work counters bit for bit.

    Memory note: each relation tensor holds ``4 m^2`` bytes (``m / 8``
    chunks x 256 entries x ``m / 8`` image bytes), i.e. ~1 MiB per symbol
    and direction at ``m = 512`` — the same entry count as the bitset
    backend's chunk tables, materialised contiguously for vectorised
    gathers.

    >>> from repro.automata.nfa import NFA
    >>> nfa = NFA.build(
    ...     [("s", "0", "s"), ("s", "1", "t"), ("t", "0", "t"), ("t", "1", "t")],
    ...     initial="s", accepting=["t"])
    >>> engine = BlockEngine(nfa)
    >>> engine.blocks  # one 64-bit block suffices for two states
    1
    >>> engine.accepts_batch(["0", "01"])
    [False, True]
    """

    name = "numpy"

    def __init__(self, nfa: NFA) -> None:
        super().__init__(nfa)
        ordered: List[State] = sorted(nfa.states, key=repr)
        self._states: Tuple[State, ...] = tuple(ordered)
        self._index: Dict[State, int] = {
            state: position for position, state in enumerate(ordered)
        }
        size = len(ordered)
        self._size = size
        #: Number of 64-bit blocks per handle (at least one).
        self.blocks = max(1, (size + BLOCK_BITS - 1) // BLOCK_BITS)
        self._width = self.blocks * 8  # handle width in bytes
        self._chunks = self._width  # one 8-bit chunk per handle byte
        #: Gather offsets: chunk ``c`` indexes rows ``[256 c, 256 (c+1))``.
        self._base = (np.arange(self._chunks, dtype=np.intp) << 8)

        # Per-symbol boolean relations, then packed chunk-table tensors.
        fwd_bool: Dict[Symbol, "np.ndarray"] = {
            symbol: np.zeros((size, size), dtype=bool) for symbol in nfa.alphabet
        }
        rev_bool: Dict[Symbol, "np.ndarray"] = {
            symbol: np.zeros((size, size), dtype=bool) for symbol in nfa.alphabet
        }
        for source, symbol, target in nfa.transitions:
            source_index = self._index[source]
            target_index = self._index[target]
            fwd_bool[symbol][source_index, target_index] = True
            rev_bool[symbol][target_index, source_index] = True
        any_bool = np.zeros((size, size), dtype=bool)
        for matrix in fwd_bool.values():
            any_bool |= matrix
        self._fwd = {
            symbol: self._chunk_tensor(matrix) for symbol, matrix in fwd_bool.items()
        }
        self._rev = {
            symbol: self._chunk_tensor(matrix) for symbol, matrix in rev_bool.items()
        }
        self._fwd_all = self._chunk_tensor(any_bool)
        #: The batch walk's symbol codes: positions in ``nfa.alphabet``.
        self._codes: Dict[Symbol, int] = {
            symbol: position for position, symbol in enumerate(nfa.alphabet)
        }

        self._empty = bytes(self._width)
        self._initial = self._mask_to_bytes(1 << self._index[nfa.initial])
        accepting_mask = 0
        for state in nfa.accepting:
            accepting_mask |= 1 << self._index[state]
        self._accepting = self._mask_to_bytes(accepting_mask)
        self._accepting_blocks = np.frombuffer(self._accepting, dtype=_BLOCK_DTYPE)
        self._decode_cache: Dict[bytes, FrozenSet[State]] = {
            self._empty: frozenset()
        }

    # ------------------------------------------------------------------
    # Internal representation helpers
    # ------------------------------------------------------------------
    def _mask_to_bytes(self, mask: int) -> bytes:
        """Little-endian bytes of an integer state mask, at handle width."""
        return mask.to_bytes(self._width, "little")

    def _pack_rows(self, rows_bool: "np.ndarray") -> "np.ndarray":
        """Pack a boolean ``(m, m)`` relation into ``(m, blocks)`` uint64 rows."""
        packed_bytes = np.packbits(rows_bool, axis=1, bitorder="little")
        padded = np.zeros((rows_bool.shape[0], self._width), dtype=np.uint8)
        padded[:, : packed_bytes.shape[1]] = packed_bytes
        return np.ascontiguousarray(padded).view(_BLOCK_DTYPE)

    def _chunk_tensor(self, rows_bool: "np.ndarray") -> "np.ndarray":
        """Flattened chunk-table tensor of a relation.

        Row ``c * 256 + v`` is the packed image of the state set whose mask
        is ``v << 8c``; built incrementally (the image of ``v`` is the image
        of ``v`` without its lowest bit, OR the row of that bit), vectorised
        across all chunks at once.
        """
        rows = self._pack_rows(rows_bool)  # (m, blocks) uint64
        padded = np.zeros((self._chunks * 8, self.blocks), dtype=_BLOCK_DTYPE)
        padded[: self._size] = rows
        by_chunk = padded.reshape(self._chunks, 8, self.blocks)
        tensor = np.zeros((self._chunks, 256, self.blocks), dtype=_BLOCK_DTYPE)
        for value in range(1, 256):
            low = value & -value
            tensor[:, value] = tensor[:, value ^ low] | by_chunk[:, low.bit_length() - 1]
        return np.ascontiguousarray(tensor.reshape(self._chunks * 256, self.blocks))

    def _image_blocks(self, tensor: "np.ndarray", chunk_bytes: "np.ndarray") -> "np.ndarray":
        """One image: gather one tensor row per chunk, OR-reduce them."""
        return np.bitwise_or.reduce(tensor[chunk_bytes + self._base], axis=0)

    def _image(self, tensor: "np.ndarray", handle: bytes) -> bytes:
        """Apply a chunk-table tensor to a packed handle (step / pre / step_all)."""
        chunk_bytes = np.frombuffer(handle, dtype=np.uint8)
        return self._image_blocks(tensor, chunk_bytes).tobytes()

    # ------------------------------------------------------------------
    # Primitive handles
    # ------------------------------------------------------------------
    @property
    def initial(self) -> bytes:
        """Packed block vector with only the initial state's bit set."""
        return self._initial

    @property
    def accepting(self) -> bytes:
        """Packed block vector of the accepting state set ``F``."""
        return self._accepting

    @property
    def empty(self) -> bytes:
        """The all-zero block vector."""
        return self._empty

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def encode(self, states: Iterable[State]) -> bytes:
        """Pack ``states`` into a block vector (unknown states are an error)."""
        mask = 0
        index = self._index
        for state in states:
            try:
                mask |= 1 << index[state]
            except KeyError:
                raise AutomatonError(
                    f"state {state!r} is not a state of the automaton"
                ) from None
        return self._mask_to_bytes(mask)

    def decode(self, handle: bytes) -> FrozenSet[State]:
        """Frozenset of the set bits, memoised per distinct block vector.

        The memo is bounded by
        :data:`~repro.automata.engine.DECODE_CACHE_LIMIT` so that engines
        pinned by the shared registry cannot accumulate unbounded decoded
        sets over a long-running process.
        """
        cached = self._decode_cache.get(handle)
        if cached is not None:
            return cached
        self.decode_ops += 1
        result = decode_mask(self._states, int.from_bytes(handle, "little"))
        if len(self._decode_cache) < DECODE_CACHE_LIMIT:
            self._decode_cache[handle] = result
        return result

    def state_index(self, state: State) -> int:
        """Dense index of a state (stable across engines for one NFA)."""
        return self._index[state]

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def step(self, handle: bytes, symbol: Symbol) -> bytes:
        """Forward image via the per-symbol chunk-table tensor."""
        self.step_ops += 1
        tensor = self._fwd.get(symbol)
        if tensor is None:
            # Symbols outside the alphabet have no transitions (mirrors the
            # reference engine, whose successor map is empty for them).
            return self._empty
        return self._image(tensor, handle)

    def step_all(self, handle: bytes) -> bytes:
        """Forward image under any symbol (one unrolling level)."""
        self.step_ops += 1
        return self._image(self._fwd_all, handle)

    def pre(self, handle: bytes, symbol: Symbol) -> bytes:
        """Reverse image via the per-symbol reverse tensor."""
        self.pre_ops += 1
        tensor = self._rev.get(symbol)
        if tensor is None:
            return self._empty
        return self._image(tensor, handle)

    def intersect(self, first: bytes, second: bytes) -> bytes:
        """Blockwise AND of two handles."""
        return (
            np.frombuffer(first, dtype=_BLOCK_DTYPE)
            & np.frombuffer(second, dtype=_BLOCK_DTYPE)
        ).tobytes()

    def union(self, first: bytes, second: bytes) -> bytes:
        """Blockwise OR of two handles."""
        return (
            np.frombuffer(first, dtype=_BLOCK_DTYPE)
            | np.frombuffer(second, dtype=_BLOCK_DTYPE)
        ).tobytes()

    def contains(self, handle: bytes, state: State) -> bool:
        """Single-bit membership test (unknown states are never contained)."""
        index = self._index.get(state)
        if index is None:
            return False
        return bool(handle[index >> 3] >> (index & 7) & 1)

    def is_empty(self, handle: bytes) -> bool:
        """Whether the block vector is all zeros (fixed-width bytes compare)."""
        return handle == self._empty

    def intersects(self, first: bytes, second: bytes) -> bool:
        """Whether the block vectors share a set bit."""
        return bool(
            np.any(
                np.frombuffer(first, dtype=_BLOCK_DTYPE)
                & np.frombuffer(second, dtype=_BLOCK_DTYPE)
            )
        )

    def count(self, handle: bytes) -> int:
        """Population count of the block vector."""
        return int.from_bytes(handle, "little").bit_count()

    # ------------------------------------------------------------------
    # Derived word-level operations (vectorised fast paths)
    # ------------------------------------------------------------------
    def simulate(self, word) -> bytes:
        """Word simulation keeping the block vector resident between steps.

        The current state set stays a ``(blocks,)`` uint64 array for the
        whole word (the chunk view needed by the gather is a free
        reinterpret-cast of it); the handle is packed to bytes only once at
        the end.  Step accounting — one ``step_ops`` per performed step,
        early exit on the empty set — matches :meth:`Engine.simulate`
        exactly.
        """
        symbols = as_word(word)
        if not symbols:
            return self._initial
        fwd = self._fwd
        image = None
        chunk_bytes = np.frombuffer(self._initial, dtype=np.uint8)
        for symbol in symbols:
            self.step_ops += 1
            tensor = fwd.get(symbol)
            if tensor is None:
                return self._empty
            image = self._image_blocks(tensor, chunk_bytes)
            if not image.any():
                return self._empty
            chunk_bytes = image.view(np.uint8)
        return image.tobytes()

    def accepts(self, word) -> bool:
        """Acceptance via one blockwise AND against the accepting vector."""
        final = self.simulate(word)
        return bool(
            np.any(np.frombuffer(final, dtype=_BLOCK_DTYPE) & self._accepting_blocks)
        )

    # ------------------------------------------------------------------
    # Batched simulation (level-synchronous vectorised trie walk)
    # ------------------------------------------------------------------
    def _encode_batch(
        self, words: WordBatch
    ) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", int]:
        """``(codes, starts, lengths, code count)`` of a batch, for :meth:`_walk_batch`.

        ``codes`` holds every word's symbol codes back to back (word ``w``
        is ``codes[starts[w] : starts[w] + lengths[w]]``): alphabet
        positions, then one fresh code per distinct unknown symbol so two
        unknown symbols never share a trie child.  A position matrix is
        already in this form, row by row.
        """
        if isinstance(words, np.ndarray):
            size = len(self._codes)
            count, length = check_positions(words, size).shape
            lengths = np.full(count, length, dtype=np.intp)
            codes = words.astype(np.intp, copy=False).ravel()
            return codes, lengths * np.arange(count), lengths, size
        normalized = [word if type(word) is tuple else as_word(word) for word in words]
        lengths = np.fromiter(map(len, normalized), dtype=np.intp, count=len(normalized))
        code_of = dict(self._codes)
        codes = np.fromiter(
            (
                code_of.setdefault(symbol, len(code_of))
                for word in normalized
                for symbol in word
            ),
            dtype=np.intp,
            count=int(lengths.sum()),
        )
        return codes, np.cumsum(lengths) - lengths, lengths, len(code_of)

    def _step_children(
        self, node_states: "np.ndarray", parents: "np.ndarray", codes: "np.ndarray"
    ) -> "np.ndarray":
        """Block vectors of trie children ``(parents[i], codes[i])``.

        Children are grouped by symbol code; each group gathers only the
        tensor rows of its parents' non-zero chunk bytes (a zero byte maps
        to an all-zero row) and ORs each parent's rows together with one
        segmented ``reduceat``.  Every parent is a live node, so every
        parent owns at least one gathered row.  Unknown-symbol children
        stay empty.
        """
        alphabet = self.nfa.alphabet
        children = np.zeros((len(parents), self.blocks), dtype=_BLOCK_DTYPE)
        order = np.argsort(codes, kind="stable")
        bounds = np.flatnonzero(np.diff(codes[order])) + 1
        for group in np.split(order, bounds):
            code = codes[group[0]]
            if code >= len(alphabet):
                continue
            chunk_bytes = node_states[parents[group]].view(np.uint8)
            rows, columns = np.nonzero(chunk_bytes)
            gathered = self._fwd[alphabet[code]][(columns << 8) + chunk_bytes[rows, columns]]
            per_parent = np.count_nonzero(chunk_bytes, axis=1)
            children[group] = np.bitwise_or.reduceat(
                gathered, np.cumsum(per_parent) - per_parent, axis=0
            )
        return children

    def _walk_batch(self, words: WordBatch) -> "np.ndarray":
        """Final block vectors of a batch, one row per word (the trie walk).

        The generic implementation walks the multiset's prefix trie in
        sorted order, stepping each distinct prefix with a live parent
        exactly once.  This walk visits the *same* trie nodes but
        level-synchronously: the distinct ``(parent node, symbol)``
        children of a level come from one ``np.unique`` over
        ``node * code_count + code`` keys, and are stepped by
        :meth:`_step_children` — a few NumPy calls per trie level and
        symbol, with no per-word Python.  The work counters
        (``step_ops``, ``batch_steps_saved``, ``batch_calls``,
        ``batch_words``) are bit-identical to the generic sorted walk.
        """
        codes, starts, lengths, code_count = self._encode_batch(words)
        count = len(lengths)
        self.batch_calls += 1
        self.batch_words += count
        final = np.zeros((count, self.blocks), dtype=_BLOCK_DTYPE)
        # Level-0 trie: every word sits at the root, whose state set is the
        # (never empty) initial singleton.
        node_states = np.frombuffer(self._initial, dtype=_BLOCK_DTYPE).reshape(1, -1)
        node = np.zeros(count, dtype=np.intp)
        active = np.arange(count)
        # ``cost[w]`` is what per-word simulation would have stepped: the
        # word length, clipped to the level its prefix chain dies at.
        cost = lengths.copy()
        performed = 0
        level = 0
        while len(active):
            done = lengths[active] == level
            if done.any():
                final[active[done]] = node_states[node[active[done]]]
                active = active[~done]
                if not len(active):
                    break
            keys = node[active] * code_count + codes[starts[active] + level]
            children, inverse = np.unique(keys, return_inverse=True)
            performed += len(children)
            node_states = self._step_children(node_states, *np.divmod(children, code_count))
            alive = node_states.any(axis=1)[inverse]
            # A dead chain: per-word simulation would have stopped here,
            # returning the empty handle (``final`` rows start empty).
            cost[active[~alive]] = level + 1
            active = active[alive]
            node[active] = inverse[alive]
            level += 1
        self.batch_steps_saved += int(cost.sum()) - performed
        self.step_ops += performed
        return final

    def simulate_batch(self, words: WordBatch) -> List[bytes]:
        """Per-word :meth:`simulate` handles, by one vectorised trie walk.

        Results and the work counters are bit-identical to the generic
        sorted walk; the three-way batch parity suite enforces it.
        """
        buffer = self._walk_batch(words).tobytes()
        width = self._width
        return [buffer[offset : offset + width] for offset in range(0, len(buffer), width)]

    def accepts_batch(self, words: WordBatch) -> List[bool]:
        """Vector of acceptance answers: one blockwise AND over the batch."""
        final = self._walk_batch(words)
        return (final & self._accepting_blocks).any(axis=1).tolist()


register_engine(BlockEngine.name, BlockEngine)
