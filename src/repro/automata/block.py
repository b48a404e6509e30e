"""Vectorised NFA simulation backend for automata with many states.

The integer-mask :class:`~repro.automata.bitset.BitsetEngine` is excellent
while a state set spans a few bytes: its byte-chunked lookup loop costs one
Python-level iteration per byte from the set's lowest non-zero byte up, at
most ``ceil(m / 8)`` per simulation step.  When the sets spread over
automata with hundreds of states — simulating many words at once, as
Monte-Carlo's membership batches do — that Python loop becomes the
bottleneck.  :class:`BlockEngine` removes it by
keeping every state set as a fixed-width vector of ``uint64`` *blocks* and
every per-symbol relation as a dense packed chunk-table tensor, so one
simulation step is a handful of NumPy array operations whose Python-level
cost is independent of ``m``:

* a handle is the little-endian ``bytes`` of the block vector (hashable,
  equal iff the decoded state sets are equal, exactly like the integer
  masks of the bitset backend; state ``j`` lives in byte ``j // 8``, bit
  ``j % 8``);
* each relation is a flattened ``(chunks * 256, blocks)`` ``uint64``
  tensor: row ``c * 256 + v`` holds the packed image of the state set whose
  mask is ``v << 8c`` — the bitset backend's byte-chunked lookup tables as
  one NumPy array.  The engine keeps each relation's packed rows and builds
  its tensor the first time something uses it, so a Monte-Carlo trie walk,
  which only steps forward, never builds the reverse or step-all tensors;
* ``step`` / ``pre`` / ``step_all`` view the handle as its ``chunks``
  bytes, gather the matching tensor rows in one fancy-index and OR-reduce
  them — a fixed-size gather regardless of how many states are set;
* the batched ``simulate_batch`` / ``accepts_batch`` paths sort a batch
  once (each word packed into ``int64`` keys of its integer symbol codes)
  and walk the prefix trie of its distinct words level by level in NumPy
  (a level's children start where a sorted row's parent node or symbol
  changes; each symbol's children are stepped by one gather over their
  parents' non-zero chunk bytes and one segmented OR), keeping the
  trie-walk accounting bit-identical to the other backends.

The backend registers itself as ``"numpy"``.  The counting layer drives it
through the same per-handle ``step`` / ``pre`` calls as every other
backend.  Only the Monte-Carlo runner picks it when no backend is named
(its batched trie walk is this engine's strength); every other method runs
it only when asked for by name, since the bitset engine's per-handle
lookups are faster end to end.  ``benchmarks/bench_block.py`` records both
comparisons.

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

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

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


def _distinct_rows(
    codes: "np.ndarray", code_count: int
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """``(rows, multiplicity, inverse)`` of a code matrix's distinct rows.

    Each row's codes, shifted up by one so that ``0`` marks a word's end,
    are packed into ``int64`` keys of base ``code_count + 1`` digits, as
    many digits per key as stay below ``2**62``.  One sort of the keys
    (``np.lexsort`` when a row spans several) puts equal rows side by side
    and a prefix's extensions next to each other: ``codes[rows]`` are the
    distinct rows in that order, ``multiplicity`` counts each one's
    repeats, and input row ``w`` equals ``codes[rows[inverse[w]]]``.

    >>> codes = np.array([[1, 0], [0, -1], [1, 0]])  # "10", "0", "10"
    >>> rows, multiplicity, inverse = _distinct_rows(codes, 2)
    >>> codes[rows].tolist(), multiplicity.tolist(), inverse.tolist()
    ([[0, -1], [1, 0]], [1, 2], [1, 0, 1])
    """
    count, width = codes.shape
    base = code_count + 1
    digits = 1
    while base ** (digits + 1) <= 1 << 62:
        digits += 1
    position = np.arange(width)
    weights = np.zeros((width, max(1, (width + digits - 1) // digits)), dtype=np.int64)
    weights[position, position // digits] = base ** (digits - 1 - position % digits)
    # The keys of ``codes + 1``, without copying ``codes``.
    keys = codes @ weights + weights.sum(axis=0)
    order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T[::-1])
    ranked = keys[order]
    # A distinct row starts wherever a sorted row differs from the one before.
    starts = np.empty(count, dtype=bool)
    starts[:1] = True
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = np.flatnonzero(starts)
    inverse = np.empty(count, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[first], np.diff(first, append=count), inverse


class BlockEngine(Engine):
    """NumPy block-vector implementation of the :class:`Engine` interface.

    Handles are the raw little-endian bytes of a fixed-width ``uint64``
    block vector; all set algebra happens on NumPy views of those bytes.
    The engine is observationally identical to the ``reference`` and
    ``bitset`` backends — the three-way differential suites in
    ``tests/test_engine_parity.py`` / ``tests/test_batch_parity.py`` pin
    estimates, RNG streams and the locked work counters bit for bit.

    Memory note: a built relation tensor holds ``4 m^2`` bytes (``m / 8``
    chunks x 256 entries x ``m / 8`` image bytes), i.e. ~1 MiB per symbol
    and direction at ``m = 512`` — the same entry count as the bitset
    backend's chunk tables, laid out contiguously for vectorised gathers.
    Until its first use a relation costs only its packed rows, ``m^2 / 8``
    bytes.

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
        #: Number of 64-bit blocks per handle (at least one).
        self.blocks = max(1, (len(ordered) + BLOCK_BITS - 1) // BLOCK_BITS)
        self._width = self.blocks * 8  # handle width in bytes
        self._chunks = self._width  # one 8-bit chunk per handle byte
        #: Gather offsets: chunk ``c`` indexes rows ``[256 c, 256 (c+1))``.
        self._base = (np.arange(self._chunks, dtype=np.intp) << 8)
        #: Symbol codes, positions in ``nfa.alphabet``: they index the
        #: relations' rows and spell the batch walk's words.
        self._codes: Dict[Symbol, int] = {
            symbol: position for position, symbol in enumerate(nfa.alphabet)
        }

        # Per-symbol forward / reverse relations as packed rows: row ``j`` of
        # symbol code ``a`` holds the image of state ``j`` in handle layout,
        # and zero rows pad the state count to whole chunks.
        code, source, target = np.array(
            [
                (self._codes[symbol], self._index[start], self._index[end])
                for start, symbol, end in nfa.transitions
            ],
            dtype=np.intp,
        ).reshape(-1, 3).T
        shape = (len(self._codes), self._chunks * 8, self._width)
        self._rows: Dict[str, "np.ndarray"] = {}
        for relation, row, column in (("fwd", source, target), ("rev", target, source)):
            rows = self._rows[relation] = np.zeros(shape, dtype=np.uint8)
            bits = np.left_shift(1, column & 7).astype(np.uint8)
            np.bitwise_or.at(rows, (code, row, column >> 3), bits)
        #: Chunk-table tensors built so far, keyed as :meth:`_tensor` names them.
        self._tensors: Dict[Tuple[str, Optional[int]], "np.ndarray"] = {}

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

    def _tensor(self, relation: str, code: Optional[int] = None) -> "np.ndarray":
        """Flattened chunk-table tensor of a relation, built on first use.

        ``relation`` is ``"fwd"`` or ``"rev"`` with a symbol ``code``, or
        ``"any"`` (forward under any symbol).  Row ``c * 256 + v`` is the
        packed image of the state set whose mask is ``v << 8c``; built
        incrementally (the image of ``v`` is the image of ``v`` without its
        lowest bit, OR the row of that bit), vectorised across all chunks at
        once.  Concurrent requests on a shared engine may race on one
        tensor: both build the same array, and whichever store lands last
        is as good as the other.
        """
        key = (relation, code)
        tensor = self._tensors.get(key)
        if tensor is not None:
            return tensor
        if relation == "any":
            rows = np.bitwise_or.reduce(self._rows["fwd"], axis=0)
        else:
            rows = self._rows[relation][code]
        by_chunk = rows.view(_BLOCK_DTYPE).reshape(self._chunks, 8, self.blocks)
        tensor = np.zeros((self._chunks, 256, self.blocks), dtype=_BLOCK_DTYPE)
        for value in range(1, 256):
            low = value & -value
            tensor[:, value] = tensor[:, value ^ low] | by_chunk[:, low.bit_length() - 1]
        tensor = self._tensors[key] = tensor.reshape(self._chunks * 256, self.blocks)
        return tensor

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
        code = self._codes.get(symbol)
        if code is None:
            # Symbols outside the alphabet have no transitions (mirrors the
            # reference engine, whose successor map is empty for them).
            return self._empty
        return self._image(self._tensor("fwd", code), handle)

    def step_all(self, handle: bytes) -> bytes:
        """Forward image under any symbol (one unrolling level)."""
        self.step_ops += 1
        return self._image(self._tensor("any"), handle)

    def pre(self, handle: bytes, symbol: Symbol) -> bytes:
        """Reverse image via the per-symbol reverse tensor."""
        self.pre_ops += 1
        code = self._codes.get(symbol)
        if code is None:
            return self._empty
        return self._image(self._tensor("rev", code), handle)

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
        codes = self._codes
        image = None
        chunk_bytes = np.frombuffer(self._initial, dtype=np.uint8)
        for symbol in symbols:
            self.step_ops += 1
            code = codes.get(symbol)
            if code is None:
                return self._empty
            image = self._image_blocks(self._tensor("fwd", code), chunk_bytes)
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
    ) -> Tuple["np.ndarray", "np.ndarray", int]:
        """``(codes, lengths, code count)`` of a batch, for :meth:`_walk_batch`.

        ``codes`` is a ``(count, width)`` matrix: row ``w`` holds word
        ``w``'s ``lengths[w]`` symbol codes, padded with ``-1``.  Codes are
        alphabet positions, then one fresh code per distinct unknown symbol
        so two unknown symbols never share a trie child.  A position matrix
        is already in this form.
        """
        if isinstance(words, np.ndarray):
            size = len(self._codes)
            count, length = check_positions(words, size).shape
            codes = words.astype(np.intp, copy=False)
            return codes, np.full(count, length, dtype=np.intp), size
        normalized = [word if type(word) is tuple else as_word(word) for word in words]
        lengths = np.fromiter(map(len, normalized), dtype=np.intp, count=len(normalized))
        code_of = dict(self._codes)
        flat = np.fromiter(
            (
                code_of.setdefault(symbol, len(code_of))
                for word in normalized
                for symbol in word
            ),
            dtype=np.intp,
            count=int(lengths.sum()),
        )
        codes = np.full((len(lengths), lengths.max(initial=0)), -1, dtype=np.intp)
        codes[np.arange(codes.shape[1]) < lengths[:, None]] = flat
        return codes, lengths, len(code_of)

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
        children = np.zeros((len(parents), self.blocks), dtype=_BLOCK_DTYPE)
        order = np.argsort(codes, kind="stable")
        bounds = np.flatnonzero(np.diff(codes[order])) + 1
        for group in np.split(order, bounds):
            code = int(codes[group[0]])
            if code >= len(self._codes):
                continue
            chunk_bytes = node_states[parents[group]].view(np.uint8)
            rows, columns = np.nonzero(chunk_bytes)
            gathered = self._tensor("fwd", code)[(columns << 8) + chunk_bytes[rows, columns]]
            per_parent = np.count_nonzero(chunk_bytes, axis=1)
            children[group] = np.bitwise_or.reduceat(
                gathered, np.cumsum(per_parent) - per_parent, axis=0
            )
        return children

    def _walk_batch(self, words: WordBatch) -> Tuple["np.ndarray", "np.ndarray"]:
        """Final block vectors of a batch's distinct words (the trie walk).

        Returns ``(final, inverse)``: word ``w`` ends in ``final[inverse[w]]``.
        The generic implementation walks the multiset's prefix trie in
        sorted order, stepping each distinct prefix with a live parent
        exactly once.  This walk visits the *same* trie nodes after one
        sort of the batch (:func:`_distinct_rows`), level by level over
        the distinct words only.  In sorted order a prefix's extensions
        sit side by side, so a level's children start wherever a row's
        parent node or symbol differs from the row before;
        :meth:`_step_children` steps them — a few NumPy calls per trie
        level and symbol, with no per-word Python.  The work counters
        (``step_ops``, ``batch_steps_saved``, ``batch_calls``,
        ``batch_words``) are bit-identical to the generic sorted walk: a
        word's clipped cost counts once per repeat, and ``batch_words``
        counts every word.
        """
        codes, lengths, code_count = self._encode_batch(words)
        self.batch_calls += 1
        self.batch_words += len(codes)
        rows, multiplicity, inverse = _distinct_rows(codes, code_count)
        distinct, lengths = codes[rows], lengths[rows]

        final = np.zeros((len(rows), self.blocks), dtype=_BLOCK_DTYPE)
        # Level-0 trie: every word sits at the root, whose state set is the
        # (never empty) initial singleton.  ``node`` runs along ``active``.
        node_states = np.frombuffer(self._initial, dtype=_BLOCK_DTYPE).reshape(1, -1)
        active = np.arange(len(rows))
        node = np.zeros(len(rows), dtype=np.intp)
        # ``cost[u]`` is what per-word simulation would have stepped: the
        # word length, clipped to the level its prefix chain dies at.
        cost = lengths.copy()
        performed = 0
        level = 0
        while len(active):
            done = lengths[active] == level
            if done.any():
                final[active[done]] = node_states[node[done]]
                active, node = active[~done], node[~done]
                if not len(active):
                    break
            symbols = distinct[active, level]
            starts = np.empty(len(active), dtype=bool)
            starts[0] = True
            starts[1:] = (node[1:] != node[:-1]) | (symbols[1:] != symbols[:-1])
            children = np.flatnonzero(starts)
            performed += len(children)
            node_states = self._step_children(
                node_states, node[children], symbols[children]
            )
            node = np.cumsum(starts) - 1
            alive = node_states.any(axis=1)[node]
            # A dead chain: per-word simulation would have stopped here,
            # returning the empty handle (``final`` rows start empty).
            cost[active[~alive]] = level + 1
            active, node = active[alive], node[alive]
            level += 1
        self.batch_steps_saved += int(cost @ multiplicity) - performed
        self.step_ops += performed
        return final, inverse

    def simulate_batch(self, words: WordBatch) -> List[bytes]:
        """Per-word :meth:`simulate` handles, by one vectorised trie walk.

        Results and the work counters are bit-identical to the generic
        sorted walk; the three-way batch parity suite enforces it.
        """
        final, inverse = self._walk_batch(words)
        buffer = final[inverse].tobytes()
        width = self._width
        return [buffer[offset : offset + width] for offset in range(0, len(buffer), width)]

    def accepts_batch(self, words: WordBatch) -> List[bool]:
        """Vector of acceptance answers: one blockwise AND per distinct word."""
        final, inverse = self._walk_batch(words)
        return (final & self._accepting_blocks).any(axis=1)[inverse].tolist()


register_engine(BlockEngine.name, BlockEngine)
