"""Bit-parallel NFA simulation backend.

States are indexed densely (in the deterministic ``sorted(states,
key=repr)`` order used everywhere else in the codebase) and every state set
becomes one Python ``int`` whose bit ``i`` is set iff state ``i`` is in the
set.  The per-symbol forward and reverse transition relations are
precomputed as *byte-chunked lookup tables*: for every 8-bit chunk of the
mask, a 256-entry table maps the chunk's value directly to the union of the
corresponding states' images.  Consequently

* ``step`` / ``pre`` are "one table lookup per non-zero byte of the mask"
  loops — ``ceil(m / 8)`` word operations regardless of how many states are
  set, with no Python set objects allocated;
* emptiness, intersection, union, and membership are single integer ops;
* one reachability mask answers the membership question "is ``w`` in
  ``L(q^{|w|})``" for *every* state ``q`` simultaneously, so AppUnion's
  coverage count of a sample is one AND and one ``bit_count``.

The decoded frozensets are memoised per mask: the FPRAS touches the same few
live-state and predecessor sets over and over, so decoding is effectively
amortised to one conversion per distinct set.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.automata.engine import (
    DECODE_CACHE_LIMIT,
    Engine,
    EngineCapabilities,
    decode_mask,
    register_engine,
)
from repro.automata.nfa import NFA, State, Symbol
from repro.errors import AutomatonError

#: Bits per lookup-table chunk.  8 keeps each chunk table at 256 entries,
#: small enough to build eagerly even for hundreds of states.
_CHUNK_BITS = 8
_CHUNK_SIZE = 1 << _CHUNK_BITS
_CHUNK_MASK = _CHUNK_SIZE - 1

#: A chunked relation: ``tables[c][v]`` is the image of the state set whose
#: mask is ``v << (8 c)``.
ChunkTables = List[List[int]]


def _chunk_tables(rows: List[int], size: int) -> ChunkTables:
    """Byte-chunked lookup tables for a relation given as per-state masks.

    Built incrementally: the image of a chunk value ``v`` is the image of
    ``v`` without its lowest bit, OR the row of that bit — so the whole
    table costs one OR per entry.
    """
    num_chunks = (size + _CHUNK_BITS - 1) // _CHUNK_BITS if size else 0
    tables: ChunkTables = []
    for chunk in range(num_chunks):
        base = chunk * _CHUNK_BITS
        # The final chunk of an m-state automaton only ever sees values
        # below 2^(m mod 8), so size the table accordingly (valid masks
        # never exceed the full state mask).
        entries = 1 << min(_CHUNK_BITS, size - base)
        table = [0] * entries
        for value in range(1, entries):
            low = value & -value
            table[value] = table[value ^ low] | rows[base + low.bit_length() - 1]
        tables.append(table)
    return tables


class BitsetEngine(Engine):
    """Integer-bitmask implementation of the :class:`Engine` interface.

    >>> from repro.automata.nfa import NFA
    >>> nfa = NFA.build(
    ...     [("s", "0", "s"), ("s", "1", "t"), ("t", "0", "t"), ("t", "1", "t")],
    ...     initial="s", accepting=["t"])
    >>> engine = BitsetEngine(nfa)
    >>> bin(engine.simulate("01"))    # one bit per state, here just {t}
    '0b10'
    >>> sorted(engine.decode(engine.simulate("01")))
    ['t']
    >>> engine.accepts("01"), engine.accepts("00")
    (True, False)
    """

    name = "bitset"

    def __init__(self, nfa: NFA) -> None:
        super().__init__(nfa)
        ordered: List[State] = sorted(nfa.states, key=repr)
        self._states: Tuple[State, ...] = tuple(ordered)
        self._index: Dict[State, int] = {
            state: position for position, state in enumerate(ordered)
        }
        size = len(ordered)
        self._size = size
        self._full_mask = (1 << size) - 1

        # Per-symbol forward / reverse adjacency as one mask per state.
        fwd: Dict[Symbol, List[int]] = {
            symbol: [0] * size for symbol in nfa.alphabet
        }
        rev: Dict[Symbol, List[int]] = {
            symbol: [0] * size for symbol in nfa.alphabet
        }
        for source, symbol, target in nfa.transitions:
            source_index = self._index[source]
            target_index = self._index[target]
            fwd[symbol][source_index] |= 1 << target_index
            rev[symbol][target_index] |= 1 << source_index
        # Union over all symbols, for whole-level (live-state) stepping.
        fwd_all: List[int] = [
            self._or_over_symbols(fwd, position) for position in range(size)
        ]
        self._fwd = {
            symbol: _chunk_tables(rows, size) for symbol, rows in fwd.items()
        }
        self._rev = {
            symbol: _chunk_tables(rows, size) for symbol, rows in rev.items()
        }
        self._fwd_all = _chunk_tables(fwd_all, size)

        self._initial = 1 << self._index[nfa.initial]
        self._accepting = 0
        for state in nfa.accepting:
            self._accepting |= 1 << self._index[state]
        self._decode_cache: Dict[int, FrozenSet[State]] = {0: frozenset()}

    @staticmethod
    def _or_over_symbols(tables: Dict[Symbol, List[int]], position: int) -> int:
        mask = 0
        for table in tables.values():
            mask |= table[position]
        return mask

    @staticmethod
    def _image(tables: ChunkTables, handle: int) -> int:
        """Apply a chunked relation to a mask (shared by step / pre)."""
        result = 0
        chunk = 0
        while handle:
            byte = handle & _CHUNK_MASK
            if byte:
                result |= tables[chunk][byte]
            handle >>= _CHUNK_BITS
            chunk += 1
        return result

    # ------------------------------------------------------------------
    # Primitive handles
    # ------------------------------------------------------------------
    @property
    def initial(self) -> int:
        """Mask with only the initial state's bit set."""
        return self._initial

    @property
    def accepting(self) -> int:
        """Mask of the accepting state set ``F``."""
        return self._accepting

    @property
    def empty(self) -> int:
        """The empty mask (integer zero)."""
        return 0

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def encode(self, states: Iterable[State]) -> int:
        """OR together the bits of ``states`` (unknown states are an error)."""
        mask = 0
        index = self._index
        for state in states:
            try:
                mask |= 1 << index[state]
            except KeyError:
                raise AutomatonError(
                    f"state {state!r} is not a state of the automaton"
                ) from None
        return mask

    def decode(self, handle: int) -> FrozenSet[State]:
        """Frozenset of the set bits, memoised per distinct mask.

        The memo is bounded by
        :data:`~repro.automata.engine.DECODE_CACHE_LIMIT` so that engines
        pinned by the shared registry cannot accumulate unbounded decoded
        sets over a long-running process; past the limit the decode is
        still computed, just not remembered.
        """
        cached = self._decode_cache.get(handle)
        if cached is not None:
            return cached
        self.decode_ops += 1
        result = decode_mask(self._states, handle)
        if len(self._decode_cache) < DECODE_CACHE_LIMIT:
            self._decode_cache[handle] = result
        return result

    def state_index(self, state: State) -> int:
        """Dense index of a state (stable across engines for one NFA)."""
        return self._index[state]

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def step(self, handle: int, symbol: Symbol) -> int:
        """Forward image via the per-symbol chunked lookup tables."""
        self.step_ops += 1
        tables = self._fwd.get(symbol)
        if tables is None:
            # Symbols outside the alphabet have no transitions (mirrors the
            # reference engine, whose successor map is empty for them).
            return 0
        return self._image(tables, handle)

    def step_all(self, handle: int) -> int:
        """Forward image under any symbol (one unrolling level)."""
        self.step_ops += 1
        return self._image(self._fwd_all, handle)

    def pre(self, handle: int, symbol: Symbol) -> int:
        """Reverse image via the per-symbol reverse tables."""
        self.pre_ops += 1
        tables = self._rev.get(symbol)
        if tables is None:
            return 0
        return self._image(tables, handle)

    def intersect(self, first: int, second: int) -> int:
        """Bitwise AND of two masks."""
        return first & second

    def union(self, first: int, second: int) -> int:
        """Bitwise OR of two masks."""
        return first | second

    def contains(self, handle: int, state: State) -> bool:
        """Single-bit membership test (unknown states are never contained)."""
        index = self._index.get(state)
        if index is None:
            return False
        return bool(handle >> index & 1)

    def is_empty(self, handle: int) -> bool:
        """Whether the mask is zero."""
        return handle == 0

    def intersects(self, first: int, second: int) -> bool:
        """Whether the masks share a set bit."""
        return (first & second) != 0

    def count(self, handle: int) -> int:
        """Population count of the mask."""
        return handle.bit_count()

    # ------------------------------------------------------------------
    # Batched simulation
    # ------------------------------------------------------------------
    def _extend_batch(self, stack: List[int], word: Tuple[Symbol, ...], start: int) -> int:
        """Mask-resident fast path of :meth:`Engine._extend_batch`.

        The current state set stays in a local integer for the whole
        extension and the byte-chunked table lookup is inlined, so a batch
        of words costs a tight arithmetic loop with no per-step method
        dispatch.  Step accounting matches the generic implementation
        exactly (one ``step_ops`` increment per performed step), keeping
        the work counters backend-independent.
        """
        current = stack[start]
        fwd = self._fwd
        append = stack.append
        steps = 0
        for position in range(start, len(word)):
            if not current:
                break
            steps += 1
            tables = fwd.get(word[position])
            if tables is None:
                current = 0
            else:
                image = 0
                mask = current
                chunk = 0
                while mask:
                    byte = mask & _CHUNK_MASK
                    if byte:
                        image |= tables[chunk][byte]
                    mask >>= _CHUNK_BITS
                    chunk += 1
                current = image
            append(current)
        self.step_ops += steps
        return current


# The bitset engine batches through the mask-resident trie walk but has no
# whole-level tensor pass: a declared capability record (level_kernel=False)
# is what routes the counting layer onto the bit-identical scalar path here.
register_engine(
    BitsetEngine.name,
    BitsetEngine,
    capabilities=EngineCapabilities(
        backend=BitsetEngine.name,
        level_kernel=False,
        batch_simulate=True,
        gpu_ready=False,
    ),
)
