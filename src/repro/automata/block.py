"""Vectorised batch walk behind the bitset engine's batched simulation.

The integer-mask :class:`~repro.automata.bitset.BitsetEngine` steps one
state set at a time with a byte-chunked lookup loop, which is the fastest
way to run the counting layer's per-handle ``step`` / ``pre`` calls.  A
batch of words — Monte-Carlo's membership blocks — is a different job:
thousands of words over the same automaton, most of them repeats.
:class:`BatchWalker` walks such a batch in NumPy, keeping every state set
as a fixed-width vector of ``uint64`` *blocks* and every per-symbol forward
relation as a dense chunk-table tensor, so one trie level costs a handful
of NumPy calls however many states and words it spans:

* a block vector holds state ``j`` (the bitset engine's dense index) in
  byte ``j // 8``, bit ``j % 8`` of its little-endian bytes, so its bytes
  read as an integer are the bitset engine's mask of the same set;
* each relation is a flattened ``(chunks * 256, blocks)`` ``uint64``
  tensor: row ``c * 256 + v`` holds the packed image of the state set whose
  mask is ``v << 8c`` — the bitset engine's byte-chunked lookup tables as
  one NumPy array.  The walker keeps each symbol's packed rows and builds
  its tensor the first time a batch steps that symbol;
* a batch is sorted once (each word packed into ``int64`` keys of its
  integer symbol codes) and the prefix trie of its distinct words is
  walked level by level (a level's children start where a sorted row's
  parent node or symbol changes; each symbol's children are stepped by one
  gather over their parents' non-zero chunk bytes and one segmented OR),
  with trie-walk accounting bit-identical to the generic sorted walk
  :meth:`~repro.automata.engine.Engine.simulate_batch`.

The walk only steps forward, so it holds no reverse relation.
``benchmarks/bench_block.py`` times it against the generic sorted walk.

Example::

    >>> from repro.automata.nfa import NFA
    >>> nfa = NFA.build(
    ...     [("s", "0", "s"), ("s", "1", "t"), ("t", "0", "t"), ("t", "1", "t")],
    ...     initial="s", accepting=["t"])
    >>> walker = BatchWalker(nfa, {"s": 0, "t": 1})
    >>> final, inverse, steps, saved = walker.walk(["0", "01", "01"])
    >>> [int.from_bytes(final[row].tobytes(), "little") for row in inverse]
    [1, 2, 2]
    >>> steps, saved  # the shared "0" prefix and the duplicate "01"
    (2, 3)
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

from repro.automata.engine import WordBatch, check_positions
from repro.automata.nfa import NFA, State, Symbol, as_word

#: Bits per block of the packed state-set representation.
BLOCK_BITS = 64

#: Explicit little-endian dtype so block vectors are platform-independent bytes.
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


class BatchWalker:
    """Forward-only NumPy walk of a word batch's prefix trie.

    ``index`` numbers the automaton's states densely (the bitset engine
    passes its own, so a final block vector's bytes are its mask).  The
    walker holds no counters: :meth:`walk` returns the trie-walk
    accounting and its caller adds it to its own.

    Memory note: a built tensor holds ``4 m^2`` bytes (``m / 8`` chunks x
    256 entries x ``m / 8`` image bytes), i.e. ~1 MiB per symbol at
    ``m = 512``.  Until a batch steps a symbol, the symbol costs only its
    packed rows, ``m^2 / 8`` bytes.
    """

    def __init__(self, nfa: NFA, index: Mapping[State, int]) -> None:
        #: Number of 64-bit blocks per state set (at least one).
        self.blocks = max(1, (len(index) + BLOCK_BITS - 1) // BLOCK_BITS)
        width = self.blocks * 8  # block-vector width in bytes
        self._chunks = width  # one 8-bit chunk per byte
        #: Symbol codes, positions in ``nfa.alphabet``: they index the
        #: relation rows and spell the walk's words.
        self._codes: Dict[Symbol, int] = {
            symbol: position for position, symbol in enumerate(nfa.alphabet)
        }
        # Per-symbol forward relations as packed rows: row ``j`` of symbol
        # code ``a`` holds the image of state ``j`` in block layout, and zero
        # rows pad the state count to whole chunks.
        code, source, target = np.array(
            [
                (self._codes[symbol], index[start], index[end])
                for start, symbol, end in nfa.transitions
            ],
            dtype=np.intp,
        ).reshape(-1, 3).T
        self._rows = np.zeros((len(self._codes), self._chunks * 8, width), dtype=np.uint8)
        bits = np.left_shift(1, target & 7).astype(np.uint8)
        np.bitwise_or.at(self._rows, (code, source, target >> 3), bits)
        #: Chunk-table tensors built so far, by symbol code.
        self._tensors: Dict[int, "np.ndarray"] = {}

        self._initial = self._blocks_of(1 << index[nfa.initial])
        accepting = 0
        for state in nfa.accepting:
            accepting |= 1 << index[state]
        #: Block vector of the accepting state set.
        self.accepting = self._blocks_of(accepting)

    def _blocks_of(self, mask: int) -> "np.ndarray":
        """The ``(1, blocks)`` block vector of an integer state mask."""
        return np.frombuffer(
            mask.to_bytes(self.blocks * 8, "little"), dtype=_BLOCK_DTYPE
        ).reshape(1, -1)

    def _tensor(self, code: int) -> "np.ndarray":
        """Flattened chunk-table tensor of symbol ``code``, built on first use.

        Row ``c * 256 + v`` is the packed image of the state set whose mask
        is ``v << 8c``; built incrementally (the image of ``v`` is the image
        of ``v`` without its lowest bit, OR the row of that bit), vectorised
        across all chunks at once.  Concurrent walks on a shared engine may
        race on one tensor: both build the same array, and whichever store
        lands last is as good as the other.
        """
        tensor = self._tensors.get(code)
        if tensor is not None:
            return tensor
        by_chunk = self._rows[code].view(_BLOCK_DTYPE).reshape(self._chunks, 8, self.blocks)
        tensor = np.zeros((self._chunks, 256, self.blocks), dtype=_BLOCK_DTYPE)
        for value in range(1, 256):
            low = value & -value
            tensor[:, value] = tensor[:, value ^ low] | by_chunk[:, low.bit_length() - 1]
        tensor = self._tensors[code] = tensor.reshape(self._chunks * 256, self.blocks)
        return tensor

    def _encode_batch(
        self, words: WordBatch
    ) -> Tuple["np.ndarray", "np.ndarray", int]:
        """``(codes, lengths, code count)`` of a batch, for :meth:`walk`.

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
            gathered = self._tensor(code)[(columns << 8) + chunk_bytes[rows, columns]]
            per_parent = np.count_nonzero(chunk_bytes, axis=1)
            children[group] = np.bitwise_or.reduceat(
                gathered, np.cumsum(per_parent) - per_parent, axis=0
            )
        return children

    def walk(
        self, words: WordBatch
    ) -> Tuple["np.ndarray", "np.ndarray", int, int]:
        """``(final, inverse, steps, saved)``: the trie walk of one batch.

        Word ``w`` ends in block vector ``final[inverse[w]]``.  The generic
        walk steps each distinct prefix with a live parent exactly once, in
        sorted order.  This walk visits the *same* trie nodes after one
        sort of the batch (:func:`_distinct_rows`), level by level over the
        distinct words only.  In sorted order a prefix's extensions sit
        side by side, so a level's children start wherever a row's parent
        node or symbol differs from the row before; :meth:`_step_children`
        steps them — a few NumPy calls per trie level and symbol, with no
        per-word Python.  ``steps`` counts the stepped trie nodes and
        ``saved`` the steps per-word simulation would have added, both
        exactly as the generic walk counts them: a word's clipped cost
        counts once per repeat.
        """
        codes, lengths, code_count = self._encode_batch(words)
        rows, multiplicity, inverse = _distinct_rows(codes, code_count)
        distinct, lengths = codes[rows], lengths[rows]

        final = np.zeros((len(rows), self.blocks), dtype=_BLOCK_DTYPE)
        # Level-0 trie: every word sits at the root, whose state set is the
        # (never empty) initial singleton.  ``node`` runs along ``active``.
        node_states = self._initial
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
            # returning the empty set (``final`` rows start empty).
            cost[active[~alive]] = level + 1
            active, node = active[alive], node[alive]
            level += 1
        return final, inverse, performed, int(cost @ multiplicity) - performed
