"""The unrolled automaton and its membership oracles.

Algorithm 3 of the paper first unrolls the input NFA ``A`` into an acyclic
layered graph ``A_unroll`` with ``n + 1`` copies of every state, then runs a
dynamic program over the layers.  :class:`UnrolledAutomaton` captures exactly
the structure the algorithms need:

* the set of *live* states per level (states ``q`` with ``L(q^l)`` non-empty
  — the paper assumes all states of the unrolling are reachable);
* the predecessor sets ``Pred(q, b)`` restricted to live states;
* membership oracles "is word ``w`` in ``L(q^|w|)``" and "is ``w`` in
  ``⋃_{q in P} L(q^|w|)``", implemented by simulating the original NFA and
  memoising the reachable-state set per word.  This memoisation realises the
  paper's amortisation argument lazily: the paper precomputes the reachable
  set of every stored sample, while here a sample's set is computed the
  first time an oracle asks about it.  With an unbounded cache (the dict
  store's) each sample is simulated at most once, so each oracle call is
  O(1) afterwards, and samples no oracle asks about cost nothing.  A
  bounded cache (the windowed store's ``max_words`` / ``prefix_limit`` /
  ``max_symbols``) may flush a sample's set, and a later call simulates
  it again.

All simulation is delegated to a pluggable :class:`repro.automata.engine
.Engine`: the default bitset backend turns every step into a handful of
word-sized integer operations, while the frozenset reference backend keeps
the original semantics available for differential testing.  Handle-returning
methods (``reachable_handle``, ``live_handle``, ``predecessor_handle``) are
the hot-path API used by the counting layer, and every backend answers them
through the same per-handle engine calls; the frozenset-returning methods
remain for compatibility and convenience.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.automata.engine import Engine, acquire_engine
from repro.automata.nfa import NFA, State, Symbol, Word, as_word
from repro.errors import AutomatonError


@dataclass
class ReachabilityCache:
    """Memoises, per word, the set of NFA states reachable on that word.

    The cache is keyed by the word tuple and stores engine handles.  Prefix
    sharing is exploited by storing every prefix encountered while simulating
    a new word, so the incremental cost of caching a word that extends an
    already-cached one is a single simulation step.
    :meth:`reachable_handle_batch` answers a whole multiset at once —
    duplicates cost one dictionary probe and fresh words are materialised in
    sorted order so they extend each other's prefixes through the cache.

    The engine is acquired through the shared
    :class:`~repro.automata.engine.EngineRegistry` unless ``use_engine_cache``
    is ``False`` (or an explicit ``engine`` is supplied), so several caches
    over the same automaton share one set of transition tables.
    """

    nfa: NFA
    backend: Optional[str] = None
    engine: Optional[Engine] = None
    use_engine_cache: bool = True
    #: Optional bound on cached words: when set, the cache is flushed back
    #: to the empty word whenever it exceeds this many entries (keeping the
    #: word just materialised).  ``None`` (the default) is the historical
    #: unbounded behaviour, bit-identical including ``simulated_steps``.
    max_words: Optional[int] = None
    #: Optional bound on prefix caching: words longer than this skip
    #: caching their intermediate prefixes (only the full word is stored).
    #: Long-word streaming runs use it to keep one cached word O(word)
    #: instead of O(word^2).  ``None`` (the default) caches every prefix,
    #: the historical behaviour.  Both bounds only shift engine-level
    #: diagnostics (``simulated_steps``, ``cache_words``); oracle answers
    #: are unchanged.
    prefix_limit: Optional[int] = None
    #: Optional budget on the *total symbols* held by cached words.  A
    #: ``max_words`` bound alone still lets 64 words of length 20k pin
    #: megabytes; this budget flushes (same mechanics as ``max_words``,
    #: keeping the word just materialised so incremental prefix chains
    #: survive the flush) once the cached words jointly exceed it.
    #: ``None`` (the default) is unbounded, the historical behaviour.
    max_symbols: Optional[int] = None

    def __post_init__(self) -> None:
        self.engine_cache_hit = False
        if self.engine is None:
            self.engine, self.engine_cache_hit = acquire_engine(
                self.nfa, self.backend, use_cache=self.use_engine_cache
            )
        self.backend = self.engine.name
        self._cache: Dict[Word, object] = {(): self.engine.initial}
        self.lookups = 0
        self.simulated_steps = 0
        self.batch_lookups = 0
        self.batch_words = 0
        self.batch_hits = 0
        self.cache_flushes = 0
        self._cached_symbols = 0

    def _materialise(self, word: Word) -> object:
        """Handle for ``word``, extending the longest cached prefix."""
        cache = self._cache
        cached = cache.get(word)
        if cached is not None:
            return cached
        engine = self.engine
        prefix_length = len(word) - 1
        while prefix_length > 0 and word[:prefix_length] not in cache:
            prefix_length -= 1
        current = cache[word[:prefix_length]]
        store_prefixes = self.prefix_limit is None or len(word) <= self.prefix_limit
        last = len(word) - 1
        for position in range(prefix_length, len(word)):
            current = engine.step(current, word[position])
            self.simulated_steps += 1
            if store_prefixes or position == last:
                cache[word[: position + 1]] = current
                self._cached_symbols += position + 1
        if (self.max_words is not None and len(cache) > self.max_words) or (
            self.max_symbols is not None
            and self._cached_symbols > self.max_symbols
        ):
            cache.clear()
            cache[()] = engine.initial
            cache[word] = current
            self._cached_symbols = len(word)
            self.cache_flushes += 1
        return current

    def reachable_handle(self, word: "str | Word") -> object:
        """Engine handle of the states reachable on ``word`` (hot path)."""
        word = as_word(word)
        self.lookups += 1
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        return self._materialise(word)

    def reachable_handle_batch(
        self, words: Sequence["str | Word"]
    ) -> List[object]:
        """Handles for a whole multiset of words, in input order.

        Cached words (a stored sample an earlier oracle call resolved, or a
        prefix of one) cost one dictionary probe each; the remaining
        distinct words are materialised in sorted order, so a fresh word
        extends the prefixes just cached by its predecessors.  The
        ``lookups`` / ``simulated_steps`` accounting is identical to
        looping over :meth:`reachable_handle` — the cache stores every
        prefix, making the total step count order-independent.
        """
        normalized = [
            word if type(word) is tuple else as_word(word) for word in words
        ]
        self.lookups += len(normalized)
        self.batch_lookups += 1
        self.batch_words += len(normalized)
        cache = self._cache
        results: List[object] = [None] * len(normalized)
        missing: List[int] = []
        for position, word in enumerate(normalized):
            handle = cache.get(word)
            if handle is None:
                missing.append(position)
            else:
                self.batch_hits += 1
                results[position] = handle
        for position in sorted(missing, key=normalized.__getitem__):
            results[position] = self._materialise(normalized[position])
        return results

    def reachable(self, word: "str | Word") -> FrozenSet[State]:
        """Return the set of states reachable from the initial state on ``word``."""
        return self.engine.decode(self.reachable_handle(word))

    def contains(self, state: State, word: "str | Word") -> bool:
        """Whether ``word`` belongs to ``L(state^{|word|})``."""
        return self.engine.contains(self.reachable_handle(word), state)

    def contains_any(self, states: Iterable[State], word: "str | Word") -> bool:
        """Whether ``word`` belongs to ``⋃_{q in states} L(q^{|word|})``."""
        handle = self.reachable_handle(word)
        engine = self.engine
        return any(engine.contains(handle, state) for state in states)

    def __len__(self) -> int:
        return len(self._cache)


class UnrolledAutomaton:
    """The layered DAG ``A_unroll`` for a given NFA and maximum length ``n``.

    Parameters
    ----------
    nfa:
        The input automaton ``A``.
    length:
        The word length ``n`` (number of layers beyond layer 0).
    backend:
        Simulation backend name (``"bitset"`` / ``"reference"``); ``None``
        selects the default backend.  Ignored when ``engine`` is given.
    engine:
        An existing :class:`Engine` for ``nfa`` to share.
    use_engine_cache:
        When ``True`` (the default) the engine is acquired from the shared
        :class:`~repro.automata.engine.EngineRegistry`, so unrollings of the
        same automaton reuse one set of transition tables; ``False`` builds
        a private engine (the CLI's ``--no-engine-cache``).

    Notes
    -----
    States of the unrolling are pairs ``(q, l)`` conceptually; the class
    never materialises them explicitly — it exposes the per-level live state
    sets and predecessor queries, which is all the FPRAS needs.

    Because engines may be shared, the instance snapshots the engine's work
    counters at construction; :meth:`engine_counters` reports the delta, i.e.
    the work attributable to this unrolling (exact when instances do not
    interleave engine use, which is the case for sequential FPRAS runs).
    """

    def __init__(
        self,
        nfa: NFA,
        length: int,
        backend: Optional[str] = None,
        engine: Optional[Engine] = None,
        use_engine_cache: bool = True,
        cache_max_words: Optional[int] = None,
        cache_prefix_limit: Optional[int] = None,
        cache_max_symbols: Optional[int] = None,
    ) -> None:
        if length < 0:
            raise AutomatonError("unrolling length must be non-negative")
        self.nfa = nfa
        self.length = length
        if engine is not None:
            self.engine = engine
            self.engine_cache_hit = False
        else:
            self.engine, self.engine_cache_hit = acquire_engine(
                nfa, backend, use_cache=use_engine_cache
            )
        self.backend = self.engine.name
        self._counter_base: Dict[str, int] = dict(self.engine.counters())
        self.cache = ReachabilityCache(
            nfa,
            engine=self.engine,
            max_words=cache_max_words,
            prefix_limit=cache_prefix_limit,
            max_symbols=cache_max_symbols,
        )
        self._live_handles: List[object] = self._compute_live_handles()
        # Live-set frozensets are decoded lazily: eager decoding cost
        # O(n * m) up front even for runs that only ever touch handles, and
        # for n in the tens of thousands it dominated construction time.
        # ``live_states`` memoises per level, so the decoded view is still
        # paid for at most once per level.
        self._live_sets: List[Optional[FrozenSet[State]]] = [None] * (
            length + 1
        )
        # Latest witness per state (bounded: one entry per NFA state).  The
        # backward witness walk is deterministic, so a memoised word for
        # ``(state, level)`` is exactly what re-walking would produce.
        self._witness_memo: Dict[State, Tuple[int, Word]] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def _compute_live_handles(self) -> List[object]:
        """Level-by-level forward reachability: live(l) = {q : L(q^l) != {}}."""
        engine = self.engine
        levels: List[object] = [engine.initial]
        for _ in range(self.length):
            levels.append(engine.step_all(levels[-1]))
        return levels

    def live_states(self, level: int) -> FrozenSet[State]:
        """States ``q`` whose language slice ``L(q^level)`` is non-empty.

        Decoded from the level's handle on first use and memoised; hot
        paths work on handles and may never trigger the decode at all.
        """
        self._check_level(level)
        decoded = self._live_sets[level]
        if decoded is None:
            decoded = self.engine.decode(self._live_handles[level])
            self._live_sets[level] = decoded
        return decoded

    def live_handle(self, level: int) -> object:
        """Engine handle of :meth:`live_states` (hot-path variant)."""
        self._check_level(level)
        return self._live_handles[level]

    def is_live(self, state: State, level: int) -> bool:
        """Whether ``L(state^level)`` is non-empty."""
        self._check_level(level)
        return self.engine.contains(self._live_handles[level], state)

    def predecessors(self, state: State, symbol: Symbol, level: int) -> FrozenSet[State]:
        """``Pred(q, b)`` restricted to states live at ``level - 1``.

        Restricting to live predecessors is sound — dead predecessors
        contribute empty languages to the union — and keeps the number of
        sets passed to AppUnion as small as possible.
        """
        self._check_level(level)
        if level == 0:
            return frozenset()
        return self.nfa.predecessors(state, symbol) & self.live_states(level - 1)

    def predecessor_handle(self, handle: object, symbol: Symbol, level: int) -> object:
        """``Pred(Q', b)`` of a handle, restricted to live states (hot path)."""
        self._check_level(level)
        engine = self.engine
        if level == 0:
            return engine.empty
        return engine.intersect(
            engine.pre(handle, symbol), self._live_handles[level - 1]
        )

    def predecessor_fan(self, handle: object, level: int) -> List[object]:
        """``Pred(Q', b)`` of a handle for every alphabet symbol, in order.

        The backward sampler queries all symbols of one frontier handle at
        each level: one :meth:`predecessor_handle` answer per symbol,
        sharing the level check and the live-state lookup.
        """
        self._check_level(level)
        engine = self.engine
        alphabet = self.nfa.alphabet
        if level == 0:
            return [engine.empty for _ in alphabet]
        live = self._live_handles[level - 1]
        return [engine.intersect(engine.pre(handle, symbol), live) for symbol in alphabet]

    def predecessors_of_set(
        self, states: Iterable[State], symbol: Symbol, level: int
    ) -> FrozenSet[State]:
        """Union of ``Pred(q, b)`` over ``q`` in ``states`` (live only)."""
        handle = self.predecessor_handle(self.engine.encode(states), symbol, level)
        return self.engine.decode(handle)

    def accepting_live_states(self) -> FrozenSet[State]:
        """Accepting states live at the final level ``n``."""
        return self.live_states(self.length) & self.nfa.accepting

    # ------------------------------------------------------------------
    # Membership oracles
    # ------------------------------------------------------------------
    def member(self, state: State, word: "str | Word") -> bool:
        """Oracle: is ``word`` in ``L(state^{|word|})``?"""
        return self.cache.contains(state, word)

    def member_of_union(self, states: Iterable[State], word: "str | Word") -> bool:
        """Oracle: is ``word`` in ``⋃_{q in states} L(q^{|word|})``?"""
        return self.cache.contains_any(states, word)

    def membership_oracle(self, state: State):
        """A zero-argument-closure style oracle for a single unrolled state.

        Returned callables have the signature ``oracle(word) -> bool`` and
        are what :func:`repro.counting.union.approximate_union` consumes.
        """

        def oracle(word: "str | Word") -> bool:
            return self.member(state, word)

        return oracle

    def coverage_batch(
        self, union: object
    ) -> Callable[[Sequence["str | Word"]], List[int]]:
        """AppUnion's coverage counts over the states of the handle ``union``.

        Returns ``cover(words)``: per word, how many states ``q`` of
        ``union`` have the word in ``L(q^{|word|})``.  One
        :meth:`ReachabilityCache.reachable_handle_batch` pass resolves every
        word's handle, and each count is one intersect-and-count against
        ``union`` (on the bitset backend ``(handle & union).bit_count()``).
        """
        engine = self.engine
        reachable_handle_batch = self.cache.reachable_handle_batch

        def cover(words: Sequence["str | Word"]) -> List[int]:
            return [
                engine.count(engine.intersect(handle, union))
                for handle in reachable_handle_batch(words)
            ]

        return cover

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def witness(self, state: State, level: int) -> Optional[Word]:
        """One word of ``L(state^level)``, or ``None`` if the slice is empty.

        Used by Algorithm 3's padding step.  Found by walking backwards from
        ``(state, level)`` through live predecessor layers.  Because the walk
        is deterministic (smallest live predecessor by ``repr``, first
        matching symbol), each state's latest witness is memoised and the
        walk short-circuits when it reaches a state whose memoised witness is
        at the current level — the remaining descent would reproduce exactly
        that word.  The memo holds one entry per NFA state, so it is bounded
        by ``m`` regardless of the unrolling length.
        """
        self._check_level(level)
        if not self.is_live(state, level):
            return None
        memo = self._witness_memo
        suffix: List[Symbol] = []
        current = state
        word: Optional[Word] = None
        for current_level in range(level, 0, -1):
            hit = memo.get(current)
            if hit is not None and hit[0] == current_level:
                suffix.reverse()
                word = hit[1] + tuple(suffix)
                break
            step_found = False
            for symbol in self.nfa.alphabet:
                candidates = self.predecessors(current, symbol, current_level)
                if candidates:
                    chosen = sorted(candidates, key=repr)[0]
                    suffix.append(symbol)
                    current = chosen
                    step_found = True
                    break
            if not step_found:  # pragma: no cover - liveness guarantees a predecessor
                return None
        if word is None:
            suffix.reverse()
            word = tuple(suffix)
        memo[state] = (level, word)
        return word

    def slice_size_upper_bound(self, level: int) -> int:
        """Trivial upper bound ``|alphabet|^level`` used for sanity checks."""
        return len(self.nfa.alphabet) ** level

    def engine_counters(self) -> Dict[str, int]:
        """Mask-level work counters for diagnostics / benchmark reporting.

        Engine-level counts (``step_ops``, ``pre_ops``, ``decode_ops`` and
        the ``batch_*`` family) are reported relative to the snapshot taken
        at construction, so a shared registry engine still yields per-run
        numbers.  Cache-level counts (``cache_*``, ``simulated_steps``) are
        per-instance already.  ``engine_cache_hit`` records whether the
        engine came out of the shared registry (1) or was freshly built (0).
        """
        snapshot = self.engine.counters()
        counters = {
            key: value - self._counter_base.get(key, 0)
            for key, value in snapshot.items()
        }
        counters["cache_words"] = len(self.cache)
        counters["cache_lookups"] = self.cache.lookups
        counters["simulated_steps"] = self.cache.simulated_steps
        counters["cache_batch_lookups"] = self.cache.batch_lookups
        counters["cache_batch_words"] = self.cache.batch_words
        counters["cache_batch_hits"] = self.cache.batch_hits
        counters["cache_flushes"] = self.cache.cache_flushes
        counters["engine_cache_hit"] = int(self.engine_cache_hit)
        return counters

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.length:
            raise AutomatonError(
                f"level {level} outside the unrolling range [0, {self.length}]"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UnrolledAutomaton(states={self.nfa.num_states}, length={self.length}, "
            f"backend={self.backend!r})"
        )
