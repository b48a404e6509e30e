"""Algorithm 2 — the backward character-by-character sampling subroutine.

``sample(l, P^l, w, phi, beta, eta)`` draws a word from
``⋃_{q in P^l} L(q^l)``: at each level it estimates, for every alphabet
symbol ``b``, the size of the union of the ``b``-predecessor languages via
``AppUnion`` (Algorithm 1), picks the last unread character proportionally to
these estimates, prepends it to the suffix built so far, and recurses one
level down while dividing the acceptance probability ``phi`` by the chosen
branch probability.  At level 0 the accumulated word is returned with
probability ``phi`` (rejection step), which — conditioned on the internal
estimates being accurate — makes every word of the target language equally
likely to be output (Theorem 2, part 1) and bounds the failure probability by
``1 - 2/(3 e^2)`` (part 2).

The implementation is iterative (the recursion in the paper is a simple tail
recursion) and generalises from the binary alphabet to any fixed alphabet by
estimating one union per alphabet symbol.  One :meth:`SampleDraw.draw` call
runs a whole sampling batch of Algorithm 3: up to ``xns`` draws for one
``(q, l)``, stopped at the ``ns``-th accepted word.  A drawer keeps the
union estimates its batches derive, and the steps and jumps they weigh,
for its lifetime; one :class:`~repro.counting.fpras.NFACounter` run keeps
one drawer.  A level whose pick is certain (one symbol holds all the mass)
draws no randomness, so a batch whose start's slice holds one word is its
acceptance tests alone.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.automata.nfa import State, Symbol, Word
from repro.automata.unroll import UnrolledAutomaton
from repro.counting.params import FPRASParameters
from repro.counting.union import UnionPlan, approximate_union
from repro.errors import AutomatonError, ParameterError

StateLevel = Tuple[State, int]

#: Stamp of a step entry whose weights hold for the whole run.
_WHOLE_RUN = object()


def _nearest_branch(probabilities: Sequence[float], index: int) -> int:
    """The branch with mass nearest to ``index`` (lower one on a tie).

    >>> _nearest_branch((0.0, 0.0, 0.75, 0.25), 0), _nearest_branch((0.5, 0.5, 0.0), 2)
    (2, 1)
    """
    return min(
        (position for position, mass in enumerate(probabilities) if mass > 0.0),
        key=lambda position: abs(position - index),
    )


@dataclass
class SamplerStatistics:
    """Counters describing the work a :class:`SampleDraw` performed over all
    its :meth:`~SampleDraw.draw` calls."""

    draws: int = 0
    successes: int = 0
    failures_phi_overflow: int = 0
    failures_rejection: int = 0
    failures_no_mass: int = 0
    union_calls: int = 0
    union_cache_hits: int = 0
    membership_calls: int = 0

    @property
    def failures(self) -> int:
        return (
            self.failures_phi_overflow
            + self.failures_rejection
            + self.failures_no_mass
        )

    @property
    def acceptance_rate(self) -> float:
        if self.draws == 0:
            return 0.0
        return self.successes / self.draws


class StepTable:
    """The descent steps, jumps and union plans of one run, keyed on
    ``(level, state-set handle)``.

    ``levels[l][Q']`` is ``(stamp, branches, cumulative, total,
    probabilities, hits, forced)``: ``Pred(Q', b)`` per symbol, the
    running sums of the union estimates, their ``sum()``, each ``weight /
    total``, the number of non-empty branches that are multi-set unions
    (the ``union_cache_hits`` of a replay) and the index of the one branch
    a *forced* step always takes (-1 if the step is not forced);
    ``(None, branches)`` if no branch had mass.  ``shared`` interns
    whole-run entries, so the equal steps of a sparse chain are one object
    (see :class:`SampleDraw`).

    ``jumps[(l, Q')]`` is ``(stamp, skipped, landing, hits, symbols)``: a
    run of ``skipped >= 2`` forced steps headed by ``(l, Q')`` ends at
    handle ``landing`` on level ``l - skipped``, its replays count ``hits``
    union cache hits, and ``symbols[:skipped]`` are its symbols bottom-up.
    Jumps ending at the same landing share one ``symbols`` list, which a
    longer run extends in place, so a chain of ``n`` forced steps holds
    ``O(n)`` symbols however many heads it has.

    ``unions[(l, P)]`` is the :class:`~repro.counting.union.UnionPlan` of
    the union of ``L(p^l)`` over ``p in P``, shared by Algorithm 3's level
    estimates, the descent and the final estimate.  It holds for the whole
    run: AppUnion only ever runs over complete levels, and nothing rewrites
    a complete level's estimates or samples.
    """

    def __init__(self, length: int) -> None:
        self.levels: List[Dict[object, tuple]] = [{} for _ in range(length + 1)]
        self.shared: Dict[tuple, tuple] = {}
        self.jumps: Dict[Tuple[int, object], tuple] = {}
        self.unions: Dict[Tuple[int, object], UnionPlan] = {}
        # One key tuple per (state, level), shared by every plan naming it.
        self._keys: Dict[StateLevel, StateLevel] = {}

    def union_plan(
        self,
        level: int,
        handle: object,
        states: Sequence[State],
        estimates: Mapping[StateLevel, float],
        samples: Mapping[StateLevel, Sequence[Word]],
    ) -> UnionPlan:
        """The plan for ``handle`` at ``level`` over ``states`` (its decoded
        states in AppUnion order), built on first use.  Its keys are the
        state-table keys ``(state, level)``."""
        plan = self.unions.get((level, handle))
        if plan is None:
            interned = self._keys
            keys = tuple(
                interned.setdefault((state, level), (state, level)) for state in states
            )
            plan = self.unions[(level, handle)] = UnionPlan(
                [estimates.get(key, 0.0) for key in keys],
                [len(samples.get(key, ())) for key in keys],
                keys,
            )
        return plan


class SampleDraw:
    """Stateful wrapper around Algorithm 2.

    Parameters
    ----------
    unroll:
        The unrolled automaton (provides live states, predecessors and the
        membership oracles backing ``AppUnion``).
    estimates:
        The table ``N(q^l)`` built so far by Algorithm 3 (levels below the
        one being sampled must be present).
    samples:
        The table ``S(q^l)`` of stored sample multisets (same requirement).
    parameters:
        Accuracy / confidence / scaling configuration.
    rng:
        Randomness source shared with the main algorithm.
    steps:
        The run's :class:`StepTable`, shared by every drawer of one run; a
        fresh table when omitted.

    Notes
    -----
    One :meth:`draw` call is one sampling batch.  A drawer's *scope* is its
    lifetime: :class:`~repro.counting.fpras.NFACounter` builds one drawer
    per run and calls it once per ``(q, l)``, so a run is one scope, and
    each :class:`~repro.counting.uniform.UniformWordSampler` call builds a
    new drawer over the run's step table, a new scope.  When
    ``parameters.scale.reuse_union_estimates`` is set, AppUnion results of
    multi-set unions are memoised per ``(level, predecessor handle)`` for
    the scope; a one-set union is its stored size, a table read, and is
    never memoised.

    Each descent step ``(level, Q')`` is kept in the step table.  Its fan is
    structural, so it is derived once per run.  With
    ``reuse_union_estimates`` on, its weights hold for the whole run when
    every non-empty branch is a singleton, otherwise for the scope that
    derived them (the union memo fixes them there); with it off, never.
    Holding an estimate for a scope leaves the output uniform: a draw
    accepts its word with probability ``phi = gamma0 / P(path)``, so while
    ``phi <= 1`` every word of the slice is returned with probability
    ``gamma0``, whatever estimates weighed its path.  A replay consumes the
    same ``random()`` (none at a forced step) and divides ``phi`` by the
    same ``weight / total`` as a derivation.  ``union_cache_hits`` counts
    the multi-set union estimates a step took from the memo instead of
    AppUnion: a derivation counts each one it reads there, and a replay
    counts the multi-set branches whose estimates it stands for.  One-set
    branches count nothing, so a replay counts what deriving the step
    again on the same memo would.

    A *forced* step has one branch with ``weight / total == 1.0`` and all
    others at exactly 0.0: the pick is certain and ``phi`` is divided by
    1.0, so the walk takes the branch without a ``random()`` call.  A draw
    calls ``random()`` once per non-forced step, plus its derivations'
    union trials, plus one acceptance test unless ``phi`` overflows.  A run
    of two or more forced steps walked with no derivation between them is
    recorded in :attr:`StepTable.jumps`, extending the jump it ended in, so
    the next draw through its head crosses the whole run with one lookup.
    A jump is stamped like a step: whole-run if every step it skips is,
    else with the scope that built it.  Once the batch holds a valid jump
    from its start to level 0, the start's slice holds one word and each
    remaining draw is its acceptance test alone.  Words, ``phi``,
    generator states and :class:`SamplerStatistics` equal a step-by-step
    replay.

    The backward walk tracks the current state set as an opaque engine
    handle (an integer mask on the bitset backend), so one level of the walk
    costs a few word operations; handles are hashable and equality-stable
    across backends, which keeps the union-cache and step-table hit pattern
    — and therefore the RNG stream — identical on every backend.
    """

    def __init__(
        self,
        unroll: UnrolledAutomaton,
        estimates: Mapping[StateLevel, float],
        samples: Mapping[StateLevel, Sequence[Word]],
        parameters: FPRASParameters,
        rng: Optional[random.Random] = None,
        steps: Optional[StepTable] = None,
    ) -> None:
        self.unroll = unroll
        self.estimates = estimates
        self.samples = samples
        self.parameters = parameters
        self.rng = rng if rng is not None else random.Random()
        self.steps = steps if steps is not None else StepTable(unroll.length)
        self.statistics = SamplerStatistics()
        # The drawer's scope stamp for the steps and jumps it derives, and
        # its memo of multi-set union estimates.
        self._scope = object()
        self._union_cache: Dict[Tuple[int, object], float] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def draw(
        self,
        level: int,
        states: FrozenSet[State],
        gamma0: float,
        beta: float,
        eta: float,
        attempts: int = 1,
        needed: int = 1,
    ) -> List[Word]:
        """Up to ``attempts`` invocations of ``sample(level, states, lambda,
        gamma0, beta, eta)``, stopping once ``needed`` of them return a word.

        Returns the words drawn, in draw order.  A draw whose outcome is
        ``⊥`` (the acceptance probability overflowed 1, the final rejection
        step rejected, or no predecessor mass was available at some level)
        adds no word; :attr:`statistics` counts its cause.  Algorithm 3's
        sampling batch for ``(q, l)`` is one call with ``attempts=xns`` and
        ``needed=ns``.
        """
        if gamma0 <= 0:
            raise ParameterError("gamma0 must be positive")
        levels = self.steps.levels
        if not 0 <= level < len(levels):
            raise AutomatonError(
                f"level {level} outside the unrolling range [0, {len(levels) - 1}]"
            )
        eta_prime = eta / max(1, 4 * self.unroll.length)

        # The walk is the innermost loop of the whole FPRAS (every draw
        # descends ``level`` levels), so locals are bound once per call and
        # the word is built in reverse in a list (a tuple prepend would make
        # long words quadratic): ``reversed_word`` holds ``level -
        # current_level`` symbols.  Each non-forced level consumes one
        # ``random()`` for the symbol choice plus whatever a derivation's
        # union estimates consume; forced levels consume nothing.  The
        # counters are written to :attr:`statistics` once, also when a draw
        # raises: its replay hits so far count too.  ``scope`` is the stamp
        # of the steps and jumps this drawer derived.
        alphabet = self.unroll.nfa.alphabet
        last_index = len(alphabet) - 1
        rng_random = self.rng.random
        scope = self._scope
        jumps = self.steps.jumps
        start = self.unroll.engine.encode(states)
        head = (level, start)
        words: List[Word] = []
        draws = overflows = rejections = no_mass = cache_hits = 0
        try:
            while draws < attempts and len(words) < needed:
                jump = jumps.get(head)
                if jump is not None and jump[1] == level and (
                    jump[0] is scope or jump[0] is _WHOLE_RUN
                ):
                    # The start's slice holds one word: every draw left
                    # would cross this jump to level 0 and draw nothing
                    # before the acceptance test, so the test is all it is.
                    _, _, _, hits, symbols = jump
                    word = tuple(symbols[:level])
                    while draws < attempts and len(words) < needed:
                        draws += 1
                        cache_hits += hits
                        if gamma0 > 1.0:
                            overflows += 1
                        elif rng_random() < gamma0:
                            words.append(word)
                        else:
                            rejections += 1
                    break
                draws += 1
                phi = gamma0
                reversed_word: List[Symbol] = []
                current = start
                current_level = level
                # The forced steps walked since the last derivation, jump or
                # ordinary step, and the handle heading them.
                run: Optional[List[tuple]] = None
                run_head: object = None
                while current_level:
                    entry = levels[current_level].get(current)
                    if entry is None or (entry[0] is not scope and entry[0] is not _WHOLE_RUN):
                        if run is not None:
                            self._settle(current_level, run_head, run, reversed_word, current)
                            run = None
                        entry = self._derive_step(current, current_level, entry, beta, eta_prime)
                        if entry is None:
                            no_mass += 1
                            break
                        forced = entry[6]
                    else:
                        forced = entry[6]
                        if forced >= 0:
                            jump = jumps.get((current_level, current))
                            if jump is not None and (jump[0] is scope or jump[0] is _WHOLE_RUN):
                                if run is not None:
                                    self._record_jump(
                                        current_level, run_head, run, reversed_word, jump
                                    )
                                    run = None
                                _, skipped, current, hits, symbols = jump
                                cache_hits += hits
                                reversed_word.extend(symbols[skipped - 1::-1])
                                current_level -= skipped
                                continue
                        cache_hits += entry[5]
                    if forced >= 0:
                        if run is None:
                            run_head = current
                            run = [entry]
                        else:
                            run.append(entry)
                        reversed_word.append(alphabet[forced])
                        current = entry[1][forced]
                        current_level -= 1
                        continue
                    if run is not None:
                        self._settle(current_level, run_head, run, reversed_word, current)
                        run = None
                    _, branches, cumulative, total, probabilities, _, _ = entry
                    # The first running sum >= point is where a linear ``point
                    # <= running`` scan stops; past the last one (``sum()`` may
                    # round above it) that scan fell through to the last symbol.
                    index = bisect_left(cumulative, rng_random() * total)
                    if index > last_index:
                        index = last_index
                    try:
                        phi /= probabilities[index]
                    except ZeroDivisionError:
                        # Only an edge branch can be hit empty: a point of
                        # exactly 0.0 bisects onto an empty first branch, and
                        # the clamp above can land on an empty last one.
                        index = _nearest_branch(probabilities, index)
                        phi /= probabilities[index]
                    reversed_word.append(alphabet[index])
                    current = branches[index]
                    current_level -= 1
                else:
                    # Base case (level 0), reached unless a step had no mass.
                    if run is not None:
                        self._settle(0, run_head, run, reversed_word, current)
                    if phi > 1.0:
                        overflows += 1
                    elif rng_random() < phi:
                        reversed_word.reverse()
                        words.append(tuple(reversed_word))
                    else:
                        rejections += 1
        finally:
            statistics = self.statistics
            statistics.draws += draws
            statistics.successes += len(words)
            statistics.failures_phi_overflow += overflows
            statistics.failures_rejection += rejections
            statistics.failures_no_mass += no_mass
            statistics.union_cache_hits += cache_hits
        return words

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _settle(
        self,
        level: int,
        head: object,
        run: List[tuple],
        reversed_word: List[Symbol],
        landing: object,
    ) -> None:
        """Record the forced ``run``, walked from handle ``head``, that ended
        at handle ``landing`` on ``level``.

        A jump over one step would save nothing.
        """
        if len(run) > 1:
            self._record_jump(
                level, head, run, reversed_word, (_WHOLE_RUN, 0, landing, 0, [])
            )

    def _record_jump(
        self,
        level: int,
        head: object,
        run: List[tuple],
        reversed_word: List[Symbol],
        tail: tuple,
    ) -> None:
        """Store the jump over the forced steps ``run``, walked from handle
        ``head`` down to ``level``, and over the jump ``tail`` they ended in.

        A run that ended at a handle ``landing`` instead passes the empty
        jump ``(_WHOLE_RUN, 0, landing, 0, [])``.  The run's symbols are the
        last ``len(run)`` of ``reversed_word``.  Nothing is stored when the
        steps are re-derived on every visit.
        """
        stamp, tail_skipped, landing, hits, symbols = tail
        for entry in run:
            if entry[0] is not _WHOLE_RUN:
                stamp = entry[0]
            hits += entry[5]
        if stamp is None:
            return
        if len(symbols) != tail_skipped:
            # A longer run already extends the list: copy where they part.
            symbols = symbols[:tail_skipped]
        symbols.extend(reversed_word[: -len(run) - 1 : -1])
        self.steps.jumps[(level + len(run), head)] = (
            stamp,
            len(run) + tail_skipped,
            landing,
            hits,
            symbols,
        )

    def _derive_step(
        self,
        current: object,
        level: int,
        stale: Optional[tuple],
        beta: float,
        eta_prime: float,
    ) -> Optional[tuple]:
        """Weigh every branch of step ``(level, current)`` and store the entry.

        ``stale`` is the step's earlier entry, whose fan is reused.  An entry
        whose weights hold only within the drawer's scope is stamped with
        it.  Returns ``None`` when no branch has mass.
        """
        engine = self.unroll.engine
        if stale is None:
            branches = tuple(self.unroll.predecessor_fan(current, level))
        else:
            branches = stale[1]
        reuse = self.parameters.scale.reuse_union_estimates
        weights: List[float] = []
        hits = 0
        for predecessors in branches:
            if engine.is_empty(predecessors):
                weights.append(0.0)
                continue
            weights.append(self._estimate_union(predecessors, level - 1, beta, eta_prime))
            if reuse and engine.count(predecessors) != 1:
                hits += 1
        total = sum(weights)
        steps = self.steps
        if total <= 0.0:
            steps.levels[level][current] = (None, branches)
            return None
        probabilities = tuple(weight / total for weight in weights)
        whole_run = reuse and not hits
        entry = (
            _WHOLE_RUN if whole_run else self._scope if reuse else None,
            branches,
            tuple(accumulate(weights)),
            total,
            probabilities,
            hits,
            # Forced: one branch has probability exactly 1.0 and every other
            # exactly 0.0.  An ``inf`` or ``nan`` weight makes ``nan``, not 1.0.
            probabilities.index(1.0)
            if 1.0 in probabilities and probabilities.count(0.0) == len(probabilities) - 1
            else -1,
        )
        if whole_run:
            entry = steps.shared.setdefault(entry, entry)
        steps.levels[level][current] = entry
        return entry

    def _estimate_union(
        self,
        predecessors: object,
        level: int,
        beta: float,
        eta_prime: float,
    ) -> float:
        """``AppUnion`` over ``{L(p^level) : p in predecessors}``.

        ``predecessors`` is an engine handle; it doubles as the key of the
        scope's memo (handles are hashable and equality matches set
        equality).  A one-set union is its stored size estimate, read with
        no plan, trials, RNG draws, memo entry or counter increments (as in
        :meth:`~repro.counting.fpras.NFACounter._estimate_state`).  The
        size slack ``beta_prime = (1 + beta)^level - 1`` is derived here,
        on the path that actually runs AppUnion — cache hits and singletons
        never need it, which keeps the descent free of a ``pow`` per level.
        """
        cache_key = (level, predecessors)
        reuse = self.parameters.scale.reuse_union_estimates
        if reuse:
            cached = self._union_cache.get(cache_key)
            if cached is not None:
                self.statistics.union_cache_hits += 1
                return cached

        plan = self.steps.unions.get(cache_key)
        if plan is None:
            states = self.unroll.engine.decode(predecessors)
            if len(states) == 1:
                (only,) = states
                return max(0.0, float(self.estimates.get((only, level), 0.0)))
            plan = self.steps.union_plan(
                level,
                predecessors,
                sorted(states, key=repr),
                self.estimates,
                self.samples,
            )
        beta_prime = (1.0 + beta) ** level - 1.0
        result = approximate_union(
            plan,
            epsilon=beta,
            delta=eta_prime,
            size_slack=beta_prime,
            parameters=self.parameters,
            rng=self.rng,
            coverage_batch=self.unroll.coverage_batch(predecessors),
            samples=self.samples,
        )
        self.statistics.union_calls += 1
        self.statistics.membership_calls += result.membership_calls
        if reuse:
            self._union_cache[cache_key] = result.estimate
        return result.estimate
