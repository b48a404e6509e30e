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
estimating one union per alphabet symbol.
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
    """Counters describing the work one :class:`SampleDraw` instance performed."""

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
    """The descent steps and union plans of one run, keyed on
    ``(level, state-set handle)``.

    ``levels[l][Q']`` is ``(stamp, branches, cumulative, total,
    probabilities, nonempty)``: ``Pred(Q', b)`` per symbol, the running sums
    of the union estimates, their ``sum()``, each ``weight / total`` and the
    number of non-empty branches; ``(None, branches)`` if no branch had mass.
    ``shared`` interns whole-run entries, so the equal steps of a sparse
    chain are one object (see :class:`SampleDraw`).

    ``unions[(l, P)]`` is the :class:`~repro.counting.union.UnionPlan` of
    the union of ``L(p^l)`` over ``p in P``, shared by Algorithm 3's level
    estimates, the descent and the final estimate.  It holds for the whole
    run: AppUnion only ever runs over complete levels, and nothing rewrites
    a complete level's estimates or samples.
    """

    def __init__(self, length: int) -> None:
        self.levels: List[Dict[object, tuple]] = [{} for _ in range(length + 1)]
        self.shared: Dict[tuple, tuple] = {}
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
        The run's :class:`StepTable`, shared by every per-batch instance of
        one run; a fresh table when omitted.

    Notes
    -----
    When ``parameters.scale.reuse_union_estimates`` is set, AppUnion results
    are memoised per ``(level, predecessor-set, symbol)`` for the lifetime of
    the instance; Algorithm 3 creates a fresh instance (or calls
    :meth:`clear_cache`) per sampling batch so estimates are never reused
    across batches.

    Each descent step ``(level, Q')`` is kept in the step table.  Its fan is
    structural, so it is derived once per run.  Its weights hold for the
    whole run when every non-empty branch is a singleton answered by
    ``singleton_union_exact``, otherwise within the batch that derived them
    (the union cache fixes them there), and never with
    ``reuse_union_estimates`` off.  A replay consumes the one ``random()``
    and divides ``phi`` by the same ``weight / total`` as a derivation, so
    only ``union_cache_hits`` tells them apart: a replay counts one hit per
    non-empty branch, as the cached estimates it stands for would have.

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
        self._union_cache: Dict[Tuple[int, object], float] = {}
        # Stamp of the step entries this batch derives.
        self._batch = object()

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
    ) -> Optional[Word]:
        """One invocation of ``sample(level, states, lambda, gamma0, beta, eta)``.

        Returns the sampled word, or ``None`` for the ``⊥`` outcome (either
        the acceptance probability overflowed 1, the final rejection step
        rejected, or no predecessor mass was available at some level).
        """
        if gamma0 <= 0:
            raise ParameterError("gamma0 must be positive")
        levels = self.steps.levels
        if level >= len(levels):
            raise AutomatonError(
                f"level {level} outside the unrolling range [0, {len(levels) - 1}]"
            )
        self.statistics.draws += 1
        eta_prime = eta / max(1, 4 * self.unroll.length)

        # The walk is the innermost loop of the whole FPRAS (every draw
        # descends ``level`` levels), so locals are hoisted and the word is
        # built in reverse in a list (a tuple prepend would make long words
        # quadratic).  Each level consumes one ``random()`` for the symbol
        # choice plus whatever a derivation's union estimates consume.
        alphabet = self.unroll.nfa.alphabet
        last_index = len(alphabet) - 1
        statistics = self.statistics
        rng_random = self.rng.random
        batch = self._batch
        phi = gamma0
        reversed_word: List[Symbol] = []
        current = self.unroll.engine.encode(states)
        for current_level in range(level, 0, -1):
            entry = levels[current_level].get(current)
            if entry is None or (entry[0] is not batch and entry[0] is not _WHOLE_RUN):
                entry = self._derive_step(current, current_level, entry, beta, eta_prime)
                if entry is None:
                    statistics.failures_no_mass += 1
                    return None
            else:
                statistics.union_cache_hits += entry[5]
            _, branches, cumulative, total, probabilities, _ = entry
            # The first running sum >= point is where a linear ``point <=
            # running`` scan stops; past the last one (``sum()`` may round
            # above it) that scan fell through to the last symbol.
            index = bisect_left(cumulative, rng_random() * total)
            if index > last_index:
                index = last_index
            try:
                phi /= probabilities[index]
            except ZeroDivisionError:
                # Only an edge branch can be hit empty: a point of exactly
                # 0.0 bisects onto an empty first branch, and the clamp
                # above can land on an empty last one.
                index = _nearest_branch(probabilities, index)
                phi /= probabilities[index]
            reversed_word.append(alphabet[index])
            current = branches[index]

        # Base case (level 0).
        if phi > 1.0:
            self.statistics.failures_phi_overflow += 1
            return None
        if self.rng.random() < phi:
            self.statistics.successes += 1
            reversed_word.reverse()
            return tuple(reversed_word)
        self.statistics.failures_rejection += 1
        return None

    def clear_cache(self) -> None:
        """Start a new sampling batch: forget the memoised union estimates
        and the step weights derived from them."""
        self._union_cache.clear()
        self._batch = object()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _derive_step(
        self,
        current: object,
        level: int,
        stale: Optional[tuple],
        beta: float,
        eta_prime: float,
    ) -> Optional[tuple]:
        """Weigh every branch of step ``(level, current)`` and store the entry.

        ``stale`` is the step's earlier entry, whose fan is reused.  Returns
        ``None`` when no branch has mass.
        """
        engine = self.unroll.engine
        scale = self.parameters.scale
        if stale is None:
            branches = tuple(self.unroll.predecessor_fan(current, level))
        else:
            branches = stale[1]
        reuse = scale.reuse_union_estimates
        whole_run = reuse and scale.singleton_union_exact
        weights: List[float] = []
        nonempty = 0
        for predecessors in branches:
            if engine.is_empty(predecessors):
                weights.append(0.0)
                continue
            nonempty += 1
            weights.append(
                self._estimate_union(predecessors, level - 1, beta, eta_prime)
            )
            if whole_run and engine.count(predecessors) != 1:
                whole_run = False
        total = sum(weights)
        steps = self.steps
        if total <= 0.0:
            steps.levels[level][current] = (None, branches)
            return None
        entry = (
            _WHOLE_RUN if whole_run else self._batch if reuse else None,
            branches,
            tuple(accumulate(weights)),
            total,
            tuple(weight / total for weight in weights),
            nonempty,
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

        ``predecessors`` is an engine handle; it doubles as the memoisation
        key (handles are hashable and equality matches set equality).  The
        size slack ``beta_prime = (1 + beta)^level - 1`` is derived here,
        on the paths that actually run AppUnion — cache hits and the
        singleton shortcut never need it, which keeps the descent free of a
        ``pow`` per level.
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
            ordered = sorted(self.unroll.engine.decode(predecessors), key=repr)
            if self.parameters.scale.singleton_union_exact and len(ordered) == 1:
                # Value-exact shortcut (see ParameterScale.singleton_union_exact):
                # a one-set union estimate is exactly the stored size estimate.
                # No trials run, so no RNG, sample reads or union/membership
                # counter increments happen on this path.
                estimate = max(
                    0.0, float(self.estimates.get((ordered[0], level), 0.0))
                )
                if reuse:
                    self._union_cache[cache_key] = estimate
                return estimate
            plan = self.steps.union_plan(
                level, predecessors, ordered, self.estimates, self.samples
            )
        else:
            ordered = [state for state, _ in plan.keys]
        beta_prime = (1.0 + beta) ** level - 1.0
        result = approximate_union(
            plan,
            epsilon=beta,
            delta=eta_prime,
            size_slack=beta_prime,
            parameters=self.parameters,
            rng=self.rng,
            first_containing_batch=self.unroll.first_containing_batch(ordered),
            samples=self.samples,
        )
        self.statistics.union_calls += 1
        self.statistics.membership_calls += result.membership_calls
        if reuse:
            self._union_cache[cache_key] = result.estimate
        return result.estimate
