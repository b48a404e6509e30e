"""Algorithm 1 — ``AppUnion``: Monte-Carlo estimation of a union of sets.

Given sets ``T_1 .. T_k``, each presented by a membership oracle, a multiset
of (near-uniform) samples and a size estimate, the estimator approximates
``|T_1 ∪ … ∪ T_k|``.  It is the Karp–Luby union estimator: a trial samples a
set index ``i`` proportionally to its size estimate, draws an element
``sigma`` from the stored samples of ``T_i``, and scores ``1 / c(sigma)``,
where ``c(sigma)`` is the number of the union's sets that contain ``sigma``
(the coverage score of Karp, Luby and Madras, "Monte-Carlo approximation
algorithms for enumeration problems", J. Algorithms 1989).  The mean score,
multiplied by the sum of the size estimates, estimates the union size; the
Theorem 1 argument for this score is in ``docs/architecture.md``.

The implementation mirrors the pseudo-code closely while exposing the knobs
needed for experiments:

* the number of trials follows the paper's formula, optionally capped by the
  :class:`~repro.counting.params.ParameterScale`;
* a trial's stored sample is drawn uniformly, with replacement (scaled
  default), or dequeued in order and destructively ("paper", Algorithm 1
  lines 7-8);
* every call returns a :class:`UnionEstimate` carrying diagnostics
  (membership calls, score sum, exhaustion) used by the benchmarks.

Everything about a union that does not depend on the call's randomness lives
in a :class:`UnionPlan`: the clamped sizes, their sums, ``m_hat``, and per
set and stored-sample position the memoised coverage count of that sample,
resolved the first time a trial draws it.  The FPRAS keeps one plan per
``(level, predecessor set)`` for a whole run (see
:class:`repro.counting.sampler.StepTable`), so a repeated union pays only its
random draws — two ``random()`` calls per trial — plus the counts no earlier
call has needed.  A list of :class:`SetAccess` is a one-shot plan.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, List, Mapping, Optional, Sequence, Union

from repro.counting.params import FPRASParameters
from repro.errors import ParameterError, SampleExhaustedError, SamplingError

MembershipOracle = Callable[[object], bool]

#: Batched coverage: maps a sequence of samples to the number of the
#: union's sets that contain each one.
BatchCoverage = Callable[[Sequence[object]], Sequence[int]]

#: Largest set count whose coverage counts fit in one byte of a plan.
_BYTE_CODED_SETS = 255


@dataclass
class SetAccess:
    """Access bundle for one set ``T_i`` as required by Theorem 1.

    Attributes
    ----------
    oracle:
        Membership oracle ``O_i`` for ``T_i``.
    samples:
        Multiset ``S_i`` of elements of ``T_i`` (with repetitions), assumed
        to be (close to) uniform samples.
    size_estimate:
        ``sz_i`` — an estimate of ``|T_i|`` within the slack ``eps_sz``.
    label:
        Optional identifier used only in diagnostics.
    """

    oracle: MembershipOracle
    samples: Sequence[object]
    size_estimate: float
    label: Optional[object] = None


@dataclass
class UnionEstimate:
    """Result of one ``AppUnion`` invocation plus run diagnostics.

    ``unique_hits`` is the sum of the trials' scores ``1 / c(sigma)`` (the
    name predates the coverage score; over disjoint sets every trial scores
    1).  ``membership_calls`` counts ``k`` oracle questions per trial, since
    a coverage count asks every set, however many counts were memoised.
    """

    estimate: float
    trials: int
    unique_hits: float
    membership_calls: int
    sum_of_sizes: float
    exhausted: bool = False

    @property
    def unique_fraction(self) -> float:
        """The mean trial score ``Y / t``."""
        if self.trials == 0:
            return 0.0
        return self.unique_hits / self.trials


class UnionPlan:
    """The part of ``AppUnion`` over fixed sets that no call's randomness changes.

    ``sizes`` are the size estimates clamped at 0, ``total`` their ``sum()``
    (the estimate's scale) and ``cumulative`` their running sums (the last
    one scales each trial's draw; ``sum()`` may round differently, being
    compensated from CPython 3.12 on).  ``keys[i]`` locates the
    stored samples of ``T_i`` in the ``samples`` mapping a call passes (by
    default the set's position).  ``answers[offsets[i] + p]`` is, for set
    ``i`` and stored-sample position ``p``, the number of the union's sets
    containing that sample, or ``0`` until a trial first draws it.

    A plan holds no sample, so the samples stay wherever their owner keeps
    them, and it is valid for as long as the sizes and stored samples it was
    built from do not change.  It is compact enough to keep one per union
    for a whole run: the answers are a ``bytearray`` for up to 255 sets
    (which the cyclic garbage collector never tracks, unlike an ``array``),
    and the offsets an ``array`` (a tuple of them would leave a run's worth
    of tuples on the interpreter's free lists).

    >>> plan = UnionPlan([2.0, -1.0, 3.0], [2, 0, 1])
    >>> plan.sizes, plan.total, plan.cumulative, plan.m_hat
    ((2.0, 0.0, 3.0), 5.0, (2.0, 2.0, 5.0), 2)
    >>> list(plan.offsets), list(plan.answers)  # no sample drawn yet
    ([0, 2, 2, 3], [0, 0, 0])
    """

    __slots__ = ("keys", "sizes", "total", "cumulative", "m_hat", "offsets", "answers")

    def __init__(
        self,
        sizes: Sequence[float],
        lengths: Sequence[int],
        keys: Optional[Sequence[object]] = None,
    ) -> None:
        if len(lengths) != len(sizes):
            raise ParameterError("a union plan needs one sample count per set")
        self.sizes = tuple(max(0.0, float(size)) for size in sizes)
        self.total = sum(self.sizes)
        self.cumulative = tuple(accumulate(self.sizes))
        # m_hat = ceil(sum sz / max sz), the paper's trial-count factor.
        self.m_hat = (
            int(math.ceil(self.total / max(self.sizes))) if self.total > 0 else 0
        )
        self.offsets = array("q", accumulate(lengths, initial=0))
        slots = self.offsets[-1]
        if len(self.sizes) <= _BYTE_CODED_SETS:
            self.answers = bytearray(slots)
        else:
            self.answers = array("i", [0]) * slots
        self.keys = range(len(self.sizes)) if keys is None else tuple(keys)


def _oracle_coverage(sets: Sequence[SetAccess]) -> BatchCoverage:
    """Every set's oracle asked about every sample, in :data:`BatchCoverage` form."""
    oracles = [entry.oracle for entry in sets]

    def cover(items: Sequence[object]) -> List[int]:
        return [sum(1 for oracle in oracles if oracle(item)) for item in items]

    return cover


def approximate_union(
    sets: Union[Sequence[SetAccess], UnionPlan],
    epsilon: float,
    delta: float,
    size_slack: float,
    parameters: FPRASParameters,
    rng: Optional[random.Random] = None,
    raise_on_exhaustion: bool = False,
    coverage_batch: Optional[BatchCoverage] = None,
    samples: Optional[Mapping[object, Sequence[object]]] = None,
) -> UnionEstimate:
    """Estimate ``|T_1 ∪ … ∪ T_k|`` (Algorithm 1, ``AppUnion``).

    Parameters
    ----------
    sets:
        One :class:`SetAccess` per set, in the order whose running sums
        pick each trial's set; or a :class:`UnionPlan` over the sets in
        that order, whose memoised coverage counts the call reads and
        extends.
    epsilon, delta:
        The estimator's own accuracy/confidence parameters (the subscript
        parameters of ``AppUnion_{eps, delta}`` in the paper).
    size_slack:
        ``eps_sz`` — multiplicative slack already present in the ``sz_i``.
    parameters:
        Supplies the trial-count formula and the scaling policy.
    rng:
        Source of randomness (defaults to a fresh ``random.Random()``).
    raise_on_exhaustion:
        Raise :class:`SampleExhaustedError` instead of skipping a trial (or,
        in strict consumption mode, stopping early) when the drawn set has
        no stored sample left, so tests can observe the event the paper
        bounds in Part 2 of the proof of Theorem 1.
    coverage_batch:
        Maps a sequence of samples to the number of the union's sets that
        contain each one (see
        :meth:`repro.automata.unroll.UnrolledAutomaton.coverage_batch`,
        which answers a whole batch with one reachability-cache pass).
        Required with a plan; with :class:`SetAccess` it replaces asking
        every oracle, with identical counts.
    samples:
        With a plan: ``samples[plan.keys[i]]`` is the stored multiset of
        ``T_i``, read only for counts the plan does not know yet.

    A trial costs one ``random()`` to pick its set by the running sums and,
    in the scaled default, one more for the stored position
    ``int(random() * len(S_i))``; strict consumption takes the set's next
    sample instead.  Trials never depend on coverage counts, so every trial
    is drawn first and the samples no earlier call on the plan has resolved
    are then counted in one ``coverage_batch`` call.  Scores are summed with
    :func:`math.fsum`, so estimates, diagnostics and the RNG stream are the
    same for a fresh and a reused plan.  A stored sample that no set
    contains raises :class:`~repro.errors.SamplingError`.

    Returns
    -------
    UnionEstimate
        ``estimate`` is ``(sum of scores / t) * sum(sz_i)``; diagnostics
        included.

    Example
    -------
    >>> import random
    >>> t1, t2 = {"00", "01"}, {"01", "11"}
    >>> access = [
    ...     SetAccess(oracle=t1.__contains__, samples=sorted(t1), size_estimate=2.0),
    ...     SetAccess(oracle=t2.__contains__, samples=sorted(t2), size_estimate=2.0),
    ... ]
    >>> result = approximate_union(
    ...     access, epsilon=0.5, delta=0.1, size_slack=0.0,
    ...     parameters=FPRASParameters(), rng=random.Random(0))
    >>> 2.0 <= result.estimate <= 4.0  # true union size is 3
    True
    """
    if epsilon <= 0:
        raise ParameterError("AppUnion epsilon must be positive")
    if not 0 < delta < 1:
        raise ParameterError("AppUnion delta must lie in (0, 1)")
    rng = rng if rng is not None else random.Random()

    if isinstance(sets, UnionPlan):
        plan = sets
        if coverage_batch is None or samples is None:
            raise ParameterError(
                "AppUnion over a UnionPlan needs coverage_batch and samples"
            )
        labels: Sequence[object] = plan.keys
    else:
        plan = UnionPlan(
            [entry.size_estimate for entry in sets],
            [len(entry.samples) for entry in sets],
        )
        samples = [entry.samples for entry in sets]
        if coverage_batch is None:
            coverage_batch = _oracle_coverage(sets)
        labels = [entry.label for entry in sets]

    total_size = plan.total
    if total_size <= 0:
        return UnionEstimate(
            estimate=0.0,
            trials=0,
            unique_hits=0.0,
            membership_calls=0,
            sum_of_sizes=0.0,
        )
    trials = parameters.union_trials(epsilon, delta, size_slack, plan.m_hat)

    strict = parameters.scale.strict_sample_consumption
    cursors = [0] * len(plan.sizes) if strict else None
    offsets = plan.offsets
    cumulative = plan.cumulative
    scale = cumulative[-1]  # not total_size: see UnionPlan
    answers = plan.answers
    draw = rng.random
    exhausted = False
    performed = 0
    unique = 0  # trials whose sample only its own set contains
    shared: List[int] = []  # coverage counts above 1, one per trial
    unseen: List[tuple] = []  # (slot, set index) of trials with unknown counts
    for _ in range(trials):
        index = bisect_left(cumulative, draw() * scale)
        start = offsets[index]
        size = offsets[index + 1] - start
        if strict:
            position = cursors[index]
            cursors[index] = position + 1
        else:
            position = int(draw() * size)
        if position == size:  # strict: the set ran dry; scaled: it has no samples
            exhausted = True
            if raise_on_exhaustion:
                raise SampleExhaustedError(
                    f"set {labels[index]!r} ran out of samples after "
                    f"{performed} trials"
                )
            if strict:
                break
            continue
        performed += 1
        slot = start + position
        covered = answers[slot]
        if covered == 1:
            unique += 1
        elif covered:
            shared.append(covered)
        else:
            unseen.append((slot, index))

    if unseen:
        keys = plan.keys
        fresh = list(dict.fromkeys(unseen))
        counts = coverage_batch(
            [samples[keys[index]][slot - offsets[index]] for slot, index in fresh]
        )
        for (slot, index), covered in zip(fresh, counts):
            if not covered:
                raise SamplingError(
                    f"a stored sample of set {labels[index]!r} lies outside "
                    "every set of the union"
                )
            answers[slot] = covered
        for slot, _ in unseen:
            covered = answers[slot]
            if covered == 1:
                unique += 1
            else:
                shared.append(covered)

    score = math.fsum([unique, *(1.0 / covered for covered in shared)])
    return UnionEstimate(
        estimate=(score / performed) * total_size if performed else 0.0,
        trials=performed,
        unique_hits=score,
        membership_calls=performed * len(plan.sizes),
        sum_of_sizes=total_size,
        exhausted=exhausted,
    )
