"""Algorithm 1 — ``AppUnion``: Monte-Carlo estimation of a union of sets.

Given sets ``T_1 .. T_k``, each presented by a membership oracle, a multiset
of (near-uniform) samples and a size estimate, the estimator approximates
``|T_1 ∪ … ∪ T_k|``.  It is the Karp–Luby union estimator adapted as in the
paper: a trial samples a set index ``i`` proportionally to its size estimate,
draws an element ``sigma`` from the stored samples of ``T_i``, and counts the
trial as *unique* when no earlier set ``T_j`` (``j < i``) contains ``sigma``.
The fraction of unique trials, multiplied by the sum of the size estimates,
estimates the union size (Theorem 1).

The implementation mirrors the pseudo-code closely while exposing the knobs
needed for experiments:

* the number of trials follows the paper's formula, optionally capped by the
  :class:`~repro.counting.params.ParameterScale`;
* sample consumption is either destructive ("paper", Algorithm 1 line 7-8)
  or cyclic over a shuffled copy (scaled default);
* every call returns a :class:`UnionEstimate` carrying diagnostics
  (membership calls, unique fraction, exhaustion) used by the benchmarks.

Everything about a union that does not depend on the call's randomness lives
in a :class:`UnionPlan`: the clamped sizes, their sums, ``m_hat``, and per
set and stored-sample position the memoised answer to "which earlier set
contains this sample first", resolved the first time a trial draws it.  The
FPRAS keeps one plan per ``(level, predecessor set)`` for a whole run (see
:class:`repro.counting.sampler.StepTable`), so a repeated union pays only its
random draws — the per-set shuffles and one ``random()`` per trial — plus the
answers no earlier call has needed.  A list of :class:`SetAccess` is a
one-shot plan.
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
from repro.errors import ParameterError, SampleExhaustedError

MembershipOracle = Callable[[object], bool]

#: Batched membership primitive: maps a sequence of ``(sigma, i)`` queries to
#: the per-query smallest index ``j < i`` with ``sigma`` in ``T_j`` (or -1).
BatchMembership = Callable[[Sequence[tuple]], Sequence[int]]

#: Largest set count whose answers fit the one-byte code of a plan.
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
    """Result of one ``AppUnion`` invocation plus run diagnostics."""

    estimate: float
    trials: int
    unique_hits: int
    membership_calls: int
    sum_of_sizes: float
    exhausted: bool = False

    @property
    def unique_fraction(self) -> float:
        """``Y / t`` — the fraction of trials that landed in ``U_unique``."""
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
    default the set's position).  ``answers[offsets[i] + p]`` codes, for set
    ``i`` and stored-sample position ``p``, the smallest ``j < i`` with that
    sample in ``T_j``: ``j + 2``, or ``1`` when no earlier set contains it,
    or ``0`` until a trial first draws the sample.

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


def _shuffle(items: List[int], rng: random.Random) -> None:
    """``rng.shuffle(items)``: the same swaps and generator state, faster.

    For an exact ``random.Random`` this is CPython's ``Random.shuffle`` with
    ``_randbelow_with_getrandbits`` inlined.  Any other generator keeps its
    own ``shuffle``: a subclass that overrides ``random()`` draws its swap
    indices another way.
    """
    if type(rng) is not random.Random:
        rng.shuffle(items)
        return
    getrandbits = rng.getrandbits
    for size in range(len(items), 1, -1):
        bits = size.bit_length()
        index = getrandbits(bits)
        while index >= size:
            index = getrandbits(bits)
        last = size - 1
        items[last], items[index] = items[index], items[last]


def _oracle_scan(sets: Sequence[SetAccess]) -> BatchMembership:
    """The per-set oracle loop in :data:`BatchMembership` form."""
    oracles = [entry.oracle for entry in sets]

    def scan(queries: Sequence[tuple]) -> List[int]:
        answers = []
        for sample, index in queries:
            containing = -1
            for earlier in range(index):
                if oracles[earlier](sample):
                    containing = earlier
                    break
            answers.append(containing)
        return answers

    return scan


def approximate_union(
    sets: Union[Sequence[SetAccess], UnionPlan],
    epsilon: float,
    delta: float,
    size_slack: float,
    parameters: FPRASParameters,
    rng: Optional[random.Random] = None,
    raise_on_exhaustion: bool = False,
    first_containing_batch: Optional[BatchMembership] = None,
    samples: Optional[Mapping[object, Sequence[object]]] = None,
) -> UnionEstimate:
    """Estimate ``|T_1 ∪ … ∪ T_k|`` (Algorithm 1, ``AppUnion``).

    Parameters
    ----------
    sets:
        One :class:`SetAccess` per set, in the fixed order used for the
        "first set containing the element" tie-break; or a
        :class:`UnionPlan` over the sets in that order, whose memoised
        answers the call reads and extends.
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
        In strict consumption mode, raise :class:`SampleExhaustedError`
        instead of silently stopping early, so tests can observe the event
        the paper bounds in Part 2 of the proof of Theorem 1.
    first_containing_batch:
        Batched membership: maps a sequence of ``(sigma, i)`` queries to the
        per-query smallest index ``j < i`` with ``sigma`` in ``T_j``, or
        ``-1``, in one call (see
        :meth:`repro.automata.unroll.UnrolledAutomaton.first_containing_batch`,
        which answers a whole query block with one reachability-cache pass).
        Required with a plan; with :class:`SetAccess` it replaces the per-set
        oracle loop, with identical answers.
    samples:
        With a plan: ``samples[plan.keys[i]]`` is the stored multiset of
        ``T_i``, read only for answers the plan does not know yet.

    Trials never depend on membership answers, so every trial is drawn first
    (one ``random()`` each, plus the per-set shuffles) and the answers no
    earlier call on the plan has resolved are then resolved in one
    ``first_containing_batch`` call.  Estimates, diagnostics and the RNG
    stream are the same for a fresh and a reused plan.  ``membership_calls``
    counts the oracle checks a scan over earlier sets would make: ``j + 1``
    when it stops at ``T_j``, ``i`` when no earlier set contains ``sigma``.

    Returns
    -------
    UnionEstimate
        ``estimate`` is ``(Y / t) * sum(sz_i)``; diagnostics included.

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
        if first_containing_batch is None or samples is None:
            raise ParameterError(
                "AppUnion over a UnionPlan needs first_containing_batch and samples"
            )
        labels: Sequence[object] = plan.keys
    else:
        plan = UnionPlan(
            [entry.size_estimate for entry in sets],
            [len(entry.samples) for entry in sets],
        )
        samples = [entry.samples for entry in sets]
        if first_containing_batch is None:
            first_containing_batch = _oracle_scan(sets)
        labels = [entry.label for entry in sets]

    total_size = plan.total
    if total_size <= 0:
        return UnionEstimate(
            estimate=0.0,
            trials=0,
            unique_hits=0,
            membership_calls=0,
            sum_of_sizes=0.0,
        )
    trials = parameters.union_trials(epsilon, delta, size_slack, plan.m_hat)

    # One stream per set over its slots in ``plan.answers``.  Every set is
    # shuffled, in order, before the first trial (unless consumption is
    # strict), which keeps the RNG stream of the historical per-set copies.
    strict = parameters.scale.strict_sample_consumption
    offsets = plan.offsets
    streams: List[List[int]] = []
    for index in range(len(offsets) - 1):
        stream = list(range(offsets[index], offsets[index + 1]))
        if not strict:
            _shuffle(stream, rng)
        streams.append(stream)
    cursors = [0] * len(streams)

    cumulative = plan.cumulative
    scale = cumulative[-1]  # not total_size: see UnionPlan
    answers = plan.answers
    draw = rng.random
    exhausted = False
    performed = 0
    unique_hits = 0
    membership_calls = 0
    unseen: List[tuple] = []  # (slot, set index) of trials with unknown answers
    for _ in range(trials):
        index = bisect_left(cumulative, draw() * scale)
        stream = streams[index]
        cursor = cursors[index]
        if cursor == len(stream):
            exhausted = True
            if strict or not stream:
                if raise_on_exhaustion:
                    raise SampleExhaustedError(
                        f"set {labels[index]!r} ran out of samples after "
                        f"{performed} trials"
                    )
                if strict:
                    break
                continue
            # Cyclic mode: reshuffle and restart.  This departs from the
            # paper only in the (low-probability) regime where more samples
            # are requested than stored.
            _shuffle(stream, rng)
            cursor = 0
        slot = stream[cursor]
        cursors[index] = cursor + 1
        performed += 1
        # Coded answer (see UnionPlan): 0 unknown, 1 unique, else j + 2.
        code = answers[slot]
        if not code:
            unseen.append((slot, index))
        elif code == 1:
            unique_hits += 1
            membership_calls += index
        else:
            membership_calls += code - 1

    if unseen:
        keys = plan.keys
        fresh = list(dict.fromkeys(unseen))
        queries = [
            (samples[keys[index]][slot - offsets[index]], index)
            for slot, index in fresh
        ]
        for (slot, _), containing in zip(fresh, first_containing_batch(queries)):
            answers[slot] = containing + 2
        for slot, index in unseen:
            code = answers[slot]
            if code == 1:
                unique_hits += 1
                membership_calls += index
            else:
                membership_calls += code - 1

    if performed == 0:
        return UnionEstimate(
            estimate=0.0,
            trials=0,
            unique_hits=0,
            membership_calls=membership_calls,
            sum_of_sizes=total_size,
            exhausted=exhausted,
        )
    estimate = (unique_hits / performed) * total_size
    return UnionEstimate(
        estimate=estimate,
        trials=performed,
        unique_hits=unique_hits,
        membership_calls=membership_calls,
        sum_of_sizes=total_size,
        exhausted=exhausted,
    )
