"""Parameter formulas for the FPRAS, verbatim from the paper, plus scaling.

Algorithm 3 of the paper fixes its internal parameters as functions of the
input size ``m`` (states), the target length ``n``, the accuracy ``epsilon``
and the confidence ``delta``:

* ``beta  = epsilon / (4 n^2)``                      (per-level error budget)
* ``eta   = delta / (2 n m)``                        (per-event failure budget)
* ``ns    = 4096 e n^4 / epsilon^2 * log(4096 m^2 n^2 log(epsilon^-2) / delta)``
  (samples kept per state and level — the headline ``Õ(n^4/epsilon^2)``)
* ``xns   = ns * 12 * (1 - 2/(3 e^2))^{-1} * log(8 / eta)``
  (sampling attempts per state and level)
* AppUnion with parameters ``(eps, dlt)`` and size slack ``eps_sz`` uses
  ``t = 12 (1 + eps_sz)^2 m_hat / eps^2 * log(4 / dlt)`` trials and requires
  ``thresh = 24 (1 + eps_sz)^2 / eps^2 * log(4 k / dlt)`` samples per set.

These constants are astronomically large for a pure-Python run (``ns`` is in
the millions already for ``n = 10``, ``epsilon = 0.2``).  The reproduction
therefore separates the *formulas* (always available, reported by the
harness, used by the complexity model) from the *operational values*
(optionally scaled down by a :class:`ParameterScale`).  Scaling changes only
constant factors in the concentration bounds — the algorithm, its estimators
and its invariants are untouched — and every experiment records both the
paper value and the operational value so the gap is explicit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ParameterError

EULER = math.e

#: Success probability lower bound of one `sample` call (Theorem 2, part 2):
#: the failure probability is at most ``1 - 2/(3 e^2)``.
SAMPLE_SUCCESS_LOWER_BOUND = 2.0 / (3.0 * EULER**2)


def validate_epsilon(epsilon: object) -> None:
    """Raise :class:`~repro.errors.ParameterError` unless ``epsilon`` is a
    finite, positive real number that is not a bool.

    >>> validate_epsilon(float("inf"))
    Traceback (most recent call last):
        ...
    repro.errors.ParameterError: epsilon must be a finite positive number, got inf
    """
    if (
        isinstance(epsilon, bool)
        or not isinstance(epsilon, numbers.Real)
        or not 0 < epsilon < math.inf
    ):
        raise ParameterError(f"epsilon must be a finite positive number, got {epsilon!r}")


def validate_delta(delta: object) -> None:
    """Raise :class:`~repro.errors.ParameterError` unless ``delta``, a
    failure probability, is a real number in ``(0, 1)`` that is not a bool.

    >>> validate_delta(None)
    Traceback (most recent call last):
        ...
    repro.errors.ParameterError: delta must lie in (0, 1), got None
    """
    if (
        isinstance(delta, bool)
        or not isinstance(delta, numbers.Real)
        or not 0 < delta < 1
    ):
        raise ParameterError(f"delta must lie in (0, 1), got {delta!r}")


def validate_length(length: object) -> None:
    """Raise :class:`~repro.errors.ParameterError` unless ``length``, a word
    length, is a non-negative int that is not a bool.

    >>> validate_length(True)
    Traceback (most recent call last):
        ...
    repro.errors.ParameterError: length must be a non-negative int, got True
    """
    if isinstance(length, bool) or not isinstance(length, numbers.Integral) or length < 0:
        raise ParameterError(f"length must be a non-negative int, got {length!r}")


def validate_details(details: object) -> None:
    """Raise :class:`~repro.errors.ParameterError` unless ``details``, how
    much of the state tables an FPRAS result embeds, is ``"full"`` or
    ``"summary"``."""
    if details not in ("full", "summary"):
        raise ParameterError(f"details must be 'full' or 'summary', got {details!r}")


def validate_sample_cap(sample_cap: object) -> None:
    """Raise :class:`~repro.errors.ParameterError` unless ``sample_cap``, a
    cap on the samples kept per (state, level), is an int of at least 2
    that is not a bool.

    >>> validate_sample_cap(2.5)
    Traceback (most recent call last):
        ...
    repro.errors.ParameterError: sample_cap must be an int of at least 2, got 2.5
    """
    if (
        isinstance(sample_cap, bool)
        or not isinstance(sample_cap, numbers.Integral)
        or sample_cap < 2
    ):
        raise ParameterError(f"sample_cap must be an int of at least 2, got {sample_cap!r}")


def validate_attempt_factor(attempt_factor: object) -> None:
    """Raise :class:`~repro.errors.ParameterError` unless ``attempt_factor``,
    the ratio of sampling attempts to kept samples, is a finite real number
    of at least 1 that is not a bool.

    >>> validate_attempt_factor(0)
    Traceback (most recent call last):
        ...
    repro.errors.ParameterError: attempt_factor must be a finite number of at least 1, got 0
    """
    if (
        isinstance(attempt_factor, bool)
        or not isinstance(attempt_factor, numbers.Real)
        or not 1 <= attempt_factor < math.inf
    ):
        raise ParameterError(
            f"attempt_factor must be a finite number of at least 1, got {attempt_factor!r}"
        )


@dataclass(frozen=True)
class ParameterScale:
    """How to derive operational parameters from the paper's formulas.

    Attributes
    ----------
    mode:
        ``"paper"`` uses the formulas verbatim; ``"scaled"`` caps them.
    sample_cap:
        Upper bound on ``ns`` (samples stored per state and level) in scaled
        mode.
    attempt_factor:
        In scaled mode, ``xns = ceil(attempt_factor * ns)``.  The empirical
        acceptance rate of a `sample` call is about ``2/(3e) ≈ 0.245`` (the
        paper's worst-case bound is ``2/(3e^2)``), so a factor of 6-8 keeps
        padding rare.
    union_trial_cap:
        Upper bound on the number of Monte-Carlo trials per AppUnion call in
        scaled mode.
    union_trial_floor:
        Lower bound on the same quantity (keeps tiny instances from using a
        statistically meaningless handful of trials).
    reuse_union_estimates:
        When set, the recursive sampler memoises AppUnion estimates of
        multi-set unions per ``(level, predecessor set)`` for its drawer's
        scope, which is the whole run (see
        :class:`~repro.counting.sampler.SampleDraw`).  This is a large
        constant-factor speedup (the default for scaled runs); the faithful
        behaviour re-randomises every call.  The ablation
        benchmark quantifies the difference.
    faithful_perturbation:
        Algorithm 3 (lines 16-19) replaces ``N(q^l)`` by a uniformly random
        value with probability ``eta / 2n`` — a device used by the analysis.
        It is implemented, but disabled by default in scaled mode because
        with scaled (larger) ``eta`` the perturbation would fire noticeably
        often and only inject noise.
    strict_sample_consumption:
        Paper behaviour: AppUnion dequeues each set's stored samples in
        order, destructively, and stops early when one runs dry (Algorithm
        1, line 8).  The scaled default instead draws every trial's sample
        uniformly, with replacement, which never runs dry when ``ns`` is
        small.

    >>> ParameterScale.practical().mode
    'scaled'
    >>> ParameterScale.paper().strict_sample_consumption
    True
    >>> ParameterScale.practical().with_overrides(sample_cap=48).sample_cap
    48
    """

    mode: str = "scaled"
    sample_cap: int = 24
    attempt_factor: float = 6.0
    union_trial_cap: int = 32
    union_trial_floor: int = 8
    reuse_union_estimates: bool = True
    faithful_perturbation: bool = False
    strict_sample_consumption: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("paper", "scaled"):
            raise ParameterError(f"unknown parameter scale mode {self.mode!r}")
        validate_sample_cap(self.sample_cap)
        validate_attempt_factor(self.attempt_factor)
        if self.union_trial_floor < 1 or self.union_trial_cap < self.union_trial_floor:
            raise ParameterError("union trial bounds are inconsistent")

    @classmethod
    def paper(cls) -> "ParameterScale":
        """The verbatim paper parameters (only usable on toy instances)."""
        return cls(
            mode="paper",
            sample_cap=2**62,
            attempt_factor=1.0,
            union_trial_cap=2**62,
            union_trial_floor=1,
            reuse_union_estimates=False,
            faithful_perturbation=True,
            strict_sample_consumption=True,
        )

    @classmethod
    def practical(
        cls,
        sample_cap: int = 24,
        union_trial_cap: int = 32,
        attempt_factor: float = 6.0,
    ) -> "ParameterScale":
        """Laptop-scale defaults used by tests, examples and benchmarks."""
        return cls(
            mode="scaled",
            sample_cap=sample_cap,
            union_trial_cap=union_trial_cap,
            attempt_factor=attempt_factor,
        )

    @classmethod
    def faithful_scaled(cls, sample_cap: int = 24, union_trial_cap: int = 48) -> "ParameterScale":
        """Scaled sizes but paper-faithful mechanics (no estimate reuse)."""
        return cls(
            mode="scaled",
            sample_cap=sample_cap,
            union_trial_cap=union_trial_cap,
            attempt_factor=8.0,
            reuse_union_estimates=False,
            faithful_perturbation=False,
            strict_sample_consumption=False,
        )

    def with_overrides(self, **changes: object) -> "ParameterScale":
        """A modified copy — convenience for experiment sweeps."""
        return replace(self, **changes)


@dataclass(frozen=True)
class FPRASParameters:
    """Accuracy / confidence targets plus the scaling policy.

    The per-instance quantities (``beta``, ``eta``, ``ns`` …) depend on the
    automaton size ``m`` and length ``n`` and are exposed as methods.  How
    a run executes (engine, engine cache, state-table store) is not a
    parameter of the algorithm: it is the
    :class:`~repro.counting.policy.ExecutionPolicy` the counter takes.

    >>> parameters = FPRASParameters(epsilon=0.25, seed=7)
    >>> parameters.ns(10, 50) <= parameters.scale.sample_cap
    True
    >>> parameters.ns_paper(10, 50) > 10**6  # the verbatim formula is huge
    True
    """

    epsilon: float = 0.5
    delta: float = 0.1
    scale: ParameterScale = field(default_factory=ParameterScale.practical)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        validate_epsilon(self.epsilon)
        validate_delta(self.delta)
        if not isinstance(self.scale, ParameterScale):
            raise ParameterError(
                f"scale must be a ParameterScale, got {type(self.scale).__name__}"
            )

    # ------------------------------------------------------------------
    # Paper formulas (always available, independent of scaling)
    # ------------------------------------------------------------------
    def beta(self, length: int) -> float:
        """Per-level multiplicative error budget ``epsilon / 4 n^2``."""
        if length <= 0:
            return self.epsilon / 4.0
        return self.epsilon / (4.0 * length * length)

    def eta(self, length: int, num_states: int) -> float:
        """Per-event failure budget ``delta / (2 n m)``."""
        denominator = max(1, 2 * length * num_states)
        return self.delta / denominator

    def ns_paper(self, length: int, num_states: int) -> int:
        """The paper's sample-set size ``ns`` (Algorithm 3, line 2)."""
        n = max(1, length)
        m = max(1, num_states)
        log_term = math.log(
            max(
                EULER,
                4096.0 * m * m * n * n * max(1.0, math.log(max(EULER, self.epsilon**-2)))
                / self.delta,
            )
        )
        return int(math.ceil(4096.0 * EULER * n**4 / self.epsilon**2 * log_term))

    def xns_paper(self, length: int, num_states: int) -> int:
        """The paper's number of sampling attempts ``xns`` (Algorithm 3, line 3)."""
        ns = self.ns_paper(length, num_states)
        eta = self.eta(length, num_states)
        factor = 12.0 / (1.0 - 2.0 / (3.0 * EULER**2))
        return int(math.ceil(ns * factor * math.log(8.0 / eta)))

    def union_thresh_paper(self, eps: float, dlt: float, eps_sz: float, num_sets: int) -> int:
        """Theorem 1's required per-set sample count ``thresh``."""
        k = max(1, num_sets)
        return int(
            math.ceil(
                24.0 * (1.0 + eps_sz) ** 2 / (eps * eps) * math.log(4.0 * k / dlt)
            )
        )

    def union_trials_paper(
        self, eps: float, dlt: float, eps_sz: float, m_hat: int
    ) -> int:
        """Algorithm 1's trial count ``t``."""
        return int(
            math.ceil(
                12.0 * (1.0 + eps_sz) ** 2 * max(1, m_hat) / (eps * eps)
                * math.log(4.0 / dlt)
            )
        )

    # ------------------------------------------------------------------
    # Operational (possibly scaled) values
    # ------------------------------------------------------------------
    def ns(self, length: int, num_states: int) -> int:
        """Operational number of samples stored per state and level."""
        paper_value = self.ns_paper(length, num_states)
        if self.scale.mode == "paper":
            return paper_value
        return max(2, min(self.scale.sample_cap, paper_value))

    def xns(self, length: int, num_states: int) -> int:
        """Operational number of sampling attempts per state and level."""
        if self.scale.mode == "paper":
            return self.xns_paper(length, num_states)
        ns = self.ns(length, num_states)
        return max(ns, int(math.ceil(self.scale.attempt_factor * ns)))

    def union_trials(self, eps: float, dlt: float, eps_sz: float, m_hat: int) -> int:
        """Operational AppUnion trial count."""
        paper_value = self.union_trials_paper(eps, dlt, eps_sz, m_hat)
        if self.scale.mode == "paper":
            return paper_value
        return max(
            self.scale.union_trial_floor, min(self.scale.union_trial_cap, paper_value)
        )

    def gamma0(self, estimate: float) -> float:
        """The rejection-sampling constant ``2 / (3 e N(q^l))`` (Theorem 2)."""
        if estimate <= 0:
            raise ParameterError("gamma0 requires a positive size estimate")
        return 2.0 / (3.0 * EULER * estimate)

    # ------------------------------------------------------------------
    # Derived reporting helpers
    # ------------------------------------------------------------------
    def describe(self, length: int, num_states: int) -> dict:
        """Paper vs operational parameter values for reporting."""
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "beta": self.beta(length),
            "eta": self.eta(length, num_states),
            "ns_paper": self.ns_paper(length, num_states),
            "ns_operational": self.ns(length, num_states),
            "xns_paper": self.xns_paper(length, num_states),
            "xns_operational": self.xns(length, num_states),
            "scale_mode": self.scale.mode,
        }


# ----------------------------------------------------------------------
# ACJR (prior-work) parameter formulas, used for the comparison experiments
# ----------------------------------------------------------------------
def acjr_kappa(num_states: int, length: int, epsilon: float) -> float:
    """ACJR's aggregation parameter ``kappa = n m / epsilon``."""
    return max(1.0, length * num_states / epsilon)


def acjr_samples_per_state(num_states: int, length: int, epsilon: float) -> float:
    """ACJR sample-set size per (state, level): ``O(kappa^7) = O(m^7 n^7 / eps^7)``."""
    return acjr_kappa(num_states, length, epsilon) ** 7


def paper_samples_per_state(length: int, epsilon: float) -> float:
    """This paper's sample-set size per (state, level): ``O(n^4 / eps^2)``."""
    return max(1.0, length) ** 4 / (epsilon * epsilon)


def acjr_time_bound(num_states: int, length: int, epsilon: float, delta: float) -> float:
    """ACJR total-time bound ``Õ(m^17 n^17 eps^-14 log(1/delta))`` (constants dropped)."""
    return (
        float(num_states) ** 17
        * float(length) ** 17
        * epsilon**-14
        * math.log(1.0 / delta)
    )


def paper_time_bound(num_states: int, length: int, epsilon: float, delta: float) -> float:
    """This paper's time bound ``Õ((m^2 n^10 + m^3 n^6) eps^-4 log^2(1/delta))``."""
    m = float(num_states)
    n = float(length)
    return (m**2 * n**10 + m**3 * n**6) * epsilon**-4 * math.log(1.0 / delta) ** 2
