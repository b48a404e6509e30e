"""Quantitative information-flow estimation via #NFA.

One of the "beyond databases" applications listed in the paper's
introduction: when the set of observables a program can produce (side
channel traces, output strings, …) is described by an automaton, the number
of distinct length-``n`` observables bounds the information leaked about the
secret — ``log2 |L(A_n)|`` bits for deterministic programs (the classical
channel-capacity bound used by string-analysis leakage tools).  This module
wraps the counter into that metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.automata.nfa import NFA
from repro.counting.api import count as unified_count
from repro.counting.params import ParameterScale


@dataclass(frozen=True)
class LeakageEstimate:
    """An estimate of the leakage (in bits) derived from an observable count."""

    observable_count: float
    leakage_bits: float
    length: int
    method: str
    epsilon: Optional[float] = None

    def absolute_error_bits(self, exact_count: int) -> float:
        """Error of the leakage estimate in bits against an exact count."""
        if exact_count <= 0:
            return 0.0 if self.observable_count <= 1 else float("inf")
        return abs(self.leakage_bits - math.log2(exact_count))


def estimate_leakage_bits(
    observables: NFA,
    length: int,
    method: str = "fpras",
    epsilon: float = 0.3,
    delta: float = 0.1,
    seed: Optional[int] = None,
    scale: Optional[ParameterScale] = None,
) -> LeakageEstimate:
    """Estimate the channel-capacity leakage bound ``log2 |L(A_length)|``.

    ``method`` is any registered counting method (see
    :func:`repro.counting.api.available_methods`) — typically ``"fpras"``
    or ``"exact"``.  A multiplicative ``(1 + eps)`` guarantee on the count
    translates into an *additive* ``log2(1 + eps)`` guarantee on the
    leakage bound, which is why an FPRAS is exactly the right tool for this
    application.  Unknown methods raise
    :class:`~repro.errors.CountingMethodError` (a ``ValueError``).
    """
    # Pass an explicit scale through to the registry for any method: methods
    # that do not accept it reject the call instead of silently ignoring it.
    options = {} if scale is None else {"scale": scale}
    report = unified_count(
        observables,
        length,
        method=method,
        epsilon=epsilon,
        delta=delta,
        seed=seed,
        **options,
    )
    count = float(report.estimate)
    leakage = math.log2(count) if count > 1.0 else 0.0
    return LeakageEstimate(
        observable_count=count,
        leakage_bits=leakage,
        length=length,
        method=method,
        epsilon=report.epsilon,
    )
