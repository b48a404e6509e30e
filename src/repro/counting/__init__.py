"""Counting algorithms: the paper's FPRAS, its subroutines, and baselines.

Public entry points:

* the unified counting façade (:mod:`repro.counting.api`):
  :func:`~repro.counting.api.count` (re-exported as ``repro.count``),
  :class:`~repro.counting.api.CountingSession`,
  :class:`~repro.counting.api.CountRequest` /
  :class:`~repro.counting.api.CountReport`, and the
  :data:`~repro.counting.api.METHOD_REGISTRY` behind them — the one API
  every method (fpras, acjr, montecarlo, bruteforce, exact) is invocable
  through;
* :class:`~repro.counting.fpras.NFACounter` — Algorithm 3 of the paper
  (the faster FPRAS);
* :func:`~repro.counting.union.approximate_union` — Algorithm 1 (Karp–Luby
  style union estimation);
* :class:`~repro.counting.sampler.SampleDraw` — Algorithm 2 (backward
  character-by-character sampling);
* :class:`~repro.counting.uniform.UniformWordSampler` — almost-uniform word
  generation built on the counter (the counting↔sampling direction used by
  the applications);
* baselines: :class:`~repro.counting.acjr.ACJRCounter` (the prior-work
  FPRAS) and the ``acjr``, ``montecarlo``, ``bruteforce`` and ``exact``
  methods of the registry.
"""

from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.policy import ExecutionPolicy, MethodCapabilities
from repro.counting.union import SetAccess, UnionEstimate, approximate_union
from repro.counting.sampler import SampleDraw
from repro.counting.fpras import CountResult, NFACounter
from repro.counting.acjr import ACJRCounter
from repro.counting.montecarlo import MonteCarloEstimate
from repro.counting.uniform import UniformWordSampler
from repro.counting.diagnostics import InvariantReport, check_invariants
from repro.counting.api import (
    METHOD_REGISTRY,
    CounterMethod,
    CountingSession,
    CountReport,
    CountRequest,
    available_methods,
    count,
    dispatch,
    register_method,
    resolve_method,
)

__all__ = [
    "FPRASParameters",
    "ParameterScale",
    "ExecutionPolicy",
    "MethodCapabilities",
    "SetAccess",
    "UnionEstimate",
    "approximate_union",
    "SampleDraw",
    "CountResult",
    "NFACounter",
    "ACJRCounter",
    "MonteCarloEstimate",
    "UniformWordSampler",
    "InvariantReport",
    "check_invariants",
    "METHOD_REGISTRY",
    "CounterMethod",
    "CountingSession",
    "CountReport",
    "CountRequest",
    "available_methods",
    "count",
    "dispatch",
    "register_method",
    "resolve_method",
]
