"""repro — a reproduction of "A faster FPRAS for #NFA" (PODS 2024).

The package provides:

* the automata substrate (:mod:`repro.automata`): NFAs, DFAs, regex
  compilation, unrolled automata and exact counters;
* the paper's FPRAS and its subroutines plus baselines (:mod:`repro.counting`);
* the database applications its introduction motivates
  (:mod:`repro.applications`): regular path queries over graph databases,
  probabilistic query evaluation and probabilistic graph homomorphism;
* analysis utilities (:mod:`repro.analysis`), workload generators
  (:mod:`repro.workloads`) and the experiment harness (:mod:`repro.harness`).

Quickstart::

    from repro import NFA, count
    nfa = NFA.build([("s", "0", "s"), ("s", "1", "t"), ("t", "0", "t"), ("t", "1", "t")],
                    initial="s", accepting=["t"])
    report = count(nfa, length=12, epsilon=0.3, seed=7)   # method="fpras" default
    print(report.estimate, report.error_bounds())

Every counting method (``fpras``, ``acjr``, ``montecarlo``, ``bruteforce``,
``exact``) is invocable through :func:`repro.count` or a pinned
:class:`repro.CountingSession`; see :mod:`repro.counting.api`.
"""

from repro.automata import (
    DFA,
    NFA,
    EngineRegistry,
    UnrolledAutomaton,
    acquire_engine,
    compile_regex,
    count_exact,
    count_per_state_exact,
    determinize,
    minimize,
    word_from_string,
    word_to_string,
)
from repro.counting import (
    ACJRCounter,
    CountingSession,
    CountReport,
    CountRequest,
    CountResult,
    ExecutionPolicy,
    FPRASParameters,
    MethodCapabilities,
    NFACounter,
    ParameterScale,
    UniformWordSampler,
    approximate_union,
    available_methods,
    count,
    register_method,
)

__version__ = "1.0.0"

__all__ = [
    "NFA",
    "DFA",
    "EngineRegistry",
    "acquire_engine",
    "UnrolledAutomaton",
    "compile_regex",
    "determinize",
    "minimize",
    "count_exact",
    "count_per_state_exact",
    "word_from_string",
    "word_to_string",
    "NFACounter",
    "CountResult",
    "FPRASParameters",
    "ParameterScale",
    "ExecutionPolicy",
    "MethodCapabilities",
    "UniformWordSampler",
    "approximate_union",
    "count",
    "ACJRCounter",
    "CountingSession",
    "CountReport",
    "CountRequest",
    "available_methods",
    "register_method",
    "__version__",
]
