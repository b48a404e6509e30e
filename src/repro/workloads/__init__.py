"""Workload generation: reproducible suites of #NFA instances."""

from repro.workloads.generator import (
    Workload,
    WorkloadSuite,
    accuracy_suite,
    application_suite,
    scaling_suite_epsilon,
    scaling_suite_length,
    scaling_suite_states,
)
from repro.workloads.longwords import (
    measure_fpras_memory,
    unary_loop_nfa,
)

__all__ = [
    "Workload",
    "WorkloadSuite",
    "accuracy_suite",
    "scaling_suite_length",
    "scaling_suite_states",
    "scaling_suite_epsilon",
    "application_suite",
    "measure_fpras_memory",
    "unary_loop_nfa",
]
