"""Reproducible workload suites for the benchmark harness.

A :class:`Workload` is one #NFA instance (an automaton plus a target length
and accuracy) with a stable name; a :class:`WorkloadSuite` is an ordered list
of workloads.  The suites below are the concrete inputs of the experiments
E1 … E8 registered in :data:`repro.harness.experiments.EXPERIMENTS`,
replacing the (non-existent) benchmark suite of the paper with named
synthetic families whose ground truth is computable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

from repro.automata import families, random_gen
from repro.automata.exact import count_exact
from repro.automata.nfa import NFA


@dataclass(frozen=True)
class Workload:
    """One #NFA instance used by an experiment."""

    name: str
    nfa: NFA
    length: int
    epsilon: float = 0.3
    delta: float = 0.1
    seed: int = 0

    @property
    def num_states(self) -> int:
        return self.nfa.num_states

    def exact_count(self) -> int:
        """Ground-truth ``|L(A_n)|`` (small / structured instances only)."""
        return count_exact(self.nfa, self.length)

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "states": self.num_states,
            "transitions": self.nfa.num_transitions,
            "length": self.length,
            "epsilon": self.epsilon,
        }


@dataclass
class WorkloadSuite:
    """A named, ordered collection of workloads."""

    name: str
    workloads: List[Workload] = field(default_factory=list)

    def add(self, workload: Workload) -> None:
        self.workloads.append(workload)

    def __iter__(self) -> Iterator[Workload]:
        return iter(self.workloads)

    def __len__(self) -> int:
        return len(self.workloads)

    def names(self) -> List[str]:
        return [workload.name for workload in self.workloads]


# ----------------------------------------------------------------------
# Suites used by the experiments
# ----------------------------------------------------------------------
def accuracy_suite(length: int = 10, epsilon: float = 0.3) -> WorkloadSuite:
    """E2: named structured families with cheap exact ground truth."""
    suite = WorkloadSuite(name="accuracy")
    for name, nfa in families.default_benchmark_suite():
        suite.add(Workload(name=name, nfa=nfa, length=length, epsilon=epsilon))
    return suite


def scaling_suite_length(
    lengths: Sequence[int] = (4, 6, 8, 10, 12),
    num_states: int = 6,
    epsilon: float = 0.4,
    seed: int = 11,
) -> WorkloadSuite:
    """E3: fixed automaton, growing length ``n``."""
    nfa = random_gen.random_nonempty_nfa(
        num_states, max(lengths), density=0.35, seed=seed
    )
    suite = WorkloadSuite(name="scaling_n")
    for length in lengths:
        suite.add(
            Workload(
                name=f"n={length}", nfa=nfa, length=length, epsilon=epsilon, seed=seed
            )
        )
    return suite


def scaling_suite_states(
    state_counts: Sequence[int] = (4, 6, 8, 10, 12),
    length: int = 8,
    epsilon: float = 0.4,
    seed: int = 17,
) -> WorkloadSuite:
    """E4: growing automaton size ``m`` at fixed length."""
    suite = WorkloadSuite(name="scaling_m")
    for num_states in state_counts:
        nfa = random_gen.random_nonempty_nfa(
            num_states, length, density=min(0.5, 2.5 / num_states + 0.15), seed=seed + num_states
        )
        suite.add(
            Workload(
                name=f"m={num_states}",
                nfa=nfa,
                length=length,
                epsilon=epsilon,
                seed=seed + num_states,
            )
        )
    return suite


def scaling_suite_epsilon(
    epsilons: Sequence[float] = (1.0, 0.7, 0.5, 0.3, 0.2),
    length: int = 8,
    pattern: str = "0110",
) -> WorkloadSuite:
    """E5: fixed instance, tightening accuracy target ``epsilon``."""
    nfa = families.suffix_nfa(pattern)
    suite = WorkloadSuite(name="scaling_eps")
    for epsilon in epsilons:
        suite.add(
            Workload(name=f"eps={epsilon}", nfa=nfa, length=length, epsilon=epsilon)
        )
    return suite


def application_suite(seed: int = 23) -> WorkloadSuite:
    """E6 helper: product automata arising from the RPQ reduction.

    The graph-database instances themselves live in the benchmark module
    (they need the application objects, not just NFAs); this suite carries
    the pre-reduced automata so pure counting components can be exercised on
    application-shaped inputs as well.
    """
    from repro.applications.graphdb import GraphDatabase, RegularPathQuery, RPQCounter

    edges = random_gen.random_labeled_graph(8, 20, labels=("a", "b", "c"), seed=seed)
    database = GraphDatabase.from_edges(edges)
    nodes = sorted(database.nodes)
    suite = WorkloadSuite(name="applications")
    patterns = ["(a|b)*c", "a(b)*a", "(a|b|c){2,6}"]
    for index, pattern in enumerate(patterns):
        query = RegularPathQuery(nodes[0], pattern, nodes[-1], max_length=6)
        counter = RPQCounter(database, query, semantics="labels")
        product = counter.product_automaton()
        suite.add(
            Workload(
                name=f"rpq_{index}",
                nfa=product,
                length=query.max_length,
                epsilon=0.4,
                seed=seed + index,
            )
        )
    return suite
