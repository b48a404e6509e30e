"""Shared workload construction for the block-backend benchmarks.

``bench_scaling_m.py`` (the large-m throughput assertion) and
``bench_block.py`` (the bitset vs numpy sweep) must measure the *same*
workload shape, otherwise the sweep's comparisons no longer back the
large-m assertion.  Both import the instance builder and the best-of-N
timer from here.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

from repro.automata.nfa import NFA
from repro.automata.random_gen import random_nfa


def block_instance(num_states: int, seed: int) -> NFA:
    """The E4-style random automaton the block benchmarks run on."""
    return random_nfa(
        num_states,
        density=min(0.5, 2.5 / num_states + 0.15),
        seed=seed,
        accepting_fraction=0.3,
    )


def block_words(nfa: NFA, bench_rng, count: int, length: int) -> List[Tuple[str, ...]]:
    """A deterministic random word multiset over the automaton's alphabet."""
    alphabet = list(nfa.alphabet)
    return [
        tuple(bench_rng.choice(alphabet) for _ in range(length))
        for _ in range(count)
    ]


def best_of(run: Callable[[], object], repeats: int = 3) -> float:
    """Wall-clock seconds of the fastest of ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best
