"""The benchmark's five workloads and how a seed turns into their calls.

Every workload is a closed loop with one client in one process: calls to
``repro.count`` run back to back with ``workers=1``.  A workload has fixed
*cells* (an automaton and a word length each; the random automata come from
a seed derived from the workload name), and the benchmark's seed fixes the
stream of per-call RNG seeds.  Calls are issued in *rounds*: round ``r`` makes
one call per cell, with the next seeds from that stream, so any number of
whole rounds carries the same cost mix and the same seed always yields the
same calls.  Fixing the automata keeps the cost mix the same for every seed;
drawing them per seed made throughput spread by ~18% between seeds.

Sizes are smaller than the headline profiles quoted in the ROADMAP (for
example ``divisibility(48)`` at n = 14 takes ~10 s per call): a run must
complete many calls in its time box so that medians and the tail percentile
rest on tens of samples.  Each workload still keeps the property it was
chosen for; ``run.py --self-check`` asserts those properties on the traced
numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List

from repro.automata.families import divisibility_nfa, substring_nfa
from repro.automata.nfa import NFA
from repro.automata.random_gen import random_nonempty_nfa
from repro.counting.policy import ExecutionPolicy
from repro.workloads.longwords import long_word_scale, unary_loop_nfa

#: Accuracy and confidence targets of every fpras call.
EPSILON = 0.5
DELTA = 0.1

#: Seed of the warm-up calls made during set-up (never part of a digest).
WARMUP_SEED = 0


@dataclass(frozen=True)
class Cell:
    """One (automaton, word length) pair a workload counts, round after round."""

    label: str
    nfa: NFA
    length: int


@dataclass(frozen=True)
class Call:
    """One ``repro.count`` call: a cell and the call's RNG seed."""

    cell: int
    seed: int


@dataclass
class Plan:
    """A workload instantiated from a seed: its cells and how to call them."""

    method: str
    cells: List[Cell]
    policy: ExecutionPolicy
    options: Dict[str, object]
    #: Whole rounds the traced run times (untraced first, then traced).
    traced_rounds: int
    call_seed: int

    def rounds(self) -> Iterator[List[Call]]:
        """The endless, seed-determined sequence of call rounds."""
        rng = random.Random(self.call_seed)
        while True:
            yield [Call(index, rng.randrange(2**31)) for index in range(len(self.cells))]

    def count_kwargs(self, seed: int) -> Dict[str, object]:
        """Keyword arguments of the ``repro.count`` call for one RNG seed."""
        return {
            "method": self.method,
            "epsilon": EPSILON,
            "delta": DELTA,
            "seed": seed,
            "policy": self.policy,
            **self.options,
        }


def _random_pattern(rng: random.Random, length: int) -> str:
    return "1" + "".join(rng.choice("01") for _ in range(length - 1))


def _dfa_descent(rng: random.Random) -> List[Cell]:
    # Deterministic families: every union is a disjoint near-singleton, so
    # the sampler descent (and its predecessor fan) carries the wall time.
    cells = [
        Cell(f"divisibility({divisor})", divisibility_nfa(divisor), length)
        for divisor, length in ((12, 8), (16, 8), (24, 7), (48, 6))
    ]
    for pattern_length, length in ((3, 12), (4, 12)):
        pattern = _random_pattern(rng, pattern_length)
        cells.append(Cell(f"substring({pattern})", substring_nfa(pattern), length))
    return cells


def _random_cells(
    rng: random.Random,
    sizes,
    length: int,
    density: Callable[[int], float],
    accepting_fraction: float,
) -> List[Cell]:
    cells = []
    for states in sizes:
        instance_seed = rng.randrange(2**31)
        chosen = density(states)
        nfa = random_nonempty_nfa(
            states,
            length,
            density=chosen,
            accepting_fraction=accepting_fraction,
            seed=instance_seed,
        )
        label = f"random_nfa(m={states},density={chosen:.4f},seed={instance_seed})"
        cells.append(Cell(label, nfa, length))
    return cells


def _dense_union(rng: random.Random) -> List[Cell]:
    # Dense random NFAs with half the states accepting: predecessor
    # languages overlap heavily, so AppUnion carries the wall time and the
    # scaled trial cap loses accuracy.
    return _random_cells(
        rng,
        (20, 22, 24, 26, 28, 30),
        5,
        lambda states: rng.uniform(0.10, 0.15),
        0.5,
    )


def _wide_fpras(rng: random.Random) -> List[Cell]:
    # More than 256 states, so backend="auto" picks the numpy block engine
    # and its level kernel.  divisibility(320) has a one-word slice; the
    # sparse random automata have non-trivial ones.
    cells = [Cell("divisibility(320)", divisibility_nfa(320), 4)]
    cells.extend(
        _random_cells(rng, (384, 512, 1024), 3, lambda states: 1.5 / states, 0.3)
    )
    return cells


def _wide_montecarlo(rng: random.Random) -> List[Cell]:
    # Sparse enough that the slice is a fraction of all 2^12 words.
    return _random_cells(
        rng, (512, 640, 768, 896, 1024), 12, lambda states: 1.1 / states, 0.3
    )


def _longword_windowed(rng: random.Random) -> List[Cell]:
    # One length, so the per-call times form one mode and their percentiles
    # do not jump between lengths; four calls a round for the tail.
    return [Cell("unary_loop(n=800)", unary_loop_nfa(), 800)] * 4


#: name -> (method, cell factory, policy, extra count options, traced rounds)
_WORKLOADS = {
    "dfa-descent": ("fpras", _dfa_descent, ExecutionPolicy(), {}, 2),
    "dense-union": ("fpras", _dense_union, ExecutionPolicy(), {}, 2),
    "wide-fpras": ("fpras", _wide_fpras, ExecutionPolicy(backend="auto"), {}, 1),
    "wide-montecarlo": (
        "montecarlo",
        _wide_montecarlo,
        ExecutionPolicy(backend="auto"),
        {"num_samples": 20000},
        2,
    ),
    "longword-windowed": (
        "fpras",
        _longword_windowed,
        ExecutionPolicy(store="windowed"),
        {"scale": long_word_scale(), "details": "summary"},
        1,
    ),
}

WORKLOAD_NAMES = tuple(_WORKLOADS)


def build_plan(name: str, seed: int) -> Plan:
    """Workload ``name`` with its call seeds drawn from ``seed`` (same seed, same plan)."""
    method, build_cells, policy, options, traced_rounds = _WORKLOADS[name]
    return Plan(
        method=method,
        cells=build_cells(random.Random(name)),
        policy=policy,
        options=dict(options),
        traced_rounds=traced_rounds,
        call_seed=random.Random(f"{name}:{seed}").randrange(2**62),
    )
