"""Shared configuration for the benchmark harness.

Each benchmark module regenerates one experiment of the E1 … E8 registry in
:data:`repro.harness.experiments.EXPERIMENTS`, or one of the ablations.
Benchmark files do not match pytest's default ``test_*.py`` collection
pattern, so name them explicitly —
``pytest benchmarks/bench_scaling_m.py -q -s`` (optionally with
``--benchmark-only``) reproduces the report data.  Each module asserts the
*shape* of the paper's claim (who wins, what stays flat) rather than
absolute numbers.

All benchmark randomness flows from one seeded ``random.Random`` (the
``bench_rng`` fixture, seeded with :data:`BENCH_SEED`), matching the seeded
entry points of :mod:`repro.harness.experiments`: a benchmark run produces
the same estimates every time — and the same estimates on every simulation
backend, which is what makes the backend-comparison numbers meaningful.
"""

from __future__ import annotations

import random

import pytest

from repro.harness.experiments import BENCH_SEED


def pytest_configure(config):
    # Benchmarks are regular pytest items; nothing special to register, but
    # keeping a conftest here ensures `pytest benchmarks/` works standalone
    # (without inheriting fixtures from the unit-test tree).
    _ = config


@pytest.fixture
def bench_seed() -> int:
    """The run-level seed every benchmark derives its randomness from."""
    return BENCH_SEED


@pytest.fixture
def bench_rng(bench_seed) -> random.Random:
    """One seeded randomness source per benchmark (deterministic runs)."""
    return random.Random(bench_seed)


@pytest.fixture(scope="session")
def report(request):
    """Collect printable report blocks and emit them at the end of the session."""
    blocks = []
    yield blocks.append
    if blocks:
        print("\n")
        for block in blocks:
            print(block)
            print()
