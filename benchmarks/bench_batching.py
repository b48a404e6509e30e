"""Batched simulation vs the per-word path, and engine-registry amortisation.

The first benchmark simulates word multisets shaped like AppUnion's stored
samples over the E4 (m-scaling) workloads on the bitset backend, comparing
the per-word path (one ``simulate`` per word) against the engine's
``simulate_batch``, which sorts the multiset once and walks the trie of
its distinct words in NumPy, so shared prefixes are stepped once.  The
benchmark asserts a ≥ 1.5× throughput win (geometric mean across the sweep);
both paths must agree on every handle first (differential check).

The second benchmark measures what the shared :class:`EngineRegistry` saves:
a registry hit returns an existing engine in a dictionary probe instead of
rebuilding the byte-chunked transition tables.

All randomness flows from the seeded ``bench_rng`` fixture, so the numbers
are reproducible run-to-run.
"""

from __future__ import annotations

import time

from repro.automata.engine import EngineRegistry, create_engine
from repro.harness.reporting import format_table
from repro.workloads.generator import scaling_suite_states

#: State counts of the E4 membership-dominated configuration.
BATCH_STATE_COUNTS = (8, 16, 24)
#: Word length: AppUnion's coverage counts concern words up to the
#: unrolling length, so the multiset uses a deeper slice than E4's n=8 to
#: exercise realistic prefix sharing.
BATCH_WORD_LENGTH = 12
#: Multiset size per workload; duplicates are injected below, mirroring the
#: repetition structure of stored sample multisets.
BATCH_WORDS = 2000
#: Acceptance floor for the batched path (geometric mean across the sweep).
BATCH_MIN_RATIO = 1.5
#: Registry hits must beat rebuilding the transition tables at least this much.
REGISTRY_MIN_RATIO = 3.0


def _workload_words(workload, rng):
    """A seeded multiset with the duplicate structure of sample storage.

    Half the multiset repeats earlier words: AppUnion draws its trial
    elements from stored per-state sample multisets (``ns`` words queried
    across many trials), so heavy duplication is the representative case.
    """
    alphabet = list(workload.nfa.alphabet)
    distinct = [
        tuple(rng.choice(alphabet) for _ in range(BATCH_WORD_LENGTH))
        for _ in range(BATCH_WORDS // 2)
    ]
    words = list(distinct)
    while len(words) < BATCH_WORDS:
        words.append(distinct[rng.randrange(len(distinct))])
    rng.shuffle(words)
    return words


def _per_word_seconds(engine, words) -> float:
    """Per-word simulation: one ``simulate`` call per word."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for word in words:
            engine.simulate(word)
        best = min(best, time.perf_counter() - started)
    return best


def _batched_seconds(engine, words) -> float:
    """The same words through one ``simulate_batch`` pass."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        engine.simulate_batch(words)
        best = min(best, time.perf_counter() - started)
    return best


def _batching_comparison(bench_rng):
    suite = scaling_suite_states(state_counts=BATCH_STATE_COUNTS)
    rows = []
    ratios = []
    for workload in suite:
        words = _workload_words(workload, bench_rng)
        engine = create_engine(workload.nfa, "bitset")
        # Differential check first: both paths return identical handles.
        per_word = [engine.simulate(word) for word in words]
        saved_before = engine.batch_steps_saved
        assert engine.simulate_batch(words) == per_word
        per_word_seconds = _per_word_seconds(engine, words)
        batched_seconds = _batched_seconds(engine, words)
        ratio = per_word_seconds / batched_seconds
        ratios.append(ratio)
        rows.append(
            {
                "m": workload.num_states,
                "length": BATCH_WORD_LENGTH,
                "words": len(words),
                "per_word_seconds": per_word_seconds,
                "batched_seconds": batched_seconds,
                "speedup": ratio,
                "steps_saved_per_pass": (engine.batch_steps_saved - saved_before)
                // 4,
            }
        )
    return rows, ratios


def test_batched_simulation_speedup(benchmark, report, bench_rng):
    """Batched simulation ≥ 1.5× over the per-word path (E4 sweep)."""
    rows, ratios = benchmark.pedantic(
        _batching_comparison, args=(bench_rng,), rounds=1, iterations=1
    )
    report(
        format_table(
            rows,
            title=(
                "Batched vs per-word simulation "
                "(bitset backend, E4 workloads)"
            ),
        )
    )
    geometric_mean = 1.0
    for ratio in ratios:
        geometric_mean *= ratio
    geometric_mean **= 1.0 / len(ratios)
    report(f"batching note: geometric-mean batched speedup {geometric_mean:.2f}x")
    assert geometric_mean >= BATCH_MIN_RATIO, (
        f"batched simulation speedup {geometric_mean:.2f}x below the "
        f"{BATCH_MIN_RATIO}x target; per-m ratios: "
        f"{[round(ratio, 2) for ratio in ratios]}"
    )


def _registry_comparison():
    suite = scaling_suite_states(state_counts=BATCH_STATE_COUNTS)
    rows = []
    ratios = []
    for workload in suite:
        build_best = float("inf")
        for _ in range(5):
            started = time.perf_counter()
            create_engine(workload.nfa, "bitset")
            build_best = min(build_best, time.perf_counter() - started)
        registry = EngineRegistry()
        registry.get(workload.nfa, "bitset")  # warm the slot
        hit_best = float("inf")
        for _ in range(5):
            started = time.perf_counter()
            for _repeat in range(100):
                registry.get(workload.nfa, "bitset")
            hit_best = min(hit_best, (time.perf_counter() - started) / 100)
        ratio = build_best / hit_best
        ratios.append(ratio)
        rows.append(
            {
                "m": workload.num_states,
                "build_seconds": build_best,
                "registry_hit_seconds": hit_best,
                "speedup": ratio,
            }
        )
    return rows, ratios


def test_registry_amortises_table_construction(benchmark, report):
    """A registry hit must be far cheaper than rebuilding the tables."""
    rows, ratios = benchmark.pedantic(_registry_comparison, rounds=1, iterations=1)
    report(
        format_table(
            rows, title="Engine registry: table construction vs registry hit"
        )
    )
    minimum = min(ratios)
    report(f"registry note: worst-case hit speedup {minimum:.1f}x")
    assert minimum >= REGISTRY_MIN_RATIO, (
        f"registry hit only {minimum:.1f}x faster than construction "
        f"(target {REGISTRY_MIN_RATIO}x)"
    )
