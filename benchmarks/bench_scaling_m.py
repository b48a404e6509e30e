"""E4 — runtime scaling with the number of automaton states ``m``.

The paper's headline structural improvement is that the number of samples
kept per (state, level) is *independent of m*; total work then grows only
because there are more states to process (low-degree polynomial in ``m``).
The benchmark measures runtime over an ``m`` sweep and asserts (a) accuracy
holds across the sweep and (b) the configured samples-per-state stays
constant as ``m`` grows.

The second benchmark compares the simulation backends head-to-head on the
same E4 workloads: the FPRAS spends essentially all of its time in
membership oracles (word simulation through the unrolled automaton), so the
backend comparison runs that membership-dominated path — many fresh-word
reachability queries per automaton — on the frozenset reference engine and
on the bit-parallel bitset engine, and asserts the bitset backend is at
least 3x faster.

The third times batched membership at large ``m`` on one bitset engine:
its vectorised ``accepts_batch`` walk (what Monte-Carlo drives) against the
generic sorted walk (``Engine.simulate_batch``), and asserts the
vectorised walk is not slower at the largest ``m``.
"""

from __future__ import annotations

import time

from block_workloads import best_of, block_instance, block_words, generic_accepts

from repro.automata.engine import create_engine
from repro.harness.experiments import run_scaling_states
from repro.harness.reporting import format_table
from repro.workloads.generator import scaling_suite_states

#: State counts of the membership-dominated backend comparison; the larger
#: end of the E4 sweep is where the frozenset unions hurt the most.
SPEEDUP_STATE_COUNTS = (8, 16, 24)
SPEEDUP_WORDS = 2000
SPEEDUP_MIN_RATIO = 3.0

#: State counts of the large-m batch-walk sweep (the m >> 64 regime where a
#: state set spans many bytes); the assertion only binds at the largest m.
BLOCK_STATE_COUNTS = (64, 128, 256, 512)
BLOCK_WORDS = 300
BLOCK_WORD_LENGTH = 12
#: At the largest m the vectorised walk must at least match the generic
#: walk's batched membership throughput (the conservative bound keeps the
#: assertion robust on noisy CI runners).
BLOCK_MIN_RATIO_AT_MAX_M = 1.0


def test_e4_scaling_with_states(benchmark, report, bench_seed):
    result = benchmark.pedantic(
        run_scaling_states,
        kwargs={"quick": True, "seed": bench_seed},
        rounds=1,
        iterations=1,
    )
    report(format_table(result.rows, title=f"E4: {result.description}"))
    for note in result.notes:
        report(f"E4 note: {note}")

    samples_per_state = {row["fpras_samples_per_state"] for row in result.rows}
    assert len(samples_per_state) == 1, "per-state sample count must not depend on m"
    for row in result.rows:
        assert row["fpras_rel_error"] < 0.6


def _membership_seconds(engine, words) -> float:
    """Time many whole-word reachability queries (best of three passes)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        hits = 0
        for word in words:
            if engine.accepts(word):
                hits += 1
        best = min(best, time.perf_counter() - started)
    return best


def _engine_comparison(bench_rng):
    """Measure reference vs bitset membership throughput on the E4 suite."""
    suite = scaling_suite_states(state_counts=SPEEDUP_STATE_COUNTS)
    rows = []
    ratios = []
    for workload in suite:
        alphabet = list(workload.nfa.alphabet)
        words = [
            tuple(bench_rng.choice(alphabet) for _ in range(workload.length))
            for _ in range(SPEEDUP_WORDS)
        ]
        reference = create_engine(workload.nfa, "reference")
        bitset = create_engine(workload.nfa, "bitset")
        # Both backends must agree on every query (differential check).
        agreement = [reference.accepts(word) == bitset.accepts(word) for word in words]
        assert all(agreement)
        reference_seconds = _membership_seconds(reference, words)
        bitset_seconds = _membership_seconds(bitset, words)
        ratio = reference_seconds / bitset_seconds
        ratios.append(ratio)
        rows.append(
            {
                "m": workload.num_states,
                "length": workload.length,
                "words": SPEEDUP_WORDS,
                "reference_seconds": reference_seconds,
                "bitset_seconds": bitset_seconds,
                "speedup": ratio,
            }
        )
    return rows, ratios


def test_e4_engine_membership_speedup(benchmark, report, bench_rng):
    """Bitset vs reference on E4's membership-dominated configuration."""
    rows, ratios = benchmark.pedantic(
        _engine_comparison, args=(bench_rng,), rounds=1, iterations=1
    )
    report(
        format_table(
            rows,
            title=(
                "E4 backend comparison: membership-dominated word simulation "
                "(reference vs bitset)"
            ),
        )
    )
    geometric_mean = 1.0
    for ratio in ratios:
        geometric_mean *= ratio
    geometric_mean **= 1.0 / len(ratios)
    report(f"E4 backend note: geometric-mean bitset speedup {geometric_mean:.2f}x")
    assert geometric_mean >= SPEEDUP_MIN_RATIO, (
        f"bitset speedup {geometric_mean:.2f}x below the {SPEEDUP_MIN_RATIO}x target; "
        f"per-m ratios: {[round(r, 2) for r in ratios]}"
    )


def _block_backend_comparison(bench_rng):
    """Generic vs vectorised batched membership over an m >> 64 sweep."""
    rows = []
    ratios = {}
    for num_states in BLOCK_STATE_COUNTS:
        nfa = block_instance(num_states, seed=17 + num_states)
        words = block_words(nfa, bench_rng, BLOCK_WORDS, BLOCK_WORD_LENGTH)
        engine = create_engine(nfa, "bitset")
        # Differential check: both walks must agree on every query.
        assert engine.accepts_batch(words) == generic_accepts(engine, words)
        generic_seconds = best_of(lambda: generic_accepts(engine, words))
        vectorised_seconds = best_of(lambda: engine.accepts_batch(words))
        ratio = generic_seconds / vectorised_seconds
        ratios[num_states] = ratio
        rows.append(
            {
                "m": num_states,
                "words": BLOCK_WORDS,
                "length": BLOCK_WORD_LENGTH,
                "generic_seconds": generic_seconds,
                "vectorised_seconds": vectorised_seconds,
                "vectorised_speedup": ratio,
            }
        )
    return rows, ratios


def test_e4_block_backend_large_m(benchmark, report, bench_rng):
    """Vectorised vs generic batch walk on the m in {64..512} membership sweep."""
    rows, ratios = benchmark.pedantic(
        _block_backend_comparison, args=(bench_rng,), rounds=1, iterations=1
    )
    report(
        format_table(
            rows,
            title=(
                "E4 large-m batch walk: batched membership on bitset "
                "(generic sorted walk vs vectorised walk)"
            ),
        )
    )
    largest = max(BLOCK_STATE_COUNTS)
    report(
        f"E4 block note: vectorised speedup at m={largest} is {ratios[largest]:.2f}x "
        f"(sweep: {[(m, round(r, 2)) for m, r in sorted(ratios.items())]})"
    )
    assert ratios[largest] >= BLOCK_MIN_RATIO_AT_MAX_M, (
        f"the vectorised walk is {ratios[largest]:.2f}x the generic walk's "
        f"throughput at m={largest}, below the {BLOCK_MIN_RATIO_AT_MAX_M}x floor"
    )
