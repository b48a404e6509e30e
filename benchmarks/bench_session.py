"""Overhead guard for the unified counting façade.

The :class:`repro.counting.api.CountingSession` / ``repro.count`` layer is
pure dispatch — request validation, one dictionary probe into the method
registry and report normalisation — on top of one
:class:`~repro.counting.fpras.NFACounter` run.  This benchmark pins that
down:

* the façade must add **less than 5 %** wall-clock overhead over building
  and running the ``NFACounter`` directly on a representative instance
  (best-of-two timing per round on every path, identical seeds, engine
  registry warm for all);
* repeated session calls on the same automaton must reuse the engine from
  the shared :class:`~repro.automata.engine.EngineRegistry`
  (``engine_counters["engine_cache_hit"] == 1``) and stay bit-identical
  run to run.
"""

from __future__ import annotations

import time
from statistics import median

from repro.automata.families import substring_nfa
from repro.counting.api import CountingSession, count
from repro.counting.fpras import NFACounter
from repro.counting.params import FPRASParameters
from repro.harness.reporting import format_table

#: The fixed instance: heavy enough that one run takes tens of milliseconds,
#: so the façade's constant per-call cost is measured against real work.
LENGTH = 10
EPSILON = 0.4
SEED = 20240727

#: Timing repetitions.  Each round times every path back to back and the
#: guard uses the *median of the per-round ratios*: pairing the paths
#: within a round cancels slow machine-load drift (which on a ~100 ms
#: workload is far larger than the façade's microsecond dispatch cost),
#: and the median is robust to the occasional scheduler hiccup.
ROUNDS = 9

#: The façade may add at most this factor of wall-clock overhead.
MAX_OVERHEAD_FACTOR = 1.05


def _overhead_comparison():
    nfa = substring_nfa("101")

    def direct():
        return NFACounter(nfa, LENGTH, FPRASParameters(epsilon=EPSILON, seed=SEED)).run()

    # Warm the shared engine registry so no path pays construction.
    direct()
    session = CountingSession(epsilon=EPSILON, seed=SEED)

    paths = [
        ("NFACounter.run (direct)", direct),
        ("CountingSession.count", lambda: session.count(nfa, LENGTH)),
        (
            "repro.count one-shot",
            lambda: count(nfa, LENGTH, method="fpras", epsilon=EPSILON, seed=SEED),
        ),
    ]
    timings = {name: [] for name, _fn in paths}
    for _round in range(ROUNDS):
        for name, fn in paths:
            # Best of two back-to-back runs per round: trims the scheduler
            # noise tail without losing the paired-round structure.
            best = float("inf")
            for _repeat in range(2):
                started = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - started)
            timings[name].append(best)
    direct_name = paths[0][0]
    rows = []
    for name, _fn in paths:
        ratios = [
            seconds / direct
            for seconds, direct in zip(timings[name], timings[direct_name])
        ]
        rows.append(
            {
                "path": name,
                "best_seconds": min(timings[name]),
                "vs_direct": median(ratios),
            }
        )
    return nfa, session, rows


def test_session_overhead_under_five_percent(benchmark, report):
    """Façade dispatch must stay within 5% of a direct NFACounter run."""
    _nfa, _session, rows = benchmark.pedantic(
        _overhead_comparison, rounds=1, iterations=1
    )
    report(
        format_table(
            rows,
            title=f"Session façade overhead (substring_nfa('101'), n={LENGTH})",
        )
    )
    for row in rows[1:]:
        assert row["vs_direct"] <= MAX_OVERHEAD_FACTOR, (
            f"{row['path']} is {row['vs_direct']:.3f}x a direct NFACounter run "
            f"(limit {MAX_OVERHEAD_FACTOR}x)"
        )


def test_session_repeat_calls_hit_engine_cache(report):
    """Repeated session calls on one automaton reuse the registry engine."""
    nfa = substring_nfa("0110")
    session = CountingSession(epsilon=EPSILON, seed=SEED)
    first = session.count(nfa, LENGTH)
    second = session.count(nfa, LENGTH)
    assert second.engine_counters["engine_cache_hit"] == 1, (
        "second session call on the same automaton should hit the shared "
        "engine registry"
    )
    # Engine sharing is observationally transparent: identical estimates
    # and representation-independent work counters.
    assert first.estimate == second.estimate
    assert first.raw.sample_draws == second.raw.sample_draws
    assert first.raw.union_calls == second.raw.union_calls
    report(
        f"session note: repeat-call engine_cache_hit="
        f"{second.engine_counters['engine_cache_hit']}, "
        f"estimate drift={abs(first.estimate - second.estimate)}"
    )
