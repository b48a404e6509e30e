"""Wall-clock benchmark for the sharded parallel counting executor.

Two claims from ``docs/architecture.md`` are pinned here on an FPRAS
workload large enough to amortise pool startup (forking the workers, one
table broadcast per level):

* **parity** — ``workers=1`` and ``workers=4`` execute the same shard plan
  and must return bit-identical estimates and algorithm-level work
  counters (always asserted, on any machine);
* **speedup** — with four CPUs available, four workers must cut wall time
  by at least :data:`MIN_SPEEDUP` over the serial execution of the same
  plan.  The speedup assertion is gated on
  ``multiprocessing.cpu_count() >= WORKERS`` so single-core runners
  still validate parity and report the (meaningless) ratio instead of
  failing on physics.

A Monte-Carlo section reports the same parity/throughput story for the
other sharded trial loop; its estimate must additionally equal the plain
serial path bit for bit, because the coordinator draws the identical word
stream.
"""

from __future__ import annotations

import multiprocessing
import time

from repro.automata.families import divisibility_nfa
from repro.counting.api import count
from repro.counting.params import ParameterScale
from repro.counting.policy import ExecutionPolicy
from repro.harness.reporting import format_table

#: Pool size exercised by the benchmark (the acceptance configuration).
WORKERS = 4

#: Shard-plan size; fixed so serial and pooled runs share one plan.
SHARDS = 4

#: Required wall-time speedup of 4 workers over serial on >= 4 CPUs.
MIN_SPEEDUP = 1.5

#: The FPRAS workload: 96 states x 12 levels with moderate sampling caps
#: runs for seconds serially, so the ~100 ms of pool startup and per-level
#: sync is well amortised.
DIVISOR = 96
LENGTH = 12
EPSILON = 0.4
SEED = 20240727
SCALE = ParameterScale.practical(sample_cap=16, union_trial_cap=24)

#: Monte-Carlo section: enough chunks that every worker stays busy.
MC_SAMPLES = 40_000
MC_LENGTH = 12

WORK_KEYS = ("union_calls", "membership_calls", "sample_draws", "padded_states")


def _fpras_run(workers: int):
    nfa = divisibility_nfa(DIVISOR)
    started = time.perf_counter()
    report = count(
        nfa,
        LENGTH,
        method="fpras",
        epsilon=EPSILON,
        seed=SEED,
        scale=SCALE,
        policy=ExecutionPolicy(workers=workers, shards=SHARDS),
    )
    return time.perf_counter() - started, report


def _montecarlo_run(workers: int):
    nfa = divisibility_nfa(DIVISOR)
    started = time.perf_counter()
    report = count(
        nfa,
        MC_LENGTH,
        method="montecarlo",
        seed=SEED,
        num_samples=MC_SAMPLES,
        policy=ExecutionPolicy(workers=workers),
    )
    return time.perf_counter() - started, report


def test_fpras_sharded_speedup(report):
    """4-worker FPRAS: bit-identical to serial, >= 1.5x faster on >= 4 CPUs."""
    cpus = multiprocessing.cpu_count()
    serial_seconds, serial = _fpras_run(1)
    pooled_seconds, pooled = _fpras_run(WORKERS)

    # Parity is unconditional: the shard plan, not the pool, fixes results.
    assert pooled.estimate == serial.estimate
    assert pooled.raw.state_estimates == serial.raw.state_estimates
    for key in WORK_KEYS:
        assert pooled.details[key] == serial.details[key]

    speedup = serial_seconds / pooled_seconds
    report(
        format_table(
            [
                {
                    "path": f"workers=1 (shards={SHARDS})",
                    "seconds": round(serial_seconds, 3),
                    "estimate": serial.estimate,
                },
                {
                    "path": f"workers={WORKERS} (shards={SHARDS})",
                    "seconds": round(pooled_seconds, 3),
                    "estimate": pooled.estimate,
                },
            ],
            title=(
                f"FPRAS sharded executor, divisibility({DIVISOR}) n={LENGTH} "
                f"(speedup {speedup:.2f}x on {cpus} CPUs)"
            ),
        )
    )
    if cpus >= WORKERS:
        assert speedup >= MIN_SPEEDUP, (
            f"4-worker FPRAS run is only {speedup:.2f}x serial on {cpus} CPUs "
            f"(required >= {MIN_SPEEDUP}x)"
        )
    else:
        report(
            f"parallel note: only {cpus} CPU(s) available — speedup assertion "
            f"skipped (measured {speedup:.2f}x), parity still asserted"
        )


def test_montecarlo_sharded_parity_and_throughput(report):
    """Monte-Carlo workers: identical stream/estimate, throughput reported."""
    cpus = multiprocessing.cpu_count()
    serial_seconds, serial = _montecarlo_run(1)
    pooled_seconds, pooled = _montecarlo_run(WORKERS)
    assert pooled.estimate == serial.estimate
    assert pooled.details["hits"] == serial.details["hits"]
    speedup = serial_seconds / pooled_seconds
    report(
        format_table(
            [
                {"path": "workers=1", "seconds": round(serial_seconds, 3)},
                {"path": f"workers={WORKERS}", "seconds": round(pooled_seconds, 3)},
            ],
            title=(
                f"Monte-Carlo sharded executor, divisibility({DIVISOR}) "
                f"n={MC_LENGTH}, {MC_SAMPLES} samples "
                f"(speedup {speedup:.2f}x on {cpus} CPUs)"
            ),
        )
    )
