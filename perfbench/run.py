"""End-to-end benchmark of ``repro.count`` with a traced per-layer breakdown.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dfa-descent --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --self-check            # layer-coverage self-check

One run builds its workload from ``--seed`` (see ``workloads.py``), computes
the exact count of every cell with ``method="exact"`` (the referee, outside
all timing), sets up three times (automaton construction, engine
acquisition and one warm-up call per instance, after clearing the shared
engine registry) and then times whole rounds of calls until ``--seconds``
have passed.

``--trace 0`` reports the end-to-end metrics:

* ``counts_per_s``: calls per round divided by the median round time;
* ``count_s.p50``: median time of a ``repro.count`` call;
* ``count_s.tail``: the highest percentile of per-call time with at least
  10 calls beyond it (the percentile and call count are printed next to it);
* ``setup_s``: import time plus the median of the three set-ups;
* ``peak_rss_mb``: the process's peak resident set size.

Every time is wall time rescaled to a reference host speed (see
:func:`yardstick`): on a shared host, other processes slowed identical calls
by up to 2x, and between runs the raw medians spread by 25-35% where the
rescaled ones spread by 5-10%.  Raw wall times are kept in the run record.

``--trace 1`` times rounds untraced for ``--seconds`` as well, then times
the workload's fixed number of traced rounds (the first rounds again, with
every layer wrapped by ``tracer.py``) and reports the per-layer metrics:
per-call means over the traced rounds, so for one seed every count repeats
exactly, plus the accuracy figures and the tracing overhead.  Both modes
print a human-readable report and, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Run records (host, per-call times, accuracy) and span files go to
``.perfbench/``.

Correctness checks, any of which makes the run exit non-zero:

* the exact referee must succeed for every cell;
* a call that raises or returns a non-finite or negative estimate fails;
* determinism digests: every call's (instance, n, seed, estimate) record is
  compared with the records an earlier run of the same source tree and seed
  left in ``.perfbench/digests.json``, and in a traced run the traced
  records must equal the untraced ones;
* in a traced run the layer self times must add up to the traced call wall
  time.

Estimates outside the (1 ± ε) band, and zero estimates of non-empty slices,
are accuracy findings, not program failures: they are reported as
``band_miss_frac`` and ``failed_frac`` rather than failing the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")
DIGEST_FILE = os.path.join(STATE_DIR, "digests.json")

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: Calls beyond the tail percentile (the percentile is the highest one with
#: at least this many calls above it).
TAIL_BEYOND = 10

#: Bounds on (sum of layer self times) / (traced call wall time).
SELF_SUM_RANGE = (0.95, 1.0 + 1e-9)

#: Wall time of one :func:`yardstick` pass on a quiet reference host (a
#: 2.1 GHz Xeon container); timed phases are rescaled to that host speed.
YARDSTICK_REFERENCE_S = 0.004


class BenchmarkError(Exception):
    """A condition under which the benchmark refuses to report a result."""


@dataclass
class Outcome:
    """One executed call: timing, result and the referee's verdict inputs."""

    cell: int
    seed: int
    seconds: float
    estimate: Optional[float]
    backend: Optional[str]
    error: Optional[str] = None
    report: object = None
    #: ``seconds`` rescaled to the reference host speed (see :func:`rescale`).
    scaled: float = 0.0

    def operation_failed(self) -> bool:
        estimate = self.estimate
        return self.error is not None or not math.isfinite(estimate) or estimate < 0


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
def yardstick() -> float:
    """Wall time of a fixed pure-Python workload: the host's current speed.

    Other processes on a shared host slow this process by up to 2x in
    phases lasting from fractions of a second to minutes.  The yardstick
    (dict, tuple, hashing and float traffic like the counting hot loops, but
    none of ``repro``'s code, so no change to the program moves it) is timed
    between calls, and each call's time is divided by the host slowdown the
    yardstick saw around it.
    """
    started = time.perf_counter()
    table: Dict[int, float] = {}
    for index in range(12000):
        key = (index * 7919) & 511
        table[key] = table.get(key, 0.0) + (hash((key, index & 7)) & 15) * 0.5
    sorted(table.items())
    return time.perf_counter() - started


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference host speed, given yardsticks around the phase."""
    return seconds * YARDSTICK_REFERENCE_S / ((before + after) / 2.0)


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def import_repro() -> float:
    """Import the checkout's ``repro`` from ``src/``; returns the rescaled import time."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchmarkError(f"no source tree at {SRC}: run from the root of a checkout")
    # The windowed store spills through tempfile; keep that inside the checkout.
    spill_dir = os.path.join(STATE_DIR, "tmp")
    os.makedirs(spill_dir, exist_ok=True)
    tempfile.tempdir = spill_dir
    sys.path.insert(0, SRC)
    before = yardstick()
    started = time.perf_counter()
    import repro

    elapsed = time.perf_counter() - started
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"imported repro from {repro.__file__}, not from {SRC}")
    return rescale(elapsed, before, yardstick())


def source_hash() -> str:
    """SHA-256 over the Python files of ``src/`` and of the benchmark itself.

    Together they decide every call and its estimate, so two runs with equal
    hashes and seeds must report equal estimates.
    """
    digest = hashlib.sha256()
    for top in (SRC, os.path.dirname(os.path.abspath(__file__))):
        for directory, subdirectories, files in os.walk(top):
            subdirectories[:] = sorted(d for d in subdirectories if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def host_record(code: str) -> Dict[str, object]:
    import numpy

    return {
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_revision(),
        "source_sha256": code,
    }


def guard_oversubscription(plan) -> None:
    """Refuse configurations with more workers or threads than CPUs."""
    nproc = cpu_count()
    workers = plan.policy.workers if plan.policy.workers != 0 else nproc
    threads = threading.active_count()
    if workers > nproc or threads > nproc:
        raise BenchmarkError(
            f"refusing to run: {workers} worker(s) and {threads} thread(s) on "
            f"{nproc} CPU(s); a timing would measure oversubscription"
        )


# ----------------------------------------------------------------------
# Calls, referee, digests
# ----------------------------------------------------------------------
def execute(plan, call, count, keep_report: bool) -> Outcome:
    cell = plan.cells[call.cell]
    kwargs = plan.count_kwargs(call.seed)
    started = time.perf_counter()
    try:
        report = count(cell.nfa, cell.length, **kwargs)
    except Exception:  # a failing call is counted, the loop keeps running
        seconds = time.perf_counter() - started
        error = traceback.format_exc()
        print(f"call failed: {cell.label} n={cell.length} seed={call.seed}\n{error}",
              file=sys.stderr)
        return Outcome(call.cell, call.seed, seconds, None, None, error=error)
    seconds = time.perf_counter() - started
    return Outcome(
        call.cell,
        call.seed,
        seconds,
        float(report.estimate),
        report.backend,
        report=report if keep_report else None,
    )


def run_rounds(plan, rounds, count, budget: float, minimum: int, keep_report=False):
    """Whole rounds, back to back, until ``budget`` seconds and ``minimum`` rounds.

    Returns the outcomes and the rescaled time of every round.
    """
    outcomes: List[Outcome] = []
    round_seconds: List[float] = []
    started = time.perf_counter()
    speed = yardstick()
    while len(round_seconds) < minimum or time.perf_counter() - started < budget:
        round_total = 0.0
        for call in next(rounds):
            outcome = execute(plan, call, count, keep_report)
            after = yardstick()
            outcome.scaled = rescale(outcome.seconds, speed, after)
            speed = after
            round_total += outcome.scaled
            outcomes.append(outcome)
        round_seconds.append(round_total)
    return outcomes, round_seconds


def exact_referee(plan) -> List[int]:
    import repro

    exact = []
    for cell in plan.cells:
        try:
            exact.append(int(repro.count(cell.nfa, cell.length, method="exact").raw))
        except Exception as error:
            raise BenchmarkError(f"exact referee failed on {cell.label}: {error!r}") from error
    return exact


def call_record(plan, outcome: Outcome) -> str:
    cell = plan.cells[outcome.cell]
    estimate = "error" if outcome.estimate is None else repr(outcome.estimate)
    return f"{cell.label}|n={cell.length}|seed={outcome.seed}|{estimate}"


def digest(records: List[str]) -> str:
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def check_digests(code: str, workload: str, seed: int, records: List[str]) -> None:
    """Compare per-call records with earlier runs of the same code and seed."""
    hashes = [hashlib.sha256(record.encode()).hexdigest()[:16] for record in records]
    key = f"{workload}:{seed}"
    try:
        with open(DIGEST_FILE) as handle:
            stored = json.load(handle)
    except (OSError, ValueError):
        stored = {}
    if stored.get("source_sha256") != code:
        stored = {"source_sha256": code, "runs": {}}
    previous = stored["runs"].get(key, [])
    for index, (before, now) in enumerate(zip(previous, hashes)):
        if before != now:
            raise BenchmarkError(
                f"determinism digest mismatch on call {index} ({records[index]}): "
                "an earlier run of the same code and seed returned another estimate"
            )
    if len(hashes) > len(previous):
        stored["runs"][key] = hashes
        pending = DIGEST_FILE + ".tmp"
        with open(pending, "w") as handle:
            json.dump(stored, handle)
        os.replace(pending, DIGEST_FILE)


def classify(plan, outcomes: List[Outcome], exact: List[int]) -> Dict[str, float]:
    """The referee's accuracy summary (ε band, relative error, failures)."""
    from workloads import EPSILON as epsilon

    misses = failures = 0
    errors = []
    for outcome in outcomes:
        truth = exact[outcome.cell]
        estimate = outcome.estimate
        if outcome.operation_failed():
            failures += 1
            misses += 1
            continue
        if estimate == 0 and truth > 0:
            failures += 1
        if truth == 0:
            misses += estimate != 0
            continue
        if not truth / (1 + epsilon) <= estimate <= truth * (1 + epsilon):
            misses += 1
        errors.append(abs(estimate - truth) / truth)
    total = len(outcomes)
    return {
        "band_miss_frac": misses / total,
        "rel_err.p50": statistics.median(errors) if errors else 0.0,
        "failed_frac": failures / total,
    }


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def set_up(name: str, seed: int):
    """One timed set-up: build the plan, acquire engines, warm every instance."""
    import repro
    from repro.automata.engine import SHARED_ENGINE_REGISTRY, acquire_engine
    from workloads import WARMUP_SEED, build_plan

    SHARED_ENGINE_REGISTRY.clear()
    before = yardstick()
    started = time.perf_counter()
    plan = build_plan(name, seed)
    for cell in {cell.label: cell for cell in plan.cells}.values():
        acquire_engine(cell.nfa, plan.policy.backend)
        repro.count(cell.nfa, cell.length, **plan.count_kwargs(WARMUP_SEED))
    return plan, rescale(time.perf_counter() - started, before, yardstick())


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def tail(times: List[float]):
    """(value, percentile) of the highest percentile with TAIL_BEYOND calls above it."""
    ordered = sorted(times)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def layer_metrics(tracer, outcomes: List[Outcome], wall: float) -> Dict[str, Dict]:
    """Per-call means of every per-layer metric over the traced calls."""
    calls = len(outcomes)
    per_call = 1.0 / calls
    totals: Counter = Counter()
    for outcome in outcomes:
        report = outcome.report
        if report is None:
            continue
        for key, value in report.engine_counters.items():
            totals[key] += value
        raw = report.raw
        if report.method == "fpras":
            if raw.state_estimates:
                state_levels = len(raw.state_estimates) - 1
            else:
                state_levels = raw.table_summary["estimate_entries"] - 1
            totals["state_levels"] += state_levels
            totals["padded_states"] += raw.padded_states
            totals["sample_draws"] += raw.sample_draws
            totals["sample_successes"] += raw.sample_successes

    counts = tracer.counts

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def seconds(layer: str, self_time: bool = False) -> Dict[str, object]:
        table = tracer.self_s if self_time else tracer.total_s
        return metric(table.get(layer, 0.0) * per_call, "s")

    def count(value: float) -> Dict[str, object]:
        return metric(value * per_call, "count")

    metrics = {
        "api.self_s": seconds("api", self_time=True),
        "fpras.run_s": seconds("fpras"),
        "fpras.self_s": seconds("fpras", self_time=True),
        "fpras.state_levels": count(totals["state_levels"]),
        "fpras.padded_frac": metric(
            ratio(totals["padded_states"], totals["state_levels"]), "fraction"
        ),
    }
    for caller in ("dp", "descent"):
        layer = f"union.{caller}"
        trials = counts[layer + ".trials"]
        metrics.update(
            {
                layer + ".calls": count(tracer.calls.get(layer, 0)),
                layer + ".s": seconds(layer),
                layer + ".trials": count(trials),
                layer + ".unique_frac": metric(
                    ratio(counts[layer + ".unique_hits"], trials), "fraction"
                ),
                layer + ".zero_unique_calls": count(counts[layer + ".zero_unique_calls"]),
                layer + ".exhausted_calls": count(counts[layer + ".exhausted_calls"]),
            }
        )
    cache_hits = counts["sampler.union_cache_hits"]
    metrics.update(
        {
            "union.membership_calls": count(counts["union.membership_calls"]),
            "sampler.draws": count(tracer.calls.get("sampler", 0)),
            "sampler.self_s": seconds("sampler", self_time=True),
            "sampler.accept_frac": metric(
                ratio(totals["sample_successes"], totals["sample_draws"]), "fraction"
            ),
            "sampler.fail_phi_overflow": count(counts["sampler.fail_phi_overflow"]),
            "sampler.fail_rejection": count(counts["sampler.fail_rejection"]),
            "sampler.fail_no_mass": count(counts["sampler.fail_no_mass"]),
            "sampler.union_cache_hit_frac": metric(
                ratio(cache_hits, cache_hits + counts["sampler.union_calls"]), "fraction"
            ),
            "unroll.fan_calls": count(tracer.calls.get("unroll.fan", 0)),
            "unroll.fan_s": seconds("unroll.fan"),
            "unroll.membership_s": seconds("unroll.membership"),
            "unroll.cache_hit_frac": metric(
                ratio(totals["cache_batch_hits"], totals["cache_batch_words"]), "fraction"
            ),
            "unroll.simulated_steps": count(totals["simulated_steps"]),
            "unroll.warm_s": seconds("unroll.warm"),
            "unroll.witness_s": seconds("unroll.witness"),
            "unroll.build_s": seconds("unroll.build"),
            "engine.step_ops": count(totals["step_ops"]),
            "engine.pre_ops": count(totals["pre_ops"]),
            "engine.decode_ops": count(totals["decode_ops"]),
            "engine.batch_share_frac": metric(
                ratio(
                    totals["batch_steps_saved"],
                    totals["step_ops"] + totals["batch_steps_saved"],
                ),
                "fraction",
            ),
            "engine.accepts_batch_s": seconds("engine.accepts_batch"),
            "engine.kernel_s": seconds("engine.kernel"),
            "store.write_s": seconds("store.write"),
            "store.read_s": seconds("store.read"),
            "store.spilled_levels": count(totals["store_spilled_levels"]),
            "store.level_faults": count(totals["store_level_faults"]),
            "store.spill_bytes": metric(totals["store_spill_bytes"] * per_call, "bytes"),
            "montecarlo.s": seconds("montecarlo"),
            "montecarlo.self_s": seconds("montecarlo", self_time=True),
            "trace.call_s": metric(wall * per_call, "s"),
        }
    )
    return metrics


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(args) -> int:
    import_s = import_repro()
    import repro
    from tracer import Tracer, instrument
    from workloads import WORKLOAD_NAMES, build_plan

    if args.workload not in WORKLOAD_NAMES:
        raise BenchmarkError(f"unknown workload {args.workload!r}; known: {list(WORKLOAD_NAMES)}")
    code = source_hash()
    host = host_record(code)
    plan = build_plan(args.workload, args.seed)
    guard_oversubscription(plan)
    exact = exact_referee(plan)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        plan, elapsed = set_up(args.workload, args.seed)
        setup_times.append(elapsed)
    setup_s = import_s + statistics.median(setup_times)

    rounds = plan.rounds()
    minimum = plan.traced_rounds if args.trace else 1
    outcomes, round_seconds = run_rounds(plan, rounds, repro.count, args.seconds, minimum)
    wall = sum(round_seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = [call_record(plan, outcome) for outcome in outcomes]

    traced_outcomes: List[Outcome] = []
    problems = []
    if args.trace:
        # The traced rounds are the first rounds again: same calls, same seeds.
        traced_count = plan.traced_rounds * len(plan.cells)
        tracer = Tracer()
        api_call = tracer.wrap("api", repro.count)

        def count_traced(*args, **kwargs):
            tracer.trace_id += 1
            return api_call(*args, **kwargs)

        with instrument(tracer):
            traced_outcomes, _ = run_rounds(
                plan, plan.rounds(), count_traced, 0.0, plan.traced_rounds, keep_report=True
            )
        traced_records = [call_record(plan, outcome) for outcome in traced_outcomes]
        if traced_records != records[:traced_count]:
            raise BenchmarkError("tracing changed an estimate: traced digest differs")
        traced_wall = sum(outcome.seconds for outcome in traced_outcomes)
        overhead = sum(outcome.scaled for outcome in outcomes[:traced_count]) / sum(
            outcome.scaled for outcome in traced_outcomes
        )
        self_sum = sum(tracer.self_s.values())
        self_sum_frac = self_sum / traced_wall
        if not SELF_SUM_RANGE[0] <= self_sum_frac <= SELF_SUM_RANGE[1]:
            problems.append(
                f"layer self times sum to {self_sum_frac:.4f} of the traced call wall time"
            )
        spans_path = os.path.join(
            STATE_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
        tracer.write_spans(spans_path)

    check_digests(code, args.workload, args.seed, records)
    # A traced run reports accuracy over its fixed traced calls, so the
    # figures repeat exactly for a seed.
    accuracy = classify(plan, traced_outcomes or outcomes, exact)
    failed = sum(outcome.operation_failed() for outcome in outcomes + traced_outcomes)
    if failed:
        problems.append(f"{failed} call(s) raised or returned a non-finite estimate")
    backends = Counter(str(outcome.backend) for outcome in outcomes)

    times = [outcome.scaled for outcome in outcomes]
    tail_value, tail_percentile = tail(times)
    if args.trace:
        metrics = layer_metrics(tracer, traced_outcomes, traced_wall)
        metrics["trace.counts_per_s_ratio"] = metric(overhead, "ratio")
        metrics["trace.self_sum_frac"] = metric(self_sum_frac, "fraction")
        metrics["band_miss_frac"] = metric(accuracy["band_miss_frac"], "fraction")
        metrics["rel_err.p50"] = metric(accuracy["rel_err.p50"], "fraction")
        metrics["failed_frac"] = metric(accuracy["failed_frac"], "fraction")
    else:
        metrics = {
            "counts_per_s": metric(len(plan.cells) / statistics.median(round_seconds), "1/s"),
            "count_s.p50": metric(statistics.median(times), "s"),
            "count_s.tail": metric(tail_value, "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    cell_seconds = [[] for _ in plan.cells]
    for outcome in outcomes:
        cell_seconds[outcome.cell].append(outcome.scaled)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "calls": len(outcomes),
        "tail_percentile": tail_percentile,
        "backends": dict(backends),
        "digest_first_round": digest(records[: len(plan.cells)]),
        "accuracy": accuracy,
        "cells": [
            {
                "label": cell.label,
                "length": cell.length,
                "exact": exact[index],
                "median_s": statistics.median(cell_seconds[index]),
            }
            for index, cell in enumerate(plan.cells)
        ],
        "round_seconds": round_seconds,
        "call_seconds": times,
        "call_wall_seconds": [outcome.seconds for outcome in outcomes],
        "setup_s": {"import_s": import_s, "repeats_s": setup_times},
        "problems": problems,
        "metrics": metrics,
    }
    record_path = os.path.join(STATE_DIR, f"run-{args.workload}-trace{args.trace}.json")
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key in ("nproc", "python", "numpy", "git_rev", "source_sha256"):
        print(f"  host.{key:<14} {host[key]}")
    print(f"  calls          {len(outcomes)} in {len(round_seconds)} rounds, "
          f"{wall:.2f} s rescaled; backends {dict(backends)}")
    print(f"  digest         {record['digest_first_round'][:16]} (first round)")
    print(f"  tail           p{tail_percentile:.1f} of {len(outcomes)} calls")
    for key, value in accuracy.items():
        print(f"  {key:<14} {value:.4f}")
    for name, entry in metrics.items():
        print(f"  {name:<32} {entry['value']:.6g} {entry['unit']}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    result = {
        "correct": not problems,
        "attempted": len(outcomes) + len(traced_outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


# ----------------------------------------------------------------------
# Several workloads, one subprocess each
# ----------------------------------------------------------------------
def run_subprocess(workload: str, seed: int, seconds: int, trace: int) -> Optional[Dict]:
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
    sys.stdout.write(completed.stdout)
    sys.stderr.write(completed.stderr)
    if completed.returncode != 0 or not completed.stdout.strip():
        return None
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    import_repro()
    from workloads import WORKLOAD_NAMES

    failures = [
        workload
        for workload in WORKLOAD_NAMES
        if run_subprocess(workload, args.seed, args.seconds, args.trace) is None
    ]
    if failures:
        print(f"failed workloads: {failures}")
        return 1
    return 0


def coverage_problems(
    layers: Dict[str, Dict[str, float]], backends: Dict[str, Dict[str, int]]
) -> List[str]:
    """The layer-coverage assertions over every workload's traced metrics."""
    problems = []

    def share(workload: str, *names: str) -> float:
        values = layers[workload]
        return sum(values[name] for name in names) / values["trace.call_s"]

    union = ("union.dp.s", "union.descent.s")
    if not share("dense-union", *union) > share("dfa-descent", *union):
        problems.append("union share is not higher on dense-union than on dfa-descent")
    if not share("dfa-descent", "unroll.fan_s") > share("dense-union", "unroll.fan_s"):
        problems.append("fan share is not higher on dfa-descent than on dense-union")
    for workload, values in layers.items():
        store_used = values["store.write_s"] > 0 and values["store.spilled_levels"] > 0
        if store_used != (workload == "longword-windowed"):
            problems.append(f"store.* activity on {workload}: {store_used}")
        batch_used = values["engine.accepts_batch_s"] > 0
        if batch_used != (workload == "wide-montecarlo"):
            problems.append(f"engine.accepts_batch_s activity on {workload}: {batch_used}")
    if set(backends["wide-fpras"]) != {"numpy"}:
        problems.append(f"wide-fpras calls resolved to {backends['wide-fpras']}, not numpy")
    return problems


def self_check(args) -> int:
    import_repro()
    from workloads import WORKLOAD_NAMES

    layers, backends = {}, {}
    for workload in WORKLOAD_NAMES:
        result = run_subprocess(workload, args.seed, 1, 1)
        if result is None:
            print(f"self-check: traced run of {workload} failed")
            return 1
        layers[workload] = {
            name: entry["value"] for name, entry in result["metrics"].items()
        }
        with open(os.path.join(STATE_DIR, f"run-{workload}-trace1.json")) as handle:
            backends[workload] = json.load(handle)["backends"]
    print("workload             union share  fan share  overhead")
    for workload, values in layers.items():
        union = (values["union.dp.s"] + values["union.descent.s"]) / values["trace.call_s"]
        fan = values["unroll.fan_s"] / values["trace.call_s"]
        ratio = values["trace.counts_per_s_ratio"]
        print(f"{workload:<20} {union:11.3f} {fan:10.3f} {ratio:9.3f}")
    problems = coverage_problems(layers, backends)
    for problem in problems:
        print(f"self-check FAILED: {problem}")
    if not problems:
        print("self-check passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-check", action="store_true",
        help="trace every workload and assert each exercises its layer",
    )
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            return self_check(args)
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
