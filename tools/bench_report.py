"""Emit a machine-readable performance snapshot (``BENCH_10.json``).

Since PR 7 the bench report *is* an audit manifest: the counting workloads
are declared as scenario-matrix specs (:mod:`repro.audit.scenarios`) and
executed through the manifest pipeline (:mod:`repro.audit.manifest`), so
the emitted document carries the full audit trail — git revision,
python/numpy versions, per-scenario workload fingerprints, estimates vs.
exact ground truth, observed relative error, median wall times and
engine-counter deltas — and two consecutive ``BENCH_10.json`` artifacts can
be gated with ``repro audit-diff`` exactly like the CI audit manifests.
Alongside the synthetic hot-path workloads the report times real-workload
corpus fixtures (:mod:`repro.corpus` — log/lint/validation regexes and RPQ
query classes) via :data:`CORPUS_SPEC`.  The serving-layer benchmarks
(cold vs. cached ``POST /count`` against a real
:class:`~repro.serve.server.CountingServer`) and the headline speedup
ratios ride along in a ``bench`` extras section.

With ``--scaling-n`` the report additionally runs the long-word streaming
sweep (:func:`repro.workloads.longwords.long_word_sweep`): the unary
bounded-count workload at ``n ∈ {1000, 5000, 20000}`` under the dict store
(up to its ``O(n^2)`` ceiling) and the windowed store, with a tracemalloc
peak-memory column per row and the windowed peak-memory ratio (largest vs
smallest ``n``) checked against the 10x streaming bound.  The sweep takes
tens of minutes under tracemalloc — it is off by default so the CI smoke
invocation stays fast.

Every workload is seeded (:data:`SEED`), so estimate drift across runs of
the same commit indicates a determinism bug, not noise; wall times are
medians over ``--repeats`` runs on a warm engine registry.

Usage::

    PYTHONPATH=src python tools/bench_report.py --output BENCH_10.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from statistics import median
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.audit.manifest import run_scenarios, write_manifest
from repro.audit.scenarios import Scenario, expand_matrix
from repro.corpus import corpus_matrix_spec

#: One seed for every workload in the report.
SEED = 20240727

#: Sampling caps keeping every workload at smoke scale (seconds, not minutes).
SCALE = {"sample_cap": 12, "union_trial_cap": 16}

#: The counting workloads as declarative matrix specs.  Each spec expands
#: factorially; together they cover the hot paths: FPRAS, batched
#: Monte-Carlo and the exact DP reference.
BENCH_SPECS: List[Mapping[str, object]] = [
    {
        "families": [{"family": "substring", "args": {"pattern": "101"},
                      "lengths": [10]}],
        "methods": ["fpras"],
        "accuracy": [{"epsilon": 0.4, "delta": 0.1}],
        "seeds": [SEED],
        "scale": SCALE,
    },
    {
        "families": [{"family": "divisibility", "args": {"divisor": 48},
                      "lengths": [12]}],
        "methods": ["montecarlo", "exact"],
        "accuracy": [{"epsilon": 0.4, "delta": 0.1}],
        "seeds": [SEED],
        "options": {"montecarlo": {"num_samples": 20000}},
    },
]

#: Real-workload corpus fixtures in the bench mix: a dense log-token regex,
#: the biggest validation pattern in the corpus (UUID, m=37 at n=36), and an
#: RPQ query class over a multimodal transport alphabet.
CORPUS_SPEC: Mapping[str, object] = corpus_matrix_spec(
    ids=("log.http_status", "valid.uuid", "rpq.transport.single_flight"),
    seeds=(SEED,),
    epsilon=0.4,
    delta=0.1,
    scale=SCALE,
)

def bench_scenarios() -> List[Scenario]:
    """The flat scenario list the bench manifest runs."""
    scenarios: List[Scenario] = []
    for spec in [*BENCH_SPECS, CORPUS_SPEC]:
        scenarios.extend(expand_matrix(spec))
    return scenarios


def _time_call(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """Median wall time over ``repeats`` calls plus the last result."""
    timings = []
    result: object = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        timings.append(time.perf_counter() - started)
    return median(timings), result


def _serve_benchmarks(repeats: int) -> Tuple[List[Dict[str, object]], Dict[str, float]]:
    """Time the serving layer: cold ``POST /count`` vs content-cache hits.

    Cold calls use a fresh seed per request (guaranteed cache miss, a full
    counting run each time); cached calls repeat one seed, so after a
    warm-up request every timed call is answered from the result cache
    without running a trial.  Returns the benchmark entries plus the
    cache-hit counters observed at the server.
    """
    import urllib.request

    from repro.automata.families import divisibility_nfa
    from repro.automata.serialization import nfa_to_dict
    from repro.serve import CountingServer

    document = nfa_to_dict(divisibility_nfa(48))

    def post(server: "CountingServer", seed: int) -> object:
        body = json.dumps(
            {
                "automaton": document,
                "length": 10,
                "method": "fpras",
                "epsilon": 0.4,
                "seed": seed,
            }
        ).encode("utf-8")
        request = urllib.request.Request(server.url + "/count", data=body)
        with urllib.request.urlopen(request, timeout=120) as response:
            return json.loads(response.read())

    entries: List[Dict[str, object]] = []
    with CountingServer(port=0) as server:
        # Disjoint from the cached workload's seed so every call here misses.
        cold_seeds = iter(range(SEED + 1, SEED + 1 + repeats))
        cold_seconds, cold_reply = _time_call(
            lambda: post(server, next(cold_seeds)), repeats
        )
        entries.append(
            {
                "name": "serve_count_cold",
                "params": {"family": "divisibility(48)", "length": 10,
                           "epsilon": 0.4, "cache": "miss"},
                "median_seconds": cold_seconds,
                "repeats": repeats,
                "estimate": cold_reply["estimate"],
                "backend": cold_reply["backend"],
            }
        )
        post(server, SEED)  # warm the cache line the cached workload repeats
        cached_seconds, cached_reply = _time_call(
            lambda: post(server, SEED), repeats
        )
        entries.append(
            {
                "name": "serve_count_cached",
                "params": {"family": "divisibility(48)", "length": 10,
                           "epsilon": 0.4, "cache": "hit"},
                "median_seconds": cached_seconds,
                "repeats": repeats,
                "estimate": cached_reply["estimate"],
                "backend": cached_reply["backend"],
            }
        )
        stats = server.stats()
    counters = {
        "cache_hits": stats["counters"]["cache_hits"],
        "cache_misses": stats["counters"]["cache_misses"],
        "counting_runs": stats["counters"]["counting_runs"],
    }
    return entries, counters


def _find_seconds(
    records: List[Mapping[str, object]],
    *,
    method: str,
    family: str,
) -> Optional[float]:
    """Median wall time of the first record matching the given spec fields."""
    for record in records:
        spec = record["spec"]
        if spec["method"] == method and spec["family"] == family:
            return record["elapsed_seconds"]
    return None


def _ratios(
    records: List[Mapping[str, object]],
    serve_medians: Mapping[str, float],
) -> Dict[str, float]:
    """The headline speedup ratios derived from the manifest records."""
    fpras_serial = _find_seconds(records, method="fpras", family="substring")
    montecarlo = _find_seconds(records, method="montecarlo", family="divisibility")
    ratios: Dict[str, float] = {}
    if serve_medians.get("serve_count_cached"):
        ratios["serve_cache_speedup"] = (
            serve_medians["serve_count_cold"] / serve_medians["serve_count_cached"]
        )
    if fpras_serial and montecarlo:
        ratios["montecarlo_vs_fpras_wall"] = montecarlo / fpras_serial
    return ratios


def build_report(repeats: int, scaling_n: bool = False) -> Dict[str, object]:
    """Run the bench matrix and serving benchmarks into one manifest."""
    scenarios = bench_scenarios()
    serve_entries, serve_counters = _serve_benchmarks(repeats)
    serve_medians = {entry["name"]: entry["median_seconds"] for entry in serve_entries}
    manifest = run_scenarios(scenarios, repeats=repeats)
    manifest["bench"] = {
        "seed": SEED,
        "ratios": _ratios(manifest["scenarios"], serve_medians),
        "serve_benchmarks": serve_entries,
        "serve_counters": serve_counters,
    }
    if scaling_n:
        from repro.workloads.longwords import long_word_sweep

        manifest["bench"]["scaling_n"] = long_word_sweep()
    return manifest


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the smoke-scale bench matrix and write BENCH_10.json"
    )
    parser.add_argument(
        "--output", default="BENCH_10.json", help="output path (default: %(default)s)"
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per workload; the median is reported "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--scaling-n", action="store_true",
        help="also run the long-word streaming sweep (n up to 20000; "
        "tens of minutes under tracemalloc — not part of the CI smoke run)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    document = build_report(args.repeats, scaling_n=args.scaling_n)
    # The bench artifact is a named, per-run file (CI uploads it per run, so
    # the trajectory accumulates there); local reruns may overwrite it.
    path = write_manifest(document, args.output, overwrite=True)
    names = ", ".join(record["id"] for record in document["scenarios"])
    print(
        f"wrote {path} ({len(document['scenarios'])} counting scenarios: {names}; "
        f"{len(document['bench']['serve_benchmarks'])} serve benchmarks)"
    )
    for key, value in sorted(document["bench"]["ratios"].items()):
        print(f"  {key}: {value:.3f}")
    scaling = document["bench"].get("scaling_n")
    if scaling:
        summary = scaling["summary"]
        print(
            f"  scaling-n: windowed peak ratio n={summary['n_max']} vs "
            f"n={summary['n_min']}: {summary['windowed_peak_ratio']:.2f}x "
            f"(bound {summary['memory_bound_ratio']:.0f}x, "
            f"within={summary['within_memory_bound']})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
