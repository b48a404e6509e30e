"""E2 — accuracy of the FPRAS against exact ground truth (Theorem 3).

For every structured family in the accuracy suite, runs the FPRAS a few
times, compares against the exact count and reports mean / max relative error
and the fraction of runs inside the ``(1 + eps)`` multiplicative band.  The
paper's guarantee is probabilistic; with laptop-scale parameters the band is
wider, so the benchmark asserts a relaxed-but-meaningful version of the
claim: the *mean* relative error stays well under the configured ``epsilon``
amplified by a small constant.
"""

from __future__ import annotations

from repro.harness.experiments import run_accuracy
from repro.harness.reporting import format_table

EPSILON = 0.3


def test_e2_fpras_accuracy(benchmark, report):
    result = benchmark.pedantic(
        run_accuracy,
        kwargs={"quick": True, "epsilon": EPSILON, "trials": 3, "length": 9},
        rounds=1,
        iterations=1,
    )
    report(format_table(result.rows, title=f"E2: {result.description}"))

    for row in result.rows:
        assert row["exact"] > 0, f"workload {row['name']} has an empty slice"
        assert row["mean_rel_error"] <= 2.0 * EPSILON, row
    overall = sum(row["within_fraction"] for row in result.rows) / len(result.rows)
    assert overall >= 0.5
