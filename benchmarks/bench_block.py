"""Bitset vs numpy block simulation: membership batches and fpras end to end.

The bitset backend costs one Python-level loop iteration per byte of a
state set, from its lowest non-zero byte up; the numpy block backend costs
a fixed handful of NumPy calls per step (scalar path) or per trie level
(batched path) regardless of ``m``.  This benchmark sweeps ``m`` and
records two comparisons:

* membership — scalar and batched acceptance of a word multiset.  Batched
  numpy overtakes bitset somewhere in the sweep, which is why Monte-Carlo,
  whose work is those batches, runs an unset backend on numpy;
* fpras — ``repro.count(..., method="fpras")`` on each backend.  Its work
  is per-handle ``pre`` / ``step`` on small state sets, where bitset is
  faster at every ``m`` of the sweep, which is why ``auto`` means bitset
  for every other method.

Like every benchmark in this tree, the assertions pin the *shape* of the
claim (who wins where), not absolute timings.
"""

from __future__ import annotations

from block_workloads import best_of, block_instance, block_words

import repro
from repro.automata.engine import create_engine
from repro.counting.policy import ExecutionPolicy
from repro.harness.reporting import format_table

#: The m sweep bracketing the membership crossover region (all m <= 512).
CROSSOVER_STATE_COUNTS = (32, 64, 128, 192, 256, 384, 512)
CROSSOVER_WORDS = 250
CROSSOVER_WORD_LENGTH = 12
#: Length and seed of the fpras row's count.
FPRAS_LENGTH = 3
FPRAS_SEED = 7


def _fpras_seconds(nfa, backend: str):
    """Best-of wall time and estimate of one fpras count on ``backend``."""
    policy = ExecutionPolicy(backend=backend)

    def run():
        return repro.count(nfa, FPRAS_LENGTH, method="fpras", seed=FPRAS_SEED, policy=policy)

    return best_of(run), run().estimate


def _sweep(bench_rng):
    """Per-m membership and fpras timings for both fast backends."""
    rows = []
    for num_states in CROSSOVER_STATE_COUNTS:
        nfa = block_instance(num_states, seed=29 + num_states)
        words = block_words(nfa, bench_rng, CROSSOVER_WORDS, CROSSOVER_WORD_LENGTH)
        bitset = create_engine(nfa, "bitset")
        block = create_engine(nfa, "numpy")
        assert bitset.accepts_batch(words) == block.accepts_batch(words)

        def scalar_pass(engine):
            def run():
                for word in words:
                    engine.accepts(word)
            return run

        bitset_fpras_s, bitset_estimate = _fpras_seconds(nfa, "bitset")
        numpy_fpras_s, numpy_estimate = _fpras_seconds(nfa, "numpy")
        assert bitset_estimate == numpy_estimate
        row = {
            "m": num_states,
            "bitset_scalar_s": best_of(scalar_pass(bitset)),
            "numpy_scalar_s": best_of(scalar_pass(block)),
            "bitset_batch_s": best_of(lambda: bitset.accepts_batch(words)),
            "numpy_batch_s": best_of(lambda: block.accepts_batch(words)),
            "bitset_fpras_s": bitset_fpras_s,
            "numpy_fpras_s": numpy_fpras_s,
        }
        row["scalar_speedup"] = row["bitset_scalar_s"] / row["numpy_scalar_s"]
        row["batch_speedup"] = row["bitset_batch_s"] / row["numpy_batch_s"]
        row["fpras_speedup"] = row["bitset_fpras_s"] / row["numpy_fpras_s"]
        rows.append(row)
    return rows


def _crossover(rows, key: str):
    """Smallest m from which the numpy backend never loses again, or None."""
    winning_from = None
    for row in rows:
        if row[key] >= 1.0:
            if winning_from is None:
                winning_from = row["m"]
        else:
            winning_from = None
    return winning_from


def test_block_backend_crossover(benchmark, report, bench_rng):
    rows = benchmark.pedantic(_sweep, args=(bench_rng,), rounds=1, iterations=1)
    report(
        format_table(
            rows,
            title=(
                "Block-simulation sweep (bitset vs numpy: scalar and batched "
                "membership, fpras end to end)"
            ),
        )
    )
    scalar_crossover = _crossover(rows, "scalar_speedup")
    batch_crossover = _crossover(rows, "batch_speedup")
    report(
        "Block crossover note: batched path overtakes bitset from "
        f"m={batch_crossover}, scalar path from m={scalar_crossover}; "
        f"fpras crossover: {_crossover(rows, 'fpras_speedup')}"
    )
    # The batched path (what Monte-Carlo drives) must have crossed over by
    # the sweep's end.
    assert batch_crossover is not None, (
        f"numpy batched path never overtook bitset: "
        f"{[(row['m'], round(row['batch_speedup'], 2)) for row in rows]}"
    )
    assert batch_crossover <= max(CROSSOVER_STATE_COUNTS)
    # fpras, which "auto" runs on bitset at every size, must not be slower
    # there than on numpy at any m.
    for row in rows:
        assert row["fpras_speedup"] <= 1.0, (
            f"fpras ran {1 / row['fpras_speedup']:.2f}x as fast on numpy as on "
            f"bitset at m={row['m']}"
        )
