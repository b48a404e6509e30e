"""The vectorised batch walk vs the generic sorted walk, over an m sweep.

Monte-Carlo accepts each block of words with one ``accepts_batch`` call.
On the bitset engine that call walks the batch's prefix trie in NumPy
(:class:`~repro.automata.block.BatchWalker`): a fixed handful of NumPy
calls per trie level regardless of ``m``.  The generic sorted walk
(``Engine.simulate_batch``) steps the same trie nodes one ``step`` at a
time, each costing one Python-level loop iteration per byte of the state
set.  This benchmark sweeps ``m``, times both on one bitset engine, and
reports from which ``m`` the vectorised walk never loses again.

Like every benchmark in this tree, the assertions pin the *shape* of the
claim (who wins where), not absolute timings.
"""

from __future__ import annotations

from block_workloads import best_of, block_instance, block_words, generic_accepts

from repro.automata.engine import create_engine
from repro.harness.reporting import format_table

#: The m sweep bracketing the membership crossover region (all m <= 512).
CROSSOVER_STATE_COUNTS = (32, 64, 128, 192, 256, 384, 512)
CROSSOVER_WORDS = 250
CROSSOVER_WORD_LENGTH = 12


def _sweep(bench_rng):
    """Per-m timings of both walks on one bitset engine."""
    rows = []
    for num_states in CROSSOVER_STATE_COUNTS:
        nfa = block_instance(num_states, seed=29 + num_states)
        words = block_words(nfa, bench_rng, CROSSOVER_WORDS, CROSSOVER_WORD_LENGTH)
        engine = create_engine(nfa, "bitset")
        assert engine.accepts_batch(words) == generic_accepts(engine, words)
        row = {
            "m": num_states,
            "generic_s": best_of(lambda: generic_accepts(engine, words)),
            "vectorised_s": best_of(lambda: engine.accepts_batch(words)),
        }
        row["speedup"] = row["generic_s"] / row["vectorised_s"]
        rows.append(row)
    return rows


def _crossover(rows):
    """Smallest m from which the vectorised walk never loses again, or None."""
    winning_from = None
    for row in rows:
        if row["speedup"] >= 1.0:
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
            title="Batch-walk sweep (bitset: generic sorted walk vs vectorised walk)",
        )
    )
    crossover = _crossover(rows)
    report(f"Batch-walk crossover note: the vectorised walk wins from m={crossover}")
    # The vectorised walk (what Monte-Carlo drives) must have crossed over
    # by the sweep's end.
    assert crossover is not None, (
        f"the vectorised walk never overtook the generic walk: "
        f"{[(row['m'], round(row['speedup'], 2)) for row in rows]}"
    )
