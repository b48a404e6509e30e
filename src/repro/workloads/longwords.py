"""Long-word workloads: bounded-count automata for the ``n >> 10^4`` regime.

The scaling experiments in the main suites grow the *count* together with the
length: a growth automaton accepting ``Theta(c^n)`` words overflows IEEE
doubles near ``n ~ 1000`` (the level estimates hit ``inf`` and ``gamma0``
rejects them), so none of those families can exercise the streaming store at
the word lengths it exists for.  This module provides the complementary
workload: automata whose accepted count stays *bounded* as ``n`` grows, so
every level estimate is a small finite float and the only thing that scales
is the number of levels.

The canonical instance is :func:`unary_loop_nfa` — one state, one symbol, a
self loop, accepting — which accepts exactly one word per length.  Under the
FPRAS its dynamic program is a chain of ``n`` singleton levels: a one-set
union is its stored size, read-free, and the dominant cost is the backward
sampler's ``O(l)`` descent per draw.  That makes it the sharpest available
probe of per-level *memory*: the dict store retains ``n`` levels of sample
lists, the windowed store retains ``w``.

:func:`measure_fpras_memory` packages one instrumented run (``tracemalloc``
peak, wall time, estimate, counters) and is shared by
``benchmarks/bench_scaling_n.py``, ``tools/bench_report.py`` and the CI
memory-regression gate.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Dict, Iterable, List, Optional

from repro.automata.nfa import NFA
from repro.counting.fpras import NFACounter
from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.policy import ExecutionPolicy

#: Seed shared by the long-word benchmark entry points so their numbers are
#: comparable across hosts and sessions.
LONGWORD_SEED = 20240727

#: The headline word lengths of the long-word sweep (satellite of the
#: streaming-store work): the historical comfortable ceiling, the zone where
#: the resident dict store starts to hurt, and the ``n >> 10^4`` regime the
#: windowed store exists for.
DEFAULT_SWEEP_NS = (1000, 5000, 20000)

#: Largest ``n`` the sweep still runs under the resident dict store.  Its
#: sample tables hold every level's words — ``O(n^2)`` symbols, ~1.6 GB at
#: ``n = 20000`` — so larger lengths are windowed-only by design; the sweep
#: records the skip instead of silently shrinking its coverage.
DICT_STORE_CEILING = 5000


def unary_loop_nfa(symbol: str = "a") -> NFA:
    """The one-state unary automaton accepting exactly one word per length.

    ``Q = {q}``, ``I = q``, ``F = {q}``, ``delta(q, symbol) = {q}`` over the
    unary alphabet ``(symbol,)``.  For every length ``n`` the language
    contains exactly ``symbol^n``, so ``N(q^l) = 1`` at every level — the
    estimates never grow, which is what lets the FPRAS run at lengths where
    counting automata overflow floats.

    >>> nfa = unary_loop_nfa()
    >>> nfa.num_states, sorted(nfa.alphabet)
    (1, ['a'])
    >>> nfa.accepts(("a", "a", "a"))
    True
    """
    return NFA(
        states=["q"],
        initial="q",
        transitions=[("q", symbol, "q")],
        accepting=["q"],
        alphabet=(symbol,),
    )


def long_word_scale() -> ParameterScale:
    """The parameter scale the long-word benchmarks run under.

    Minimal sample sets (``ns = 2``) with no attempt slack.  On a
    single-predecessor chain every union is a singleton, answered by its
    stored size, so the level transition does no membership or sample
    reads, and every descent step holds for the whole run once derived.
    Each of those steps is forced and draws nothing, so every slice holds
    one word, and once a batch holds the jump from its start to level 0
    each of its draws is one acceptance test (see
    :class:`~repro.counting.sampler.SampleDraw`).
    """
    return ParameterScale(
        mode="scaled",
        sample_cap=2,
        attempt_factor=1.0,
        union_trial_cap=8,
        union_trial_floor=1,
    )


def _reset_rss_peak() -> bool:
    """Reset the process peak-RSS watermark (Linux ``clear_refs``).

    Returns whether the reset succeeded; on kernels/filesystems without it
    the RSS probe degrades to a monotone high-water mark (still valid for a
    fresh process, which is how the CI memory gate runs it).
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:  # pragma: no cover - non-Linux / restricted container
        return False


def _rss_peak_bytes() -> int:
    """Current peak resident set size of this process, in bytes."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:  # pragma: no cover - non-Linux fallback
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def measure_fpras_memory(
    n: int,
    *,
    store: str = "windowed",
    window: int = 4,
    epsilon: float = 0.5,
    delta: float = 0.1,
    seed: int = LONGWORD_SEED,
    nfa: Optional[NFA] = None,
    probe: str = "tracemalloc",
) -> Dict[str, object]:
    """Run one long-word FPRAS instance under a memory probe and report it.

    Returns a plain dict with ``n``, ``store``, ``window``, ``backend``
    (the engine the run used), ``probe``, ``seconds``, ``peak_bytes`` (peak
    over the construction *and* the run, so the state tables and any spill
    index are included), ``estimate`` and the run's ``counters``
    (:meth:`NFACounter.diagnostics_counters`, which folds in the
    ``store_*`` columns).

    ``probe`` selects the instrument.  ``"tracemalloc"`` (the default)
    reports exact Python-heap peaks but multiplies wall time severalfold on
    allocation-heavy runs — the honest apples-to-apples column for the
    benchmark report.  ``"rss"`` reads the kernel's peak-resident watermark
    (``VmHWM``, reset per measurement where the kernel allows) with zero
    overhead; its peaks include the interpreter baseline, so compare RSS
    numbers only against other RSS numbers.

    The run's :class:`~repro.counting.policy.ExecutionPolicy` takes a
    private engine (``use_engine_cache=False``) so the shared registry
    cannot carry warm decode memos — or retained memory — between
    measurements, and the run asks for ``details="summary"`` so the result
    object does not duplicate the state tables the measurement is about.
    """
    if probe not in ("tracemalloc", "rss"):
        raise ValueError(f"unknown memory probe {probe!r}")
    automaton = nfa if nfa is not None else unary_loop_nfa()
    parameters = FPRASParameters(
        epsilon=epsilon, delta=delta, scale=long_word_scale(), seed=seed
    )
    policy = ExecutionPolicy(use_engine_cache=False, store=store, window=window)
    if probe == "tracemalloc":
        tracemalloc.start()
    else:
        _reset_rss_peak()
        rss_before = _rss_peak_bytes()
    started = time.perf_counter()
    try:
        counter = NFACounter(automaton, n, parameters=parameters, policy=policy)
        result = counter.run(details="summary")
        seconds = time.perf_counter() - started
        counters = counter.diagnostics_counters()
        if probe == "tracemalloc":
            _, peak_bytes = tracemalloc.get_traced_memory()
        else:
            peak_bytes = max(0, _rss_peak_bytes() - rss_before)
    finally:
        if probe == "tracemalloc":
            tracemalloc.stop()
    counter.store.close()
    return {
        "n": n,
        "store": store,
        "window": window,
        "backend": counter.unroll.backend,
        "probe": probe,
        "seconds": seconds,
        "peak_bytes": peak_bytes,
        "estimate": result.estimate,
        "counters": counters,
    }


def long_word_sweep(
    ns: Iterable[int] = DEFAULT_SWEEP_NS,
    *,
    window: int = 4,
    probe: str = "tracemalloc",
    dict_store_ceiling: Optional[int] = DICT_STORE_CEILING,
    memory_bound_ratio: float = 10.0,
) -> Dict[str, object]:
    """Run the long-word memory sweep over both stores and summarise it.

    For each length the unary workload runs under the dict store (up to
    ``dict_store_ceiling`` — beyond it the resident sample tables are
    ``O(n^2)`` symbols and the run is recorded as skipped, not silently
    dropped) and the windowed store.  The summary reports the windowed
    store's peak-memory ratio between the largest and smallest length
    against ``memory_bound_ratio`` — the streaming claim is that memory is
    bound by the window and the ``O(n * m)`` estimates table, not by the
    sample tables, so the ratio stays far below the ``n`` ratio itself.

    Row counters are trimmed to the store/cache diagnostics the sweep is
    about; ``measure_fpras_memory`` exposes the full set for callers that
    need more.
    """
    rows: List[Dict[str, object]] = []
    skipped: List[Dict[str, object]] = []
    for n in sorted(set(int(value) for value in ns)):
        for store in ("dict", "windowed"):
            if (
                store == "dict"
                and dict_store_ceiling is not None
                and n > dict_store_ceiling
            ):
                skipped.append(
                    {
                        "n": n,
                        "store": store,
                        "reason": (
                            "resident sample tables are O(n^2) symbols "
                            f"(~{2 * n * n * 8 / 1e9:.1f} GB at n={n}); "
                            "lengths beyond the ceiling are windowed-only"
                        ),
                    }
                )
                continue
            row = measure_fpras_memory(n, store=store, window=window, probe=probe)
            row["counters"] = {
                key: value
                for key, value in row["counters"].items()
                if key.startswith("store_") or key == "cache_flushes"
            }
            rows.append(row)
    windowed = {row["n"]: row for row in rows if row["store"] == "windowed"}
    n_min = min(windowed)
    n_max = max(windowed)
    ratio = windowed[n_max]["peak_bytes"] / max(1, windowed[n_min]["peak_bytes"])
    summary: Dict[str, object] = {
        "probe": probe,
        "window": window,
        "n_min": n_min,
        "n_max": n_max,
        "windowed_peak_ratio": ratio,
        "memory_bound_ratio": memory_bound_ratio,
        "within_memory_bound": ratio <= memory_bound_ratio,
        "skipped": skipped,
    }
    return {"rows": rows, "summary": summary}
