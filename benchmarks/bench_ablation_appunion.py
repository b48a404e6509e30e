"""Ablations of three switches of the scaled implementation.

Each switch (see :class:`~repro.counting.params.ParameterScale`) is compared
on one instance with one seed:

* ``reuse_union_estimates`` — memoising the sampler's AppUnion estimates for
  the run (fast default) vs the paper's fresh randomisation per call;
* ``strict_sample_consumption`` — the paper's destructive dequeue vs the
  cyclic reuse of the stored sample multiset;
* membership-oracle amortisation — the per-word reachability cache vs naive
  re-simulation (measured as simulated steps per lookup on the warm cache).

The two AppUnion ablations run on a dense random NFA whose unions overlap:
a union of one set is read with no AppUnion call, so on an automaton whose
unions are all singletons (such as ``suffix_nfa``) neither switch changes
anything.  The assertions capture the expected trade-off shape: the fast
defaults do not sacrifice accuracy beyond the configured band while doing
measurably less work.
"""

from __future__ import annotations

import time

from repro.automata.exact import count_exact
from repro.automata.families import suffix_nfa
from repro.automata.random_gen import random_nonempty_nfa
from repro.automata.unroll import ReachabilityCache
from repro.counting.fpras import FPRASParameters, NFACounter
from repro.counting.params import ParameterScale
from repro.harness.reporting import format_table

LENGTH = 8
EPSILON = 0.4


def _run_variant(nfa, scale: ParameterScale, seed: int = 3):
    parameters = FPRASParameters(epsilon=EPSILON, delta=0.2, scale=scale, seed=seed)
    started = time.perf_counter()
    result = NFACounter(nfa, LENGTH, parameters).run()
    elapsed = time.perf_counter() - started
    return result, elapsed


def _overlapping_nfa():
    """20 states, half of them accepting, with overlapping unions."""
    return random_nonempty_nfa(20, LENGTH, density=0.12, accepting_fraction=0.5, seed=11)


def test_ablation_union_estimate_reuse(benchmark, report):
    nfa = _overlapping_nfa()
    exact = count_exact(nfa, LENGTH)

    def run_both():
        reuse_result, reuse_time = _run_variant(
            nfa, ParameterScale.practical(sample_cap=16, union_trial_cap=24)
        )
        fresh_result, fresh_time = _run_variant(
            nfa, ParameterScale.faithful_scaled(sample_cap=16, union_trial_cap=24)
        )
        return reuse_result, reuse_time, fresh_result, fresh_time

    reuse_result, reuse_time, fresh_result, fresh_time = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    rows = [
        {
            "variant": "reuse estimates (default)",
            "estimate": reuse_result.estimate,
            "rel_error": reuse_result.relative_error(exact),
            "union_calls": reuse_result.union_calls,
            "seconds": reuse_time,
        },
        {
            "variant": "fresh estimates (paper-faithful)",
            "estimate": fresh_result.estimate,
            "rel_error": fresh_result.relative_error(exact),
            "union_calls": fresh_result.union_calls,
            "seconds": fresh_time,
        },
    ]
    report(format_table(rows, title="Ablation: AppUnion estimate reuse for the run"))

    # Reuse must do strictly fewer AppUnion calls and stay accurate.
    assert reuse_result.union_calls < fresh_result.union_calls
    assert reuse_result.relative_error(exact) < 0.6
    assert fresh_result.relative_error(exact) < 0.6


def test_ablation_sample_consumption(benchmark, report):
    nfa = _overlapping_nfa()
    exact = count_exact(nfa, LENGTH)

    def run_both():
        cyclic_result, _ = _run_variant(
            nfa, ParameterScale.practical(sample_cap=16, union_trial_cap=24)
        )
        strict_result, _ = _run_variant(
            nfa,
            ParameterScale.practical(sample_cap=16, union_trial_cap=24).with_overrides(
                strict_sample_consumption=True
            ),
        )
        return cyclic_result, strict_result

    cyclic_result, strict_result = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = [
        {
            "variant": "cyclic reuse (default)",
            "estimate": cyclic_result.estimate,
            "rel_error": cyclic_result.relative_error(exact),
        },
        {
            "variant": "strict dequeue (paper)",
            "estimate": strict_result.estimate,
            "rel_error": strict_result.relative_error(exact),
        },
    ]
    report(format_table(rows, title="Ablation: sample consumption policy"))
    assert cyclic_result.relative_error(exact) < 0.6


def test_ablation_membership_cache(benchmark, report):
    nfa = suffix_nfa("0110")
    words = [nfa.some_word_of_length(LENGTH) for _ in range(1)] * 50

    def warm_lookups():
        cache = ReachabilityCache(nfa)
        for word in words:
            cache.reachable(word)
        return cache

    cache = benchmark.pedantic(warm_lookups, rounds=1, iterations=1)
    rows = [
        {
            "metric": "lookups",
            "value": cache.lookups,
        },
        {
            "metric": "simulated transition steps",
            "value": cache.simulated_steps,
        },
    ]
    report(format_table(rows, title="Ablation: membership-oracle amortisation"))
    # The paper's amortisation claim: repeated membership checks on stored
    # words cost O(1) after the first simulation of each word.
    assert cache.simulated_steps <= LENGTH
    assert cache.lookups == len(words)
