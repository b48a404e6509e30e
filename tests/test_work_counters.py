"""Work-counter regression tests: lock in the amortisation accounting.

The paper's complexity argument is about *work counts* — how many AppUnion
invocations, membership-oracle calls and sampler draws Algorithm 3 performs
— not wall-clock time.  These tests freeze the exact counter values on one
fixed small instance under a fixed seed, so any engine or counting-layer
refactor that silently changes the amortisation behaviour (extra oracle
calls, lost cache sharing, different union batching) fails loudly instead of
showing up later as a complexity regression.

The values below were recorded from the reference implementation; the
parity suite guarantees both backends produce the same accounting, which is
re-asserted here directly.
"""

from __future__ import annotations

import pytest

from repro.automata.families import substring_nfa
from repro.automata.unroll import ReachabilityCache, UnrolledAutomaton
from repro.counting.fpras import NFACounter
from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.policy import ExecutionPolicy

#: The fixed instance: words containing "101", unrolled to length 8.
LENGTH = 8
SEED = 7

#: Locked counter values for the fixed instance, seed and parameters.
EXPECTED = {
    "estimate": 138.5763888888889,
    # One-set unions are read directly, so only multi-set unions count, and
    # the descent estimates each of those once per run.
    "union_calls": 23,
    # A coverage count asks every set of the union about each trial's sample.
    "membership_calls": 612,
    "sample_draws": 1006,
    "sample_successes": 289,
    "padded_states": 1,
    "ns": 10,
    "xns": 60,
}

#: Locked mask-level engine accounting (backend-independent by parity;
#: ``decode_ops`` is excluded — it is representation-specific by design).
EXPECTED_ENGINE = {
    # The live-set unrolling plus the reachability cache's steps.
    "step_ops": 96,
    # Fans are computed once per (level, handle) per run.
    "pre_ops": 94,
    # Only samples some coverage count asked about, and their prefixes.
    "cache_words": 89,
    # Each union plan looks a stored sample up once per run, when a trial
    # first draws it.
    "cache_lookups": 187,
    # A stored sample's reachable set is simulated on first use, never
    # for a sample no union trial draws.
    "simulated_steps": 88,
}


def _run(backend: str):
    parameters = FPRASParameters(
        epsilon=0.5,
        delta=0.2,
        scale=ParameterScale.practical(sample_cap=10, union_trial_cap=12),
        seed=SEED,
    )
    policy = ExecutionPolicy(backend=backend)
    return NFACounter(substring_nfa("101"), LENGTH, parameters, policy=policy).run()


@pytest.mark.parametrize("backend", ["reference", "bitset"])
def test_locked_work_counters(backend):
    result = _run(backend)
    observed = {
        "estimate": result.estimate,
        "union_calls": result.union_calls,
        "membership_calls": result.membership_calls,
        "sample_draws": result.sample_draws,
        "sample_successes": result.sample_successes,
        "padded_states": result.padded_states,
        "ns": result.ns,
        "xns": result.xns,
    }
    assert observed == EXPECTED
    assert result.backend == backend


@pytest.mark.parametrize("backend", ["reference", "bitset"])
def test_locked_engine_counters(backend):
    result = _run(backend)
    observed = {key: result.engine_counters[key] for key in EXPECTED_ENGINE}
    assert observed == EXPECTED_ENGINE


def test_reachability_cache_accounting():
    """The prefix-sharing amortisation: exact step counts on fixed words."""
    cache = ReachabilityCache(substring_nfa("101"))
    cache.reachable("10101")
    assert cache.simulated_steps == 5  # one step per symbol of a fresh word
    cache.reachable("10101")
    assert cache.simulated_steps == 5  # fully cached: no new work
    cache.reachable("101011")
    assert cache.simulated_steps == 6  # extends a cached prefix by one step
    cache.reachable("100")
    assert cache.simulated_steps == 7  # shares the cached "10" prefix, adds one
    assert len(cache) == 8  # empty word + every distinct prefix seen
    assert cache.lookups == 4


def test_membership_batching_costs_one_simulation_per_word():
    """One reachability handle answers all states at a level (the batching)."""
    nfa = substring_nfa("101")
    unroll = UnrolledAutomaton(nfa, 6)
    states = sorted(nfa.states, key=repr)
    cover = unroll.coverage_batch(unroll.engine.encode(states))
    before = unroll.cache.simulated_steps
    (first,) = cover(["010101"])
    assert unroll.cache.simulated_steps == before + 6
    # Repeating the query, over any union, performs no further simulation.
    for size in range(1, len(states) + 1):
        unroll.coverage_batch(unroll.engine.encode(states[:size]))(["010101"])
    assert unroll.cache.simulated_steps == before + 6
    # The count matches the per-state oracles.
    assert first == sum(1 for state in states if unroll.member(state, "010101"))
