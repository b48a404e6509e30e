"""Property-based tests (hypothesis) for the core data structures and invariants.

These cover structural invariants that must hold for *every* automaton, not
just the hand-picked examples: agreement between independent exact counters,
monotonicity/inclusion–exclusion of language operations, length preservation
of transformations, and the deterministic behaviour of the Karp–Luby
estimator under perfect inputs.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.automata.dfa import determinize, minimize
from repro.automata.exact import count_exact, count_exact_via_dfa, count_per_state_exact
from repro.automata.nfa import NFA
from repro.automata.operations import intersection, union
from repro.automata.random_gen import random_nfa
from repro.counting.api import count
from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.union import SetAccess, approximate_union

# Hypothesis draws the *seed* of the structured random generator, which keeps
# shrinking effective while exploring a rich space of automata.
nfa_seeds = st.integers(min_value=0, max_value=10_000)
small_sizes = st.integers(min_value=1, max_value=6)
small_lengths = st.integers(min_value=0, max_value=6)

COMMON_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _draw_nfa(seed: int, size: int, density: float = 0.35) -> NFA:
    return random_nfa(size, density=density, seed=seed)


# ----------------------------------------------------------------------
# Exact counting invariants
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(seed=nfa_seeds, size=small_sizes, length=small_lengths)
def test_subset_dp_agrees_with_bruteforce(seed, size, length):
    nfa = _draw_nfa(seed, size)
    assert count_exact(nfa, length) == count(nfa, length, method="bruteforce").raw


@COMMON_SETTINGS
@given(seed=nfa_seeds, size=small_sizes, length=small_lengths)
def test_subset_dp_agrees_with_determinisation(seed, size, length):
    nfa = _draw_nfa(seed, size)
    assert count_exact(nfa, length) == count_exact_via_dfa(nfa, length)


@COMMON_SETTINGS
@given(seed=nfa_seeds, size=small_sizes, length=st.integers(min_value=0, max_value=5))
def test_slice_count_bounded_by_alphabet_power(seed, size, length):
    nfa = _draw_nfa(seed, size)
    assert 0 <= count_exact(nfa, length) <= 2**length


@COMMON_SETTINGS
@given(seed=nfa_seeds, size=small_sizes, length=st.integers(min_value=1, max_value=5))
def test_per_state_counts_partition_by_last_symbol(seed, size, length):
    """|L(q^l)| equals the size of the union of predecessor languages split by symbol.

    This is the identity Algorithm 3 exploits:
    L(q^l) = (U_{p in Pred(q,0)} L(p^{l-1})) . 0  ⊎  (U_{p in Pred(q,1)} L(p^{l-1})) . 1.
    """
    from repro.automata.exact import ExactCounter

    nfa = _draw_nfa(seed, size)
    counter = ExactCounter(nfa)
    counter.advance_to(length)
    for state in nfa.states:
        expected = 0
        for symbol in nfa.alphabet:
            predecessors = nfa.predecessors(state, symbol)
            expected += counter.union_count(predecessors, length - 1)
        assert counter.state_count(state, length) == expected


# ----------------------------------------------------------------------
# Operation invariants
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(seed=nfa_seeds, size=small_sizes, length=st.integers(min_value=0, max_value=5))
def test_union_and_intersection_inclusion_exclusion(seed, size, length):
    first = _draw_nfa(seed, size)
    second = _draw_nfa(seed + 1, size)
    union_count = count_exact(union([first, second]), length)
    try:
        intersection_count = count_exact(intersection(first, second), length)
    except Exception:
        return  # disjoint alphabets cannot occur here, but stay safe
    assert union_count + intersection_count == count_exact(first, length) + count_exact(
        second, length
    )


@COMMON_SETTINGS
@given(seed=nfa_seeds, size=small_sizes, length=st.integers(min_value=0, max_value=5))
def test_reverse_preserves_slice_counts(seed, size, length):
    nfa = _draw_nfa(seed, size)
    assert count_exact(nfa.reverse(), length) == count_exact(nfa, length)


@COMMON_SETTINGS
@given(seed=nfa_seeds, size=small_sizes, length=st.integers(min_value=0, max_value=5))
def test_single_accepting_normalisation_preserves_counts(seed, size, length):
    nfa = _draw_nfa(seed, size)
    assert count_exact(nfa.normalized_single_accepting(), length) == count_exact(nfa, length)


@COMMON_SETTINGS
@given(seed=nfa_seeds, size=small_sizes, length=st.integers(min_value=0, max_value=5))
def test_trim_preserves_counts(seed, size, length):
    nfa = _draw_nfa(seed, size)
    assert count_exact(nfa.trim(), length) == count_exact(nfa, length)


@COMMON_SETTINGS
@given(seed=nfa_seeds, size=small_sizes)
def test_minimized_dfa_preserves_counts(seed, size):
    nfa = _draw_nfa(seed, size)
    dfa = determinize(nfa)
    minimal = minimize(dfa)
    for length in range(5):
        assert minimal.count_slice(length) == dfa.count_slice(length)
    assert minimal.num_states <= dfa.completed().num_states


# ----------------------------------------------------------------------
# Unrolling invariants
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(seed=nfa_seeds, size=small_sizes, length=st.integers(min_value=0, max_value=5))
def test_live_states_exactly_nonempty_languages(seed, size, length):
    from repro.automata.unroll import UnrolledAutomaton

    nfa = _draw_nfa(seed, size)
    unroll = UnrolledAutomaton(nfa, length)
    table = count_per_state_exact(nfa, length)
    for state in nfa.states:
        for level in range(length + 1):
            assert unroll.is_live(state, level) == (table[(state, level)] > 0)


@COMMON_SETTINGS
@given(seed=nfa_seeds, size=small_sizes, length=st.integers(min_value=0, max_value=5))
def test_witnesses_belong_to_state_languages(seed, size, length):
    from repro.automata.unroll import UnrolledAutomaton

    nfa = _draw_nfa(seed, size)
    unroll = UnrolledAutomaton(nfa, length)
    for state in nfa.states:
        witness = unroll.witness(state, length) if unroll.is_live(state, length) else None
        if witness is not None:
            assert len(witness) == length
            assert state in nfa.reachable_states(witness)


# ----------------------------------------------------------------------
# AppUnion invariants under perfect inputs
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    sizes=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=4),
    overlap=st.integers(min_value=0, max_value=20),
)
def test_appunion_brackets_true_union_size(seed, sizes, overlap):
    """With perfect oracles, exact sizes and uniform samples, the estimate of
    |T_1 ∪ …| stays within a generous multiplicative factor of the truth."""
    rng = random.Random(seed)
    parameters = FPRASParameters(
        epsilon=0.3,
        delta=0.1,
        scale=ParameterScale.practical(sample_cap=64, union_trial_cap=400),
    )
    shared = list(range(-overlap, 0))
    accesses = []
    universe = set()
    cursor = 0
    for set_size in sizes:
        elements = shared + list(range(cursor, cursor + set_size))
        cursor += set_size
        universe.update(elements)
        samples = [rng.choice(elements) for _ in range(60)]
        accesses.append(
            SetAccess(
                oracle=lambda item, members=frozenset(elements): item in members,
                samples=samples,
                size_estimate=len(elements),
            )
        )
    estimate = approximate_union(
        accesses, epsilon=0.2, delta=0.05, size_slack=0.0, parameters=parameters, rng=rng
    )
    truth = len(universe)
    assert truth / 2.0 <= estimate.estimate <= truth * 2.0


@COMMON_SETTINGS
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_appunion_never_exceeds_sum_of_sizes(seed):
    rng = random.Random(seed)
    parameters = FPRASParameters(epsilon=0.3, delta=0.1)
    elements = list(range(25))
    accesses = [
        SetAccess(
            oracle=lambda item: item in set(elements),
            samples=[rng.choice(elements) for _ in range(20)],
            size_estimate=25,
        )
        for _ in range(3)
    ]
    estimate = approximate_union(
        accesses, epsilon=0.3, delta=0.1, size_slack=0.0, parameters=parameters, rng=rng
    )
    assert estimate.estimate <= estimate.sum_of_sizes + 1e-9
