"""Tests for NFA families, random generators and workload suites."""

from __future__ import annotations

import random

import pytest

from repro.automata import families, random_gen
from repro.automata.exact import count_exact
from repro.automata.nfa import NFA
from repro.automata.regex import compile_regex
from repro.workloads.generator import (
    Workload,
    accuracy_suite,
    application_suite,
    scaling_suite_epsilon,
    scaling_suite_length,
    scaling_suite_states,
)


class TestFamilies:
    def test_registry_builders_produce_nfas(self):
        nfa = families.build_family("parity", ones_modulus=3)
        assert nfa.num_states == 3

    def test_registry_unknown_name(self):
        with pytest.raises(KeyError):
            families.build_family("nope")

    def test_substring_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            families.substring_nfa("")

    def test_suffix_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            families.suffix_nfa("")

    def test_parity_invalid_modulus(self):
        with pytest.raises(ValueError):
            families.parity_nfa(0)

    def test_divisibility_invalid(self):
        with pytest.raises(ValueError):
            families.divisibility_nfa(0)

    def test_blocks_invalid(self):
        with pytest.raises(ValueError):
            families.blocks_nfa(0)

    def test_ladder_invalid(self):
        with pytest.raises(ValueError):
            families.ladder_nfa(0)

    def test_union_of_patterns_requires_patterns(self):
        with pytest.raises(ValueError):
            families.union_of_patterns_nfa([])

    def test_substring_family_semantics(self):
        nfa = families.substring_nfa("010")
        assert nfa.accepts("110100")
        assert not nfa.accepts("111111")

    def test_suffix_family_semantics(self):
        nfa = families.suffix_nfa("01")
        assert nfa.accepts("1101")
        assert not nfa.accepts("0110")

    def test_divisibility_semantics(self):
        nfa = families.divisibility_nfa(3)
        assert nfa.accepts("110")  # 6
        assert not nfa.accepts("111")  # 7

    def test_integer_pattern_accepted(self):
        # CLI family arguments arrive as ints; builders coerce them.
        nfa = families.substring_nfa(101)
        assert nfa.accepts("0101")

    def test_default_benchmark_suite_members(self):
        suite = families.default_benchmark_suite()
        assert len(suite) >= 6
        names = [name for name, _nfa in suite]
        assert len(names) == len(set(names))
        for _name, nfa in suite:
            assert nfa.num_states >= 1


def _quadratic_random_nfa(num_states, density, rng, alphabet=("0", "1")):
    """``random_nfa`` as it was: a scan of every transition per state."""
    states = [f"s{i}" for i in range(num_states)]
    transitions = set()
    for source in states:
        for symbol in alphabet:
            for target in states:
                if rng.random() < density:
                    transitions.add((source, symbol, target))
    for index in range(1, num_states):
        target = states[index]
        if not any(t == target for (_s, _a, t) in transitions):
            source = states[rng.randrange(index)]
            symbol = rng.choice(list(alphabet))
            transitions.add((source, symbol, target))
    accepting = {state for state in states if rng.random() < 0.3}
    if not accepting:
        accepting = {rng.choice(states)}
    return NFA(
        states=frozenset(states),
        initial=states[0],
        transitions=frozenset(transitions),
        accepting=frozenset(accepting),
        alphabet=tuple(alphabet),
    )


class TestRandomGenerators:
    def test_random_nfa_reproducible(self):
        first = random_gen.random_nfa(6, seed=42)
        second = random_gen.random_nfa(6, seed=42)
        assert first == second

    def test_random_nfa_different_seeds_differ(self):
        assert random_gen.random_nfa(8, seed=1) != random_gen.random_nfa(8, seed=2)

    def test_random_nfa_size_and_validity(self):
        nfa = random_gen.random_nfa(7, density=0.4, seed=3)
        assert nfa.num_states == 7
        assert nfa.accepting  # at least one accepting state

    def test_random_nfa_connected(self):
        nfa = random_gen.random_nfa(10, density=0.05, seed=4, ensure_connected=True)
        assert nfa.forward_reachable() == nfa.states

    @pytest.mark.parametrize("num_states", [1, 2, 9, 40])
    @pytest.mark.parametrize("density", [0.0, 0.01, 0.1, 0.4])
    @pytest.mark.parametrize("seed", [0, 7, 31])
    @pytest.mark.parametrize("alphabet", [("0", "1"), ("a", "b", "c")])
    def test_random_nfa_matches_the_quadratic_connecting_loop(
        self, num_states, density, seed, alphabet
    ):
        # Sparse densities leave states without incoming edges, so the
        # connecting branch fires often; the automaton and the stream left
        # behind must be those of the per-state scan over all transitions.
        rng, reference_rng = random.Random(seed), random.Random(seed)
        nfa = random_gen.random_nfa(
            num_states, density=density, alphabet=alphabet, seed=rng
        )
        reference = _quadratic_random_nfa(num_states, density, reference_rng, alphabet)
        assert nfa == reference
        assert rng.getstate() == reference_rng.getstate()

    def test_random_nfa_invalid_size(self):
        with pytest.raises(ValueError):
            random_gen.random_nfa(0)

    def test_random_nonempty_nfa(self):
        nfa = random_gen.random_nonempty_nfa(6, length=8, seed=5)
        assert not nfa.is_empty_slice(8)

    def test_random_dfa_is_deterministic(self):
        nfa = random_gen.random_dfa(5, seed=6)
        for state in nfa.states:
            for symbol in nfa.alphabet:
                assert len(nfa.successors(state, symbol)) == 1

    def test_random_word_length_and_alphabet(self):
        word = random_gen.random_word(12, seed=7)
        assert len(word) == 12
        assert set(word) <= {"0", "1"}

    def test_random_regex_compiles(self):
        for seed in range(5):
            pattern = random_gen.random_regex(depth=3, seed=seed)
            nfa = compile_regex(pattern, alphabet=("0", "1"))
            assert nfa.num_states >= 1

    def test_random_labeled_graph(self):
        edges = random_gen.random_labeled_graph(6, 10, labels=("a", "b"), seed=8)
        assert len(edges) == 10
        assert len(set(edges)) == 10
        for source, label, target in edges:
            assert label in ("a", "b")
            assert source.startswith("v") and target.startswith("v")


class TestWorkloadSuites:
    def test_workload_exact_count_and_description(self):
        workload = Workload(name="fib", nfa=families.no_consecutive_ones_nfa(), length=6)
        assert workload.exact_count() == count_exact(workload.nfa, 6)
        assert workload.describe()["name"] == "fib"
        assert workload.num_states == 2

    def test_accuracy_suite_contents(self):
        suite = accuracy_suite(length=6)
        assert len(suite) >= 6
        assert len(set(suite.names())) == len(suite)
        for workload in suite:
            assert workload.length == 6

    def test_scaling_length_suite_shares_automaton(self):
        suite = scaling_suite_length(lengths=(3, 5, 7))
        automata = {id(workload.nfa) for workload in suite}
        assert len(automata) == 1
        assert [workload.length for workload in suite] == [3, 5, 7]

    def test_scaling_states_suite_sizes(self):
        suite = scaling_suite_states(state_counts=(3, 5), length=6)
        assert [workload.num_states for workload in suite] == [3, 5]
        for workload in suite:
            assert not workload.nfa.is_empty_slice(6)

    def test_scaling_epsilon_suite(self):
        suite = scaling_suite_epsilon(epsilons=(1.0, 0.5), length=6)
        assert [workload.epsilon for workload in suite] == [1.0, 0.5]

    def test_application_suite_products_nonempty(self):
        suite = application_suite(seed=3)
        assert len(suite) == 3
        for workload in suite:
            assert workload.nfa.num_states >= 1
