"""Unit tests for the exact #NFA counters (the experiments' ground truth)."""

from __future__ import annotations

import math

import pytest

from repro.automata import families
from repro.automata.exact import (
    ExactCounter,
    count_exact,
    count_exact_via_dfa,
    count_per_state_exact,
    enumerate_slice,
    language_density,
    slice_profile,
)
from repro.counting.api import count


def _fibonacci(index: int) -> int:
    a, b = 0, 1
    for _ in range(index):
        a, b = b, a + b
    return a


class TestClosedForms:
    def test_all_words_counts(self):
        nfa = families.all_words_nfa()
        for length in range(8):
            assert count_exact(nfa, length) == 2**length

    def test_no_consecutive_ones_is_fibonacci(self):
        nfa = families.no_consecutive_ones_nfa()
        for length in range(12):
            assert count_exact(nfa, length) == _fibonacci(length + 2)

    def test_parity_counts_binomial_sum(self):
        nfa = families.parity_nfa(2)
        for length in range(10):
            expected = sum(math.comb(length, k) for k in range(0, length + 1, 2))
            assert count_exact(nfa, length) == expected

    def test_divisibility_by_one_accepts_everything(self):
        nfa = families.divisibility_nfa(1)
        for length in range(8):
            assert count_exact(nfa, length) == 2**length

    def test_divisibility_by_three(self):
        nfa = families.divisibility_nfa(3)
        # Multiples of 3 representable with exactly 4 bits (leading zeros allowed):
        # 0,3,6,9,12,15 -> 6 words.
        assert count_exact(nfa, 4) == 6

    def test_suffix_counts(self):
        nfa = families.suffix_nfa("011")
        for length in range(3, 9):
            assert count_exact(nfa, length) == 2 ** (length - 3)

    def test_blocks_family_zero_on_non_multiples(self):
        nfa = families.blocks_nfa(3)
        assert count_exact(nfa, 4) == 0
        assert count_exact(nfa, 6) == 4  # two block choices per block


class TestCrossChecks:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: families.substring_nfa("101"),
            lambda: families.suffix_nfa("0110"),
            lambda: families.union_of_patterns_nfa(["00", "11", "0101"]),
            lambda: families.ladder_nfa(3),
            lambda: families.blocks_nfa(2),
        ],
    )
    @pytest.mark.parametrize("length", [0, 1, 4, 7])
    def test_subset_dp_matches_bruteforce(self, builder, length):
        nfa = builder()
        assert count_exact(nfa, length) == count(nfa, length, method="bruteforce").raw

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: families.substring_nfa("101"),
            lambda: families.suffix_nfa("011"),
            lambda: families.union_of_patterns_nfa(["00", "11"]),
        ],
    )
    def test_subset_dp_matches_determinisation(self, builder):
        nfa = builder()
        for length in range(8):
            assert count_exact(nfa, length) == count_exact_via_dfa(nfa, length)

    def test_enumerate_slice_matches_count(self, substring_101_nfa):
        for length in range(7):
            assert len(enumerate_slice(substring_101_nfa, length)) == count_exact(
                substring_101_nfa, length
            )


class TestExactCounter:
    def test_incremental_advance(self, fibonacci_nfa):
        counter = ExactCounter(fibonacci_nfa)
        for length in range(8):
            assert counter.slice_count() == count_exact(fibonacci_nfa, length)
            counter.advance()

    def test_advance_to_and_history(self, fibonacci_nfa):
        counter = ExactCounter(fibonacci_nfa)
        counter.advance_to(6)
        # Earlier levels remain queryable from the history.
        assert counter.slice_count(3) == count_exact(fibonacci_nfa, 3)
        assert counter.slice_count(6) == count_exact(fibonacci_nfa, 6)

    def test_cannot_rewind(self, fibonacci_nfa):
        counter = ExactCounter(fibonacci_nfa)
        counter.advance_to(3)
        with pytest.raises(ValueError):
            counter.advance_to(2)

    def test_unknown_level_rejected(self, fibonacci_nfa):
        counter = ExactCounter(fibonacci_nfa)
        with pytest.raises(ValueError):
            counter.slice_count(5)

    def test_state_count_definition(self, substring_101_nfa):
        counter = ExactCounter(substring_101_nfa)
        counter.advance_to(5)
        for state in substring_101_nfa.states:
            expected = sum(
                1
                for word in _all_binary_words(5)
                if state in substring_101_nfa.reachable_states(word)
            )
            assert counter.state_count(state, 5) == expected

    def test_union_count_definition(self, substring_101_nfa):
        counter = ExactCounter(substring_101_nfa)
        counter.advance_to(4)
        states = ["wait", "done"]
        expected = sum(
            1
            for word in _all_binary_words(4)
            if substring_101_nfa.reachable_states(word) & set(states)
        )
        assert counter.union_count(states, 4) == expected

    def test_subset_table_sums_to_total_words(self, substring_101_nfa):
        counter = ExactCounter(substring_101_nfa)
        counter.advance_to(6)
        table = counter.subset_table(6)
        # Every length-6 word reaches a non-empty subset in this family.
        assert sum(table.values()) == 2**6

    def test_num_subsets_positive(self, suffix_nfa_0110):
        counter = ExactCounter(suffix_nfa_0110)
        counter.advance_to(6)
        assert counter.num_subsets(6) >= 1


class TestPerStateCounts:
    def test_matches_enumeration(self, fibonacci_nfa):
        table = count_per_state_exact(fibonacci_nfa, 5)
        for (state, level), value in table.items():
            expected = sum(
                1
                for word in _all_binary_words(level)
                if state in fibonacci_nfa.reachable_states(word)
            )
            assert value == expected

    def test_initial_state_level_zero_is_one(self, substring_101_nfa):
        table = count_per_state_exact(substring_101_nfa, 3)
        assert table[(substring_101_nfa.initial, 0)] == 1

    def test_non_initial_states_level_zero_are_zero(self, substring_101_nfa):
        table = count_per_state_exact(substring_101_nfa, 3)
        for state in substring_101_nfa.states - {substring_101_nfa.initial}:
            assert table[(state, 0)] == 0


class TestProfiles:
    def test_slice_profile_matches_pointwise_counts(self, substring_101_nfa):
        profile = slice_profile(substring_101_nfa, 6)
        assert profile == [count_exact(substring_101_nfa, length) for length in range(7)]

    def test_language_density_bounds(self, substring_101_nfa):
        density = language_density(substring_101_nfa, 8)
        assert 0.0 <= density <= 1.0

    def test_language_density_all_words(self):
        assert language_density(families.all_words_nfa(), 5) == 1.0


def _all_binary_words(length: int):
    import itertools

    return [tuple(bits) for bits in itertools.product("01", repeat=length)]
