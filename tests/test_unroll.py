"""Unit tests for the unrolled automaton and its membership oracles."""

from __future__ import annotations

import pytest

from repro.automata.nfa import NFA
from repro.automata.unroll import ReachabilityCache, UnrolledAutomaton
from repro.errors import AutomatonError


class TestReachabilityCache:
    def test_reachable_matches_direct_simulation(self, substring_101_nfa):
        cache = ReachabilityCache(substring_101_nfa)
        for word in ("", "1", "10", "101", "0101", "111"):
            assert cache.reachable(word) == substring_101_nfa.reachable_states(word)

    def test_contains_is_membership_in_state_language(self, substring_101_nfa):
        cache = ReachabilityCache(substring_101_nfa)
        # "101" completes the pattern, so the accepting state is reachable.
        assert cache.contains("done", "101")
        assert not cache.contains("done", "100")

    def test_contains_any(self, substring_101_nfa):
        cache = ReachabilityCache(substring_101_nfa)
        assert cache.contains_any(["done", "wait"], "000")
        assert not cache.contains_any(["done"], "000")

    def test_prefix_sharing_reduces_simulated_steps(self, substring_101_nfa):
        cache = ReachabilityCache(substring_101_nfa)
        cache.reachable("10101")
        steps_after_first = cache.simulated_steps
        cache.reachable("101011")  # extends a cached prefix by one symbol
        assert cache.simulated_steps == steps_after_first + 1

    def test_cache_grows_with_prefixes(self, substring_101_nfa):
        cache = ReachabilityCache(substring_101_nfa)
        cache.reachable("0101")
        assert len(cache) == 5  # the empty prefix plus four proper prefixes


class TestUnrolledStructure:
    def test_negative_length_rejected(self, substring_101_nfa):
        with pytest.raises(AutomatonError):
            UnrolledAutomaton(substring_101_nfa, -1)

    def test_live_states_level_zero_is_initial(self, substring_101_nfa):
        unroll = UnrolledAutomaton(substring_101_nfa, 4)
        assert unroll.live_states(0) == frozenset({substring_101_nfa.initial})

    def test_live_states_match_nonempty_languages(self, substring_101_nfa):
        unroll = UnrolledAutomaton(substring_101_nfa, 5)
        for level in range(6):
            for state in substring_101_nfa.states:
                has_word = any(
                    state in substring_101_nfa.reachable_states(word)
                    for word in _all_words(level)
                )
                assert unroll.is_live(state, level) == has_word

    def test_level_out_of_range_rejected(self, substring_101_nfa):
        unroll = UnrolledAutomaton(substring_101_nfa, 3)
        with pytest.raises(AutomatonError):
            unroll.live_states(4)
        with pytest.raises(AutomatonError):
            unroll.live_states(-1)

    def test_predecessors_restricted_to_live(self):
        # State "b" is only reachable at odd levels; its predecessor "a" only at even.
        nfa = NFA.build([("a", "0", "b"), ("b", "0", "a")], initial="a", accepting=["b"])
        unroll = UnrolledAutomaton(nfa, 4)
        assert unroll.predecessors("b", "0", 1) == frozenset({"a"})
        assert unroll.predecessors("a", "0", 1) == frozenset()
        assert unroll.predecessors("a", "0", 2) == frozenset({"b"})

    def test_predecessors_level_zero_empty(self, substring_101_nfa):
        unroll = UnrolledAutomaton(substring_101_nfa, 3)
        assert unroll.predecessors("wait", "0", 0) == frozenset()

    def test_predecessors_of_set_is_union(self, substring_101_nfa):
        unroll = UnrolledAutomaton(substring_101_nfa, 4)
        merged = unroll.predecessors_of_set(["wait", "m1"], "1", 3)
        expected = unroll.predecessors("wait", "1", 3) | unroll.predecessors("m1", "1", 3)
        assert merged == expected

    def test_accepting_live_states(self, substring_101_nfa):
        unroll_short = UnrolledAutomaton(substring_101_nfa, 2)
        assert unroll_short.accepting_live_states() == frozenset()
        unroll_long = UnrolledAutomaton(substring_101_nfa, 3)
        assert unroll_long.accepting_live_states() == frozenset({"done"})

    def test_slice_size_upper_bound(self, substring_101_nfa):
        unroll = UnrolledAutomaton(substring_101_nfa, 4)
        assert unroll.slice_size_upper_bound(3) == 8


class TestOracles:
    def test_member_and_union_oracle(self, fibonacci_nfa):
        unroll = UnrolledAutomaton(fibonacci_nfa, 5)
        assert unroll.member("z", "00100")
        assert not unroll.member("o", "00100")  # last symbol 0 -> state z only
        assert unroll.member_of_union(["z", "o"], "00101")

    def test_membership_oracle_closure(self, fibonacci_nfa):
        unroll = UnrolledAutomaton(fibonacci_nfa, 5)
        oracle = unroll.membership_oracle("o")
        assert oracle("01") is True
        assert oracle("00") is False


class TestWitness:
    def test_witness_is_in_state_language(self, substring_101_nfa):
        unroll = UnrolledAutomaton(substring_101_nfa, 6)
        for state in substring_101_nfa.states:
            for level in range(7):
                witness = unroll.witness(state, level)
                if unroll.is_live(state, level):
                    assert witness is not None
                    assert len(witness) == level
                    assert state in substring_101_nfa.reachable_states(witness)
                else:
                    assert witness is None

    def test_witness_level_zero(self, substring_101_nfa):
        unroll = UnrolledAutomaton(substring_101_nfa, 2)
        assert unroll.witness(substring_101_nfa.initial, 0) == ()


def _all_words(length: int):
    """All binary words of the given length (test helper)."""
    import itertools

    return [tuple(bits) for bits in itertools.product("01", repeat=length)]
