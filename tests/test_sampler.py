"""Unit tests for Algorithm 2 (the backward word sampler)."""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from repro.automata.exact import count_per_state_exact
from repro.automata.families import no_consecutive_ones_nfa
from repro.automata.nfa import NFA
from repro.automata.unroll import UnrolledAutomaton
from repro.counting.api import count
from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.sampler import SampleDraw, SamplerStatistics
from repro.errors import AutomatonError, ParameterError


def _exact_tables(nfa, length):
    """Feed the sampler the *exact* counts and true uniform sample multisets.

    This isolates Algorithm 2: with perfect inputs its output distribution
    should be exactly uniform over L(q^length) (Theorem 2, part 1).
    """
    exact = count_per_state_exact(nfa, length)
    estimates = {key: float(value) for key, value in exact.items() if value > 0}
    rng = random.Random(99)
    samples = {}
    for level in range(length + 1):
        for state in nfa.states:
            if exact[(state, level)] == 0:
                continue
            words = [
                word
                for word in enumerate_slice_for_state(nfa, state, level)
            ]
            samples[(state, level)] = [rng.choice(words) for _ in range(40)] if words else []
    return estimates, samples


def enumerate_slice_for_state(nfa, state, level):
    """All words of the given length whose reachable set contains ``state``."""
    import itertools

    return [
        tuple(bits)
        for bits in itertools.product(nfa.alphabet, repeat=level)
        if state in nfa.reachable_states(tuple(bits))
    ]


@pytest.fixture
def sampler_setup():
    nfa = no_consecutive_ones_nfa()
    length = 5
    unroll = UnrolledAutomaton(nfa, length)
    estimates, samples = _exact_tables(nfa, length)
    parameters = FPRASParameters(
        epsilon=0.4,
        delta=0.2,
        scale=ParameterScale.practical(sample_cap=40, union_trial_cap=64),
        seed=5,
    )
    return nfa, length, unroll, estimates, samples, parameters


class TestDraw:
    def test_gamma0_must_be_positive(self, sampler_setup):
        nfa, length, unroll, estimates, samples, parameters = sampler_setup
        drawer = SampleDraw(unroll, estimates, samples, parameters, random.Random(0))
        with pytest.raises(ParameterError):
            drawer.draw(length, frozenset({"z"}), 0.0, 0.01, 0.1)

    def test_successful_draws_are_valid_words(self, sampler_setup):
        nfa, length, unroll, estimates, samples, parameters = sampler_setup
        drawer = SampleDraw(unroll, estimates, samples, parameters, random.Random(1))
        gamma0 = parameters.gamma0(estimates[("z", length)])
        produced = drawer.draw(
            length, frozenset({"z"}), gamma0, 0.01, 0.1, attempts=200, needed=200
        )
        assert produced, "expected at least one successful draw"
        for word in produced:
            assert len(word) == length
            assert "z" in nfa.reachable_states(word)

    def test_acceptance_rate_near_two_over_three_e(self, sampler_setup):
        nfa, length, unroll, estimates, samples, parameters = sampler_setup
        drawer = SampleDraw(unroll, estimates, samples, parameters, random.Random(2))
        gamma0 = parameters.gamma0(estimates[("z", length)])
        drawer.draw(length, frozenset({"z"}), gamma0, 0.01, 0.1, attempts=400, needed=400)
        assert drawer.statistics.draws == 400
        # With exact inputs the success probability is gamma0 * |L| = 2/(3e) ~ 0.245.
        assert 0.15 <= drawer.statistics.acceptance_rate <= 0.35

    def test_distribution_close_to_uniform(self, sampler_setup):
        nfa, length, unroll, estimates, samples, parameters = sampler_setup
        drawer = SampleDraw(unroll, estimates, samples, parameters, random.Random(3))
        gamma0 = parameters.gamma0(estimates[("z", length)])
        produced = drawer.draw(
            length, frozenset({"z"}), gamma0, 0.01, 0.1, attempts=4000, needed=250
        )
        population = enumerate_slice_for_state(nfa, "z", length)
        counts = Counter(produced)
        # Every word should appear, and no word should dominate: with exact
        # inputs the sampler is uniform, so max/min frequency stays moderate.
        assert set(counts) <= set(population)
        assert len(counts) >= len(population) * 0.7
        most = counts.most_common(1)[0][1]
        assert most <= 6 * (len(produced) / len(population))

    def test_level_zero_draw(self, sampler_setup):
        nfa, length, unroll, estimates, samples, parameters = sampler_setup
        drawer = SampleDraw(unroll, estimates, samples, parameters, random.Random(4))
        # At level 0 with gamma0 = 1 the empty word is returned immediately.
        assert drawer.draw(0, frozenset({nfa.initial}), 1.0, 0.01, 0.1) == [()]

    def test_phi_overflow_returns_none(self, sampler_setup):
        nfa, length, unroll, estimates, samples, parameters = sampler_setup
        drawer = SampleDraw(unroll, estimates, samples, parameters, random.Random(5))
        # gamma0 > 1 guarantees phi > 1 at the base case -> Fail1: no word.
        assert drawer.draw(0, frozenset({nfa.initial}), 5.0, 0.01, 0.1) == []
        assert drawer.statistics.failures_phi_overflow == 1

    @pytest.mark.parametrize("level", [-1, 6])
    def test_level_outside_unrolling_rejected_before_drawing(self, sampler_setup, level):
        nfa, length, unroll, estimates, samples, parameters = sampler_setup
        drawer = SampleDraw(unroll, estimates, samples, parameters, random.Random(11))
        before = drawer.rng.getstate()
        gamma0 = parameters.gamma0(estimates[("z", length)])
        with pytest.raises(AutomatonError, match=rf"level {level} outside .*\[0, 5\]"):
            drawer.draw(level, frozenset({"z"}), gamma0, 0.01, 0.1, attempts=5)
        assert drawer.rng.getstate() == before
        assert drawer.statistics == SamplerStatistics()

    def test_no_mass_failure(self, sampler_setup):
        nfa, length, unroll, estimates, samples, parameters = sampler_setup
        # Remove every estimate so the per-symbol unions all evaluate to zero.
        drawer = SampleDraw(unroll, {}, {}, parameters, random.Random(6))
        assert drawer.draw(length, frozenset({"z"}), 0.1, 0.01, 0.1) == []
        assert drawer.statistics.failures_no_mass == 1


class TestCaching:
    def test_union_cache_hits_when_reuse_enabled(self, sampler_setup):
        nfa, length, unroll, estimates, samples, parameters = sampler_setup
        drawer = SampleDraw(unroll, estimates, samples, parameters, random.Random(7))
        gamma0 = parameters.gamma0(estimates[("z", length)])
        drawer.draw(length, frozenset({"z"}), gamma0, 0.01, 0.1, attempts=20, needed=20)
        assert drawer.statistics.union_cache_hits > 0

    def test_no_cache_hits_when_reuse_disabled(self, sampler_setup):
        nfa, length, unroll, estimates, samples, _ = sampler_setup
        parameters = FPRASParameters(
            epsilon=0.4, delta=0.2, scale=ParameterScale.faithful_scaled(), seed=5
        )
        drawer = SampleDraw(unroll, estimates, samples, parameters, random.Random(8))
        gamma0 = parameters.gamma0(estimates[("z", length)])
        drawer.draw(length, frozenset({"z"}), gamma0, 0.01, 0.1, attempts=10, needed=10)
        assert drawer.statistics.union_cache_hits == 0

    def test_draw_calls_share_a_scope_until_a_reseed(self, sampler_setup):
        """A second call replays the first call's steps with no union
        trial; after a reseed the drawer estimates its unions again, as a
        fresh drawer on the same step table and seed does."""
        nfa, length, unroll, estimates, samples, parameters = sampler_setup
        drawer = SampleDraw(unroll, estimates, samples, parameters, random.Random(9))
        gamma0 = parameters.gamma0(estimates[("z", length)])
        arguments = (length, frozenset({"z"}), gamma0, 0.01, 0.1)
        drawer.draw(*arguments, attempts=20, needed=20)
        union_calls = drawer.statistics.union_calls
        assert union_calls > 0
        drawer.draw(*arguments, attempts=20, needed=20)
        assert drawer.statistics.union_calls == union_calls

        drawer.reseed(10)
        fresh = SampleDraw(
            unroll, estimates, samples, parameters, random.Random(10), steps=drawer.steps
        )
        before = dataclasses.asdict(drawer.statistics)
        assert drawer.draw(*arguments, attempts=20, needed=20) == fresh.draw(
            *arguments, attempts=20, needed=20
        )
        assert drawer.rng.getstate() == fresh.rng.getstate()
        after = dataclasses.asdict(drawer.statistics)
        assert {key: after[key] - before[key] for key in after} == dataclasses.asdict(
            fresh.statistics
        )
        assert fresh.statistics.union_calls > 0

    def test_statistics_track_union_calls(self, sampler_setup):
        nfa, length, unroll, estimates, samples, parameters = sampler_setup
        drawer = SampleDraw(unroll, estimates, samples, parameters, random.Random(10))
        gamma0 = parameters.gamma0(estimates[("z", length)])
        drawer.draw(length, frozenset({"z"}), gamma0, 0.01, 0.1)
        assert drawer.statistics.union_calls > 0
        assert drawer.statistics.draws == 1


class ZeroRandom(random.Random):
    """A stream whose ``random()`` is always exactly 0.0."""

    def random(self):
        return 0.0


def test_zero_point_on_an_empty_first_branch_takes_the_nearest_branch():
    # Every word of L(A_3) starts with "1", so the descent's "0" branch is
    # empty; a 0.0 point bisects onto it and must move to the "1" branch
    # instead of dividing by its zero probability.
    nfa = NFA.build(
        [("s", "1", "t"), ("t", "1", "t")],
        initial="s",
        accepting=["t"],
        alphabet=("0", "1"),
    )
    assert count(nfa, 3, seed=ZeroRandom(0)).estimate == 1.0
