"""Tests for Algorithm 3 — the main FPRAS (NFACounter / ``repro.count``)."""

from __future__ import annotations

import pytest

from repro.automata import families
from repro.automata.exact import count_exact, count_per_state_exact
from repro.automata.nfa import NFA
from repro.counting.acjr import ACJRCounter
from repro.counting.api import count
from repro.counting.fpras import CountResult, FPRASParameters, NFACounter
from repro.counting.params import ParameterScale
from repro.errors import ParameterError


class TestBasicBehaviour:
    def test_negative_length_rejected(self, substring_101_nfa, fast_parameters):
        with pytest.raises(ParameterError):
            NFACounter(substring_101_nfa, -1, fast_parameters)

    def test_length_zero_accepting_initial(self, fast_parameters):
        nfa = NFA.build([("a", "0", "a")], initial="a", accepting=["a"])
        result = NFACounter(nfa, 0, fast_parameters).run()
        assert result.estimate == pytest.approx(1.0)

    def test_length_zero_non_accepting_initial(self, substring_101_nfa, fast_parameters):
        result = NFACounter(substring_101_nfa, 0, fast_parameters).run()
        assert result.estimate == 0.0

    def test_empty_slice_gives_zero(self, fast_parameters):
        # "exactly one 0 then stop" has no word of length 3.
        nfa = NFA.build([("a", "0", "b")], initial="a", accepting=["b"])
        result = NFACounter(nfa, 3, fast_parameters).run()
        assert result.estimate == 0.0

    def test_single_word_language(self, fast_parameters):
        nfa = NFA.build(
            [("a", "0", "b"), ("b", "1", "c"), ("c", "0", "d")],
            initial="a",
            accepting=["d"],
        )
        result = NFACounter(nfa, 3, fast_parameters).run()
        assert result.estimate == pytest.approx(1.0, rel=0.01)

    def test_all_words_language(self, fast_parameters):
        result = NFACounter(families.all_words_nfa(), 8, fast_parameters).run()
        assert result.estimate == pytest.approx(256.0, rel=0.2)

    def test_has_run_flag(self, substring_101_nfa, fast_parameters):
        counter = NFACounter(substring_101_nfa, 4, fast_parameters)
        assert not counter.has_run
        counter.run()
        assert counter.has_run

    def test_deterministic_given_seed(self, substring_101_nfa):
        def run_once():
            params = FPRASParameters(epsilon=0.4, delta=0.1, seed=123)
            return NFACounter(substring_101_nfa, 8, params).run().estimate

        assert run_once() == run_once()

    def test_different_seeds_generally_differ(self, suffix_nfa_0110):
        first = NFACounter(
            suffix_nfa_0110, 8, FPRASParameters(epsilon=0.4, seed=1)
        ).run().estimate
        second = NFACounter(
            suffix_nfa_0110, 8, FPRASParameters(epsilon=0.4, seed=2)
        ).run().estimate
        # Not a hard guarantee, but with randomised estimates an exact tie
        # across different seeds would indicate the seed is being ignored.
        assert first != second or first == pytest.approx(count_exact(suffix_nfa_0110, 8))


class TestAccuracy:
    @pytest.mark.parametrize(
        "builder, length",
        [
            (lambda: families.substring_nfa("101"), 10),
            (lambda: families.suffix_nfa("0110"), 10),
            (lambda: families.no_consecutive_ones_nfa(), 10),
            (lambda: families.parity_nfa(3), 9),
            (lambda: families.union_of_patterns_nfa(["00", "11"]), 8),
            (lambda: families.divisibility_nfa(5), 9),
            (lambda: families.ladder_nfa(4), 8),
        ],
    )
    def test_relative_error_reasonable(self, builder, length, accurate_parameters):
        nfa = builder()
        exact = count_exact(nfa, length)
        result = NFACounter(nfa, length, accurate_parameters).run()
        assert result.relative_error(exact) < 0.35

    def test_mean_over_seeds_is_close(self, substring_101_nfa):
        exact = count_exact(substring_101_nfa, 9)
        estimates = [
            NFACounter(
                substring_101_nfa, 9, FPRASParameters(epsilon=0.3, seed=seed)
            ).run().estimate
            for seed in range(5)
        ]
        mean = sum(estimates) / len(estimates)
        assert abs(mean - exact) / exact < 0.2

    def test_dense_language_is_easy(self, accurate_parameters):
        nfa = families.all_words_nfa()
        exact = count_exact(nfa, 12)
        result = NFACounter(nfa, 12, accurate_parameters).run()
        assert result.relative_error(exact) < 0.15

    def test_blocks_family_with_empty_intermediate_levels(self, accurate_parameters):
        nfa = families.blocks_nfa(3)
        exact = count_exact(nfa, 9)
        result = NFACounter(nfa, 9, accurate_parameters).run()
        assert exact > 0
        assert result.relative_error(exact) < 0.4

    def test_state_estimates_track_exact_per_state_counts(self, accurate_parameters):
        nfa = families.no_consecutive_ones_nfa()
        length = 8
        exact_table = count_per_state_exact(nfa, length)
        result = NFACounter(nfa, length, accurate_parameters).run()
        for (state, level), estimate in result.state_estimates.items():
            exact_value = exact_table[(state, level)]
            if exact_value == 0:
                continue
            assert abs(estimate - exact_value) / exact_value < 0.5


class TestMultipleAcceptingStates:
    def test_union_of_accepting_languages(self, accurate_parameters):
        # Accepting states with overlapping languages must not be double counted.
        nfa = families.union_of_patterns_nfa(["01", "10"])
        exact = count_exact(nfa, 8)
        result = NFACounter(nfa, 8, accurate_parameters).run()
        assert result.relative_error(exact) < 0.35

    def test_equivalent_to_normalized_single_accepting(self, accurate_parameters):
        nfa = families.union_of_patterns_nfa(["00", "11"])
        normalized = nfa.normalized_single_accepting()
        exact = count_exact(nfa, 8)
        multi = NFACounter(nfa, 8, accurate_parameters).run()
        single = NFACounter(normalized, 8, accurate_parameters).run()
        assert multi.relative_error(exact) < 0.35
        assert single.relative_error(exact) < 0.35


class TestCountResult:
    def test_relative_error_and_guarantee(self):
        result = CountResult(
            estimate=110.0,
            length=5,
            num_states=3,
            epsilon=0.2,
            delta=0.1,
            ns=10,
            xns=20,
            elapsed_seconds=0.0,
            union_calls=0,
            membership_calls=0,
            sample_draws=0,
            sample_successes=0,
            padded_states=0,
        )
        assert result.relative_error(100) == pytest.approx(0.1)
        assert result.within_guarantee(100)
        assert not result.within_guarantee(50)

    def test_relative_error_zero_exact(self):
        result = CountResult(
            estimate=0.0,
            length=5,
            num_states=3,
            epsilon=0.2,
            delta=0.1,
            ns=10,
            xns=20,
            elapsed_seconds=0.0,
            union_calls=0,
            membership_calls=0,
            sample_draws=0,
            sample_successes=0,
            padded_states=0,
        )
        assert result.relative_error(0) == 0.0
        assert result.within_guarantee(0)

    def test_diagnostics_populated(self, substring_101_nfa, fast_parameters):
        result = NFACounter(substring_101_nfa, 6, fast_parameters).run()
        assert result.ns == fast_parameters.ns(6, substring_101_nfa.num_states)
        assert result.union_calls > 0
        assert result.membership_calls >= 0
        assert result.sample_draws >= result.sample_successes
        assert result.elapsed_seconds > 0
        assert (substring_101_nfa.initial, 0) in result.state_estimates

    def test_sample_counts_bounded_by_ns(self, substring_101_nfa, fast_parameters):
        result = NFACounter(substring_101_nfa, 6, fast_parameters).run()
        for count in result.sample_counts.values():
            assert count <= result.ns


class TestTypedInputs:
    """The public counter classes check ``length`` as ``repro.count`` does,
    and ``run`` checks ``details``."""

    @pytest.mark.parametrize("counter_class", [NFACounter, ACJRCounter])
    @pytest.mark.parametrize("length", [True, 2.5, "3", None])
    def test_length_must_be_a_non_negative_int(self, counter_class, length):
        with pytest.raises(ParameterError, match="length must be a non-negative int"):
            counter_class(families.no_consecutive_ones_nfa(), length)

    def test_details_must_be_full_or_summary(self, substring_101_nfa, fast_parameters):
        counter = NFACounter(substring_101_nfa, 4, fast_parameters)
        with pytest.raises(ParameterError, match="details must be 'full' or 'summary'"):
            counter.run(details="bogus")
        assert not counter.has_run

    def test_summary_details_keep_the_estimate(self, substring_101_nfa, fast_parameters):
        full = NFACounter(substring_101_nfa, 6, fast_parameters).run()
        summary = NFACounter(substring_101_nfa, 6, fast_parameters).run(details="summary")
        assert summary.estimate == full.estimate
        assert summary.state_estimates == {} and summary.sample_counts == {}
        assert summary.table_summary["estimate_entries"] == len(full.state_estimates)


class TestStoredSamples:
    def test_samples_are_words_of_the_state_language(self, fast_parameters):
        nfa = families.no_consecutive_ones_nfa()
        counter = NFACounter(nfa, 6, fast_parameters)
        counter.run()
        for (state, level), words in counter.samples.items():
            assert len(words) >= 1
            for word in words:
                assert len(word) == level
                assert state in nfa.reachable_states(word)

    def test_sample_multisets_padded_to_ns(self, substring_101_nfa, fast_parameters):
        counter = NFACounter(substring_101_nfa, 6, fast_parameters)
        result = counter.run()
        ns = result.ns
        for (state, level), words in counter.samples.items():
            if level == 0:
                continue
            assert len(words) == ns

    def test_state_accessors(self, substring_101_nfa, fast_parameters):
        counter = NFACounter(substring_101_nfa, 5, fast_parameters)
        counter.run()
        assert counter.state_estimate("wait", 5) > 0
        assert counter.state_estimate("nonexistent", 5) == 0.0
        assert len(counter.state_samples("wait", 5)) > 0
        assert counter.state_samples("nonexistent", 5) == ()


class TestScaleModes:
    def test_faithful_scaled_mode_runs(self, fibonacci_nfa):
        params = FPRASParameters(
            epsilon=0.5,
            delta=0.2,
            scale=ParameterScale.faithful_scaled(sample_cap=8, union_trial_cap=16),
            seed=3,
        )
        exact = count_exact(fibonacci_nfa, 6)
        result = NFACounter(fibonacci_nfa, 6, params).run()
        assert result.relative_error(exact) < 0.6

    def test_perturbation_mode_runs(self, fibonacci_nfa):
        params = FPRASParameters(
            epsilon=0.5,
            delta=0.2,
            scale=ParameterScale.practical(sample_cap=8, union_trial_cap=12).with_overrides(
                faithful_perturbation=True
            ),
            seed=3,
        )
        result = NFACounter(fibonacci_nfa, 5, params).run()
        assert result.estimate >= 0.0

    def test_paper_mode_parameters_are_not_capped(self):
        # Paper-exact parameters are far too large to execute even on toy
        # inputs (that is the point of the paper-vs-operational split), so we
        # only check that paper mode bypasses every cap.
        params = FPRASParameters(epsilon=0.9, delta=0.4, scale=ParameterScale.paper())
        assert params.ns(1, 2) == params.ns_paper(1, 2) > 10_000
        assert params.xns(1, 2) == params.xns_paper(1, 2) > params.ns(1, 2)

    def test_strict_consumption_mode_runs(self, fibonacci_nfa):
        # Paper-style destructive sample consumption on a scaled instance.
        params = FPRASParameters(
            epsilon=0.6,
            delta=0.3,
            scale=ParameterScale.practical(sample_cap=12, union_trial_cap=16).with_overrides(
                strict_sample_consumption=True
            ),
            seed=9,
        )
        exact = count_exact(fibonacci_nfa, 5)
        result = NFACounter(fibonacci_nfa, 5, params).run()
        assert result.estimate > 0
        assert result.relative_error(exact) < 1.0

    def test_convenience_wrapper_defaults(self, substring_101_nfa):
        result = count(substring_101_nfa, 7, epsilon=0.4, delta=0.2, seed=5).raw
        assert isinstance(result, CountResult)
        assert result.epsilon == 0.4
