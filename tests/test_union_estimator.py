"""Unit tests for Algorithm 1 (AppUnion, the Karp–Luby union estimator)."""

from __future__ import annotations

import random

import pytest

from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.union import SetAccess, approximate_union
from repro.errors import ParameterError, SampleExhaustedError


def _make_set_access(elements, rng, sample_size=None, size_estimate=None, label=None):
    """Build a SetAccess with uniform samples and a perfect oracle."""
    elements = list(elements)
    sample_size = sample_size if sample_size is not None else 4 * max(1, len(elements))
    samples = [rng.choice(elements) for _ in range(sample_size)] if elements else []
    return SetAccess(
        oracle=lambda item, members=frozenset(elements): item in members,
        samples=samples,
        size_estimate=size_estimate if size_estimate is not None else len(elements),
        label=label,
    )


@pytest.fixture
def parameters():
    return FPRASParameters(
        epsilon=0.3,
        delta=0.1,
        scale=ParameterScale.practical(sample_cap=64, union_trial_cap=600),
    )


class TestInputValidation:
    def test_epsilon_must_be_positive(self, parameters):
        with pytest.raises(ParameterError):
            approximate_union([], epsilon=0.0, delta=0.1, size_slack=0.0, parameters=parameters)

    def test_delta_must_be_probability(self, parameters):
        with pytest.raises(ParameterError):
            approximate_union([], epsilon=0.5, delta=0.0, size_slack=0.0, parameters=parameters)

    def test_empty_input_gives_zero(self, parameters):
        estimate = approximate_union(
            [], epsilon=0.5, delta=0.1, size_slack=0.0, parameters=parameters
        )
        assert estimate.estimate == 0.0
        assert estimate.trials == 0

    def test_all_zero_sizes_give_zero(self, parameters):
        rng = random.Random(0)
        sets = [_make_set_access([], rng, size_estimate=0)]
        estimate = approximate_union(
            sets, epsilon=0.5, delta=0.1, size_slack=0.0, parameters=parameters
        )
        assert estimate.estimate == 0.0


class TestEstimationQuality:
    def test_single_set_returns_its_size(self, parameters):
        rng = random.Random(1)
        sets = [_make_set_access(range(50), rng)]
        estimate = approximate_union(
            sets, epsilon=0.2, delta=0.05, size_slack=0.0, parameters=parameters, rng=rng
        )
        # With one set every sample is unique, so the estimate is exactly sz_1.
        assert estimate.estimate == pytest.approx(50.0)
        assert estimate.unique_fraction == 1.0

    def test_disjoint_sets_sum(self, parameters):
        rng = random.Random(2)
        sets = [
            _make_set_access(range(0, 30), rng, label="a"),
            _make_set_access(range(100, 130), rng, label="b"),
        ]
        estimate = approximate_union(
            sets, epsilon=0.2, delta=0.05, size_slack=0.0, parameters=parameters, rng=rng
        )
        assert estimate.estimate == pytest.approx(60.0)

    def test_identical_sets_do_not_double_count(self, parameters):
        rng = random.Random(3)
        universe = list(range(40))
        sets = [
            _make_set_access(universe, rng, label="first"),
            _make_set_access(universe, rng, label="second"),
        ]
        estimate = approximate_union(
            sets, epsilon=0.2, delta=0.05, size_slack=0.0, parameters=parameters, rng=rng
        )
        # |T1 ∪ T2| = 40 even though sz_1 + sz_2 = 80.
        assert estimate.estimate == pytest.approx(40.0, rel=0.25)

    def test_partial_overlap(self, parameters):
        rng = random.Random(4)
        sets = [
            _make_set_access(range(0, 60), rng),
            _make_set_access(range(30, 90), rng),
        ]
        estimate = approximate_union(
            sets, epsilon=0.2, delta=0.05, size_slack=0.0, parameters=parameters, rng=rng
        )
        assert estimate.estimate == pytest.approx(90.0, rel=0.25)

    def test_many_small_sets(self, parameters):
        rng = random.Random(5)
        sets = [_make_set_access(range(i, i + 10), rng) for i in range(0, 50, 5)]
        # Union is range(0, 59) -> 59 elements.
        estimate = approximate_union(
            sets, epsilon=0.2, delta=0.05, size_slack=0.0, parameters=parameters, rng=rng
        )
        assert estimate.estimate == pytest.approx(59.0, rel=0.3)

    def test_estimate_respects_inflated_size_estimates(self, parameters):
        # Size estimates carrying slack still give a union estimate within the
        # combined multiplicative error of Theorem 1.
        rng = random.Random(6)
        universe = list(range(50))
        sets = [
            _make_set_access(universe, rng, size_estimate=55),
            _make_set_access(universe, rng, size_estimate=45),
        ]
        estimate = approximate_union(
            sets, epsilon=0.2, delta=0.05, size_slack=0.1, parameters=parameters, rng=rng
        )
        assert 50 / 1.5 <= estimate.estimate <= 50 * 1.5

    def test_reproducible_with_seeded_rng(self, parameters):
        def run(seed):
            rng = random.Random(seed)
            sets = [
                _make_set_access(range(0, 40), rng),
                _make_set_access(range(20, 60), rng),
            ]
            return approximate_union(
                sets, epsilon=0.3, delta=0.1, size_slack=0.0, parameters=parameters, rng=rng
            ).estimate

        assert run(42) == run(42)


class TestDiagnostics:
    def test_membership_calls_counted(self, parameters):
        rng = random.Random(7)
        sets = [
            _make_set_access(range(0, 30), rng),
            _make_set_access(range(0, 30), rng),
        ]
        estimate = approximate_union(
            sets, epsilon=0.3, delta=0.1, size_slack=0.0, parameters=parameters, rng=rng
        )
        # A coverage count asks every set about every trial's sample.
        assert estimate.membership_calls == estimate.trials * len(sets)

    def test_trials_respect_scaled_cap(self):
        parameters = FPRASParameters(
            epsilon=0.3, scale=ParameterScale.practical(union_trial_cap=10)
        )
        rng = random.Random(8)
        sets = [_make_set_access(range(100), rng), _make_set_access(range(100), rng)]
        estimate = approximate_union(
            sets, epsilon=0.05, delta=0.01, size_slack=0.0, parameters=parameters, rng=rng
        )
        assert estimate.trials <= 10

    def test_sum_of_sizes_reported(self, parameters):
        rng = random.Random(9)
        sets = [_make_set_access(range(10), rng), _make_set_access(range(5), rng)]
        estimate = approximate_union(
            sets, epsilon=0.3, delta=0.1, size_slack=0.0, parameters=parameters, rng=rng
        )
        assert estimate.sum_of_sizes == pytest.approx(15.0)

    def test_unique_fraction_bounds(self, parameters):
        rng = random.Random(10)
        sets = [_make_set_access(range(20), rng), _make_set_access(range(20), rng)]
        estimate = approximate_union(
            sets, epsilon=0.3, delta=0.1, size_slack=0.0, parameters=parameters, rng=rng
        )
        assert 0.0 <= estimate.unique_fraction <= 1.0


class TestSampleConsumption:
    def test_cyclic_mode_survives_small_sample_lists(self):
        # The scaled default draws stored samples with replacement, so 200
        # trials over 3 samples per set never run dry.
        parameters = FPRASParameters(
            epsilon=0.3, scale=ParameterScale.practical(union_trial_cap=200)
        )
        rng = random.Random(11)
        sets = [
            _make_set_access(range(50), rng, sample_size=3),
            _make_set_access(range(50, 100), rng, sample_size=3),
        ]
        estimate = approximate_union(
            sets, epsilon=0.2, delta=0.05, size_slack=0.0, parameters=parameters, rng=rng
        )
        assert not estimate.exhausted and estimate.trials == 200
        assert estimate.estimate == pytest.approx(100.0, rel=0.35)

    def test_strict_mode_stops_early(self):
        parameters = FPRASParameters(
            epsilon=0.3,
            scale=ParameterScale.practical(union_trial_cap=500).with_overrides(
                strict_sample_consumption=True
            ),
        )
        rng = random.Random(12)
        sets = [
            _make_set_access(range(50), rng, sample_size=2),
            _make_set_access(range(50, 100), rng, sample_size=2),
        ]
        estimate = approximate_union(
            sets, epsilon=0.1, delta=0.05, size_slack=0.0, parameters=parameters, rng=rng
        )
        assert estimate.exhausted
        assert estimate.trials <= 5  # 2 + 2 dequeues plus the failing attempt

    def test_strict_mode_can_raise(self):
        parameters = FPRASParameters(
            epsilon=0.3,
            scale=ParameterScale.practical(union_trial_cap=500).with_overrides(
                strict_sample_consumption=True
            ),
        )
        rng = random.Random(13)
        sets = [_make_set_access(range(50), rng, sample_size=1)]
        with pytest.raises(SampleExhaustedError):
            approximate_union(
                sets,
                epsilon=0.1,
                delta=0.05,
                size_slack=0.0,
                parameters=parameters,
                rng=rng,
                raise_on_exhaustion=True,
            )

    def test_empty_sample_list_with_positive_size(self, parameters):
        # A positive size estimate but no stored samples cannot contribute
        # unique hits; the call still terminates and reports exhaustion.
        rng = random.Random(14)
        sets = [
            SetAccess(oracle=lambda _x: True, samples=[], size_estimate=10.0),
            _make_set_access(range(10, 20), rng),
        ]
        estimate = approximate_union(
            sets, epsilon=0.3, delta=0.1, size_slack=0.0, parameters=parameters, rng=rng
        )
        assert estimate.exhausted
        assert estimate.estimate >= 0.0
