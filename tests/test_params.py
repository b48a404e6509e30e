"""Unit tests for the FPRAS parameter formulas and scaling policy."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.counting.acjr import ACJRParameters
from repro.counting.api import CountRequest
from repro.counting.params import (
    EULER,
    SAMPLE_SUCCESS_LOWER_BOUND,
    FPRASParameters,
    ParameterScale,
    acjr_kappa,
    acjr_samples_per_state,
    acjr_time_bound,
    paper_samples_per_state,
    paper_time_bound,
)
from repro.errors import ParameterError


class TestParameterScale:
    def test_default_is_scaled(self):
        scale = ParameterScale()
        assert scale.mode == "scaled"

    def test_paper_scale_is_faithful(self):
        scale = ParameterScale.paper()
        assert scale.mode == "paper"
        assert scale.faithful_perturbation
        assert scale.strict_sample_consumption
        assert not scale.reuse_union_estimates

    def test_practical_scale_caps(self):
        scale = ParameterScale.practical(sample_cap=16, union_trial_cap=20)
        assert scale.sample_cap == 16
        assert scale.union_trial_cap == 20
        assert scale.reuse_union_estimates

    def test_faithful_scaled_disables_reuse(self):
        scale = ParameterScale.faithful_scaled()
        assert not scale.reuse_union_estimates
        assert scale.mode == "scaled"

    def test_with_overrides(self):
        scale = ParameterScale.practical().with_overrides(sample_cap=99)
        assert scale.sample_cap == 99

    def test_invalid_mode_rejected(self):
        with pytest.raises(ParameterError):
            ParameterScale(mode="bogus")

    def test_invalid_sample_cap_rejected(self):
        with pytest.raises(ParameterError):
            ParameterScale(sample_cap=1)

    def test_invalid_attempt_factor_rejected(self):
        with pytest.raises(ParameterError):
            ParameterScale(attempt_factor=0.5)

    def test_invalid_union_trial_bounds_rejected(self):
        with pytest.raises(ParameterError):
            ParameterScale(union_trial_floor=10, union_trial_cap=5)


class TestFPRASParameters:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(ParameterError):
            FPRASParameters(epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [math.inf, True])
    def test_epsilon_must_be_finite_and_not_a_bool(self, epsilon):
        with pytest.raises(ParameterError, match="epsilon"):
            FPRASParameters(epsilon=epsilon)

    def test_delta_must_be_a_probability(self):
        with pytest.raises(ParameterError):
            FPRASParameters(delta=1.5)

    def test_beta_formula(self):
        params = FPRASParameters(epsilon=0.4)
        assert params.beta(10) == pytest.approx(0.4 / (4 * 100))

    def test_beta_handles_zero_length(self):
        params = FPRASParameters(epsilon=0.4)
        assert params.beta(0) == pytest.approx(0.1)

    def test_eta_formula(self):
        params = FPRASParameters(delta=0.2)
        assert params.eta(10, 5) == pytest.approx(0.2 / 100)

    def test_ns_paper_grows_with_n_fourth_power(self):
        params = FPRASParameters(epsilon=0.5)
        small = params.ns_paper(10, 10)
        large = params.ns_paper(20, 10)
        # Dominant term is n^4, so doubling n multiplies ns by roughly 16
        # (a little more because of the log factor).
        assert 12 <= large / small <= 24

    def test_ns_paper_nearly_independent_of_m(self):
        params = FPRASParameters(epsilon=0.5)
        ratio = params.ns_paper(10, 1000) / params.ns_paper(10, 10)
        assert ratio < 2.0  # only logarithmic growth in m

    def test_ns_operational_capped(self):
        params = FPRASParameters(epsilon=0.1, scale=ParameterScale.practical(sample_cap=24))
        assert params.ns(20, 10) == 24

    def test_ns_paper_mode_uncapped(self):
        params = FPRASParameters(epsilon=0.5, scale=ParameterScale.paper())
        assert params.ns(10, 5) == params.ns_paper(10, 5)
        assert params.ns(10, 5) > 10_000

    def test_xns_exceeds_ns(self):
        params = FPRASParameters()
        assert params.xns(8, 5) >= params.ns(8, 5)

    def test_xns_paper_formula_uses_success_bound(self):
        params = FPRASParameters(epsilon=0.5, delta=0.1)
        ns = params.ns_paper(5, 4)
        eta = params.eta(5, 4)
        expected = math.ceil(ns * 12.0 / (1.0 - 2.0 / (3.0 * EULER**2)) * math.log(8.0 / eta))
        assert params.xns_paper(5, 4) == expected

    def test_union_trials_bounded_in_scaled_mode(self):
        params = FPRASParameters(
            epsilon=0.5, scale=ParameterScale.practical(union_trial_cap=32)
        )
        assert params.union_trials(0.01, 0.01, 0.0, 10) == 32
        assert params.union_trials(10.0, 0.9, 0.0, 1) >= params.scale.union_trial_floor

    def test_union_trials_paper_formula(self):
        params = FPRASParameters(scale=ParameterScale.paper())
        value = params.union_trials(0.5, 0.1, 0.0, 3)
        expected = math.ceil(12 * 3 / 0.25 * math.log(40))
        assert value == expected

    def test_union_thresh_paper_formula(self):
        params = FPRASParameters()
        value = params.union_thresh_paper(0.5, 0.1, 0.0, 4)
        expected = math.ceil(24 / 0.25 * math.log(160))
        assert value == expected

    def test_gamma0(self):
        params = FPRASParameters()
        assert params.gamma0(10.0) == pytest.approx(2.0 / (3.0 * EULER * 10.0))

    def test_gamma0_requires_positive_estimate(self):
        with pytest.raises(ParameterError):
            FPRASParameters().gamma0(0.0)

    @pytest.mark.parametrize("estimate", [1e308, 2.3e307, math.inf])
    def test_gamma0_names_the_float_limit_when_3eN_overflows(self, estimate):
        # 3e * N overflows once N passes about 2.2e307; gamma0 used to come
        # out 0.0, and the sampler then refused it as "not positive".
        with pytest.raises(ParameterError, match="float"):
            FPRASParameters().gamma0(estimate)

    @pytest.mark.parametrize("estimate", [1.0, 1e300, 2.2e307])
    def test_gamma0_value_is_unchanged_below_the_limit(self, estimate):
        assert FPRASParameters().gamma0(estimate) == 2.0 / (3.0 * EULER * estimate)

    def test_describe_contains_paper_and_operational(self):
        info = FPRASParameters(epsilon=0.3).describe(10, 8)
        assert info["ns_paper"] >= info["ns_operational"]
        assert info["scale_mode"] == "scaled"

    def test_sample_success_lower_bound_value(self):
        assert SAMPLE_SUCCESS_LOWER_BOUND == pytest.approx(2.0 / (3.0 * EULER**2))


class TestParameterRecords:
    """The parameter records hold what the algorithms compute with; how a
    run executes is the counters' ``ExecutionPolicy``."""

    def test_records_keep_only_algorithm_fields(self):
        assert [field.name for field in dataclasses.fields(FPRASParameters)] == [
            "epsilon",
            "delta",
            "scale",
            "seed",
        ]
        assert [field.name for field in dataclasses.fields(ACJRParameters)] == [
            "epsilon",
            "delta",
            "sample_cap",
            "attempt_factor",
            "seed",
        ]

    @pytest.mark.parametrize(
        "knob", [{"backend": "bitset"}, {"store": "windowed"}, {"details": "summary"}]
    )
    def test_execution_knobs_are_not_parameters(self, knob):
        with pytest.raises(TypeError):
            FPRASParameters(**knob)

    def test_describe_reports_no_execution_knobs(self):
        described = FPRASParameters().describe(10, 8)
        assert not {"backend", "engine_cache", "store", "window"} & set(described)

    @pytest.mark.parametrize("delta", ["0.1", None, True, math.nan, 0, 1])
    @pytest.mark.parametrize(
        "record", [FPRASParameters, ACJRParameters, CountRequest],
        ids=["fpras", "acjr", "request"],
    )
    def test_delta_is_typed_on_every_record(self, record, delta):
        with pytest.raises(ParameterError, match=r"^delta must lie in \(0, 1\)"):
            record(delta=delta)


class TestComparisonFormulas:
    def test_acjr_kappa(self):
        assert acjr_kappa(10, 20, 0.5) == pytest.approx(400.0)

    def test_acjr_samples_scale_with_m_to_the_seventh(self):
        ratio = acjr_samples_per_state(20, 10, 0.5) / acjr_samples_per_state(10, 10, 0.5)
        assert ratio == pytest.approx(2**7)

    def test_paper_samples_independent_of_m(self):
        assert paper_samples_per_state(10, 0.5) == paper_samples_per_state(10, 0.5)
        assert paper_samples_per_state(10, 0.5) == pytest.approx(10**4 / 0.25)

    def test_paper_samples_always_below_acjr_for_nontrivial_instances(self):
        for m in (2, 5, 20):
            for n in (5, 20):
                for eps in (0.5, 0.1):
                    assert paper_samples_per_state(n, eps) < acjr_samples_per_state(m, n, eps)

    def test_time_bounds_ordering(self):
        assert paper_time_bound(10, 10, 0.3, 0.1) < acjr_time_bound(10, 10, 0.3, 0.1)

    def test_time_bound_growth_in_m(self):
        # ACJR grows like m^17 while the paper's bound grows like m^3 at most.
        acjr_ratio = acjr_time_bound(20, 10, 0.3, 0.1) / acjr_time_bound(10, 10, 0.3, 0.1)
        paper_ratio = paper_time_bound(20, 10, 0.3, 0.1) / paper_time_bound(10, 10, 0.3, 0.1)
        assert acjr_ratio == pytest.approx(2**17)
        assert paper_ratio < 2**4
