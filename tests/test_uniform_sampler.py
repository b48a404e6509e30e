"""Tests for the almost-uniform word sampler built on the FPRAS."""

from __future__ import annotations

import pytest

import repro.counting.uniform as uniform_module
from repro.analysis.statistics import uniformity_report
from repro.automata import families
from repro.automata.engine import available_backends
from repro.automata.exact import enumerate_slice
from repro.automata.nfa import NFA
from repro.counting.fpras import NFACounter
from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.sampler import SampleDraw
from repro.counting.uniform import UniformWordSampler
from repro.errors import EmptyLanguageError, ParameterError, SamplingError
from repro.workloads.longwords import long_word_scale, unary_loop_nfa


@pytest.fixture
def fib_sampler(accurate_parameters):
    nfa = families.no_consecutive_ones_nfa()
    counter = NFACounter(nfa, 7, accurate_parameters)
    return nfa, UniformWordSampler(counter)


class TestConstruction:
    def test_invalid_attempt_budget(self, fibonacci_nfa, fast_parameters):
        counter = NFACounter(fibonacci_nfa, 5, fast_parameters)
        with pytest.raises(ParameterError):
            UniformWordSampler(counter, max_attempts_per_word=0)

    def test_for_nfa_prepares_immediately(self, fast_parameters):
        sampler = UniformWordSampler.for_nfa(
            families.no_consecutive_ones_nfa(), 5, parameters=fast_parameters
        )
        assert sampler.counter.has_run

    def test_prepare_runs_counter_once(self, fib_sampler):
        _nfa, sampler = fib_sampler
        estimate_first = sampler.prepare()
        estimate_second = sampler.prepare()
        assert estimate_first == estimate_second

    def test_prepare_with_prerun_counter(self, fibonacci_nfa, fast_parameters):
        counter = NFACounter(fibonacci_nfa, 5, fast_parameters)
        counter.run()
        sampler = UniformWordSampler(counter)
        assert sampler.prepare() > 0

    def test_empty_language_raises(self, fast_parameters):
        nfa = NFA.build([("a", "0", "b")], initial="a", accepting=["b"])
        counter = NFACounter(nfa, 3, fast_parameters)
        sampler = UniformWordSampler(counter)
        with pytest.raises(EmptyLanguageError):
            sampler.prepare()


class TestSampling:
    def test_exhausted_attempts_raise_sampling_error(self, fib_sampler, monkeypatch):
        # The language is non-empty, so running out of attempts is a
        # sampling failure, not an empty-language one.
        _nfa, sampler = fib_sampler
        sampler.prepare()
        monkeypatch.setattr(SampleDraw, "draw", lambda self, *arguments, **batch: [])
        with pytest.raises(SamplingError, match="attempts") as raised:
            sampler.sample()
        assert not isinstance(raised.value, EmptyLanguageError)

    def test_samples_are_accepted_words_of_right_length(self, fib_sampler):
        nfa, sampler = fib_sampler
        for word in sampler.sample_many(20):
            assert len(word) == 7
            assert nfa.accepts(word)

    def test_sample_with_report(self, fib_sampler):
        _nfa, sampler = fib_sampler
        words, report = sampler.sample_with_report(30)
        assert report.requested == 30
        assert report.produced == len(words)
        assert report.attempts >= report.produced
        assert 0.0 < report.acceptance_rate <= 1.0

    @pytest.mark.parametrize("count", [2.5, -2, True, "3"])
    @pytest.mark.parametrize("call", ["sample_many", "sample_with_report"])
    def test_word_count_must_be_a_non_negative_int(self, fib_sampler, call, count):
        _nfa, sampler = fib_sampler
        with pytest.raises(ParameterError, match="count"):
            getattr(sampler, call)(count)

    def test_distribution_roughly_uniform(self, accurate_parameters):
        nfa = families.no_consecutive_ones_nfa()
        counter = NFACounter(nfa, 6, accurate_parameters)
        sampler = UniformWordSampler(counter)
        words, _report = sampler.sample_with_report(400)
        population = enumerate_slice(nfa, 6)
        report = uniformity_report(words, population)
        # TV distance should not greatly exceed pure finite-sample noise.
        assert report.tv_distance <= report.expected_tv_distance + 0.15
        assert report.distinct_sampled >= 0.6 * report.support_size

    def test_acceptance_rate_in_expected_band(self, fib_sampler):
        _nfa, sampler = fib_sampler
        _words, report = sampler.sample_with_report(60)
        # Per-attempt success probability is ~2/(3e) with accurate estimates.
        assert 0.1 <= report.acceptance_rate <= 0.5

    def test_multiple_accepting_states(self, accurate_parameters):
        nfa = families.union_of_patterns_nfa(["01", "10"])
        sampler = UniformWordSampler(NFACounter(nfa, 6, accurate_parameters))
        for word in sampler.sample_many(10):
            assert nfa.accepts(word)
            assert len(word) == 6


class FreshTableDraw(SampleDraw):
    """A drawer that ignores the run's step table and builds its own."""

    def __init__(self, *args, steps=None, **kwargs):
        super().__init__(*args, **kwargs)


@pytest.mark.parametrize(
    "backend",
    [name for name in ("bitset", "reference", "numpy") if name in available_backends()],
)
@pytest.mark.parametrize("store", ["dict", "windowed"])
@pytest.mark.parametrize(
    "nfa, length, scale",
    [
        (families.blocks_nfa(4), 16, ParameterScale.practical()),
        (unary_loop_nfa(), 40, long_word_scale()),
    ],
    ids=["blocks", "unary"],
)
def test_reusing_the_run_step_table_keeps_the_stream(
    nfa, length, scale, store, backend, monkeypatch
):
    """Sampling through the run's step table draws what fresh tables draw."""

    def sampled():
        parameters = FPRASParameters(
            seed=3, scale=scale, backend=backend, store=store, window=3,
            use_engine_cache=False,
        )
        sampler = UniformWordSampler.for_nfa(nfa, length, parameters)
        words = [sampler.sample()]
        words += sampler.sample_many(5)
        words += sampler.sample_with_report(5)[0]
        return words, sampler.rng.getstate()

    shared = sampled()
    monkeypatch.setattr(uniform_module, "SampleDraw", FreshTableDraw)
    assert shared == sampled()
