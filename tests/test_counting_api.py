"""Tests for the unified counting façade (:mod:`repro.counting.api`).

Three families of checks:

* **differential parity** — ``repro.count(..., method=X)`` must be
  bit-identical (estimate, RNG stream, work counters) to direct
  construction of the underlying counter classes (or, for Monte-Carlo, the
  core loop) under a shared seed;
* **error paths** — unknown methods, invalid :class:`CountRequest` fields
  and unknown per-method options are rejected with typed errors;
* **façade behaviour** — :class:`CountingSession` pinning, engine reuse
  through the shared registry, report history, the sampler entry point and
  the CLI's ``--method`` flag.
"""

from __future__ import annotations

import inspect
import math
import random

import pytest

import repro
from repro.applications.graphdb import GraphDatabase, RegularPathQuery, RPQCounter
from repro.applications.leakage import estimate_leakage_bits
from repro.applications.pqe import evaluate_path_query
from repro.applications.prob_graph import homomorphism_probability
from repro.automata.engine import acquire_engine
from repro.automata.exact import count_exact
from repro.automata.families import no_consecutive_ones_nfa, substring_nfa
from repro.automata.nfa import NFA
from repro.cli import main
from repro.counting.acjr import ACJRCounter, ACJRParameters
from repro.counting.api import (
    METHOD_REGISTRY,
    CountingSession,
    CountReport,
    CountRequest,
    available_methods,
    count,
    dispatch,
    register_method,
    resolve_method,
)
from repro.counting.fpras import FPRASParameters, NFACounter
from repro.counting.montecarlo import run_montecarlo
from repro.counting.params import ParameterScale
from repro.counting.policy import ExecutionPolicy
from repro.counting.uniform import UniformWordSampler
from repro.errors import CountingMethodError, ParameterError, ReproError

SEED = 7


@pytest.fixture
def nfa():
    return substring_nfa("101")


# ----------------------------------------------------------------------
# Differential parity: façade vs direct classes
# ----------------------------------------------------------------------
class TestFprasParity:
    def test_int_seed_matches_direct_counter(self, nfa):
        direct = NFACounter(
            nfa, 8, FPRASParameters(epsilon=0.5, delta=0.2, seed=SEED)
        ).run()
        report = count(nfa, 8, method="fpras", epsilon=0.5, delta=0.2, seed=SEED)
        assert type(report.raw) is type(direct)
        assert report.estimate == direct.estimate
        assert report.raw.union_calls == direct.union_calls
        assert report.raw.membership_calls == direct.membership_calls
        assert report.raw.sample_draws == direct.sample_draws
        assert report.raw.sample_successes == direct.sample_successes
        assert report.raw.state_estimates == direct.state_estimates
        assert report.backend == direct.backend

    def test_rng_stream_identical_to_direct_counter(self, nfa):
        direct_rng, api_rng = random.Random(SEED), random.Random(SEED)
        direct = NFACounter(
            nfa, 8, FPRASParameters(epsilon=0.5, delta=0.2), rng=direct_rng
        ).run()
        report = count(nfa, 8, method="fpras", epsilon=0.5, delta=0.2, seed=api_rng)
        assert direct_rng.getstate() == api_rng.getstate()
        assert report.estimate == direct.estimate
        assert report.raw.sample_draws == direct.sample_draws

    def test_locked_work_counters_through_facade(self, nfa):
        # The same fixed instance/seed as tests/test_work_counters.py: the
        # façade must reproduce the locked accounting exactly.
        report = count(
            nfa,
            8,
            method="fpras",
            epsilon=0.5,
            delta=0.2,
            seed=SEED,
            scale=ParameterScale.practical(sample_cap=10, union_trial_cap=12),
        )
        assert report.estimate == 138.5763888888889
        assert report.raw.union_calls == 23
        assert report.raw.membership_calls == 612
        assert report.raw.sample_draws == 1006
        assert report.details["ns"] == 10
        assert report.details["xns"] == 60

    def test_report_normalisation(self, nfa):
        report = count(nfa, 6, method="fpras", epsilon=0.4, seed=1)
        assert report.method == "fpras"
        assert report.length == 6 and report.num_states == nfa.num_states
        assert report.epsilon == 0.4 and report.delta == 0.1
        assert not report.exact
        lower, upper = report.error_bounds()
        assert lower == pytest.approx(report.estimate / 1.4)
        assert upper == pytest.approx(report.estimate * 1.4)
        assert "step_ops" in report.engine_counters
        assert report.elapsed_seconds > 0


class TestACJRParity:
    def test_int_seed_matches_direct_counter(self, nfa):
        direct = ACJRCounter(
            nfa, 6, ACJRParameters(epsilon=0.4, sample_cap=32, seed=2)
        ).run()
        report = count(
            nfa, 6, method="acjr", epsilon=0.4, seed=2, sample_cap=32
        )
        assert report.estimate == direct.estimate
        assert report.raw.membership_calls == direct.membership_calls
        assert report.raw.sample_draws == direct.sample_draws
        assert report.raw.state_estimates == direct.state_estimates

    def test_rng_stream_identical_to_direct_counter(self, nfa):
        direct_rng, api_rng = random.Random(SEED), random.Random(SEED)
        direct = ACJRCounter(
            nfa, 6, ACJRParameters(epsilon=0.4), rng=direct_rng
        ).run()
        report = count(nfa, 6, method="acjr", epsilon=0.4, seed=api_rng)
        assert direct_rng.getstate() == api_rng.getstate()
        assert report.estimate == direct.estimate

    @pytest.mark.parametrize("backend", ["bitset", "reference"])
    def test_policy_reaches_the_direct_counter(self, nfa, backend):
        policy = ExecutionPolicy(backend=backend)
        report = count(nfa, 6, method="acjr", seed=2, policy=policy)
        counter = ACJRCounter(nfa, 6, ACJRParameters(seed=2), policy=policy)
        direct = counter.run()
        assert report.backend == counter.unroll.backend == backend
        assert report.estimate == direct.estimate
        assert report.raw.membership_calls == direct.membership_calls
        assert report.raw.sample_draws == direct.sample_draws
        assert report.raw.state_estimates == direct.state_estimates

    def test_engine_counters_and_guarantee_fields(self, nfa):
        report = count(nfa, 6, method="acjr", epsilon=0.4, seed=2)
        assert report.epsilon == 0.4
        assert "simulated_steps" in report.engine_counters
        assert report.backend in ("bitset", "reference")


class TestMonteCarloParity:
    def test_rng_stream_identical_to_core_loop(self, nfa):
        direct_rng, api_rng = random.Random(SEED), random.Random(SEED)
        engine, _ = acquire_engine(nfa, None, use_cache=False)
        direct = run_montecarlo(nfa, 8, 300, direct_rng, engine)
        report = count(nfa, 8, method="montecarlo", seed=api_rng, num_samples=300)
        assert direct_rng.getstate() == api_rng.getstate()
        assert report.raw == direct  # frozen dataclass equality: all fields
        assert report.details["hits"] == direct.hits
        assert report.details["total_words"] == direct.total_words

    def test_no_guarantee_fields(self, nfa):
        report = count(nfa, 6, method="montecarlo", seed=1, num_samples=50)
        assert report.epsilon is None and report.delta is None
        assert report.error_bounds() is None
        assert report.within_guarantee(count_exact(nfa, 6)) is None


class TestBruteForceParity:
    def test_report_is_structured(self, nfa):
        report = count(nfa, 7, method="bruteforce", limit=1000)
        assert report.exact
        assert report.raw == count_exact(nfa, 7)
        assert report.details["limit"] == 1000
        assert report.details["total_words"] == 2**7
        assert "step_ops" in report.engine_counters
        assert report.error_bounds() == (report.estimate, report.estimate)

    def test_limit_error_propagates_through_facade(self, nfa):
        with pytest.raises(ParameterError):
            count(nfa, 30, method="bruteforce", limit=1000)

    def test_limit_none_disables_check(self, nfa):
        assert count(nfa, 4, method="bruteforce", limit=None).raw == count_exact(nfa, 4)


class TestApplicationsTakeThePolicy:
    """The application entry points carry no flat engine knobs; a policy
    reaches ``RPQCounter.count_report`` through its ``**options``."""

    @pytest.mark.parametrize(
        "entry_point",
        [
            RPQCounter.count_report,
            estimate_leakage_bits,
            evaluate_path_query,
            homomorphism_probability,
        ],
    )
    def test_no_flat_engine_knobs(self, entry_point):
        parameters = inspect.signature(entry_point).parameters
        assert not {"backend", "use_engine_cache"} & set(parameters)

    def test_count_report_forwards_a_policy(self):
        graph = GraphDatabase.from_edges(
            [("a", "e", "b"), ("b", "e", "c"), ("a", "e", "c"), ("c", "f", "d")]
        )
        rpq = RPQCounter(graph, RegularPathQuery("a", "(<e>)*<f>", "d", max_length=4))
        policy = ExecutionPolicy(backend="reference")
        answers = rpq.count_report(epsilon=0.4, seed=2, policy=policy)
        expected = count(
            rpq.product_automaton(), 4, epsilon=0.4, seed=2, policy=policy
        )
        assert answers.backend == expected.backend == "reference"
        assert answers.estimate == expected.estimate


class TestExactMethod:
    def test_exact_report(self, nfa):
        report = count(nfa, 9, method="exact")
        assert report.raw == count_exact(nfa, 9)
        assert report.estimate == float(report.raw)
        assert report.exact and report.backend is None
        assert report.engine_counters == {}
        assert report.within_guarantee(report.raw) is True
        assert report.within_guarantee(report.raw + 1) is False


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------
def _all_words_nfa():
    """One state accepting ``{0,1}*``: its slice at n holds 2^n words."""
    return NFA.build([("s", "0", "s"), ("s", "1", "s")], initial="s", accepting=["s"])


class TestErrorPaths:
    def test_unknown_method(self, nfa):
        with pytest.raises(CountingMethodError) as excinfo:
            count(nfa, 4, method="quantum")
        assert "quantum" in str(excinfo.value)
        # The error is both a ValueError (historical contract) and a
        # ReproError (library-wide catch-all).
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, ReproError)

    def test_resolve_method_unknown(self):
        with pytest.raises(CountingMethodError):
            resolve_method("nope")

    def test_unknown_option_rejected(self, nfa):
        with pytest.raises(CountingMethodError) as excinfo:
            count(nfa, 4, method="exact", num_samples=10)
        assert "num_samples" in str(excinfo.value)

    def test_option_for_wrong_method_rejected(self, nfa):
        with pytest.raises(CountingMethodError):
            count(nfa, 4, method="fpras", limit=10)

    @pytest.mark.parametrize(
        "method, length, option, value",
        [
            ("montecarlo", 6, "num_samples", 2.5),
            ("montecarlo", 6, "num_samples", True),
            ("montecarlo", 6, "num_samples", "10"),
            ("bruteforce", 6, "limit", "10"),
            ("bruteforce", 0, "limit", True),  # not read as a limit of 1
        ],
    )
    def test_integer_options_are_typed(self, method, length, option, value):
        with pytest.raises(ParameterError) as excinfo:
            count(substring_nfa("1"), length, method=method, **{option: value})
        assert option in str(excinfo.value)

    def test_montecarlo_count_beyond_the_float_range_raises_before_drawing(self):
        # |{0,1}^1024| = 2^1024 is above the largest float.
        rng = random.Random(3)
        state = rng.getstate()
        with pytest.raises(ParameterError, match="largest float"):
            count(_all_words_nfa(), 1024, method="montecarlo", seed=rng)
        assert rng.getstate() == state

    def test_exact_count_beyond_the_float_range_raises(self):
        with pytest.raises(ParameterError, match="largest float"):
            count(_all_words_nfa(), 1030, method="exact")
        assert count(_all_words_nfa(), 1023, method="exact").raw == 2**1023

    @pytest.mark.parametrize(
        "method, option, value",
        [
            ("acjr", "sample_cap", "10"),
            ("acjr", "sample_cap", 2.5),
            ("acjr", "attempt_factor", "x"),
            ("acjr", "attempt_factor", 0),
            ("acjr", "attempt_factor", -3),
            ("acjr", "attempt_factor", math.inf),
            ("acjr", "attempt_factor", math.nan),
            ("acjr", "attempt_factor", True),
            ("fpras", "scale", "x"),
            ("fpras", "scale", {"sample_cap": 8}),
        ],
    )
    def test_estimator_options_are_typed(self, nfa, method, option, value):
        with pytest.raises(ParameterError, match=option):
            count(nfa, 6, method=method, seed=1, **{option: value})

    @pytest.mark.parametrize(
        "fields",
        [
            {"epsilon": 0.0},
            {"epsilon": -1.0},
            {"delta": 0.0},
            {"delta": 1.0},
            {"seed": "not-a-seed"},
            {"method": ""},
            {"method": 42},
            {"options": 17},
            {"options": {3: "x"}},
        ],
    )
    def test_invalid_request_fields(self, fields):
        with pytest.raises(ParameterError):
            CountRequest(**fields)

    @pytest.mark.parametrize("epsilon", [math.inf, True])
    @pytest.mark.parametrize("method", ["fpras", "acjr", "montecarlo", "bruteforce", "exact"])
    def test_mistyped_epsilon_is_a_parameter_error(self, nfa, method, epsilon):
        """Every method gets a finite, positive epsilon that is not a bool,
        also those that ignore it."""
        with pytest.raises(ParameterError, match="epsilon"):
            count(nfa, 5, method=method, epsilon=epsilon)

    @pytest.mark.parametrize(
        "method, length",
        [
            (method, length)
            for method in ("fpras", "acjr", "montecarlo", "bruteforce", "exact")
            for length in (2.0, True, "3")
        ]
        + [("exact", -1)],
    )
    def test_mistyped_length_is_a_parameter_error(self, nfa, method, length):
        with pytest.raises(ParameterError, match="length"):
            count(nfa, length, method=method)

    @pytest.mark.parametrize("length", [2.0, True])
    def test_progress_path_checks_the_length(self, nfa, length):
        with pytest.raises(ParameterError, match="length"):
            dispatch(nfa, length, CountRequest(method="fpras"), progress=lambda event: None)

    @pytest.mark.parametrize("length", [2.0, True])
    def test_sampler_path_checks_the_length(self, length):
        with pytest.raises(ParameterError, match="length"):
            CountingSession(seed=1).sampler(substring_nfa("101"), length).prepare()

    def test_details_is_checked_on_every_fpras_path(self, nfa):
        with pytest.raises(ParameterError, match="details must be"):
            count(nfa, 4, seed=1, details="bogus")
        with pytest.raises(ParameterError, match="details must be"):
            CountingSession(seed=1).sampler(nfa, 4, details="bogus")

    def test_request_defaults_are_valid(self):
        request = CountRequest()
        assert request.method == "fpras"
        assert request.options == {}
        assert request.integer_seed() is None

    def test_duplicate_registration_rejected(self):
        with pytest.raises(CountingMethodError):
            register_method("fpras", summary="dup")(lambda nfa, n, req: None)

    def test_sampler_requires_fpras_request(self, nfa):
        request = CountRequest(method="exact")
        with pytest.raises(ParameterError):
            UniformWordSampler.from_request(nfa, 6, request)


# ----------------------------------------------------------------------
# Registry extensibility
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_five_methods_registered(self):
        assert available_methods() == (
            "acjr",
            "bruteforce",
            "exact",
            "fpras",
            "montecarlo",
        )

    def test_methods_carry_metadata(self):
        for name in available_methods():
            method = METHOD_REGISTRY[name]
            assert method.name == name
            assert method.summary
            assert isinstance(method.option_names, frozenset)

    def test_custom_method_pluggable(self, nfa):
        @register_method("always42", summary="test stub", options=("offset",))
        def _run(nfa_, length, request):
            offset = request.option("offset", 0)
            return CountReport(
                estimate=42.0 + offset,
                method="always42",
                length=length,
                num_states=nfa_.num_states,
                elapsed_seconds=0.0,
            )

        try:
            assert count(nfa, 3, method="always42").estimate == 42.0
            assert count(nfa, 3, method="always42", offset=8).estimate == 50.0
            session = CountingSession(method="always42")
            assert session.count(nfa, 3).estimate == 42.0
        finally:
            del METHOD_REGISTRY["always42"]

    def test_dispatch_accepts_prebuilt_request(self, nfa):
        request = CountRequest(method="exact")
        report = dispatch(nfa, 5, request)
        assert report.raw == count_exact(nfa, 5)


# ----------------------------------------------------------------------
# CountingSession façade
# ----------------------------------------------------------------------
class TestCountingSession:
    def test_pinned_seed_is_repeatable(self, nfa):
        session = CountingSession(epsilon=0.5, delta=0.2, seed=SEED)
        first = session.count(nfa, 8)
        second = session.count(nfa, 8)
        assert first.estimate == second.estimate
        assert first.raw.sample_draws == second.raw.sample_draws

    def test_session_matches_one_shot_count(self, nfa):
        session = CountingSession(epsilon=0.5, delta=0.2, seed=SEED)
        assert (
            session.count(nfa, 8).estimate
            == count(nfa, 8, method="fpras", epsilon=0.5, delta=0.2, seed=SEED).estimate
        )

    def test_repeated_calls_reuse_engine(self, nfa):
        session = CountingSession(epsilon=0.5, seed=1)
        session.count(nfa, 6)
        second = session.count(nfa, 6)
        assert second.engine_counters["engine_cache_hit"] == 1

    def test_no_engine_cache_opts_out(self, nfa):
        session = CountingSession(
            epsilon=0.5, seed=1, policy=ExecutionPolicy(use_engine_cache=False)
        )
        session.count(nfa, 6)
        second = session.count(nfa, 6)
        assert second.engine_counters["engine_cache_hit"] == 0

    def test_reports_history_and_last(self, nfa):
        session = CountingSession(seed=1)
        assert session.last_report is None
        session.count(nfa, 5)
        session.count(nfa, 5, method="exact")
        assert len(session.reports) == 2
        assert session.last_report.method == "exact"

    def test_per_call_overrides(self, nfa):
        session = CountingSession(epsilon=0.5, seed=1)
        report = session.count(nfa, 5, epsilon=0.25)
        assert report.epsilon == 0.25
        # The pinned default is untouched.
        assert session.defaults.epsilon == 0.5

    def test_session_options_filtered_per_method(self, nfa):
        # A session pinned with an fpras-only option can still run exact.
        session = CountingSession(
            seed=1, scale=ParameterScale.practical(sample_cap=8)
        )
        assert session.count(nfa, 5, method="exact").raw == count_exact(nfa, 5)
        assert session.count(nfa, 5).details["ns"] <= 8

    def test_per_call_unknown_option_still_rejected(self, nfa):
        session = CountingSession(seed=1)
        with pytest.raises(CountingMethodError):
            session.count(nfa, 5, method="exact", limit=3)

    def test_pinned_option_typo_rejected_at_construction(self):
        # A misspelled (or wrong-method) pinned option must fail loudly at
        # construction, not be silently dropped by the per-method filter.
        with pytest.raises(CountingMethodError):
            CountingSession(method="montecarlo", nun_samples=17)
        with pytest.raises(CountingMethodError):
            CountingSession(num_samples=17)  # not an fpras option

    def test_unknown_method_at_request_time(self, nfa):
        session = CountingSession(seed=1)
        with pytest.raises(CountingMethodError):
            session.request("bogus")

    def test_every_method_invocable_through_session(self, nfa):
        session = CountingSession(epsilon=0.5, seed=2)
        exact = count_exact(nfa, 6)
        for method in available_methods():
            report = session.count(nfa, 6, method=method)
            assert report.method == method
            assert report.estimate >= 0
            if report.exact:
                assert report.raw == exact

    def test_sampler_through_session(self):
        nfa = no_consecutive_ones_nfa()
        session = CountingSession(epsilon=0.4, seed=3)
        sampler = session.sampler(nfa, 8)
        words = sampler.sample_many(4)
        assert len(words) == 4
        for word in words:
            assert len(word) == 8
            assert ("1", "1") not in tuple(zip(word, word[1:]))

    def test_sampler_matches_direct_construction(self):
        nfa = no_consecutive_ones_nfa()
        direct = UniformWordSampler(
            NFACounter(nfa, 8, FPRASParameters(epsilon=0.4, delta=0.1, seed=3))
        )
        session = CountingSession(epsilon=0.4, seed=3)
        facade = session.sampler(nfa, 8)
        assert direct.sample_many(5) == facade.sample_many(5)

    def test_describe(self, nfa):
        session = CountingSession(
            epsilon=0.3, seed=9, policy=ExecutionPolicy(backend="reference")
        )
        session.count(nfa, 4, method="exact")
        description = session.describe()
        assert description["epsilon"] == 0.3
        assert description["backend"] == "reference"
        assert description["calls"] == 1


# ----------------------------------------------------------------------
# Top-level exports and CLI integration
# ----------------------------------------------------------------------
class TestTopLevelSurface:
    def test_repro_count_is_the_facade(self, nfa):
        report = repro.count(nfa, 5, method="exact")
        assert isinstance(report, CountReport)
        assert report.raw == count_exact(nfa, 5)

    def test_public_exports(self):
        for name in (
            "count",
            "CountingSession",
            "CountRequest",
            "CountReport",
            "available_methods",
            "register_method",
        ):
            assert hasattr(repro, name)


class TestCLIMethodFlag:
    @pytest.mark.parametrize("method", ["fpras", "acjr", "montecarlo", "bruteforce", "exact"])
    def test_count_with_each_method(self, method, capsys):
        assert (
            main(
                ["count", "parity", "-n", "5", "--method", method, "--seed", "1"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert method in output

    def test_method_with_compare(self, capsys):
        assert (
            main(
                [
                    "count",
                    "no_consecutive_ones",
                    "-n",
                    "6",
                    "--method",
                    "montecarlo",
                    "--compare",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "montecarlo" in output and "exact" in output and "rel_error" in output

    def test_unknown_method_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["count", "parity", "--method", "quantum"])

    def test_methods_subcommand(self, capsys):
        assert main(["methods"]) == 0
        output = capsys.readouterr().out
        for method in available_methods():
            assert method in output

    def test_shared_parent_parser_defaults(self):
        from repro.cli import build_parser

        parser = build_parser()
        count_args = parser.parse_args(["count", "parity"])
        sample_args = parser.parse_args(["sample", "parity"])
        # The shared block exists on both; only the epsilon default differs.
        assert count_args.epsilon == 0.3
        assert sample_args.epsilon == 0.4
        for namespace in (count_args, sample_args):
            assert namespace.delta == 0.1
            assert namespace.seed is None
            assert namespace.no_engine_cache is False
            assert namespace.backend is None

    def test_per_method_option_flags(self, capsys):
        assert (
            main(
                [
                    "count",
                    "parity",
                    "-n",
                    "5",
                    "--method",
                    "montecarlo",
                    "--num-samples",
                    "123",
                    "--seed",
                    "1",
                ]
            )
            == 0
        )
        assert "123" in capsys.readouterr().out

    def test_bruteforce_limit_flag(self, capsys):
        # Over the limit: a one-line error with exit code 2, no traceback.
        assert (
            main(["count", "parity", "-n", "8", "--method", "bruteforce", "--limit", "10"])
            == 2
        )
        assert "brute force" in capsys.readouterr().err
        # Raised limit: succeeds.
        assert (
            main(["count", "parity", "-n", "8", "--method", "bruteforce", "--limit", "500"])
            == 0
        )
        # 0 disables the safety valve entirely.
        assert (
            main(["count", "parity", "-n", "8", "--method", "bruteforce", "--limit", "0"])
            == 0
        )

    def test_option_for_wrong_method_is_clean_error(self, capsys):
        assert (
            main(["count", "parity", "-n", "5", "--num-samples", "10", "--seed", "1"])
            == 2
        )
        assert "num_samples" in capsys.readouterr().err

    def test_compare_with_exact_method_runs_dp_once(self, capsys):
        assert (
            main(["count", "parity", "-n", "6", "--method", "exact", "--compare"]) == 0
        )
        output = capsys.readouterr().out
        # Exactly one table row for the exact method (the DP ran once and
        # its report was reused), plus the run-details block.
        table_rows = [
            line for line in output.splitlines() if line.startswith("exact")
        ]
        assert len(table_rows) == 1
        assert "run details" in output

    def test_backend_flag_still_threaded(self, capsys):
        assert (
            main(
                [
                    "count",
                    "parity",
                    "-n",
                    "5",
                    "--seed",
                    "1",
                    "--backend",
                    "reference",
                    "--no-engine-cache",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "reference" in output


# ----------------------------------------------------------------------
# Report serialization (the serving layer's wire format)
# ----------------------------------------------------------------------
class TestReportSerialization:
    SCALE = ParameterScale.practical(sample_cap=8, union_trial_cap=10)

    def _report(self, method, **options):
        return count(
            no_consecutive_ones_nfa(),
            6,
            method=method,
            epsilon=0.5,
            seed=SEED,
            **options,
        )

    @pytest.mark.parametrize(
        "method, options",
        [
            ("fpras", {"scale": ParameterScale.practical(sample_cap=8,
                                                         union_trial_cap=10)}),
            ("acjr", {"sample_cap": 16}),
            ("montecarlo", {"num_samples": 64}),
            ("bruteforce", {}),
            ("exact", {}),
        ],
    )
    def test_round_trip_is_lossless_for_every_method(self, method, options):
        report = self._report(method, **options)
        restored = CountReport.from_dict(report.to_dict())
        assert restored == report
        assert restored.error_bounds() == report.error_bounds()

    def test_to_dict_is_json_serializable(self):
        import json

        report = self._report("fpras", scale=self.SCALE)
        wire = json.dumps(report.to_dict())
        revived = CountReport.from_dict(json.loads(wire))
        # Bit-identical through JSON: repr-round-trip floats, exact ints.
        assert revived.estimate == report.estimate
        assert revived.raw.state_estimates == report.raw.state_estimates
        assert revived.engine_counters == report.engine_counters

    def test_montecarlo_raw_survives_json(self):
        import json

        report = self._report("montecarlo", num_samples=64)
        revived = CountReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert revived.raw == report.raw

    def test_exact_raw_is_a_plain_int(self):
        report = self._report("exact")
        document = report.to_dict()
        assert document["raw"] == {"kind": "int", "value": 21}
        assert CountReport.from_dict(document).raw == 21

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(CountingMethodError):
            CountReport.from_dict("not a mapping")
        with pytest.raises(CountingMethodError):
            CountReport.from_dict({"schema": 999})
        report = self._report("exact")
        document = report.to_dict()
        del document["estimate"]
        with pytest.raises(CountingMethodError):
            CountReport.from_dict(document)

    def test_from_dict_rejects_unknown_raw_kind(self):
        document = self._report("exact").to_dict()
        document["raw"] = {"kind": "hologram"}
        with pytest.raises(CountingMethodError):
            CountReport.from_dict(document)

    def test_extra_keys_are_ignored(self):
        """The server adds a 'served' envelope; from_dict must not care."""
        document = self._report("exact").to_dict()
        document["served"] = {"cached": True, "fingerprint": "abc"}
        assert CountReport.from_dict(document).estimate == 21.0


# ----------------------------------------------------------------------
# Request canonicalisation / fingerprints (the cache key)
# ----------------------------------------------------------------------
class TestRequestFingerprint:
    def _document(self):
        from repro.automata.serialization import nfa_to_dict

        return nfa_to_dict(no_consecutive_ones_nfa())

    def test_stable_across_calls(self):
        from repro.counting.api import request_fingerprint

        request = CountRequest(method="fpras", epsilon=0.5, seed=3)
        first = request_fingerprint(self._document(), 6, request)
        second = request_fingerprint(self._document(), 6, request)
        assert first == second
        assert len(first) == 64  # sha256 hexdigest

    @pytest.mark.parametrize(
        "base, variant",
        [
            (
                CountRequest(method="fpras", seed=3),
                CountRequest(method="montecarlo", seed=3),
            ),
            (
                CountRequest(epsilon=0.5, seed=3),
                CountRequest(epsilon=0.4, seed=3),
            ),
            (
                CountRequest(delta=0.1, seed=3),
                CountRequest(delta=0.2, seed=3),
            ),
            (CountRequest(seed=3), CountRequest(seed=4)),
            (
                CountRequest(seed=3),
                CountRequest(seed=3, policy=ExecutionPolicy(backend="reference")),
            ),
        ],
        ids=["method", "epsilon", "delta", "seed", "backend"],
    )
    def test_every_estimate_affecting_knob_is_in_the_key(self, base, variant):
        from repro.counting.api import request_fingerprint

        document = self._document()
        assert request_fingerprint(document, 6, base) != request_fingerprint(
            document, 6, variant
        )

    def test_length_is_in_the_key(self):
        from repro.counting.api import request_fingerprint

        request = CountRequest(seed=3)
        document = self._document()
        assert request_fingerprint(document, 6, request) != request_fingerprint(
            document, 7, request
        )

    def test_engine_cache_and_store_are_not_in_the_key(self):
        """Result-neutral knobs share one cache line."""
        from repro.counting.api import request_fingerprint

        document = self._document()
        base = request_fingerprint(document, 6, CountRequest(seed=3))
        for variant in (
            CountRequest(seed=3, policy=ExecutionPolicy(store="windowed", window=2)),
            CountRequest(seed=3, policy=ExecutionPolicy(use_engine_cache=False)),
        ):
            assert request_fingerprint(document, 6, variant) == base

    def test_automaton_is_in_the_key(self):
        from repro.automata.serialization import nfa_to_dict
        from repro.counting.api import request_fingerprint

        request = CountRequest(seed=3)
        other = nfa_to_dict(substring_nfa("101"))
        assert request_fingerprint(self._document(), 6, request) != (
            request_fingerprint(other, 6, request)
        )

    def test_seedless_and_stream_seeded_requests_are_uncacheable(self):
        from repro.counting.api import request_fingerprint

        document = self._document()
        assert request_fingerprint(document, 6, CountRequest()) is None
        stream_seeded = CountRequest(seed=random.Random(1))
        assert request_fingerprint(document, 6, stream_seeded) is None

    def test_non_json_options_are_uncacheable(self):
        from repro.counting.api import request_fingerprint

        request = CountRequest(
            method="fpras", seed=3, options={"scale": ParameterScale.practical()}
        )
        assert request_fingerprint(self._document(), 6, request) is None

    def test_canonical_knobs_reject_stream_seeds(self):
        from repro.counting.api import canonical_request_knobs

        with pytest.raises(CountingMethodError):
            canonical_request_knobs(CountRequest(seed=random.Random(1)), 6)


# ----------------------------------------------------------------------
# Anytime progress (dispatch(..., progress=...))
# ----------------------------------------------------------------------
class TestCountWithProgress:
    SCALE = ParameterScale.practical(sample_cap=8, union_trial_cap=10)

    def test_fpras_progress_levels_and_identical_estimate(self):
        nfa = no_consecutive_ones_nfa()
        request = CountRequest(
            method="fpras", epsilon=0.5, seed=SEED, options={"scale": self.SCALE}
        )
        events = []
        streamed = dispatch(nfa, 6, request, progress=events.append)
        direct = dispatch(nfa, 6, request)
        assert streamed.estimate == direct.estimate
        assert [e["level"] for e in events] == list(range(1, 7))
        assert all(e["method"] == "fpras" for e in events)

    def test_montecarlo_progress_waves_and_identical_estimate(self):
        nfa = no_consecutive_ones_nfa()
        request = CountRequest(
            method="montecarlo", seed=SEED, options={"num_samples": 100}
        )
        events = []
        streamed = dispatch(nfa, 6, request, progress=events.append)
        direct = dispatch(nfa, 6, request)
        assert streamed.estimate == direct.estimate
        assert events and events[-1]["samples"] == 100
        assert all(e["method"] == "montecarlo" for e in events)

    def test_unsupported_method_rejected(self):
        with pytest.raises(CountingMethodError) as excinfo:
            dispatch(
                no_consecutive_ones_nfa(), 6, CountRequest(method="exact"), progress=print
            )
        assert "progress" in str(excinfo.value)

    def test_unknown_options_still_rejected(self):
        with pytest.raises(CountingMethodError):
            dispatch(
                no_consecutive_ones_nfa(),
                6,
                CountRequest(method="fpras", options={"bogus": 1}),
                progress=print,
            )
