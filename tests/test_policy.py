"""Typed execution policies and declarative method capabilities.

Pins the contracts behind the typed execution-policy API:

* :class:`~repro.counting.policy.ExecutionPolicy` — validation, the
  defaults-omitted option emission, and its place as the ``policy`` field
  of ``CountRequest`` (cache key included);
* the policy spelling on :func:`repro.count` and
  :class:`~repro.counting.api.CountingSession`: a policy flows into their
  requests, and execution knobs passed as flat kwargs raise typed errors;
* the method registry's declared capabilities (which dispatch reads
  instead of ``getattr`` probes).
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.automata import families
from repro.counting.api import (
    METHOD_REGISTRY,
    CountingSession,
    CountRequest,
    canonical_request_knobs,
    count,
    request_fingerprint,
)
from repro.counting.policy import (
    POLICY_OPTION_NAMES,
    ExecutionPolicy,
    MethodCapabilities,
)
from repro.errors import CountingMethodError, ParameterError


class TestExecutionPolicyValidation:
    def test_defaults_are_the_implicit_policy(self):
        policy = ExecutionPolicy()
        assert policy.backend is None
        assert policy.use_engine_cache is True
        assert policy.workers == 1
        assert policy.method_options() == {}

    def test_unknown_backend_rejected(self):
        # "numpy" named a backend once; it is an unknown name now, with no alias.
        for backend in ("no-such-backend", "numpy"):
            with pytest.raises(ParameterError, match="unknown simulation backend"):
                ExecutionPolicy(backend=backend)

    def test_auto_backend_accepted(self):
        assert ExecutionPolicy(backend="auto").backend == "auto"

    @pytest.mark.parametrize(
        "knobs",
        [
            {"use_engine_cache": "yes"},
            {"store": "csv"},
            {"window": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, knobs):
        with pytest.raises(ParameterError):
            ExecutionPolicy(**knobs)

    def test_every_run_is_serial(self):
        # `workers` is a read-only 1, and neither it nor `shards` is a field.
        assert [field.name for field in dataclasses.fields(ExecutionPolicy)] == [
            "backend",
            "use_engine_cache",
            "store",
            "window",
        ]
        assert ExecutionPolicy(backend="reference", store="windowed").workers == 1
        for knob in ("workers", "shards"):
            with pytest.raises(TypeError):
                ExecutionPolicy(**{knob: 2})
            with pytest.raises(TypeError):
                ExecutionPolicy().with_overrides(**{knob: 2})

    def test_method_options_omit_defaults(self):
        # Core knobs never appear as options; managed options only when
        # non-default — the fingerprint-neutrality mechanism.
        assert ExecutionPolicy(backend="reference").method_options() == {}
        assert ExecutionPolicy(store="windowed", window=2).method_options() == {
            "store": "windowed",
            "window": 2,
        }

    def test_with_overrides(self):
        policy = ExecutionPolicy(backend="bitset")
        tweaked = policy.with_overrides(store="windowed")
        assert tweaked.backend == "bitset"
        assert tweaked.store == "windowed"
        assert policy.store == "dict"  # frozen original untouched

    def test_describe_lists_every_knob(self):
        described = ExecutionPolicy().describe()
        assert set(described) == {
            "backend",
            "use_engine_cache",
            *POLICY_OPTION_NAMES,
        }


class TestRequestPolicyField:
    def test_cache_key_reads_the_policy(self):
        # Corpus fingerprints, serve cache keys and audit manifests hash
        # this JSON, so its value is pinned.
        request = CountRequest(
            seed=3,
            policy=ExecutionPolicy(backend="bitset", store="windowed"),
        )
        assert canonical_request_knobs(request, 6) == {
            "method": "fpras",
            "length": 6,
            "epsilon": 0.5,
            "delta": 0.1,
            "seed": 3,
            "backend": "bitset",
            "options": {},
        }
        nfa_doc = {"states": ["a"], "initial": "a", "transitions": [], "accepting": ["a"]}
        neutral = CountRequest(
            seed=3,
            policy=ExecutionPolicy(backend="bitset", use_engine_cache=False, window=8),
        )
        assert request_fingerprint(nfa_doc, 6, neutral) == request_fingerprint(
            nfa_doc, 6, request
        )

    def test_store_and_window_leave_the_cache_key_alone(self):
        # No store or window changes an estimate, so none may split the
        # result cache.
        def knobs(store, window):
            policy = ExecutionPolicy(backend="reference", store=store, window=window)
            return canonical_request_knobs(CountRequest(seed=3, policy=policy), 6)

        default = knobs("dict", 4)
        for store in ("dict", "windowed"):
            for window in (1, 2, 16):
                assert knobs(store, window) == default

    @pytest.mark.parametrize("name", POLICY_OPTION_NAMES)
    def test_execution_knobs_in_options_rejected(self, name):
        value = {"store": "windowed", "window": 8}[name]
        for policy in (ExecutionPolicy(), ExecutionPolicy(backend="reference")):
            with pytest.raises(ParameterError, match="set them on the ExecutionPolicy"):
                CountRequest(method="fpras", options={name: value}, policy=policy)

    @pytest.mark.parametrize("seed", [True, False])
    def test_bool_seed_rejected(self, seed):
        with pytest.raises(ParameterError, match="seed must be"):
            CountRequest(seed=seed)
        with pytest.raises(ParameterError, match="seed must be"):
            count(families.parity_nfa(2), 4, seed=seed, policy=ExecutionPolicy(backend="bitset"))

    def test_policy_must_be_a_policy(self):
        with pytest.raises(ParameterError):
            CountRequest(method="fpras", policy={"backend": "bitset"})


class TestPolicySpelling:
    @pytest.fixture()
    def parity_nfa_2(self):
        return families.parity_nfa(2)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (
                lambda nfa: count(nfa, 4, backend="bitset"),
                CountingMethodError,
                r"does not accept option\(s\) \['backend'\]",
            ),
            (
                lambda nfa: count(nfa, 4, workers=2),
                CountingMethodError,
                r"does not accept option\(s\) \['workers'\]",
            ),
            (
                lambda nfa: count(nfa, 4, store="windowed"),
                ParameterError,
                "set them on the ExecutionPolicy instead",
            ),
            (
                lambda nfa: CountingSession(store="windowed"),
                ParameterError,
                "set them on the ExecutionPolicy instead",
            ),
            (
                lambda nfa: CountingSession(workers=2),
                CountingMethodError,
                r"session option\(s\) \['workers'\] are not accepted",
            ),
            (
                lambda nfa: CountingSession(seed=1).count(nfa, 4, backend="reference"),
                CountingMethodError,
                r"does not accept option\(s\) \['backend'\]",
            ),
            (
                lambda nfa: CountingSession(seed=1).count(nfa, 4, use_engine_cache=False),
                CountingMethodError,
                r"does not accept option\(s\) \['use_engine_cache'\]",
            ),
            (
                lambda nfa: CountingSession(seed=1).count(nfa, 4, workers=2),
                CountingMethodError,
                r"does not accept option\(s\) \['workers'\]",
            ),
        ],
        ids=[
            "count-backend",
            "count-workers",
            "count-store",
            "session-store",
            "session-workers",
            "session-call-backend",
            "session-call-use-engine-cache",
            "session-call-workers",
        ],
    )
    def test_flat_execution_kwargs_raise_typed_errors(
        self, parity_nfa_2, call, error, message
    ):
        with pytest.raises(error, match=message):
            call(parity_nfa_2)

    @pytest.mark.parametrize("name", POLICY_OPTION_NAMES)
    def test_session_call_flat_execution_option_raises(self, parity_nfa_2, name):
        value = {"store": "windowed", "window": 8}[name]
        session = CountingSession(seed=1, policy=ExecutionPolicy(backend="bitset"))
        with pytest.raises(ParameterError, match="set them on the ExecutionPolicy"):
            session.count(parity_nfa_2, 4, **{name: value})

    def test_policy_spelling_is_silent(self, parity_nfa_2):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = count(
                parity_nfa_2,
                4,
                method="exact",
                policy=ExecutionPolicy(backend="bitset"),
            )
            CountingSession(seed=1, policy=ExecutionPolicy(store="windowed"))
        assert report.raw == count(parity_nfa_2, 4, method="exact").raw

    def test_default_flat_values_do_not_warn(self, parity_nfa_2):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            count(parity_nfa_2, 4, method="exact")

    def test_session_policy_flows_into_requests(self, parity_nfa_2):
        session = CountingSession(
            epsilon=0.5,
            seed=5,
            policy=ExecutionPolicy(backend="bitset", store="windowed"),
        )
        pinned = session.request()
        assert pinned.policy == ExecutionPolicy(backend="bitset", store="windowed")
        assert "store" not in pinned.options
        # A method that does not accept the store option drops it.
        assert session.request(method="exact").policy == ExecutionPolicy(
            backend="bitset"
        )
        assert session.count(parity_nfa_2, 4, method="exact").raw > 0

    def test_call_policy_replaces_the_pinned_one(self, parity_nfa_2):
        session = CountingSession(
            seed=1, policy=ExecutionPolicy(backend="bitset", store="windowed")
        )
        report = session.count(
            parity_nfa_2, 4, policy=ExecutionPolicy(backend="reference")
        )
        assert report.backend == "reference"
        request = session.request(policy=ExecutionPolicy(backend="reference"))
        assert request.policy == ExecutionPolicy(backend="reference")
        assert report.estimate == count(parity_nfa_2, 4, seed=1).estimate


class TestMethodCapabilities:
    def test_defaults(self):
        capabilities = MethodCapabilities()
        assert capabilities.progress is False

    @pytest.mark.parametrize("knobs", [{"progress": "yes"}])
    def test_invalid_records_rejected(self, knobs):
        with pytest.raises(ParameterError):
            MethodCapabilities(**knobs)

    def test_records_have_no_workers_capability(self):
        assert [field.name for field in dataclasses.fields(MethodCapabilities)] == [
            "progress"
        ]
        for knob in ("workers", "stores"):
            with pytest.raises(TypeError):
                MethodCapabilities(**{knob: True})

    def test_registry_declares_capabilities(self):
        fpras = METHOD_REGISTRY["fpras"].capabilities
        assert fpras.progress
        assert {"store", "window"} <= METHOD_REGISTRY["fpras"].option_names
        exact = METHOD_REGISTRY["exact"].capabilities
        assert not exact.progress
        montecarlo = METHOD_REGISTRY["montecarlo"].capabilities
        assert montecarlo.progress
