"""Every count runs serially, through one loop per method.

fpras runs :meth:`~repro.counting.fpras.NFACounter.run` and Monte-Carlo
runs :func:`~repro.counting.montecarlo.run_montecarlo`, on the calling
thread, whatever the entry point.  These tests pin that contract:

* the façade adds nothing to the serial counter: under every execution
  policy (backend x store) ``repro.count`` is bit-identical to a directly
  built :class:`~repro.counting.fpras.NFACounter` (estimate, state tables,
  work counters, final RNG state), and no policy moves the estimate;
* every entry point (module-level ``count``, a session, a streamed
  dispatch, the sampler, the server and the CLI) runs the method's loop
  exactly once and reports that run's estimate;
* :func:`~repro.counting.api.validate_request` makes every check
  :func:`~repro.counting.api.dispatch` makes, with the same errors, and
  runs no counting work;
* the parallel knobs that no longer exist (``workers``, ``shards``) are
  refused at every entry point instead of being ignored.
"""

from __future__ import annotations

import json
import random
import re
import urllib.request

import pytest

import repro
import repro.counting.api as api_module
from repro.audit.scenarios import expand_matrix
from repro.automata.families import divisibility_nfa, substring_nfa, union_of_patterns_nfa
from repro.automata.random_gen import random_nonempty_nfa
from repro.automata.serialization import nfa_to_dict
from repro.cli import main
from repro.counting.api import (
    CountingSession,
    CountRequest,
    RegisteredMethod,
    dispatch,
    resolve_method,
    validate_request,
)
from repro.counting.fpras import NFACounter
from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.policy import ExecutionPolicy
from repro.errors import AuditError, CountingMethodError, ParameterError
from repro.serve import CountingServer

SCALE = ParameterScale.practical(sample_cap=8, union_trial_cap=10)
METHODS = ("fpras", "acjr", "montecarlo", "bruteforce", "exact")
BACKENDS = ["bitset", "reference"]
STORES = ("dict", "windowed")

#: Algorithm-level work counters, part of the parity contract.
WORK_KEYS = (
    "union_calls",
    "membership_calls",
    "sample_draws",
    "sample_successes",
    "padded_states",
)

#: name -> (automaton, length, seed).  The unions of the last three overlap,
#: so AppUnion does real work there.
INSTANCES = {
    "substring-101": (substring_nfa("101"), 7, 11),
    "overlapping-union": (union_of_patterns_nfa(["00", "11"]), 6, 23),
    "divisibility-8": (divisibility_nfa(8), 6, 3),
    "random-9": (
        random_nonempty_nfa(9, 5, density=0.3, accepting_fraction=0.5, seed=3),
        5,
        19,
    ),
}


def _observables(result):
    return {
        "estimate": result.estimate,
        "state_estimates": dict(result.state_estimates),
        "sample_counts": dict(result.sample_counts),
        "work": {key: getattr(result, key) for key in WORK_KEYS},
    }


def _policy(backend, store):
    return ExecutionPolicy(backend=backend, store=store, window=2)


# ----------------------------------------------------------------------
# The façade is the serial counter, under every policy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_count_is_the_direct_serial_counter(instance, backend, store):
    nfa, length, seed = INSTANCES[instance]
    api_rng, direct_rng = random.Random(seed), random.Random(seed)
    report = repro.count(
        nfa, length, method="fpras", epsilon=0.5, seed=api_rng, scale=SCALE,
        policy=_policy(backend, store),
    )
    parameters = FPRASParameters(epsilon=0.5, delta=0.1, scale=SCALE)
    direct = NFACounter(
        nfa, length, parameters, rng=direct_rng, policy=_policy(backend, store)
    ).run()
    assert _observables(report.raw) == _observables(direct)
    assert api_rng.getstate() == direct_rng.getstate()
    assert report.backend == direct.backend == backend


@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_no_policy_moves_the_estimate(instance):
    """Backend x store is the parity contract: the default policy's run
    is every policy's run."""
    nfa, length, seed = INSTANCES[instance]

    def observed(policy):
        report = repro.count(
            nfa, length, method="fpras", epsilon=0.5, seed=seed, scale=SCALE,
            policy=policy,
        )
        return _observables(report.raw)

    baseline = observed(ExecutionPolicy())
    assert baseline["work"]["union_calls"] > 0
    for backend in BACKENDS:
        for store in STORES:
            assert observed(_policy(backend, store)) == baseline, (backend, store)


# ----------------------------------------------------------------------
# One loop per method, whatever the entry point
# ----------------------------------------------------------------------
def _post(server, body):
    request = urllib.request.Request(
        server.url + "/count",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        assert response.status == 200
        return json.loads(response.read())


def _serve(nfa, length, **knobs):
    with CountingServer(port=0) as server:
        served = _post(
            server, {"automaton": nfa_to_dict(nfa), "length": length, **knobs}
        )
    assert served["served"]["cached"] is False
    return served["estimate"]


def _printed(argv, capsys, pattern):
    """The estimate a CLI run prints (four significant digits)."""
    assert main(argv) == 0
    output = capsys.readouterr().out
    return re.search(pattern, output, re.MULTILINE).group(1)


#: The fpras instance every entry point counts: substring("101") at n = 7.
FPRAS_SEED = 11

FPRAS_ENTRY_POINTS = {
    "count": lambda nfa, capsys: repro.count(
        nfa, 7, method="fpras", seed=FPRAS_SEED
    ).estimate,
    "session": lambda nfa, capsys: CountingSession(seed=FPRAS_SEED).count(
        nfa, 7
    ).estimate,
    "stream": lambda nfa, capsys: dispatch(
        nfa, 7, CountRequest(seed=FPRAS_SEED), progress=lambda event: None
    ).estimate,
    "sampler": lambda nfa, capsys: CountingSession(seed=FPRAS_SEED).sampler(
        nfa, 7
    ).prepare(),
    "server": lambda nfa, capsys: _serve(nfa, 7, method="fpras", seed=FPRAS_SEED),
    "cli-count": lambda nfa, capsys: _printed(
        ["count", "substring", "--family-arg", "pattern=101", "-n", "7",
         "--seed", str(FPRAS_SEED)],
        capsys,
        r"^fpras\s+(\S+)",
    ),
    "cli-sample": lambda nfa, capsys: _printed(
        ["sample", "substring", "--family-arg", "pattern=101", "-n", "7",
         "--seed", str(FPRAS_SEED), "-c", "2"],
        capsys,
        r"^estimated \|L\(A_7\)\| = (\S+)",
    ),
}


@pytest.mark.parametrize("entry", sorted(FPRAS_ENTRY_POINTS))
def test_every_fpras_entry_point_runs_the_counter_once(entry, monkeypatch, capsys):
    nfa = substring_nfa("101")
    expected = NFACounter(
        nfa, 7, FPRASParameters(epsilon=0.5, delta=0.1, seed=FPRAS_SEED)
    ).run().estimate
    runs = []
    run = NFACounter.run

    def recorded(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        runs.append(result.estimate)
        return result

    monkeypatch.setattr(NFACounter, "run", recorded)
    answer = FPRAS_ENTRY_POINTS[entry](nfa, capsys)
    assert runs == [expected]
    assert answer == (f"{expected:.4g}" if entry.startswith("cli") else expected)


#: The Monte-Carlo instance: divisibility(3) at n = 7, 500 words, seed 5.
MC_KNOBS = {"seed": 5, "num_samples": 500}

MC_ENTRY_POINTS = {
    "count": lambda nfa, capsys: repro.count(
        nfa, 7, method="montecarlo", **MC_KNOBS
    ).estimate,
    "session": lambda nfa, capsys: CountingSession(
        method="montecarlo", **MC_KNOBS
    ).count(nfa, 7).estimate,
    "stream": lambda nfa, capsys: dispatch(
        nfa, 7,
        CountRequest(method="montecarlo", seed=5, options={"num_samples": 500}),
        progress=lambda event: None,
    ).estimate,
    "server": lambda nfa, capsys: _serve(
        nfa, 7, method="montecarlo", seed=5, options={"num_samples": 500}
    ),
    "cli-count": lambda nfa, capsys: _printed(
        ["count", "divisibility", "--family-arg", "divisor=3", "-n", "7",
         "--method", "montecarlo", "--num-samples", "500", "--seed", "5"],
        capsys,
        r"^montecarlo\s+(\S+)",
    ),
}


@pytest.mark.parametrize("entry", sorted(MC_ENTRY_POINTS))
def test_every_montecarlo_entry_point_runs_the_loop_once(entry, monkeypatch, capsys):
    """The runner calls ``run_montecarlo`` by its name in the api module
    (the benchmark's tracer wraps that name) once per count."""
    nfa = divisibility_nfa(3)
    expected = repro.count(nfa, 7, method="montecarlo", **MC_KNOBS).estimate
    runs = []
    run_montecarlo = api_module.run_montecarlo

    def recorded(*args, **kwargs):
        result = run_montecarlo(*args, **kwargs)
        runs.append(result.estimate)
        return result

    monkeypatch.setattr(api_module, "run_montecarlo", recorded)
    answer = MC_ENTRY_POINTS[entry](nfa, capsys)
    assert runs == [expected]
    assert answer == (f"{expected:.4g}" if entry.startswith("cli") else expected)


# ----------------------------------------------------------------------
# validate_request: every check dispatch makes, and no work
# ----------------------------------------------------------------------
def _never_runs(self, *args, **kwargs):
    raise AssertionError(f"{self.name} ran during validation")


@pytest.mark.parametrize("method", METHODS)
def test_validate_request_resolves_the_method_and_runs_nothing(method, monkeypatch):
    monkeypatch.setattr(RegisteredMethod, "run", _never_runs)
    request = CountRequest(method=method)
    assert validate_request(6, request) is resolve_method(method)
    if resolve_method(method).capabilities.progress:
        assert validate_request(6, request, print) is resolve_method(method)


_NON_FPRAS = [method for method in METHODS if method != "fpras"]

#: case -> (request, length, progress, error type, message fragment).
REFUSALS = {
    "unknown-method": (
        CountRequest(method="no_such_method"), 6, None, CountingMethodError,
        "no_such_method",
    ),
    "negative-length": (CountRequest(), -1, None, ParameterError, "length"),
    "float-length": (CountRequest(), 2.0, None, ParameterError, "length"),
    "bool-length": (CountRequest(), True, None, ParameterError, "length"),
    "fpras-num_samples": (
        CountRequest(options={"num_samples": 10}), 6, None, CountingMethodError,
        "num_samples",
    ),
    **{
        f"{method}-unknown-option": (
            CountRequest(method=method, options={"bogus": 1}), 6, None,
            CountingMethodError, "bogus",
        )
        for method in METHODS
    },
    # store, window and details are outside the cache key, so each of
    # these must be refused before the server's cache lookup.
    **{
        f"{method}-store": (
            CountRequest(method=method, policy=ExecutionPolicy(store="windowed")),
            6, None, CountingMethodError, "store",
        )
        for method in _NON_FPRAS
    },
    **{
        f"{method}-window": (
            CountRequest(method=method, policy=ExecutionPolicy(window=8)),
            6, None, CountingMethodError, "window",
        )
        for method in _NON_FPRAS
    },
    **{
        f"{method}-details": (
            CountRequest(method=method, options={"details": "summary"}),
            6, None, CountingMethodError, "details",
        )
        for method in _NON_FPRAS
    },
    **{
        f"{method}-progress": (
            CountRequest(method=method), 6, print, CountingMethodError, "progress",
        )
        for method in METHODS
        if not resolve_method(method).capabilities.progress
    },
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_validate_request_refuses_what_dispatch_refuses(case, monkeypatch):
    request, length, progress, error, fragment = REFUSALS[case]
    monkeypatch.setattr(RegisteredMethod, "run", _never_runs)
    with pytest.raises(error, match=fragment) as validated:
        validate_request(length, request, progress)
    with pytest.raises(error) as dispatched:
        dispatch(substring_nfa("101"), length, request, progress)
    assert str(dispatched.value) == str(validated.value)


# ----------------------------------------------------------------------
# The parallel knobs are gone, and refused rather than ignored
# ----------------------------------------------------------------------
@pytest.mark.parametrize("knob", ["workers", "shards"])
@pytest.mark.parametrize("method", METHODS)
def test_parallel_knobs_are_unknown_options(method, knob):
    with pytest.raises(CountingMethodError, match=knob):
        repro.count(substring_nfa("101"), 4, method=method, seed=1, **{knob: 2})


@pytest.mark.parametrize("knob", ["workers", "shards"])
def test_a_session_refuses_parallel_knobs(knob):
    with pytest.raises(CountingMethodError, match=knob):
        CountingSession(**{knob: 2})


@pytest.mark.parametrize("knob", ["workers", "max_idle_pools"])
def test_a_server_refuses_parallel_knobs(knob):
    with pytest.raises(CountingMethodError, match=knob):
        CountingServer(port=0, **{knob: 2})


def test_an_audit_spec_has_no_workers_axis():
    with pytest.raises(AuditError, match="workers"):
        expand_matrix({"families": ["parity"], "workers": [1, 2]})
