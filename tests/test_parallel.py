"""Serial-vs-parallel differential suite for the sharded executor.

The contract of :mod:`repro.counting.parallel` is that the shard *plan* —
not the worker count — determines the result: ``repro.count(...,
workers=k)`` must return bit-identical estimates for every ``k`` given the
same seed and per-method options.  These tests pin that contract from both
directions:

* estimates, per-state tables and the algorithm-level work counters agree
  across worker counts (and, for the degenerate plans, with the historical
  serial entry points);
* the ``workers`` / ``shards`` knobs reject invalid values and methods
  without worker support with :class:`~repro.errors.CountingMethodError`.

Worker pools genuinely fork processes, so the workloads here are kept
small; the wall-clock story lives in ``benchmarks/bench_parallel.py``.
"""

from __future__ import annotations

import random

import pytest

import repro
from repro.automata.engine import acquire_engine
from repro.automata.families import (
    divisibility_nfa,
    union_of_patterns_nfa,
)
from repro.counting.api import CountingSession, CountRequest
from repro.counting.montecarlo import run_montecarlo
from repro.counting.parallel import (
    MC_CHUNK_WORDS,
    derive_shard_seed,
    resolve_workers,
    run_fpras_sharded,
    shard_root_seed,
    validate_shards,
)
from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.policy import ExecutionPolicy
from repro.errors import CountingMethodError, ReproError

SCALE = ParameterScale.practical(sample_cap=8, union_trial_cap=10)

#: Algorithm-level work counters that must be worker-count invariant.
WORK_KEYS = ("union_calls", "membership_calls", "sample_draws", "padded_states")


def _fpras(nfa, length, *, workers, shards, seed=11):
    return repro.count(
        nfa,
        length,
        method="fpras",
        epsilon=0.5,
        seed=seed,
        scale=SCALE,
        policy=ExecutionPolicy(workers=workers, shards=shards),
    )


# ----------------------------------------------------------------------
# Knob validation and error paths
# ----------------------------------------------------------------------
def test_negative_workers_rejected(substring_101_nfa):
    with pytest.raises(CountingMethodError):
        repro.count(substring_101_nfa, 4, method="fpras", policy=ExecutionPolicy(workers=-1))


@pytest.mark.parametrize("bad", [1.5, "2", True, None])
def test_non_integer_workers_rejected(substring_101_nfa, bad):
    with pytest.raises((CountingMethodError, TypeError)):
        repro.count(substring_101_nfa, 4, method="fpras", policy=ExecutionPolicy(workers=bad))


@pytest.mark.parametrize("method", ["exact", "bruteforce", "acjr"])
@pytest.mark.parametrize("workers", [0, 2, 8])
def test_workers_on_unsupported_method_rejected(substring_101_nfa, method, workers):
    with pytest.raises(CountingMethodError, match="does not support sharded"):
        repro.count(
            substring_101_nfa, 4, method=method, policy=ExecutionPolicy(workers=workers)
        )


@pytest.mark.parametrize("bad", [0, -3, 1.5, True])
def test_bad_shards_rejected(substring_101_nfa, bad):
    with pytest.raises(CountingMethodError):
        repro.count(
            substring_101_nfa, 4, method="fpras",
            policy=ExecutionPolicy(workers=2, shards=bad),
        )


def test_shards_unknown_on_montecarlo(substring_101_nfa):
    with pytest.raises(CountingMethodError, match="does not accept option"):
        repro.count(
            substring_101_nfa, 4, method="montecarlo", policy=ExecutionPolicy(shards=2)
        )


def test_resolve_workers_contract():
    assert resolve_workers(1) == 1
    assert resolve_workers(7) == 7
    assert resolve_workers(0) >= 1
    for bad in (-1, False, "3"):
        with pytest.raises(CountingMethodError):
            resolve_workers(bad)


def test_validate_shards_contract():
    assert validate_shards(1) == 1
    assert validate_shards(9) == 9
    for bad in (0, -2, True, 2.0):
        with pytest.raises(CountingMethodError):
            validate_shards(bad)


def test_shard_root_seed_kinds():
    assert shard_root_seed(42) == 42
    stream = random.Random(3)
    expected = random.Random(3).getrandbits(64)
    assert shard_root_seed(stream) == expected
    assert isinstance(shard_root_seed(None), int)
    with pytest.raises(CountingMethodError):
        shard_root_seed("seed")


def test_derive_shard_seed_is_stable_and_distinct():
    a = derive_shard_seed(11, "level", 3, "shard", 0)
    assert a == derive_shard_seed(11, "level", 3, "shard", 0)
    others = {
        derive_shard_seed(11, "level", 3, "shard", 1),
        derive_shard_seed(11, "level", 2, "shard", 0),
        derive_shard_seed(12, "level", 3, "shard", 0),
        derive_shard_seed(11, "final"),
    }
    assert a not in others and len(others) == 4


def test_request_validates_workers_at_construction():
    with pytest.raises(CountingMethodError):
        CountRequest(policy=ExecutionPolicy(workers=-2))
    assert CountRequest(policy=ExecutionPolicy(workers=0)).policy.workers == 0


# ----------------------------------------------------------------------
# FPRAS: serial-vs-parallel differentials
# ----------------------------------------------------------------------
def test_fpras_single_shard_plan_matches_legacy_serial(substring_101_nfa):
    """workers=k with the default plan is bit-identical to the serial path."""
    legacy = _fpras(substring_101_nfa, 7, workers=1, shards=1)
    pooled = _fpras(substring_101_nfa, 7, workers=4, shards=1)
    assert pooled.estimate == legacy.estimate
    assert pooled.raw.state_estimates == legacy.raw.state_estimates
    for key in WORK_KEYS:
        assert pooled.details[key] == legacy.details[key]


@pytest.mark.parametrize("workers", [2, 4])
def test_fpras_sharded_estimates_bit_identical_across_workers(
    substring_101_nfa, workers
):
    serial = _fpras(substring_101_nfa, 7, workers=1, shards=3)
    pooled = _fpras(substring_101_nfa, 7, workers=workers, shards=3)
    assert pooled.estimate == serial.estimate
    assert pooled.raw.state_estimates == serial.raw.state_estimates
    assert pooled.raw.sample_counts == serial.raw.sample_counts
    for key in WORK_KEYS:
        assert pooled.details[key] == serial.details[key]
    assert pooled.details["shard_root_seed"] == serial.details["shard_root_seed"] == 11


def test_fpras_sharded_on_overlapping_union_family():
    """A family with overlapping predecessor languages (real AppUnion work)."""
    nfa = union_of_patterns_nfa(["00", "11"])
    serial = _fpras(nfa, 6, workers=1, shards=4, seed=23)
    pooled = _fpras(nfa, 6, workers=3, shards=4, seed=23)
    assert pooled.estimate == serial.estimate
    assert pooled.raw.state_estimates == serial.raw.state_estimates


@pytest.mark.parametrize("workers", [1, 2])
def test_fpras_sharded_run_goes_through_the_serial_run(
    substring_101_nfa, monkeypatch, workers
):
    """A shard plan only changes how a level is processed: the one level
    loop, ``NFACounter.run``, drives a sharded count once, pooled or not."""
    from repro.counting.fpras import NFACounter

    calls = []
    run = NFACounter.run

    def counted_run(self, *args, **kwargs):
        calls.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(NFACounter, "run", counted_run)
    report = _fpras(substring_101_nfa, 7, workers=workers, shards=3)
    assert len(calls) == 1
    assert report.details["shards"] == 3


def test_fpras_sharded_run_is_deterministic(substring_101_nfa):
    first = _fpras(substring_101_nfa, 6, workers=2, shards=2)
    second = _fpras(substring_101_nfa, 6, workers=2, shards=2)
    assert first.estimate == second.estimate
    assert first.raw.state_estimates == second.raw.state_estimates


def test_fpras_sharded_accepts_random_stream_seed(substring_101_nfa):
    """A random.Random seed contributes its next 64 bits as the shard root."""
    serial = _fpras(substring_101_nfa, 6, workers=1, shards=2, seed=random.Random(5))
    pooled = _fpras(substring_101_nfa, 6, workers=2, shards=2, seed=random.Random(5))
    assert pooled.estimate == serial.estimate
    assert serial.details["shard_root_seed"] == random.Random(5).getrandbits(64)


def test_fpras_sharded_engine_counters_are_merged(substring_101_nfa):
    """Pooled runs still account the engine work the shards performed."""
    serial = _fpras(substring_101_nfa, 7, workers=1, shards=3)
    pooled = _fpras(substring_101_nfa, 7, workers=3, shards=3)
    for key in ("step_ops", "pre_ops", "cache_lookups", "simulated_steps"):
        assert serial.engine_counters.get(key, 0) > 0
        assert pooled.engine_counters.get(key, 0) > 0
    # Identical worker counts -> identical merged counters (full determinism).
    again = _fpras(substring_101_nfa, 7, workers=3, shards=3)
    assert again.engine_counters == pooled.engine_counters


def test_fpras_sharded_estimate_is_reasonable(substring_101_nfa):
    """The sharded estimator still lands near the exact count."""
    exact = repro.count(substring_101_nfa, 8, method="exact").raw
    report = _fpras(substring_101_nfa, 8, workers=2, shards=3)
    assert report.relative_error(exact) < 1.0


def test_fpras_unserialisable_automaton_rejected():
    """Sharded plans require the nfa_to_dict round trip to succeed."""
    from repro.automata.nfa import NFA

    # States 1 and "1" collide once stringified, so nfa_to_dict refuses.
    nfa = NFA(
        states=frozenset({1, "1"}),
        initial=1,
        transitions=frozenset({(1, "0", "1"), ("1", "0", 1)}),
        accepting=frozenset({"1"}),
        alphabet=("0",),
    )
    with pytest.raises(CountingMethodError, match="serialisable"):
        repro.count(
            nfa, 4, method="fpras", policy=ExecutionPolicy(workers=2, shards=2), seed=1
        )


def test_run_fpras_sharded_direct_entry_point(substring_101_nfa):
    parameters = FPRASParameters(epsilon=0.5, delta=0.2, scale=SCALE, seed=None)
    result, details = run_fpras_sharded(
        substring_101_nfa, 6, parameters, shards=2, workers=2, seed=9
    )
    assert result.estimate > 0
    assert details["shards"] == 2 and details["workers"] == 2
    serial_result, _ = run_fpras_sharded(
        substring_101_nfa, 6, parameters, shards=2, workers=1, seed=9
    )
    assert serial_result.estimate == result.estimate


# ----------------------------------------------------------------------
# Monte-Carlo: serial-vs-parallel differentials
# ----------------------------------------------------------------------
def test_montecarlo_parallel_bit_identical_to_serial(substring_101_nfa):
    """The coordinator draws the serial word stream, so every k agrees."""
    reports = {
        workers: repro.count(
            substring_101_nfa,
            8,
            method="montecarlo",
            seed=5,
            num_samples=3 * MC_CHUNK_WORDS,
            policy=ExecutionPolicy(workers=workers),
        )
        for workers in (1, 2, 4)
    }
    engine, _ = acquire_engine(substring_101_nfa, None, use_cache=False)
    serial = run_montecarlo(
        substring_101_nfa, 8, 3 * MC_CHUNK_WORDS, random.Random(5), engine
    )
    estimates = {report.estimate for report in reports.values()}
    assert estimates == {serial.estimate}
    hits = {report.details["hits"] for report in reports.values()}
    assert hits == {serial.hits}


def test_montecarlo_parallel_merged_counters_worker_invariant(substring_101_nfa):
    """Chunking is fixed, so pooled counter merges agree across pool sizes."""
    two = repro.count(
        substring_101_nfa, 8, method="montecarlo", seed=5,
        num_samples=4 * MC_CHUNK_WORDS, policy=ExecutionPolicy(workers=2),
    )
    four = repro.count(
        substring_101_nfa, 8, method="montecarlo", seed=5,
        num_samples=4 * MC_CHUNK_WORDS, policy=ExecutionPolicy(workers=4),
    )
    assert two.engine_counters == four.engine_counters
    assert two.details["chunks"] == four.details["chunks"] == 4
    assert two.details["chunk_words"] == MC_CHUNK_WORDS


def test_montecarlo_parallel_on_larger_divisibility_instance():
    nfa = divisibility_nfa(16)
    serial = repro.count(nfa, 10, method="montecarlo", seed=13, num_samples=5000)
    pooled = repro.count(
        nfa, 10, method="montecarlo", seed=13, num_samples=5000,
        policy=ExecutionPolicy(workers=3),
    )
    assert pooled.estimate == serial.estimate
    assert pooled.details["hits"] == serial.details["hits"]


def test_montecarlo_parallel_wave_boundary_parity(substring_101_nfa):
    """Runs longer than one drawing wave still match the serial stream."""
    from repro.counting.parallel import MC_WAVE_WORDS

    num_samples = MC_WAVE_WORDS + 3 * MC_CHUNK_WORDS // 2  # crosses the wave
    serial = repro.count(
        substring_101_nfa, 6, method="montecarlo", seed=17,
        num_samples=num_samples,
    )
    pooled = repro.count(
        substring_101_nfa, 6, method="montecarlo", seed=17,
        num_samples=num_samples, policy=ExecutionPolicy(workers=2),
    )
    assert pooled.estimate == serial.estimate
    assert pooled.details["hits"] == serial.details["hits"]
    assert pooled.details["chunks"] == -(-num_samples // MC_CHUNK_WORDS)


def test_run_fpras_sharded_single_shard_honours_int_seed(substring_101_nfa):
    """Direct shards=1 calls must be deterministic under an explicit int seed."""
    parameters = FPRASParameters(epsilon=0.5, delta=0.2, scale=SCALE, seed=None)
    first, _ = run_fpras_sharded(
        substring_101_nfa, 6, parameters, shards=1, workers=2, seed=9
    )
    second, _ = run_fpras_sharded(
        substring_101_nfa, 6, parameters, shards=1, workers=2, seed=9
    )
    assert first.estimate == second.estimate


def test_montecarlo_parallel_validates_arguments(substring_101_nfa):
    from repro.counting.parallel import run_montecarlo_sharded

    with pytest.raises(ReproError):
        run_montecarlo_sharded(
            substring_101_nfa, 4, 0, random.Random(1),
            backend=None, use_engine_cache=True, workers=2,
        )
    with pytest.raises(ReproError):
        run_montecarlo_sharded(
            substring_101_nfa, -1, 10, random.Random(1),
            backend=None, use_engine_cache=True, workers=2,
        )


# ----------------------------------------------------------------------
# Session and CLI integration
# ----------------------------------------------------------------------
def test_session_pins_workers_and_degrades_for_unsupported_methods(
    substring_101_nfa,
):
    session = CountingSession(
        epsilon=0.5, seed=11, scale=SCALE, policy=ExecutionPolicy(workers=2, shards=2)
    )
    assert session.defaults.policy.workers == 2
    # Pinned workers apply to supported methods ...
    report = session.count(substring_101_nfa, 6)
    assert report.details["workers"] == 2
    # ... and silently degrade to serial for methods without support,
    # mirroring how inapplicable pinned options are dropped.
    exact = session.count(substring_101_nfa, 6, method="exact")
    assert exact.exact
    # An explicit per-call policy with workers on an unsupported method
    # still fails loudly.
    with pytest.raises(CountingMethodError):
        session.count(
            substring_101_nfa, 6, method="exact", policy=ExecutionPolicy(workers=2)
        )
    assert session.describe()["workers"] == 2


def test_session_sharded_matches_module_level_count(substring_101_nfa):
    session = CountingSession(
        epsilon=0.5, seed=11, scale=SCALE, policy=ExecutionPolicy(workers=2, shards=3)
    )
    via_session = session.count(substring_101_nfa, 7)
    via_count = _fpras(substring_101_nfa, 7, workers=2, shards=3)
    assert via_session.estimate == via_count.estimate


def test_cli_workers_flag_produces_identical_estimates(capsys):
    from repro.cli import main

    base = [
        "count", "divisibility", "--family-arg", "divisor=8",
        "--length", "6", "--seed", "3",
    ]
    assert main(base + ["--workers", "1"]) == 0
    serial_out = capsys.readouterr().out
    assert main(base + ["--workers", "2"]) == 0
    parallel_out = capsys.readouterr().out
    serial_row = next(line for line in serial_out.splitlines() if "fpras" in line)
    parallel_row = next(line for line in parallel_out.splitlines() if "fpras" in line)
    assert serial_row == parallel_row
    assert "workers" in parallel_out


def test_cli_sample_rejects_workers(capsys):
    from repro.cli import main

    code = main(
        ["sample", "no_consecutive_ones", "-n", "6", "--seed", "7", "--workers", "2"]
    )
    assert code == 2
    assert "does not support --workers" in capsys.readouterr().err


def test_cli_rejects_workers_on_unsupported_method(capsys):
    from repro.cli import main

    code = main(
        [
            "count", "divisibility", "--family-arg", "divisor=4",
            "--length", "4", "--method", "bruteforce", "--workers", "2",
        ]
    )
    assert code == 2
    assert "does not support sharded" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Worker-crash handling
# ----------------------------------------------------------------------
def _alive_worker_pids():
    """PIDs of this process's live multiprocessing children."""
    import multiprocessing

    return [p.pid for p in multiprocessing.active_children() if p.is_alive()]


def test_pool_reports_sigkilled_worker_with_exit_code():
    """A SIGKILL'd worker raises WorkerCrashError naming worker and signal."""
    import os
    import signal

    from repro.counting.parallel import _WorkerPool
    from repro.errors import WorkerCrashError

    pool = _WorkerPool(2)
    try:
        victim = pool._processes[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        with pytest.raises(WorkerCrashError) as excinfo:
            pool._send(0, ("ping",))
            pool._receive(0)
        message = str(excinfo.value)
        assert "worker 0" in message
        assert str(victim.pid) in message
        assert f"exit code {-signal.SIGKILL}" in message
        # The survivor still answers: the pool is not poisoned wholesale.
        pool._send(1, ("ping",))
        assert pool._receive(1) is None
    finally:
        pool.close()
    assert not any(p.is_alive() for p in pool._processes)


def test_pool_close_reaps_survivors_after_crash():
    """close() after a crash leaves no orphan worker processes behind."""
    import os
    import signal

    from repro.counting.parallel import _WorkerPool
    from repro.errors import WorkerCrashError

    before = set(_alive_worker_pids())
    pool = _WorkerPool(3)
    os.kill(pool._processes[1].pid, signal.SIGKILL)
    with pytest.raises(WorkerCrashError):
        pool.broadcast(("ping",))
    pool.close()
    leaked = set(_alive_worker_pids()) - before
    assert not leaked, f"orphan workers left running: {leaked}"


def test_fpras_run_surfaces_mid_run_worker_death(substring_101_nfa, monkeypatch):
    """A worker dying mid-task fails the run cleanly, not with EOFError.

    The fork start method means children inherit this monkeypatched
    ``_run_shard``, so the worker exits hard the moment it is handed work —
    exactly the OOM-kill shape the coordinator must survive.
    """
    import os

    from repro.counting import parallel
    from repro.errors import WorkerCrashError

    def _die(*args, **kwargs):
        os._exit(13)

    monkeypatch.setattr(parallel, "_run_shard", _die)
    params = FPRASParameters(epsilon=0.5, scale=SCALE)
    with pytest.raises(WorkerCrashError) as excinfo:
        run_fpras_sharded(
            substring_101_nfa, 6, params, workers=2, shards=2, seed=11
        )
    assert "exit code 13" in str(excinfo.value)
    assert not _alive_worker_pids()


def test_crash_error_is_catchable_as_counting_method_error(
    substring_101_nfa, monkeypatch
):
    import os

    from repro.counting import parallel

    monkeypatch.setattr(parallel, "_run_shard", lambda *a, **k: os._exit(7))
    params = FPRASParameters(epsilon=0.5, scale=SCALE)
    with pytest.raises(CountingMethodError):
        run_fpras_sharded(
            substring_101_nfa, 6, params, workers=2, shards=2, seed=11
        )


# ----------------------------------------------------------------------
# CPU detection
# ----------------------------------------------------------------------
def test_resolve_workers_prefers_sched_getaffinity(monkeypatch):
    """--workers 0 sizes by the affinity mask, not the raw CPU count."""
    import os

    if not hasattr(os, "sched_getaffinity"):  # pragma: no cover - non-Linux
        pytest.skip("sched_getaffinity not available on this platform")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr("multiprocessing.cpu_count", lambda: 64)
    assert resolve_workers(0) == 3


def test_resolve_workers_falls_back_to_cpu_count(monkeypatch):
    import multiprocessing
    import os

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(multiprocessing, "cpu_count", lambda: 5)
    assert resolve_workers(0) == 5


def test_resolve_workers_survives_affinity_oserror(monkeypatch):
    import multiprocessing
    import os

    if not hasattr(os, "sched_getaffinity"):  # pragma: no cover - non-Linux
        pytest.skip("sched_getaffinity not available on this platform")

    def _boom(pid):
        raise OSError("no affinity for you")

    monkeypatch.setattr(os, "sched_getaffinity", _boom)
    monkeypatch.setattr(multiprocessing, "cpu_count", lambda: 4)
    assert resolve_workers(0) == 4


# ----------------------------------------------------------------------
# Pool reuse (WorkerPoolManager)
# ----------------------------------------------------------------------
def test_pool_manager_reuses_pools_across_runs(substring_101_nfa):
    from repro.counting.parallel import WorkerPoolManager

    params = FPRASParameters(epsilon=0.5, scale=SCALE)
    with WorkerPoolManager() as manager:
        first, _ = run_fpras_sharded(
            substring_101_nfa, 6, params,
            workers=2, shards=2, seed=11, pool_manager=manager,
        )
        second, _ = run_fpras_sharded(
            substring_101_nfa, 6, params,
            workers=2, shards=2, seed=11, pool_manager=manager,
        )
        snapshot = manager.snapshot()
        assert snapshot["created"] == 1
        assert snapshot["reused"] == 1
        assert snapshot["idle"] == 1
    assert first.estimate == second.estimate


def test_pool_manager_estimates_match_unmanaged_runs(substring_101_nfa):
    """Leased warm pools change wall-time, never the estimate."""
    from repro.counting.parallel import WorkerPoolManager

    params = FPRASParameters(epsilon=0.5, scale=SCALE)
    plain, _ = run_fpras_sharded(
        substring_101_nfa, 6, params, workers=2, shards=2, seed=11
    )
    with WorkerPoolManager() as manager:
        warm, _ = run_fpras_sharded(
            substring_101_nfa, 6, params,
            workers=2, shards=2, seed=11, pool_manager=manager,
        )
        again, _ = run_fpras_sharded(
            substring_101_nfa, 6, params,
            workers=2, shards=2, seed=11, pool_manager=manager,
        )
    assert warm.estimate == plain.estimate
    assert again.estimate == plain.estimate
    assert {k: getattr(warm, k) for k in WORK_KEYS} == {
        k: getattr(plain, k) for k in WORK_KEYS
    }


def test_pool_manager_discards_pool_after_failed_run(
    substring_101_nfa, monkeypatch
):
    """A crashed run's pool is never handed to the next request."""
    import os

    from repro.counting import parallel
    from repro.counting.parallel import WorkerPoolManager
    from repro.errors import WorkerCrashError

    params = FPRASParameters(epsilon=0.5, scale=SCALE)
    with WorkerPoolManager() as manager:
        monkeypatch.setattr(parallel, "_run_shard", lambda *a, **k: os._exit(9))
        with pytest.raises(WorkerCrashError):
            run_fpras_sharded(
                substring_101_nfa, 6, params,
                workers=2, shards=2, seed=11, pool_manager=manager,
            )
        monkeypatch.undo()
        assert manager.snapshot()["idle"] == 0
        assert manager.snapshot()["discarded"] == 1
        # The next run simply forks a fresh pool and succeeds.
        result, _ = run_fpras_sharded(
            substring_101_nfa, 6, params,
            workers=2, shards=2, seed=11, pool_manager=manager,
        )
        assert result.estimate > 0


def test_install_pool_manager_round_trip(substring_101_nfa):
    from repro.counting import parallel
    from repro.counting.parallel import WorkerPoolManager, install_pool_manager

    manager = WorkerPoolManager()
    previous = install_pool_manager(manager)
    try:
        report = _fpras(substring_101_nfa, 6, workers=2, shards=2)
        again = _fpras(substring_101_nfa, 6, workers=2, shards=2)
        assert report.estimate == again.estimate
        assert manager.snapshot()["created"] == 1
        assert manager.snapshot()["reused"] == 1
    finally:
        assert install_pool_manager(previous) is manager
        manager.close()
    assert parallel._ACTIVE_POOL_MANAGER is previous


def test_pool_manager_validates_max_idle():
    from repro.counting.parallel import WorkerPoolManager

    for bad in (-1, 1.5, True):
        with pytest.raises(CountingMethodError):
            WorkerPoolManager(max_idle_per_size=bad)
