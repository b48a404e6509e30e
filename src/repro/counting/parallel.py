"""Sharded parallel execution of the trial-loop counting methods.

The FPRAS and the Monte-Carlo baseline both spend their time in loops of
independent trials — per-state AppUnion/sampling batches for the FPRAS,
word-acceptance tests for Monte-Carlo — so both can be split across a
:mod:`multiprocessing` process pool.  This module is that execution layer,
surfaced through the ``workers`` knob on
:class:`~repro.counting.api.CountRequest` /
:class:`~repro.counting.api.CountingSession` / ``repro.count`` and the CLI's
``--workers`` flag.

Design invariants
-----------------
* **The shard plan never depends on the worker count.**  A plan is a pure
  function of the workload and the request seed; ``workers`` only decides
  how many processes execute it.  ``workers=1`` runs the plan serially
  in-process, ``workers=k`` spreads it over ``min(k, shards)`` processes,
  and the merged estimate is bit-identical either way.
* **Deterministic per-shard RNG substreams.**  Every shard task derives its
  substream's seed from the request seed with :func:`derive_shard_seed` —
  a SHA-256 hash of ``(root, *path)``, stable across processes and
  ``PYTHONHASHSEED`` values (``hash()`` is not) — and reseeds the
  counter's one stream with it, which leaves the state ``random.Random``
  of that seed would.  The derivation scheme and root are recorded in the
  report details.
* **Workers rebuild state locally.**  The automaton crosses the process
  boundary once per worker through the existing
  :func:`~repro.automata.serialization.nfa_to_dict` /
  :func:`~repro.automata.serialization.nfa_from_dict` round trip, and
  engines are rebuilt worker-locally through
  :func:`~repro.automata.engine.acquire_engine`; per-shard
  ``engine_counters`` deltas are merged into the one
  :class:`~repro.counting.api.CountReport`.

Sharding the two methods
------------------------
**FPRAS** (``shards`` per-method option, default 1): the dynamic program is
level-synchronous — states at level ``l`` depend only on the merged tables
of levels ``< l`` — so a shard plan is one more way to process a level.  A
``shards > 1`` run is an :class:`~repro.counting.fpras.NFACounter` whose
``_process_level`` deals the level's sorted live states round-robin into
``shards`` groups, each processed with its own derived substream
``derive_shard_seed(root, "level", l, "shard", s)``; its ``run`` is the
serial one (level loop, progress events and result).  With a pool the
coordinator merges the per-shard ``N`` / ``S`` entries after each level
(their key sets are disjoint) and broadcasts them to every worker.  The
final AppUnion over the accepting states runs in the coordinator on the
``("final",)``-derived substream.  ``shards=1`` is the serial
:class:`~repro.counting.fpras.NFACounter` run — bit-identical to not
passing ``workers`` at all.  Because sharded runs execute on the
serialisation round-trip of the automaton (so coordinator and workers agree
on state labels), automata that :func:`nfa_to_dict` rejects cannot be
sharded.

**Monte-Carlo**: the coordinator draws every word from the request stream
with the serial loop's :func:`~repro.counting.montecarlo.draw_words`
(drawing never depends on acceptance), so the words — and therefore the
estimate — are bit-identical to serial execution for *any* worker count;
workers only run :meth:`~repro.automata.engine.Engine.accepts_batch` over
fixed-size row slices of the coordinator's position matrix
(:data:`MC_CHUNK_WORDS`, worker-count independent) and the accepted counts
are summed.  A run whose plan needs one process (one chunk, or one CPU) is
the serial :func:`~repro.counting.montecarlo.run_montecarlo` loop.

Crash handling and pool reuse
-----------------------------
The coordinator never blocks forever on a worker: replies are awaited with
a poll-plus-liveness loop, and a worker that dies without replying (OOM
kill, SIGKILL) surfaces as :class:`~repro.errors.WorkerCrashError` naming
the worker and its exit code, with ``close()`` still reaping the
survivors.  Long-lived callers (the :mod:`repro.serve` layer) install a
:class:`WorkerPoolManager` so pools persist across counting runs instead
of being spawned per call; a failed run discards its pool and the next
lease starts clean.  Both entry points also accept an anytime
``progress`` callback (per FPRAS level, per pooled Monte-Carlo wave or
serial block) that never touches the RNG streams, so streaming progress
cannot change an estimate.

What is and is not invariant
----------------------------
Estimates, per-state tables and the algorithm-level work counters
(``union_calls``, ``membership_calls``, ``sample_draws``, ``padded_states``)
are bit-identical across worker counts for a fixed plan.  Mask-level engine
counters (``step_ops``, ``simulated_steps``, ``cache_words``…) are *not*:
each worker owns a private :class:`~repro.automata.unroll.ReachabilityCache`,
so prefix sharing that a single serial cache would exploit across shards is
repeated per worker.  That duplicated simulation work is the price of
parallelism and is visible in the merged counters by design.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import random
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.automata.engine import acquire_engine, resolve_backend
from repro.automata.nfa import NFA
from repro.automata.serialization import nfa_from_dict, nfa_to_dict
from repro.counting.fpras import CountResult, FPRASParameters, NFACounter
from repro.counting.montecarlo import MonteCarloEstimate, draw_words, run_montecarlo
from repro.errors import (
    AutomatonError,
    CountingMethodError,
    ReproError,
    WorkerCrashError,
)

#: Words per Monte-Carlo acceptance chunk.  Fixed (never derived from the
#: worker count) so the merged batch counters are worker-count invariant.
MC_CHUNK_WORDS = 2048

#: Name recorded in report details for the substream derivation scheme.
SEED_DERIVATION_SCHEME = "sha256(root, *path)[:8]"

#: Table-sync entries per broadcast message.  Splitting a level's merged
#: ``N`` / ``S`` entries into bounded, order-preserving chunks keeps the
#: per-message payload proportional to the chunk (not to the live-state
#: count times the word length), which matters once the windowed store
#: raises the practical word-length ceiling.  Chunking changes neither the
#: installed values nor their order, so every worker's tables — and, for
#: windowed stores, their window advance/spill sequence — are identical to
#: a single monolithic sync.
SYNC_CHUNK_ENTRIES = 64


# ----------------------------------------------------------------------
# Knob validation and seed derivation
# ----------------------------------------------------------------------
def validate_workers(workers: object) -> int:
    """Validate the ``workers`` knob without resolving ``0``.

    Shared by :class:`~repro.counting.policy.ExecutionPolicy` (which must
    keep the literal ``0`` so the resolution happens at execution time) and
    :func:`resolve_workers`.

    >>> validate_workers(0), validate_workers(3)
    (0, 3)
    >>> validate_workers(-2)
    Traceback (most recent call last):
        ...
    repro.errors.CountingMethodError: workers must be a non-negative integer \
(0 = one per CPU), got -2
    """
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 0:
        raise CountingMethodError(
            f"workers must be a non-negative integer (0 = one per CPU), "
            f"got {workers!r}"
        )
    return workers


def resolve_workers(workers: object) -> int:
    """Validate the ``workers`` knob and resolve ``0`` to the usable CPU count.

    ``0`` prefers ``len(os.sched_getaffinity(0))`` where the platform
    provides it: unlike ``multiprocessing.cpu_count()`` it respects cgroup
    CPU sets and scheduler affinity masks, so ``--workers 0`` inside a
    container limited to 2 of the host's 64 cores starts 2 workers instead
    of 64 — exactly the environment a long-lived counting server runs in.

    >>> resolve_workers(1), resolve_workers(4)
    (1, 4)
    >>> resolve_workers(0) >= 1
    True
    """
    workers = validate_workers(workers)
    if workers == 0:
        getaffinity = getattr(os, "sched_getaffinity", None)
        if getaffinity is not None:
            try:
                return max(1, len(getaffinity(0)))
            except OSError:  # pragma: no cover - platform-specific failure
                pass
        return multiprocessing.cpu_count()
    return workers


def validate_shards(shards: object) -> int:
    """Validate the fpras ``shards`` option (a positive integer)."""
    if isinstance(shards, bool) or not isinstance(shards, int) or shards < 1:
        raise CountingMethodError(
            f"shards must be a positive integer, got {shards!r}"
        )
    return shards


def derive_shard_seed(root: int, *path: object) -> int:
    """A deterministic 64-bit substream seed for one shard of a plan.

    Hash-based (SHA-256 over the ``repr`` of the rooted path) rather than
    ``hash()``-based so the derivation is stable across processes, Python
    builds and ``PYTHONHASHSEED`` settings — a worker pool must agree with
    the coordinator on every substream.

    >>> derive_shard_seed(3, "level", 1, "shard", 0) == derive_shard_seed(
    ...     3, "level", 1, "shard", 0)
    True
    >>> derive_shard_seed(3, "final") != derive_shard_seed(4, "final")
    True
    """
    payload = repr((int(root),) + path).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def shard_root_seed(seed: object) -> int:
    """The 64-bit root every shard substream of a run is derived from.

    An ``int`` seed is its own root; a ``random.Random`` stream contributes
    its next 64 bits (so continuing a shared stream stays deterministic);
    ``None`` draws a fresh root from the global generator.
    """
    if isinstance(seed, bool):
        raise CountingMethodError(f"seed must not be a bool, got {seed!r}")
    if isinstance(seed, int):
        return seed
    if isinstance(seed, random.Random):
        return seed.getrandbits(64)
    if seed is None:
        return random.Random().getrandbits(64)
    raise CountingMethodError(
        f"seed must be None, an int, or a random.Random, got {seed!r}"
    )


def _roundtrip_nfa(nfa: NFA) -> Tuple[NFA, Dict[str, object]]:
    """The serialisation round trip sharded runs (and their workers) use.

    Coordinator and workers must agree on state labels and on the ``repr``
    ordering the algorithms sort by, so the coordinator runs on the same
    round-tripped automaton it ships to the pool.
    """
    try:
        document = nfa_to_dict(nfa)
    except AutomatonError as error:
        raise CountingMethodError(
            f"sharded execution requires a serialisable automaton "
            f"(nfa_to_dict failed: {error})"
        ) from error
    return nfa_from_dict(document), document


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _fork_context():
    """``fork`` where available (Linux — no re-import cost), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _worker_main(connection) -> None:
    """Message loop run by every pool worker.

    The worker owns either an :class:`NFACounter` (fpras mode: level 0
    built on ``init-fpras``, later levels' ``N`` / ``S`` entries
    synchronised by the coordinator) or a bare engine (montecarlo mode).
    Every request is answered with
    ``("ok", payload)`` or ``("error", traceback_text)``; the coordinator
    re-raises the latter.
    """
    counter: Optional[NFACounter] = None
    engine = None
    try:
        while True:
            message = connection.recv()
            kind = message[0]
            try:
                if kind == "init-fpras":
                    document, length, parameters = message[1:]
                    counter = NFACounter(
                        nfa_from_dict(document), length, parameters
                    )
                    _, _, ns, _ = counter.derived_parameters()
                    counter._initialise_level_zero(ns)
                    connection.send(("ok", None))
                elif kind == "init-mc":
                    document, backend, use_engine_cache = message[1:]
                    engine, _ = acquire_engine(
                        nfa_from_dict(document),
                        backend,
                        use_cache=use_engine_cache,
                    )
                    connection.send(("ok", None))
                elif kind == "sync":
                    for state, level, estimate, samples, drawn in message[1]:
                        counter.install_state(state, level, estimate, samples, drawn)
                    connection.send(("ok", None))
                elif kind == "run-states":
                    level, states, shard_seed = message[1:]
                    connection.send(
                        ("ok", _run_shard(counter, level, states, shard_seed))
                    )
                elif kind == "mc-chunk":
                    words = message[1]
                    base = dict(engine.counters())
                    hits = int(sum(engine.accepts_batch(words)))
                    delta = {
                        key: value - base.get(key, 0)
                        for key, value in engine.counters().items()
                    }
                    connection.send(("ok", {"hits": hits, "engine": delta}))
                elif kind == "ping":
                    # Liveness / warm-up probe: lets a pool be constructed
                    # (and later health-checked) before any method-specific
                    # init message arrives — the reuse path of
                    # :class:`WorkerPoolManager`.
                    connection.send(("ok", None))
                elif kind == "stop":
                    break
                else:  # pragma: no cover - protocol misuse is a programming error
                    connection.send(("error", f"unknown message kind {kind!r}"))
            except Exception:
                connection.send(("error", traceback.format_exc()))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - pool teardown
        pass
    finally:
        connection.close()


def _run_shard(
    counter: NFACounter, level: int, states: Sequence[object], shard_seed: int
) -> Dict[str, object]:
    """Process one shard's states with its derived substream.

    Reseeding the counter's drawer puts the stream it shares with the
    counter in the state ``random.Random(shard_seed)`` would start in, and
    starts a new scope, so no union estimate, step or jump of an earlier
    shard task weighs this one's draws; the states then go through the
    serial level step.  Runs in a pool worker *and* in-process for
    ``workers=1``; the result is a pure function of (tables so far, shard
    states, shard seed), which is what makes the merged run worker-count
    invariant.
    """
    counter._sampler.reseed(shard_seed)
    stats_before = counter.work_statistics()
    engine_before = counter.diagnostics_counters()
    NFACounter._process_level(
        counter, level, states, *counter.derived_parameters()
    )
    entries = [
        (
            state,
            level,
            counter.estimates[(state, level)],
            counter.samples[(state, level)],
            counter._sample_counts[(state, level)],
        )
        for state in states
    ]
    stats_after = counter.work_statistics()
    engine_after = counter.diagnostics_counters()
    return {
        "entries": entries,
        "stats": {
            key: stats_after[key] - stats_before[key] for key in stats_after
        },
        "engine": {
            key: engine_after.get(key, 0) - engine_before.get(key, 0)
            for key in engine_after
        },
    }


class _WorkerPool:
    """A fixed set of worker processes driven over per-worker pipes.

    Plain :class:`multiprocessing.Pool` cannot broadcast (the table syncs
    must reach *every* worker, not whichever one picks up a task), so the
    pool holds one duplex pipe per worker: requests are sent round-robin or
    broadcast, and responses are collected per pipe in FIFO order.
    """

    #: Seconds between liveness checks while a reply is pending.  Short
    #: enough that a killed worker surfaces promptly, long enough that the
    #: poll loop is free compared with any real shard task.
    RECV_POLL_SECONDS = 0.05

    def __init__(self, size: int, init_message: Optional[Tuple] = None) -> None:
        context = _fork_context()
        self._connections = []
        self._processes = []
        try:
            for _ in range(size):
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=_worker_main, args=(child_end,), daemon=True
                )
                process.start()
                child_end.close()
                self._connections.append(parent_end)
                self._processes.append(process)
            if init_message is not None:
                self.broadcast(init_message)
        except BaseException:
            self.close()
            raise

    @property
    def size(self) -> int:
        return len(self._processes)

    @property
    def healthy(self) -> bool:
        """Whether every worker process is still alive (non-empty pool)."""
        return bool(self._processes) and all(
            process.is_alive() for process in self._processes
        )

    def _crash(self, worker: int, what: str) -> WorkerCrashError:
        """Build the diagnostic for a worker that died instead of replying."""
        process = self._processes[worker]
        # Reap first so ``exitcode`` reflects the real status (e.g. -9 for
        # SIGKILL) instead of ``None`` for a not-yet-waited-on zombie.
        process.join(timeout=1.0)
        return WorkerCrashError(
            f"sharded worker {worker} (pid {process.pid}) {what} "
            f"(exit code {process.exitcode}); a worker that dies without "
            f"replying was usually OOM-killed or hit by an external signal"
        )

    def _send(self, worker: int, message: Tuple) -> None:
        """Send one message, surfacing a dead worker as :class:`WorkerCrashError`."""
        try:
            self._connections[worker].send(message)
        except (BrokenPipeError, OSError):
            raise self._crash(worker, "is gone (its pipe is closed)") from None

    def _receive(self, worker: int):
        """Wait for one reply, polling liveness instead of blocking forever.

        A worker killed mid-task (OOM killer, SIGKILL) can never reply, so a
        bare ``connection.recv()`` would hang the coordinator and then leak a
        raw ``EOFError`` once the pipe collapsed.  Poll with a timeout,
        checking ``process.is_alive()`` between polls, and raise
        :class:`~repro.errors.WorkerCrashError` naming the dead worker and
        its exit code; ``close()`` afterwards still reaps the survivors.
        """
        connection = self._connections[worker]
        process = self._processes[worker]
        while not connection.poll(self.RECV_POLL_SECONDS):
            # Re-check the pipe after the liveness test: the worker may have
            # sent its reply and exited between the two.
            if not process.is_alive() and not connection.poll(0):
                raise self._crash(worker, "died before replying")
        try:
            status, payload = connection.recv()
        except (EOFError, OSError):
            raise self._crash(worker, "closed its pipe mid-reply") from None
        if status == "error":
            raise CountingMethodError(
                f"sharded worker {worker} failed:\n{payload}"
            )
        return payload

    def broadcast(self, message: Tuple) -> None:
        """Send ``message`` to every worker and wait for all acknowledgements."""
        for worker in range(len(self._connections)):
            self._send(worker, message)
        for worker in range(len(self._connections)):
            self._receive(worker)

    #: Maximum unanswered tasks per worker pipe.  Bounding the in-flight
    #: window keeps at most this many unread results queued on any pipe, so
    #: a long task list (thousands of Monte-Carlo chunks) can never fill an
    #: OS pipe buffer in both directions and deadlock coordinator against
    #: worker; results for the sharded methods are far smaller than a pipe
    #: buffer divided by this bound.
    WINDOW = 4

    def run_tasks(self, messages: Sequence[Tuple]) -> List[object]:
        """Round-robin ``messages`` over the pool; results in message order.

        Tasks are pipelined at most :data:`WINDOW` deep per worker:
        the coordinator drains each worker's oldest outstanding result
        (per-pipe FIFO makes the pairing exact) before topping its queue
        back up, so neither direction of a pipe accumulates unboundedly.
        """
        workers = len(self._connections)
        queues: List[List[int]] = [
            list(range(start, len(messages), workers)) for start in range(workers)
        ]
        results: List[object] = [None] * len(messages)
        sent = [0] * workers
        received = [0] * workers
        for worker, queue in enumerate(queues):
            while sent[worker] < min(self.WINDOW, len(queue)):
                self._send(worker, messages[queue[sent[worker]]])
                sent[worker] += 1
        outstanding = sum(sent)
        while outstanding:
            for worker, queue in enumerate(queues):
                if received[worker] < sent[worker]:
                    index = queue[received[worker]]
                    results[index] = self._receive(worker)
                    received[worker] += 1
                    outstanding -= 1
                    if sent[worker] < len(queue):
                        self._send(worker, messages[queue[sent[worker]]])
                        sent[worker] += 1
                        outstanding += 1
        return results

    def close(self) -> None:
        """Stop the workers, joining briefly and terminating stragglers."""
        for connection in self._connections:
            try:
                connection.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive teardown
                process.terminate()
                process.join(timeout=5.0)
        for connection in self._connections:
            connection.close()
        self._connections = []
        self._processes = []

    def __enter__(self) -> "_WorkerPool":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Pool reuse (the serving layer's persistent pools)
# ----------------------------------------------------------------------
class WorkerPoolManager:
    """Reuses worker pools across counting runs instead of respawning them.

    A one-shot ``repro.count(..., workers=k)`` pays the process spawn cost
    once and throws the pool away; a long-lived server answering many
    requests should not.  The manager keeps a small stack of idle pools per
    size: :meth:`lease` hands out a healthy idle pool (re-initialising it
    for the new run with the caller's init message) or spawns a fresh one,
    :meth:`release` returns it for the next request, and :meth:`discard`
    closes a pool whose worker crashed so the next lease starts clean.
    All methods are thread-safe — the serving layer leases from concurrent
    request threads.

    Pass a manager to :func:`run_fpras_sharded` / :func:`run_montecarlo_sharded`
    explicitly, or install one process-wide with :func:`install_pool_manager`
    so every dispatch through :mod:`repro.counting.api` picks it up.
    """

    def __init__(self, max_idle_per_size: int = 2) -> None:
        if (
            isinstance(max_idle_per_size, bool)
            or not isinstance(max_idle_per_size, int)
            or max_idle_per_size < 0
        ):
            raise CountingMethodError(
                f"max_idle_per_size must be a non-negative integer, "
                f"got {max_idle_per_size!r}"
            )
        self._max_idle = max_idle_per_size
        self._lock = threading.Lock()
        self._idle: Dict[int, List[_WorkerPool]] = {}
        self._created = 0
        self._reused = 0
        self._discarded = 0
        self._leased = 0

    def _pop_idle(self, size: int) -> Optional[_WorkerPool]:
        """A healthy idle pool of ``size`` workers, closing stale ones."""
        while True:
            with self._lock:
                stack = self._idle.get(size)
                candidate = stack.pop() if stack else None
            if candidate is None:
                return None
            if candidate.healthy:
                return candidate
            candidate.close()
            with self._lock:
                self._discarded += 1

    def lease(self, size: int, init_message: Tuple) -> _WorkerPool:
        """A pool of ``size`` workers, initialised with ``init_message``.

        Reuses an idle pool when one is available (the persistent-pool fast
        path); if re-initialising it fails — a worker died while idle — the
        stale pool is closed and a fresh one is spawned instead.
        """
        pool = self._pop_idle(size)
        if pool is not None:
            try:
                pool.broadcast(init_message)
            except ReproError:
                pool.close()
                with self._lock:
                    self._discarded += 1
                pool = None
            else:
                with self._lock:
                    self._reused += 1
        if pool is None:
            pool = _WorkerPool(size, init_message)
            with self._lock:
                self._created += 1
        with self._lock:
            self._leased += 1
        return pool

    def release(self, pool: _WorkerPool) -> None:
        """Return a leased pool; kept idle if healthy and there is room."""
        with self._lock:
            self._leased -= 1
            stack = self._idle.setdefault(pool.size, [])
            if pool.healthy and len(stack) < self._max_idle:
                stack.append(pool)
                return
        pool.close()
        with self._lock:
            self._discarded += 1

    def discard(self, pool: _WorkerPool) -> None:
        """Close a leased pool that must not be reused (a worker crashed)."""
        pool.close()
        with self._lock:
            self._leased -= 1
            self._discarded += 1

    def close(self) -> None:
        """Close every idle pool (leased pools close on release/discard)."""
        with self._lock:
            pools = [pool for stack in self._idle.values() for pool in stack]
            self._idle.clear()
        for pool in pools:
            pool.close()

    def snapshot(self) -> Dict[str, int]:
        """Lifetime pool statistics (for the serving layer's ``/stats``)."""
        with self._lock:
            return {
                "created": self._created,
                "reused": self._reused,
                "discarded": self._discarded,
                "leased": self._leased,
                "idle": sum(len(stack) for stack in self._idle.values()),
            }

    def __enter__(self) -> "WorkerPoolManager":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()


#: Process-wide default pool manager (``None`` = spawn per run, the
#: historical behaviour).  Installed by long-lived servers; see
#: :func:`install_pool_manager`.
_ACTIVE_POOL_MANAGER: Optional[WorkerPoolManager] = None


def install_pool_manager(
    manager: Optional[WorkerPoolManager],
) -> Optional[WorkerPoolManager]:
    """Install the process-wide default pool manager; returns the previous one.

    With a manager installed, every sharded run dispatched through
    :mod:`repro.counting.api` (and hence the serving layer) reuses pools
    instead of spawning per call.  Pass ``None`` to restore spawn-per-run.
    """
    global _ACTIVE_POOL_MANAGER
    previous = _ACTIVE_POOL_MANAGER
    _ACTIVE_POOL_MANAGER = manager
    return previous


def _acquire_pool(
    size: int,
    init_message: Tuple,
    pool_manager: Optional[WorkerPoolManager],
) -> Tuple[_WorkerPool, Optional[WorkerPoolManager]]:
    """A pool for one run: leased from a manager when one is in effect."""
    manager = pool_manager if pool_manager is not None else _ACTIVE_POOL_MANAGER
    if manager is None:
        return _WorkerPool(size, init_message), None
    return manager.lease(size, init_message), manager


def _finish_pool(
    pool: Optional[_WorkerPool],
    manager: Optional[WorkerPoolManager],
    failed: bool,
) -> None:
    """Run-end pool disposal: close owned pools, release/discard managed ones.

    A failed run discards its pool even for benign errors — a pool whose
    protocol state is unknown (e.g. a worker raised mid-level) must not be
    handed to the next request.
    """
    if pool is None:
        return
    if manager is None:
        pool.close()
    elif failed:
        manager.discard(pool)
    else:
        manager.release(pool)


# ----------------------------------------------------------------------
# FPRAS sharded execution
# ----------------------------------------------------------------------
def _add_counts(totals: Dict[str, int], deltas: Dict[str, int]) -> None:
    """Add a pool task's counter deltas into running totals."""
    for key, value in deltas.items():
        totals[key] = totals.get(key, 0) + value


class _ShardedCounter(NFACounter):
    """An :class:`NFACounter` that processes each level under a shard plan.

    :meth:`NFACounter.run` drives it exactly as it drives a serial run;
    only a level's processing, the final estimate's substream and (with a
    pool) the work and engine totals differ.  Without a :attr:`pool` every
    shard task runs in-process through :func:`_run_shard`; with one, the
    tasks run on the workers, and their entries are installed here and
    broadcast to every worker before the next level.
    """

    def __init__(
        self,
        nfa: NFA,
        length: int,
        parameters: FPRASParameters,
        shards: int,
        root: int,
    ) -> None:
        super().__init__(nfa, length, parameters)
        self.shards = shards
        self.root = root
        self.pool: Optional[_WorkerPool] = None
        self._task_stats: Dict[str, int] = {}
        self._task_engine: Dict[str, int] = {}

    def _process_level(self, level, states, beta, eta, ns, xns) -> None:
        tasks = [
            (
                level,
                states[shard :: self.shards],
                derive_shard_seed(self.root, "level", level, "shard", shard),
            )
            for shard in range(min(self.shards, len(states)))
        ]
        if self.pool is None:
            for task in tasks:
                _run_shard(self, *task)
            return
        entries = []
        for outcome in self.pool.run_tasks([("run-states", *task) for task in tasks]):
            entries.extend(outcome["entries"])
            _add_counts(self._task_stats, outcome["stats"])
            _add_counts(self._task_engine, outcome["engine"])
        for entry in entries:
            self.install_state(*entry)
        for start in range(0, len(entries), SYNC_CHUNK_ENTRIES):
            self.pool.broadcast(("sync", entries[start : start + SYNC_CHUNK_ENTRIES]))

    def _final_estimate(self, beta: float, eta: float) -> float:
        self.rng.seed(derive_shard_seed(self.root, "final"))
        return super()._final_estimate(beta, eta)

    def work_statistics(self) -> Dict[str, int]:
        stats = super().work_statistics()
        _add_counts(stats, self._task_stats)
        return stats

    def diagnostics_counters(self) -> Dict[str, int]:
        counters = super().diagnostics_counters()
        _add_counts(counters, self._task_engine)
        return counters


def run_fpras_sharded(
    nfa: NFA,
    length: int,
    parameters: FPRASParameters,
    *,
    shards: int,
    workers: int,
    seed: object,
    pool_manager: Optional[WorkerPoolManager] = None,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> Tuple[CountResult, Dict[str, object]]:
    """Execute the FPRAS under a ``shards``-way plan with ``workers`` processes.

    Returns the :class:`~repro.counting.fpras.CountResult` plus the extra
    report details (``workers``, ``shards``, seed-derivation record).  The
    result is bit-identical for every ``workers`` value, because the plan —
    shard membership and every substream seed — depends only on
    ``(seed, shards)`` and the workload.  Its ``elapsed_seconds`` covers
    the pool lease and release.

    ``pool_manager`` (or a manager installed via :func:`install_pool_manager`)
    reuses persistent worker pools across calls instead of spawning per run;
    a run that fails discards its pool so the next lease starts clean.
    ``progress`` is :meth:`NFACounter.run`'s per-level callback — it runs
    on the coordinator thread and cannot affect the estimate.
    """
    shards = validate_shards(shards)
    workers = resolve_workers(workers)
    started = time.perf_counter()

    if shards == 1:
        # Degenerate plan: exactly the serial NFACounter run (one task, so a
        # pool would only add IPC); bit-identical to the workers=1 default.
        # An int seed builds the same stream NFACounter would derive from
        # ``parameters.seed``, so direct callers who pass only ``seed`` are
        # still deterministic.
        if isinstance(seed, random.Random):
            rng: Optional[random.Random] = seed
        elif isinstance(seed, int) and not isinstance(seed, bool):
            rng = random.Random(seed)
        else:
            rng = None
        counter = NFACounter(nfa, length, parameters, rng=rng)
        result = counter.run(progress=progress)
        return result, {"workers": workers, "shards": 1}

    root = shard_root_seed(seed)
    nfa, document = _roundtrip_nfa(nfa)
    # Built before the pool forks, so workers inherit its engine.
    counter = _ShardedCounter(nfa, length, parameters, shards, root)
    pool_size = min(workers, shards)
    manager: Optional[WorkerPoolManager] = None
    failed = False
    try:
        if pool_size > 1:
            counter.pool, manager = _acquire_pool(
                pool_size,
                ("init-fpras", document, length, parameters),
                pool_manager,
            )
        result = counter.run(progress=progress)
    except BaseException:
        failed = True
        raise
    finally:
        _finish_pool(counter.pool, manager, failed)
    result.elapsed_seconds = time.perf_counter() - started
    details = {
        "workers": workers,
        "shards": shards,
        "pool_processes": pool_size if pool_size > 1 else 0,
        "shard_root_seed": root,
        "seed_derivation": SEED_DERIVATION_SCHEME,
    }
    return result, details


# ----------------------------------------------------------------------
# Monte-Carlo sharded execution
# ----------------------------------------------------------------------
#: Words drawn per coordinator wave (a multiple of the chunk size, so chunk
#: boundaries are identical to chunking the whole stream at once).  Bounds
#: coordinator memory at one wave of words regardless of ``num_samples`` —
#: the parallel analogue of the serial loop's bounded-block drawing.  Drawing
#: the same stream in differently sized blocks yields the same words.
MC_WAVE_WORDS = 32 * MC_CHUNK_WORDS


def run_montecarlo_sharded(
    nfa: NFA,
    length: int,
    num_samples: int,
    rng: random.Random,
    *,
    backend: Optional[str],
    use_engine_cache: bool,
    workers: int,
    pool_manager: Optional[WorkerPoolManager] = None,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> Tuple[MonteCarloEstimate, Dict[str, int], Dict[str, object]]:
    """The Monte-Carlo trial loop over a worker pool.

    The coordinator draws words in bounded waves (bit-identical stream to
    the serial loop) and workers only answer acceptance over
    :data:`MC_CHUNK_WORDS`-row slices of each wave's position matrix, so
    the estimate equals serial Monte-Carlo for any worker count while peak
    memory stays at one wave of words.  A plan that needs one process runs
    :func:`~repro.counting.montecarlo.run_montecarlo` in-process instead.
    Returns ``(estimate, merged engine-counter deltas, details)``.

    ``pool_manager`` (or an installed process-wide manager) reuses
    persistent pools across calls.  ``progress`` is called after every wave
    (or serial block) with ``{"method", "samples", "num_samples", "hits",
    "total_words"}``; it never touches ``rng``, so the final estimate is
    unchanged.
    """
    if length < 0:
        raise ReproError("length must be non-negative")
    if num_samples <= 0:
        raise ReproError("num_samples must be positive")
    workers = resolve_workers(workers)
    size = len(nfa.alphabet)
    total_words = size**length
    total_chunks = -(-num_samples // MC_CHUNK_WORDS)
    pool_size = min(workers, total_chunks)
    details: Dict[str, object] = {
        "workers": workers,
        "pool_processes": pool_size if pool_size > 1 else 0,
        "chunk_words": MC_CHUNK_WORDS,
        "chunks": total_chunks,
    }
    if pool_size == 1:
        engine, from_cache = acquire_engine(nfa, backend, use_cache=use_engine_cache)
        base = dict(engine.counters())
        result = run_montecarlo(nfa, length, num_samples, rng, engine, progress)
        deltas = {
            key: value - base.get(key, 0)
            for key, value in engine.counters().items()
        }
        deltas["engine_cache_hit"] = int(from_cache)
        return result, deltas, {**details, "backend": engine.name}

    roundtripped, document = _roundtrip_nfa(nfa)
    backend_name = resolve_backend(roundtripped, backend)
    pool, manager = _acquire_pool(
        pool_size, ("init-mc", document, backend, use_engine_cache), pool_manager
    )
    counters: Dict[str, int] = {}
    hits = 0
    failed = False
    try:
        remaining = num_samples
        while remaining:
            wave = draw_words(rng, size, length, min(remaining, MC_WAVE_WORDS))
            remaining -= len(wave)
            outcomes = pool.run_tasks(
                [
                    ("mc-chunk", wave[start : start + MC_CHUNK_WORDS])
                    for start in range(0, len(wave), MC_CHUNK_WORDS)
                ]
            )
            for outcome in outcomes:
                hits += outcome["hits"]
                _add_counts(counters, outcome["engine"])
            if progress is not None:
                progress(
                    {
                        "method": "montecarlo",
                        "samples": num_samples - remaining,
                        "num_samples": num_samples,
                        "hits": hits,
                        "total_words": total_words,
                    }
                )
    except BaseException:
        failed = True
        raise
    finally:
        _finish_pool(pool, manager, failed)
    counters["engine_cache_hit"] = 0
    estimate = MonteCarloEstimate(
        estimate=(hits / num_samples) * total_words,
        hits=hits,
        samples=num_samples,
        total_words=total_words,
    )
    return estimate, counters, {**details, "backend": backend_name}
