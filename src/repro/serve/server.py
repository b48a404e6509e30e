"""Counting-as-a-service: a stdlib HTTP front-end over the unified façade.

:class:`CountingServer` turns the in-process counting stack into a
long-lived service without adding a single dependency — it is
``http.server`` + ``threading`` all the way down.  Three pieces make it
more than a toy:

* **Persistent worker pools.**  The server installs a
  :class:`~repro.counting.parallel.WorkerPoolManager` process-wide, so
  sharded runs lease warm worker processes instead of forking a fresh pool
  per request; the pools outlive any single ``count()`` call and crashed
  pools are discarded, never reused.
* **A content-addressed result cache.**  Each counting request is keyed by
  :func:`~repro.counting.api.request_fingerprint` — the SHA-256 of the
  canonical automaton document plus the normalised knobs — so repeated
  questions are answered from memory, bit-identically, without running a
  single trial.  Cache hits bypass admission control entirely.
* **Honest backpressure.**  Counting runs must win a slot from a
  :class:`~repro.serve.queue.BoundedRequestQueue`; when the queue is full
  the server answers ``429`` with a ``Retry-After`` derived from observed
  service times instead of letting work pile up.

Endpoints
---------
``POST /count``
    Body: ``{"automaton": <nfa_to_dict document>, "length": n`` plus any
    of ``"method"``, ``"epsilon"``, ``"delta"``, ``"seed"``, ``"backend"``,
    ``"workers"``, ``"options"``, ``"stream"}``.  Response: the
    :meth:`~repro.counting.api.CountReport.to_dict` payload with a
    ``"served"`` envelope (cache disposition + fingerprint).  With
    ``"stream": true`` the response is chunked NDJSON: one ``progress``
    event per FPRAS level / Monte-Carlo block (with a running estimate
    where one exists), then a final ``result`` event.  An
    early client disconnect does not abort the run — the result still
    lands in the cache.
``GET /stats``
    Counters: cache, queue, pool-manager snapshots plus request totals.
``GET /methods``
    The method registry: names, summaries, options, worker support.

Failure mapping: invalid payloads and :class:`~repro.errors.ReproError`
validation failures are ``400``; a
:class:`~repro.errors.WorkerCrashError` is ``503`` (the crashed pool has
already been discarded); anything else is ``500``.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Mapping, Optional, Tuple

from repro.automata.nfa import NFA
from repro.automata.serialization import nfa_from_dict, nfa_to_dict
from repro.counting.api import (
    METHOD_REGISTRY,
    CountingSession,
    CountRequest,
    dispatch,
    request_fingerprint,
    resolve_method,
)
from repro.counting.parallel import WorkerPoolManager, install_pool_manager
from repro.counting.policy import POLICY_OPTION_NAMES, ExecutionPolicy
from repro.errors import ReproError, WorkerCrashError
from repro.serve.cache import ResultCache
from repro.serve.queue import BoundedRequestQueue

#: Top-level keys a ``POST /count`` body may carry.
COUNT_BODY_KEYS = frozenset(
    {
        "automaton",
        "length",
        "method",
        "epsilon",
        "delta",
        "seed",
        "backend",
        "workers",
        "options",
        "stream",
    }
)


class _RequestError(Exception):
    """An invalid client request, carrying the HTTP status to answer with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class _CountingHTTPServer(ThreadingHTTPServer):
    """The socket layer: one daemon thread per connection, app attached."""

    daemon_threads = True
    # Restarting the server on the same port right after a test run should
    # not fail on a socket lingering in TIME_WAIT.
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], app: "CountingServer") -> None:
        super().__init__(address, _Handler)
        self.app = app

    def handle_error(self, request: object, client_address: object) -> None:
        """Swallow disconnect noise; anything else gets the default traceback.

        A client hanging up mid-response is business as usual for the
        anytime stream, not an error worth a stderr stack trace.
        """
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            return
        super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs + paths onto the owning :class:`CountingServer`."""

    protocol_version = "HTTP/1.1"
    server: _CountingHTTPServer

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Silence the default stderr access log; /stats is the telemetry."""

    def _send_json(
        self,
        status: int,
        payload: Mapping[str, object],
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self,
        status: int,
        message: str,
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        self._send_json(status, {"error": message}, extra_headers)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        app = self.server.app
        if self.path == "/stats":
            self._send_json(200, app.stats())
        elif self.path == "/methods":
            self._send_json(200, {"methods": app.methods()})
        else:
            self._send_error_json(404, f"unknown path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        app = self.server.app
        if self.path != "/count":
            self._send_error_json(404, f"unknown path {self.path!r}")
            return
        try:
            app.handle_count(self)
        except _RequestError as exc:
            self._send_error_json(exc.status, exc.message)

    # ------------------------------------------------------------------
    # Chunked NDJSON streaming
    # ------------------------------------------------------------------
    def start_stream(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

    def write_chunk(self, payload: Mapping[str, object]) -> None:
        line = json.dumps(payload).encode("utf-8") + b"\n"
        self.wfile.write(b"%x\r\n" % len(line) + line + b"\r\n")
        self.wfile.flush()

    def end_stream(self) -> None:
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()


class CountingServer:
    """A long-lived counting service over :class:`CountingSession` knobs.

    The constructor binds the listening socket (``port=0`` picks a free
    port; read the resolved one from :attr:`address`), builds the cache,
    admission queue and pool manager, and installs the manager process-wide
    so every dispatched sharded run leases warm workers.  :meth:`start`
    serves on a background thread; :meth:`close` shuts the socket down,
    restores the previous pool manager and reaps the idle pools.

    ``session_knobs`` are the server-side defaults for fields a request
    omits — e.g. ``CountingServer(..., workers=2)`` makes every fpras
    request parallel unless the client says otherwise (the other methods
    run serially).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        *,
        queue_capacity: int = 8,
        cache_entries: int = 1024,
        max_idle_pools: int = 2,
        **session_knobs: object,
    ) -> None:
        self.cache = ResultCache(max_entries=cache_entries)
        self.queue = BoundedRequestQueue(capacity=queue_capacity)
        self.pool_manager = WorkerPoolManager(max_idle_per_size=max_idle_pools)
        # Execution knobs travel as a typed policy; the remaining knobs
        # (method, epsilon, delta, seed, per-method options) pass through.
        execution = {
            knob: session_knobs.pop(knob)
            for knob in ("backend", "use_engine_cache", "workers", *POLICY_OPTION_NAMES)
            if knob in session_knobs
        }
        self._session = CountingSession(
            policy=ExecutionPolicy(**execution), **session_knobs
        )
        self._counters: Dict[str, int] = {
            "requests": 0,
            "counting_runs": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "uncacheable": 0,
            "worker_crashes": 0,
            "client_disconnects": 0,
            "streams": 0,
        }
        self._counter_lock = threading.Lock()
        self._previous_manager = install_pool_manager(self.pool_manager)
        self._started = time.monotonic()
        try:
            self._http = _CountingHTTPServer((host, port), self)
        except BaseException:
            install_pool_manager(self._previous_manager)
            raise
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — the real port even when 0 was asked."""
        return self._http.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL of the bound socket, e.g. ``http://127.0.0.1:43511``."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "CountingServer":
        """Serve on a daemon thread; returns ``self`` for chaining."""
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(
                target=self._http.serve_forever,
                name="repro-serve",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (or Ctrl-C)."""
        self._serving = True
        self._http.serve_forever()

    def close(self) -> None:
        """Stop accepting, join the serving thread, reap pools."""
        if self._closed:
            return
        self._closed = True
        # shutdown() waits on an event only serve_forever() sets; on a
        # server that was bound but never served it would block forever.
        if self._serving:
            self._http.shutdown()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        install_pool_manager(self._previous_manager)
        self.pool_manager.close()

    def __enter__(self) -> "CountingServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------
    def _bump(self, counter: str, amount: int = 1) -> None:
        with self._counter_lock:
            self._counters[counter] += amount

    def stats(self) -> Dict[str, object]:
        """The ``GET /stats`` payload: counters plus component snapshots."""
        with self._counter_lock:
            counters = dict(self._counters)
        return {
            "uptime_seconds": time.monotonic() - self._started,
            "counters": counters,
            "cache": self.cache.snapshot(),
            "queue": self.queue.snapshot(),
            "pools": self.pool_manager.snapshot(),
        }

    def methods(self) -> list:
        """The ``GET /methods`` payload, straight from the registry."""
        return [
            {
                "name": name,
                "summary": entry.summary,
                "options": sorted(entry.option_names),
                "capabilities": entry.capabilities.describe(),
            }
            for name, entry in sorted(METHOD_REGISTRY.items())
        ]

    # ------------------------------------------------------------------
    # POST /count
    # ------------------------------------------------------------------
    def _parse_count_body(self, handler: _Handler) -> Dict[str, object]:
        try:
            content_length = int(handler.headers.get("Content-Length", "0"))
        except ValueError:
            raise _RequestError(400, "invalid Content-Length header") from None
        if content_length <= 0:
            raise _RequestError(400, "POST /count requires a JSON body")
        raw = handler.rfile.read(content_length)
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise _RequestError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(body, dict):
            raise _RequestError(400, "request body must be a JSON object")
        unknown = set(body) - COUNT_BODY_KEYS
        if unknown:
            raise _RequestError(
                400,
                f"unknown request field(s) {sorted(unknown)}; "
                f"accepted: {sorted(COUNT_BODY_KEYS)}",
            )
        return body

    def _build_instance(
        self, body: Mapping[str, object]
    ) -> Tuple[NFA, int, CountRequest, bool]:
        automaton = body.get("automaton")
        if not isinstance(automaton, Mapping):
            raise _RequestError(400, "'automaton' must be an nfa_to_dict document")
        length = body.get("length")
        if not isinstance(length, int) or isinstance(length, bool) or length < 0:
            raise _RequestError(400, "'length' must be a non-negative integer")
        seed = body.get("seed")
        if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
            raise _RequestError(400, "'seed' must be an integer or null")
        options = body.get("options", {})
        if not isinstance(options, Mapping):
            raise _RequestError(400, "'options' must be a JSON object")
        stream = body.get("stream", False)
        if not isinstance(stream, bool):
            raise _RequestError(400, "'stream' must be a boolean")
        knobs: Dict[str, object] = dict(options)
        for field in ("method", "epsilon", "delta", "seed"):
            if field in body:
                knobs[field] = body[field]
        # Execution knobs travel as one policy built from the pinned one, as
        # it applies to the method (pinned workers fall back to 1 for a
        # method without worker support).
        execution = {name: knobs.pop(name) for name in POLICY_OPTION_NAMES if name in knobs}
        for field in ("backend", "workers"):
            if field in body:
                execution[field] = body[field]
        try:
            nfa = nfa_from_dict(automaton)
            if execution:
                pinned = self._session.request(knobs.get("method")).policy
                knobs["policy"] = pinned.with_overrides(**execution)
            request = self._session.request(**knobs)
        except (ReproError, TypeError, ValueError) as exc:
            raise _RequestError(400, str(exc)) from None
        return nfa, length, request, stream

    def handle_count(self, handler: _Handler) -> None:
        """The whole ``POST /count`` flow, on the connection's thread."""
        self._bump("requests")
        body = self._parse_count_body(handler)
        nfa, length, request, stream = self._build_instance(body)

        # Fingerprint the *canonical* document, not the client's spelling of
        # it: two clients sending the same automaton with states listed in
        # different orders must land on the same cache line.
        document = nfa_to_dict(nfa)
        fingerprint = request_fingerprint(document, length, request)
        if fingerprint is None:
            self._bump("uncacheable")
        else:
            cached = self.cache.get(fingerprint)
            if cached is not None:
                self._bump("cache_hits")
                self._respond(handler, cached, fingerprint, cached=True, stream=stream)
                return
            self._bump("cache_misses")

        if not self.queue.try_acquire():
            handler._send_error_json(
                429,
                "counting queue is full; retry later",
                {"Retry-After": str(self.queue.retry_after_seconds())},
            )
            return
        start = time.monotonic()
        try:
            self._run(handler, nfa, length, request, stream, fingerprint)
        finally:
            self.queue.release(time.monotonic() - start)

    def _run(
        self,
        handler: _Handler,
        nfa: NFA,
        length: int,
        request: CountRequest,
        stream: bool,
        fingerprint: Optional[str],
    ) -> Optional[Dict[str, object]]:
        """Run one admitted request; caches and answers, returns the payload."""
        if stream:
            return self._run_streaming(handler, nfa, length, request, fingerprint)
        try:
            report = dispatch(nfa, length, request)
        except WorkerCrashError as exc:
            self._bump("worker_crashes")
            handler._send_error_json(503, str(exc))
            return None
        except ReproError as exc:
            handler._send_error_json(400, str(exc))
            return None
        except Exception as exc:  # pragma: no cover - defensive
            handler._send_error_json(500, f"internal error: {exc}")
            return None
        self._bump("counting_runs")
        payload = report.to_dict()
        # Store before responding: a client that fires a duplicate the moment
        # it reads this response must find the entry already in place.
        if fingerprint is not None:
            self.cache.put(fingerprint, payload)
        self._respond(handler, payload, fingerprint, cached=False, stream=False)
        return payload

    def _respond(
        self,
        handler: _Handler,
        payload: Dict[str, object],
        fingerprint: Optional[str],
        *,
        cached: bool,
        stream: bool,
    ) -> None:
        document = dict(payload)
        document["served"] = {"cached": cached, "fingerprint": fingerprint}
        if stream:
            # A cache hit on a streaming request degenerates to a one-event
            # stream: there is no run to report progress on.
            handler.start_stream()
            handler.write_chunk({"event": "result", "cached": cached, **document})
            handler.end_stream()
        else:
            handler._send_json(200, document)

    # ------------------------------------------------------------------
    # Anytime streaming
    # ------------------------------------------------------------------
    def _run_streaming(
        self,
        handler: _Handler,
        nfa: NFA,
        length: int,
        request: CountRequest,
        fingerprint: Optional[str],
    ) -> Optional[Dict[str, object]]:
        """Chunked NDJSON: progress events while trials accumulate.

        The counting run is never aborted on client disconnect — the socket
        write fails, the ``disconnected`` flag flips, further events are
        dropped, and the finished report still lands in the cache so the
        client's retry is a free hit.  The worker pool never notices.
        """
        self._bump("streams")
        state = {"disconnected": False}
        handler.start_stream()

        def emit(event: Mapping[str, object]) -> None:
            if state["disconnected"]:
                return
            try:
                handler.write_chunk(event)
            except (BrokenPipeError, ConnectionResetError, OSError):
                state["disconnected"] = True
                self._bump("client_disconnects")

        def progress(update: Mapping[str, object]) -> None:
            event = {"event": "progress", **update}
            if update.get("method") == "montecarlo":
                samples = update.get("samples") or 0
                hits = update.get("hits", 0)
                total = update.get("total_words", 0)
                if samples:
                    rate = hits / samples
                    event["estimate"] = rate * total
                    event["standard_error"] = (
                        total * math.sqrt(max(0.0, rate * (1.0 - rate)) / samples)
                    )
            elif update.get("method") == "fpras":
                levels = update.get("levels") or 0
                if levels:
                    event["fraction_complete"] = update["level"] / levels
            emit(event)

        try:
            streamed = resolve_method(request.method).capabilities.progress
            report = dispatch(nfa, length, request, progress if streamed else None)
        except WorkerCrashError as exc:
            self._bump("worker_crashes")
            emit({"event": "error", "status": 503, "error": str(exc)})
            self._finish_stream(handler, state)
            return None
        except ReproError as exc:
            emit({"event": "error", "status": 400, "error": str(exc)})
            self._finish_stream(handler, state)
            return None
        except Exception as exc:  # pragma: no cover - defensive
            emit({"event": "error", "status": 500, "error": f"internal error: {exc}"})
            self._finish_stream(handler, state)
            return None
        self._bump("counting_runs")
        payload = report.to_dict()
        if fingerprint is not None:
            self.cache.put(fingerprint, payload)
        emit(
            {
                "event": "result",
                "cached": False,
                **payload,
                "served": {"cached": False, "fingerprint": fingerprint},
            }
        )
        self._finish_stream(handler, state)
        return payload

    def _finish_stream(self, handler: _Handler, state: Dict[str, bool]) -> None:
        if state["disconnected"]:
            return
        try:
            handler.end_stream()
        except (BrokenPipeError, ConnectionResetError, OSError):
            state["disconnected"] = True
            self._bump("client_disconnects")
