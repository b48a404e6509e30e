"""End-to-end tests for the counting server (:mod:`repro.serve`).

Everything runs against a real :class:`~repro.serve.server.CountingServer`
bound to an ephemeral port on localhost — the tests exercise the same HTTP
surface a remote client sees, including the acceptance contract: a served
``POST /count`` is bit-identical to direct ``repro.count()``, and a
repeated request is a cache hit that runs **zero** counting trials (pinned
via both ``/stats`` and the shared engine registry's work counters).
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.automata.engine import acquire_engine
from repro.automata.families import divisibility_nfa, no_consecutive_ones_nfa
from repro.automata.nfa import NFA
from repro.automata.serialization import nfa_to_dict
from repro.serve import BoundedRequestQueue, CountingServer, ResultCache


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
@pytest.fixture()
def server():
    with CountingServer(port=0) as running:
        yield running


def _post(server, body, timeout=60):
    """POST /count; returns (status, parsed JSON body).  A ``str`` body is
    sent as it is."""
    if not isinstance(body, str):
        body = json.dumps(body)
    request = urllib.request.Request(
        server.url + "/count",
        data=body.encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(server, path, timeout=10):
    with urllib.request.urlopen(server.url + path, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _stream(server, body, timeout=60):
    """POST /count with stream=true; returns the list of NDJSON events."""
    request = urllib.request.Request(
        server.url + "/count",
        data=json.dumps(dict(body, stream=True)).encode("utf-8"),
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        raw = response.read()
    return [json.loads(line) for line in raw.splitlines() if line.strip()]


def _body(nfa, length, **knobs):
    document = {"automaton": nfa_to_dict(nfa), "length": length}
    document.update(knobs)
    return document


# ----------------------------------------------------------------------
# Served-vs-direct parity (acceptance criterion)
# ----------------------------------------------------------------------
class TestServedParity:
    def test_fpras_estimate_bit_identical_to_direct(self, server):
        nfa = no_consecutive_ones_nfa()
        body = _body(nfa, 8, method="fpras", epsilon=0.5, seed=11)
        status, served = _post(server, body)
        direct = repro.count(nfa, 8, method="fpras", epsilon=0.5, seed=11)
        assert status == 200
        assert served["estimate"] == direct.estimate
        assert served["method"] == "fpras"
        assert served["served"]["cached"] is False

    def test_montecarlo_estimate_bit_identical_to_direct(self, server):
        nfa = divisibility_nfa(divisor=3)
        body = _body(
            nfa, 7, method="montecarlo", seed=5, options={"num_samples": 200}
        )
        status, served = _post(server, body)
        direct = repro.count(nfa, 7, method="montecarlo", seed=5, num_samples=200)
        assert status == 200
        assert served["estimate"] == direct.estimate

    def test_exact_method_served(self, server):
        nfa = no_consecutive_ones_nfa()
        status, served = _post(server, _body(nfa, 6, method="exact", seed=1))
        assert status == 200
        assert served["estimate"] == 21.0
        assert served["exact"] is True

    def test_execution_knobs_apply_over_a_pinned_store(self):
        """Body execution knobs replace the server's pinned ones as they
        apply to the method: a pinned windowed store falls back to the dict
        store for ``exact`` and ``montecarlo``, while an explicit ``store``
        on either is refused."""
        nfa = no_consecutive_ones_nfa()
        windowed = {"store": "windowed"}
        with CountingServer(port=0, store="windowed") as pinned:
            for method in ("exact", "montecarlo"):
                status, _ = _post(
                    pinned, _body(nfa, 6, method=method, seed=1, options=windowed)
                )
                assert status == 400
            status, served = _post(
                pinned, _body(nfa, 6, method="exact", seed=1, backend="reference")
            )
            assert status == 200 and served["estimate"] == 21.0
            status, served = _post(pinned, _body(nfa, 6, method="montecarlo", seed=1))
            direct = repro.count(nfa, 6, method="montecarlo", seed=1)
            assert status == 200 and served["estimate"] == direct.estimate


# ----------------------------------------------------------------------
# The content-addressed cache (acceptance criterion)
# ----------------------------------------------------------------------
class TestResultCacheOverHTTP:
    def test_repeat_is_a_hit_that_runs_no_trials(self, server):
        nfa = no_consecutive_ones_nfa()
        body = _body(nfa, 8, method="fpras", epsilon=0.5, seed=11)

        status1, first = _post(server, body)
        assert status1 == 200 and first["served"]["cached"] is False

        # The server shares this process's engine registry, so the engine's
        # work counters are a direct witness that the second call runs
        # nothing: identical before/after.
        engine, _ = acquire_engine(nfa, None)
        before = dict(engine.counters())

        status2, second = _post(server, body)
        after = dict(engine.counters())

        assert status2 == 200
        assert second["served"]["cached"] is True
        assert second["estimate"] == first["estimate"]
        assert second["served"]["fingerprint"] == first["served"]["fingerprint"]
        assert after == before, "cache hit must not touch the engine"

        _, stats = _get(server, "/stats")
        assert stats["counters"]["counting_runs"] == 1
        assert stats["counters"]["cache_hits"] == 1
        assert stats["counters"]["cache_misses"] == 1

    def test_client_state_ordering_does_not_change_the_key(self, server):
        nfa = no_consecutive_ones_nfa()
        document = nfa_to_dict(nfa)
        shuffled = dict(document, states=list(reversed(document["states"])))
        body = {"automaton": document, "length": 6, "seed": 3, "epsilon": 0.5}
        other = dict(body, automaton=shuffled)
        _, first = _post(server, body)
        _, second = _post(server, other)
        assert second["served"]["cached"] is True
        assert second["served"]["fingerprint"] == first["served"]["fingerprint"]

    @pytest.mark.parametrize(
        "variation",
        [
            {"epsilon": 0.4},
            {"seed": 8},
            {"length": 7},
            {"method": "montecarlo"},
        ],
        ids=["epsilon", "seed", "length", "method"],
    )
    def test_key_sensitivity(self, server, variation):
        nfa = no_consecutive_ones_nfa()
        base = _body(nfa, 6, method="fpras", epsilon=0.5, seed=7)
        _, first = _post(server, base)
        _, second = _post(server, {**base, **variation})
        assert second["served"]["cached"] is False
        assert second["served"]["fingerprint"] != first["served"]["fingerprint"]

    def test_seedless_requests_are_uncacheable(self, server):
        nfa = no_consecutive_ones_nfa()
        body = _body(nfa, 5, method="fpras", epsilon=0.5)
        status, served = _post(server, body)
        assert status == 200
        assert served["served"]["fingerprint"] is None
        _, stats = _get(server, "/stats")
        assert stats["counters"]["uncacheable"] == 1

    def test_exact_results_cache_too(self, server):
        nfa = no_consecutive_ones_nfa()
        body = _body(nfa, 6, method="exact", seed=1)
        _, first = _post(server, body)
        _, second = _post(server, body)
        assert second["served"]["cached"] is True
        assert second["estimate"] == first["estimate"] == 21.0


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_queue_full_answers_429_with_retry_after(self):
        with CountingServer(port=0, queue_capacity=1) as server:
            # Take the only slot by hand: the next counting request must be
            # refused without ever starting a run.
            assert server.queue.try_acquire()
            try:
                nfa = no_consecutive_ones_nfa()
                status, payload = _post(server, _body(nfa, 5, seed=2))
                assert status == 429
                assert "retry" in payload["error"].lower()
            finally:
                server.queue.release(0.5)
            # Slot free again: the same request now succeeds...
            status, payload = _post(server, _body(nfa, 5, seed=2))
            assert status == 200
            _, stats = _get(server, "/stats")
            assert stats["queue"]["rejected"] == 1

    def test_retry_after_header_present(self):
        with CountingServer(port=0, queue_capacity=1) as server:
            assert server.queue.try_acquire()
            try:
                request = urllib.request.Request(
                    server.url + "/count",
                    data=json.dumps(
                        _body(no_consecutive_ones_nfa(), 5, seed=2)
                    ).encode(),
                )
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=10)
                assert excinfo.value.code == 429
                assert int(excinfo.value.headers["Retry-After"]) >= 1
            finally:
                server.queue.release(0.5)

    def test_cache_hits_bypass_the_queue(self):
        with CountingServer(port=0, queue_capacity=1) as server:
            nfa = no_consecutive_ones_nfa()
            body = _body(nfa, 6, seed=4, epsilon=0.5)
            status, _ = _post(server, body)
            assert status == 200
            # The server releases its slot just *after* responding, so poll
            # briefly for it before taking it ourselves.
            deadline = time.monotonic() + 5.0
            while not server.queue.try_acquire():  # exhaust the only slot
                assert time.monotonic() < deadline, "queue slot never freed"
                time.sleep(0.01)
            try:
                status, served = _post(server, body)
                assert status == 200  # hit answered despite the full queue
                assert served["served"]["cached"] is True
            finally:
                server.queue.release(0.0)


# ----------------------------------------------------------------------
# Anytime streaming
# ----------------------------------------------------------------------
class TestAnytimeStreaming:
    def test_fpras_stream_reports_levels_then_result(self, server):
        nfa = no_consecutive_ones_nfa()
        events = _stream(server, _body(nfa, 6, method="fpras", epsilon=0.5, seed=11))
        progress = [e for e in events if e["event"] == "progress"]
        assert [e["level"] for e in progress] == list(range(1, 7))
        assert all(0 < e["fraction_complete"] <= 1 for e in progress)
        result = events[-1]
        assert result["event"] == "result"
        direct = repro.count(nfa, 6, method="fpras", epsilon=0.5, seed=11)
        assert result["estimate"] == direct.estimate

    def test_montecarlo_stream_carries_running_estimate(self, server):
        nfa = divisibility_nfa(divisor=3)
        events = _stream(
            server,
            _body(nfa, 7, method="montecarlo", seed=5, options={"num_samples": 200}),
        )
        progress = [e for e in events if e["event"] == "progress"]
        assert progress, "montecarlo must emit at least one wave"
        for event in progress:
            assert event["estimate"] >= 0
            assert event["standard_error"] >= 0
        direct = repro.count(nfa, 7, method="montecarlo", seed=5, num_samples=200)
        assert events[-1]["estimate"] == direct.estimate

    def test_stream_result_lands_in_cache(self, server):
        nfa = no_consecutive_ones_nfa()
        body = _body(nfa, 6, method="fpras", epsilon=0.5, seed=31)
        _stream(server, body)
        status, served = _post(server, body)
        assert status == 200
        assert served["served"]["cached"] is True

    def test_exact_method_streams_single_result_event(self, server):
        events = _stream(
            server, _body(no_consecutive_ones_nfa(), 6, method="exact", seed=1)
        )
        assert [e["event"] for e in events] == ["result"]
        assert events[0]["estimate"] == 21.0

    def test_early_disconnect_does_not_kill_the_server(self, server):
        nfa = no_consecutive_ones_nfa()
        body = _body(nfa, 10, method="fpras", epsilon=0.5, seed=77, stream=True)
        payload = json.dumps(body).encode("utf-8")
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /count HTTP/1.1\r\n"
                + f"Host: {host}:{port}\r\n".encode()
                + f"Content-Length: {len(payload)}\r\n".encode()
                + b"Content-Type: application/json\r\n\r\n"
                + payload
            )
            sock.recv(1)  # first byte of the status line: the run has begun
        # Socket closed mid-stream.  The run must finish in the background
        # and cache its result; the server keeps answering.
        deadline = threading.Event()
        for _ in range(200):
            _, stats = _get(server, "/stats")
            if stats["counters"]["counting_runs"] >= 1:
                break
            deadline.wait(0.05)
        assert stats["counters"]["counting_runs"] == 1
        status, served = _post(server, dict(body, stream=False))
        assert status == 200
        assert served["served"]["cached"] is True


# ----------------------------------------------------------------------
# Validation and error mapping
# ----------------------------------------------------------------------
class TestRequestValidation:
    @pytest.mark.parametrize(
        "body, fragment",
        [
            ({}, "automaton"),
            ({"automaton": []}, "automaton"),
            ({"automaton": {"bad": 1}, "length": 3}, "document"),
            ({"automaton": None, "length": 3}, "automaton"),
        ],
    )
    def test_bad_automaton_is_400(self, server, body, fragment):
        status, payload = _post(server, body)
        assert status == 400
        assert fragment in payload["error"]

    def test_bad_length_is_400(self, server):
        doc = nfa_to_dict(no_consecutive_ones_nfa())
        for length in (-1, "6", None, True):
            status, payload = _post(server, {"automaton": doc, "length": length})
            assert status == 400
            assert "length" in payload["error"]

    @pytest.mark.parametrize("epsilon", ["Infinity", "1e400", "true"])
    def test_mistyped_epsilon_is_400(self, server, epsilon):
        """Python's ``json`` reads ``Infinity`` and ``1e400`` as ``inf``."""
        body = json.dumps(_body(no_consecutive_ones_nfa(), 5, method="fpras", epsilon=0.5))
        status, payload = _post(server, body.replace('"epsilon": 0.5', f'"epsilon": {epsilon}'))
        assert status == 400
        assert "epsilon" in payload["error"]

    def test_unknown_method_is_400(self, server):
        status, payload = _post(
            server, _body(no_consecutive_ones_nfa(), 5, method="quantum")
        )
        assert status == 400
        assert "quantum" in payload["error"]

    def test_unknown_top_level_field_is_400(self, server):
        status, payload = _post(
            server, _body(no_consecutive_ones_nfa(), 5, frobnicate=True)
        )
        assert status == 400
        assert "frobnicate" in payload["error"]

    def test_numpy_backend_is_400(self, server):
        status, payload = _post(
            server, _body(no_consecutive_ones_nfa(), 5, method="montecarlo", backend="numpy")
        )
        assert status == 400
        assert "unknown simulation backend 'numpy'" in payload["error"]

    def test_non_integer_seed_is_400(self, server):
        status, payload = _post(
            server, _body(no_consecutive_ones_nfa(), 5, seed="eleven")
        )
        assert status == 400
        assert "seed" in payload["error"]

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/count", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_paths_are_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/nope", timeout=10)
        assert excinfo.value.code == 404
        status, _ = _post(server, {"automaton": {}, "length": 1}, timeout=10)
        assert status in (400, 404)  # POST /count validates; POST elsewhere 404s

    @pytest.mark.parametrize(
        "option",
        [{"store": "windowed"}, {"window": 8}, {"details": "summary"}],
        ids=["store", "window", "details"],
    )
    @pytest.mark.parametrize("method", ["montecarlo", "exact", "acjr", "bruteforce"])
    def test_a_refused_request_never_reads_the_cache(self, server, method, option):
        """``store``, ``window`` and ``details`` are outside the cache key,
        so the request is validated before the lookup: a refused one stays
        refused after a valid one with the same key has been cached."""
        (name,) = option
        body = _body(no_consecutive_ones_nfa(), 6, method=method, seed=1)
        refused = dict(body, options=option)
        status, payload = _post(server, refused)
        assert status == 400 and name in payload["error"]
        status, payload = _post(server, body)
        assert status == 200 and payload["served"]["cached"] is False
        status, payload = _post(server, refused)
        assert status == 400 and name in payload["error"]
        _, stats = _get(server, "/stats")
        assert stats["counters"]["cache_hits"] == 0

    def test_workers_field_is_400(self, server):
        status, payload = _post(
            server, _body(no_consecutive_ones_nfa(), 6, method="fpras", seed=1, workers=2)
        )
        assert status == 400
        assert "workers" in payload["error"]

    def test_shards_option_is_400(self, server):
        status, payload = _post(
            server,
            _body(
                no_consecutive_ones_nfa(), 6, method="fpras", seed=1, options={"shards": 2}
            ),
        )
        assert status == 400
        assert "shards" in payload["error"]

    def test_method_options_rejected_at_dispatch_are_400(self, server):
        status, payload = _post(
            server,
            _body(
                no_consecutive_ones_nfa(),
                5,
                method="exact",
                seed=1,
                options={"num_samples": 10},
            ),
        )
        assert status == 400
        assert "num_samples" in payload["error"]

    @pytest.mark.parametrize("method, length", [("montecarlo", 1024), ("exact", 1030)])
    def test_count_beyond_the_float_range_is_400(self, server, method, length):
        # The one-state automaton accepting {0,1}*: 2^length words.
        everything = NFA.build(
            [("s", "0", "s"), ("s", "1", "s")], initial="s", accepting=["s"]
        )
        status, payload = _post(server, _body(everything, length, method=method, seed=1))
        assert status == 400
        assert "largest float" in payload["error"]

    @pytest.mark.parametrize("num_samples", [2.5, True, "10"])
    def test_mistyped_num_samples_is_400(self, server, num_samples):
        status, payload = _post(
            server,
            _body(
                no_consecutive_ones_nfa(),
                5,
                method="montecarlo",
                seed=1,
                options={"num_samples": num_samples},
            ),
        )
        assert status == 400
        assert "num_samples" in payload["error"]

    @pytest.mark.parametrize(
        "method, option, value",
        [
            ("acjr", "sample_cap", "10"),
            ("acjr", "sample_cap", 2.5),
            ("acjr", "attempt_factor", "x"),
            ("acjr", "attempt_factor", 0),
            ("fpras", "scale", {"sample_cap": 8}),
        ],
    )
    def test_mistyped_estimator_options_are_400(self, server, method, option, value):
        status, payload = _post(
            server,
            _body(
                no_consecutive_ones_nfa(),
                5,
                method=method,
                seed=1,
                options={option: value},
            ),
        )
        assert status == 400
        assert option in payload["error"]


# ----------------------------------------------------------------------
# /stats and /methods
# ----------------------------------------------------------------------
class TestIntrospection:
    def test_methods_endpoint_mirrors_the_registry(self, server):
        status, payload = _get(server, "/methods")
        assert status == 200
        names = [entry["name"] for entry in payload["methods"]]
        assert names == sorted(repro.available_methods())
        fpras = next(e for e in payload["methods"] if e["name"] == "fpras")
        assert fpras["capabilities"] == {"progress": True}
        assert fpras["options"] == ["details", "scale", "store", "window"]

    def test_stats_shape(self, server):
        status, stats = _get(server, "/stats")
        assert status == 200
        assert stats["uptime_seconds"] >= 0
        assert set(stats["counters"]) >= {
            "requests",
            "counting_runs",
            "cache_hits",
            "cache_misses",
            "uncacheable",
            "client_disconnects",
        }
        assert stats["cache"]["max_entries"] == 1024
        assert stats["queue"]["capacity"] == 8
        assert set(stats) == {"uptime_seconds", "counters", "cache", "queue"}


# ----------------------------------------------------------------------
# Component units (no HTTP)
# ----------------------------------------------------------------------
class TestResultCacheUnit:
    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refreshes "a"
        cache.put("c", {"v": 3})  # evicts "b", the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.get("c") == {"v": 3}
        assert cache.snapshot()["evictions"] == 1

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
        with pytest.raises(TypeError):
            ResultCache(max_entries="big")

    def test_thread_safety_under_contention(self):
        cache = ResultCache(max_entries=16)
        errors = []

        def hammer(tag):
            try:
                for i in range(200):
                    cache.put(f"{tag}-{i % 20}", {"v": i})
                    cache.get(f"{tag}-{(i * 7) % 20}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in ("x", "y", "z")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 16


class TestBoundedRequestQueueUnit:
    def test_capacity_enforced(self):
        queue = BoundedRequestQueue(capacity=2)
        assert queue.try_acquire() and queue.try_acquire()
        assert not queue.try_acquire()
        queue.release(1.0)
        assert queue.try_acquire()

    def test_release_without_acquire_raises(self):
        with pytest.raises(RuntimeError):
            BoundedRequestQueue(capacity=1).release(0.0)

    def test_retry_after_tracks_mean_service_time(self):
        queue = BoundedRequestQueue(capacity=4)
        assert queue.retry_after_seconds() == 1  # no data yet
        for seconds in (2.0, 4.0):
            queue.try_acquire()
            queue.release(seconds)
        assert queue.retry_after_seconds() == 3
        queue.try_acquire()
        queue.release(3.5)  # mean 3.1666 -> ceil 4
        assert queue.retry_after_seconds() == 4

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            BoundedRequestQueue(capacity=0)
        with pytest.raises(TypeError):
            BoundedRequestQueue(capacity=2.5)


class TestServerLifecycle:
    def test_port_zero_resolves_to_a_real_port(self):
        with CountingServer(port=0) as server:
            host, port = server.address
            assert host == "127.0.0.1"
            assert port > 0
            assert server.url == f"http://{host}:{port}"

    def test_close_is_idempotent(self):
        server = CountingServer(port=0).start()
        server.close()
        server.close()
        with pytest.raises(OSError):
            urllib.request.urlopen(server.url + "/stats", timeout=2)
