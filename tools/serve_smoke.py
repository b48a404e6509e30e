"""CI smoke test for ``repro serve``: real process, real sockets, real load.

The pytest suite covers the serving layer in-process; this script covers
what pytest cannot — the actual deployment shape.  It starts ``python -m
repro serve`` as a subprocess, fires concurrent clients at it (duplicates
of one automaton interleaved with distinct ones), and asserts the whole
service contract end to end:

* every response is 200 with a well-formed report document;
* served estimates are bit-identical to direct in-process ``repro.count()``
  for the same (automaton, knobs) — the server adds transport, never noise;
* ``/stats`` shows the duplicate traffic collapsing onto cache lines:
  exactly one counting run per distinct request, everything else hits;
* ``"stream": true`` requests (a serial Monte-Carlo run and a two-shard
  fpras run on two workers) end in the result a direct ``repro.count()``
  gives, after progress events that reach every sample / the last level;
* SIGINT produces a clean, prompt exit (code 0) with no orphan processes.

Exit code 0 on success; any assertion failure or timeout is non-zero.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Tuple

from repro.automata.families import divisibility_nfa, no_consecutive_ones_nfa
from repro.automata.serialization import nfa_from_dict, nfa_to_dict
from repro.counting.api import count
from repro.counting.policy import ExecutionPolicy

#: Seed shared by every request so served-vs-direct parity is checkable.
SEED = 20240808

#: (label, automaton document, length) for the distinct workloads.
WORKLOADS = [
    ("no_consecutive_ones", nfa_to_dict(no_consecutive_ones_nfa()), 8),
    ("divisibility_7", nfa_to_dict(divisibility_nfa(7)), 9),
    ("divisibility_12", nfa_to_dict(divisibility_nfa(12)), 8),
]

#: Concurrent POSTs per workload; all but the first should be cache traffic.
CLIENTS_PER_WORKLOAD = 4

#: (label, method, options, workers) of the streamed requests, each run on
#: the ``divisibility_7`` workload; neither is in the cache when it is sent.
STREAMS = [
    ("montecarlo", "montecarlo", {"num_samples": 20_000}, 1),
    ("fpras-sharded", "fpras", {"shards": 2}, 2),
]


def _start_server() -> Tuple[subprocess.Popen, str]:
    """Launch ``python -m repro serve --port 0``; returns (process, base URL)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert process.stdout is not None
    deadline = time.monotonic() + 30.0
    banner = ""
    while time.monotonic() < deadline:
        banner = process.stdout.readline().strip()
        if "listening on" in banner:
            break
        if process.poll() is not None:
            raise RuntimeError(f"server died during startup: {banner!r}")
    else:
        raise RuntimeError("server did not print its banner within 30s")
    url = banner.rsplit(" ", 1)[-1]
    # Readiness: /stats must answer before any client traffic is launched.
    deadline = time.monotonic() + 10.0
    while True:
        try:
            with urllib.request.urlopen(url + "/stats", timeout=2) as response:
                assert response.status == 200
                return process, url
        except (urllib.error.URLError, ConnectionError):
            if time.monotonic() > deadline:
                raise
            time.sleep(0.1)


def _post_count(url: str, document: Dict, length: int) -> Dict:
    body = json.dumps(
        {
            "automaton": document,
            "length": length,
            "method": "fpras",
            "epsilon": 0.5,
            "seed": SEED,
        }
    ).encode("utf-8")
    request = urllib.request.Request(url + "/count", data=body)
    with urllib.request.urlopen(request, timeout=120) as response:
        assert response.status == 200, f"POST /count -> {response.status}"
        return json.loads(response.read())


def _post_stream(url: str, body: Dict) -> List[Dict]:
    """POST /count with ``"stream": true``; the NDJSON events in order."""
    data = json.dumps(dict(body, stream=True)).encode("utf-8")
    request = urllib.request.Request(url + "/count", data=data)
    with urllib.request.urlopen(request, timeout=120) as response:
        assert response.status == 200, f"streamed POST /count -> {response.status}"
        raw = response.read()
    return [json.loads(line) for line in raw.splitlines() if line.strip()]


def _check_streams(url: str) -> None:
    """Each stream ends in the direct result after complete progress."""
    _, document, length = WORKLOADS[1]
    for label, method, options, workers in STREAMS:
        events = _post_stream(
            url,
            {
                "automaton": document,
                "length": length,
                "method": method,
                "epsilon": 0.5,
                "seed": SEED,
                "workers": workers,
                "options": options,
            },
        )
        progress = [event for event in events if event["event"] == "progress"]
        result = events[-1]
        assert result["event"] == "result", f"{label} stream ended with {result}"
        assert progress, f"{label} stream sent no progress event"
        shards = options.get("shards", 1)
        knobs = {key: value for key, value in options.items() if key != "shards"}
        policy = ExecutionPolicy(workers=workers, shards=shards)
        direct = count(
            nfa_from_dict(document), length, method=method, epsilon=0.5,
            seed=SEED, policy=policy, **knobs,
        )
        assert result["estimate"] == direct.estimate, (
            f"streamed {label} estimate {result['estimate']} != "
            f"direct {direct.estimate}"
        )
        assert result["details"] == json.loads(json.dumps(direct.details)), (
            f"streamed {label} details diverged from direct count()"
        )
        last = progress[-1]
        if method == "montecarlo":
            assert last["samples"] == options["num_samples"], last
        else:
            assert last["level"] == last["levels"] == length, last
        print(
            f"stream {label}: {len(progress)} progress event(s), "
            f"result equals direct count()"
        )


def _get_stats(url: str) -> Dict:
    with urllib.request.urlopen(url + "/stats", timeout=10) as response:
        return json.loads(response.read())


def _direct_estimates() -> Dict[str, float]:
    """What in-process ``repro.count()`` says each workload should estimate."""
    estimates = {}
    for label, document, length in WORKLOADS:
        report = count(
            nfa_from_dict(document), length, method="fpras", epsilon=0.5, seed=SEED
        )
        estimates[label] = report.estimate
    return estimates


def _fire_concurrent_clients(url: str) -> List[Tuple[str, Dict]]:
    """Interleaved duplicate + distinct POSTs from a client thread pool."""
    # Interleave the duplicates so concurrent identical requests genuinely
    # race: [w0, w1, w2, w0, w1, w2, ...]
    jobs = [
        workload for _ in range(CLIENTS_PER_WORKLOAD) for workload in WORKLOADS
    ]
    with ThreadPoolExecutor(max_workers=6) as pool:
        futures = [
            (label, pool.submit(_post_count, url, document, length))
            for label, document, length in jobs
        ]
        return [(label, future.result()) for label, future in futures]


def main() -> int:
    process, url = _start_server()
    try:
        direct = _direct_estimates()
        responses = _fire_concurrent_clients(url)

        total = len(WORKLOADS) * CLIENTS_PER_WORKLOAD
        assert len(responses) == total, f"{len(responses)}/{total} responses"

        for label, payload in responses:
            assert payload["estimate"] == direct[label], (
                f"served estimate for {label} diverged: "
                f"{payload['estimate']} != direct {direct[label]}"
            )
        print(f"parity: {total} served responses bit-identical to direct count()")

        stats = _get_stats(url)
        counters = stats["counters"]
        distinct = len(WORKLOADS)
        # Concurrent duplicates may race past the cache before the first
        # store lands, so "runs" can exceed the distinct count — but every
        # request after the stores must hit, and most duplicates should.
        assert counters["counting_runs"] >= distinct
        assert counters["counting_runs"] + counters["cache_hits"] == total
        assert counters["cache_hits"] > 0, "no duplicate ever hit the cache"
        print(
            f"cache: {counters['counting_runs']} runs served {total} requests "
            f"({counters['cache_hits']} hits)"
        )

        # A final sequential duplicate must be a pure hit.
        label, document, length = WORKLOADS[0]
        payload = _post_count(url, document, length)
        assert payload["served"]["cached"] is True
        after = _get_stats(url)["counters"]
        assert after["counting_runs"] == counters["counting_runs"]
        print("post-hoc duplicate: cache hit, no new counting run")

        _check_streams(url)
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            raise AssertionError("server did not exit within 15s of SIGINT")
    assert process.returncode == 0, f"server exit code {process.returncode}"
    print("shutdown: clean exit on SIGINT")
    return 0


if __name__ == "__main__":
    sys.exit(main())
