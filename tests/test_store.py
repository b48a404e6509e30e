"""Unit and differential tests for the pluggable state-table stores.

The store layer (:mod:`repro.counting.store`) changes *where* the FPRAS
dynamic-program tables live, never their values.  This suite pins that
contract down in two halves:

* unit tests for the stores themselves — the spill / fault mechanics of
  the windowed sample-list table in both spill formats (raw behind a
  CRC32, zlib-compressed), the resident sample counts, the evicted-write
  guard, the mapping protocol, the factory and the knob validators;
* a property-based differential suite: random automata are counted under
  the dict store and the windowed store (random window widths, every
  importable backend) and the runs must be bit-identical
  in estimates, full state tables, the algorithm-level work counters and
  the final RNG state.  The store's own ``store_*`` counters are
  representation diagnostics and are *excluded* from parity — they are
  exactly what is allowed to differ.
"""

from __future__ import annotations

import pickle
import random
import zlib

import pytest

from repro.automata.families import substring_nfa
from repro.automata.random_gen import random_nonempty_nfa
from repro.counting.api import CountRequest, count, request_fingerprint
from repro.counting.fpras import NFACounter
from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.policy import ExecutionPolicy
from repro.counting.store import (
    DEFAULT_WINDOW,
    RAW_SPILL_LIMIT,
    DictStore,
    WindowedStore,
    create_store,
    validate_store,
    validate_window,
)
from repro.errors import ParameterError, ReproError

#: Work counters that are part of the parity contract (algorithm-level, in
#: contrast to the ``store_*`` / engine diagnostics that may differ).
WORK_COUNTERS = (
    "union_calls",
    "membership_calls",
    "sample_draws",
    "sample_successes",
    "padded_states",
)


# ----------------------------------------------------------------------
# Store unit tests
# ----------------------------------------------------------------------
def test_validate_store_accepts_known_names():
    assert validate_store("dict") == "dict"
    assert validate_store("windowed") == "windowed"


def test_validate_store_rejects_unknown_name():
    with pytest.raises(ParameterError, match="unknown state-table store"):
        validate_store("ram")


@pytest.mark.parametrize("window", [0, -1, True, "4", 2.0, None])
def test_validate_window_rejects_non_positive_ints(window):
    with pytest.raises(ParameterError, match="window must be a positive integer"):
        validate_window(window)


def test_create_store_factory():
    assert isinstance(create_store(), DictStore)
    assert isinstance(create_store("dict"), DictStore)
    windowed = create_store("windowed", window=2)
    assert isinstance(windowed, WindowedStore)
    assert windowed.window == 2
    assert create_store("windowed").window == DEFAULT_WINDOW
    with pytest.raises(ParameterError):
        create_store("mmap")
    windowed.close()


def test_dict_store_is_plain_dicts_with_zero_counters():
    store = DictStore()
    assert type(store.estimates) is dict
    assert type(store.samples) is dict
    assert type(store.sample_counts) is dict
    assert all(value == 0 for value in store.counters().values())
    store.close()  # must be a harmless no-op
    store.close()


def test_windowed_store_spills_and_faults_identically():
    store = WindowedStore(window=2)
    words = {level: [("a",) * level, ("b",) * level] for level in range(5)}
    for level in range(5):
        store.samples[("q", level)] = words[level]
        store.samples[("r", level)] = []
    counters = store.counters()
    # Window 2 over levels 0..4 leaves {3, 4} resident: levels 0..2 spilled.
    assert counters["store_windowed"] == 1
    assert counters["store_spilled_levels"] == 3
    assert counters["store_evicted_entries"] == 6
    assert counters["store_spill_bytes"] > 0
    assert counters["store_level_faults"] == 0
    # Reads below the window fault the level back with identical values.
    for level in range(5):
        assert store.samples[("q", level)] == words[level]
        assert store.samples[("r", level)] == []
    assert store.counters()["store_level_faults"] > 0
    store.close()


def test_windowed_store_rejects_writes_to_evicted_levels():
    store = WindowedStore(window=1)
    store.samples[("q", 0)] = [()]
    store.samples[("q", 1)] = [("a",)]
    with pytest.raises(ReproError, match="evicted"):
        store.samples[("q", 0)] = [("x",)]
    store.close()


def test_windowed_store_mapping_protocol():
    store = WindowedStore(window=2)
    table = store.samples
    payload = {("q", 0): [()], ("r", 0): [()], ("q", 1): [("a",)]}
    for key, value in payload.items():
        table[key] = value
    assert len(table) == 3
    assert ("q", 1) in table
    assert ("missing", 7) not in table
    assert table.get(("missing", 7)) is None
    assert table.get(("missing", 7), "fallback") == "fallback"
    assert sorted(table.keys()) == sorted(payload)
    assert set(iter(table)) == set(payload)
    assert dict(table.items()) == payload
    with pytest.raises(KeyError):
        table[("missing", 7)]
    store.close()
    store.close()  # idempotent


def test_windowed_store_keeps_sample_counts_resident():
    store = WindowedStore(window=2)
    for level in range(6):
        store.samples[("q", level)] = [("a",) * level]
        store.sample_counts[("q", level)] = level + 1
    # The counts are O(n*m) scalars, like the estimates: a plain dict.
    assert type(store.sample_counts) is dict
    assert store.sample_counts == {("q", level): level + 1 for level in range(6)}
    counters = store.counters()
    # Only the sample lists spill: levels 0..3 of six at window 2.
    assert counters["store_spilled_levels"] == 4
    assert counters["store_evicted_entries"] == 4
    # Cold iteration faults the sample lists back, values intact.
    assert dict(store.samples) == {
        ("q", level): [("a",) * level] for level in range(6)
    }
    assert store.counters()["store_level_faults"] > 0
    store.close()


def test_windowed_len_faults_no_spilled_level_back():
    store = WindowedStore(window=2)
    for level in range(6):
        store.samples[("q", level)] = [("a",) * level]
        store.samples[("r", level)] = []
        store.sample_counts[("q", level)] = level + 1
    assert store.counters()["store_spilled_levels"] == 4
    assert len(store.samples) == 12
    assert len(store.sample_counts) == 6
    assert store.counters()["store_level_faults"] == 0
    store.close()


def _spilled_store():
    """A window-1 store whose levels 0 and 1 sit in the spill file."""
    store = WindowedStore(window=1)
    for level in range(3):
        store.samples[("q", level)] = [("a",) * level]
    assert store.counters()["store_spilled_levels"] == 2
    return store


def test_truncated_spill_raises_typed_error():
    store = _spilled_store()
    table = store.samples
    offset, length, _ = table._spill_index[1]
    table._spill_file.truncate(offset + length - 1)
    with pytest.raises(ReproError, match="level 1 is truncated"):
        table[("q", 1)]
    store.close()


def test_corrupt_spill_raises_typed_error():
    store = _spilled_store()
    table = store.samples
    offset, length, _ = table._spill_index[0]
    spill = table._spill_file
    spill.seek(offset)
    payload = spill.read(length)
    spill.seek(offset + 2)
    spill.write(bytes(byte ^ 0xFF for byte in payload[2:]))
    with pytest.raises(ReproError, match="level 0 is corrupt"):
        table.get(("q", 0))
    store.close()


def test_raw_spill_checksum_catches_a_value_change():
    # A changed symbol leaves a valid pickle of a wrong word: only the
    # CRC32 can tell.
    store = WindowedStore(window=1)
    store.samples[("q", 0)] = [("symbol-A",)]
    store.samples[("q", 1)] = [("symbol-A", "symbol-A")]
    table = store.samples
    offset, length, _ = table._spill_index[0]
    spill = table._spill_file
    spill.seek(offset)
    payload = spill.read(length)
    spill.seek(offset + payload.index(b"symbol-A") + len("symbol-"))
    spill.write(b"B")
    with pytest.raises(ReproError, match="level 0 is corrupt"):
        table[("q", 0)]
    store.close()


def _spill_payloads(table):
    """Each spilled level's payload, read through the spill index."""
    payloads = {}
    for level, (offset, length, _) in table._spill_index.items():
        table._spill_file.seek(offset)
        payloads[level] = table._spill_file.read(length)
    return payloads


def _is_raw(payload):
    """A zero tag byte, then the CRC32 of the pickle that follows."""
    checksum = int.from_bytes(payload[1:5], "big")
    return payload[0] == 0 and zlib.crc32(payload[5:]) == checksum


def _large_words(level):
    """40 distinct words: a level that pickles to over RAW_SPILL_LIMIT bytes."""
    return [tuple(format(index + level, "064b")) for index in range(40)]


def _large_spilled_store():
    """A window-1 store whose large levels 0 and 1 sit in the spill file."""
    store = WindowedStore(window=1)
    for level in range(3):
        store.samples[("q", level)] = _large_words(level)
    return store


def test_large_level_spills_compressed_and_faults_back_equal():
    store = _large_spilled_store()
    table = store.samples
    payloads = _spill_payloads(table)
    assert sorted(payloads) == [0, 1]
    for level, payload in payloads.items():
        entries = {("q", level): _large_words(level)}
        pickled = pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(pickled) >= RAW_SPILL_LIMIT
        assert not _is_raw(payload)
        assert pickle.loads(zlib.decompress(payload)) == entries
        assert table[("q", level)] == _large_words(level)
    assert store.counters()["store_level_faults"] == 2
    store.close()


def test_small_levels_spill_raw():
    # The fault-injection tests above corrupt these payloads, so they
    # exercise the raw format's CRC32 and length checks.
    store = _spilled_store()
    payloads = _spill_payloads(store.samples)
    assert sorted(payloads) == [0, 1]
    assert all(_is_raw(payload) for payload in payloads.values())
    store.close()


def test_corrupt_compressed_spill_raises_typed_error():
    store = _large_spilled_store()
    table = store.samples
    offset, length, _ = table._spill_index[1]
    spill = table._spill_file
    spill.seek(offset)
    payload = spill.read(length)
    spill.seek(offset + 2)
    spill.write(bytes(byte ^ 0xFF for byte in payload[2:]))
    with pytest.raises(ReproError, match="level 1 is corrupt"):
        table[("q", 1)]
    store.close()


def test_truncated_compressed_spill_raises_typed_error():
    store = _large_spilled_store()
    table = store.samples
    offset, length, _ = table._spill_index[1]
    table._spill_file.truncate(offset + length - 1)
    with pytest.raises(ReproError, match="level 1 is truncated"):
        table.get(("q", 1))
    store.close()


def test_spilled_read_after_close_raises_typed_error():
    store = _spilled_store()
    store.close()
    assert store.samples[("q", 2)] == [("a", "a")]  # resident levels stay readable
    with pytest.raises(ReproError, match="level 0 .*closed"):
        ("q", 0) in store.samples


# ----------------------------------------------------------------------
# Differential suite: dict vs windowed must be bit-identical
# ----------------------------------------------------------------------
def _scale() -> ParameterScale:
    """A small scaled configuration so each differential run takes ~ms."""
    return ParameterScale(
        mode="scaled", sample_cap=4, attempt_factor=2.0,
        union_trial_cap=8, union_trial_floor=2,
    )


def _run_counter(nfa, length, *, store, window=DEFAULT_WINDOW, backend=None,
                 seed=20240727, scale=None, inspect=None):
    """One serial FPRAS run; returns every parity-relevant observable.

    ``inspect``, when given, is called with the store before it is closed.
    """
    parameters = FPRASParameters(
        epsilon=0.6,
        delta=0.2,
        seed=seed,
        scale=scale if scale is not None else _scale(),
    )
    policy = ExecutionPolicy(
        backend=backend, use_engine_cache=False, store=store, window=window
    )
    counter = NFACounter(nfa, length, parameters=parameters, policy=policy)
    result = counter.run()
    observed = {
        "estimate": result.estimate,
        "state_estimates": dict(result.state_estimates),
        "sample_counts": dict(result.sample_counts),
        "work": {name: getattr(result, name) for name in WORK_COUNTERS},
        "rng_state": counter.rng.getstate(),
    }
    store_counters = counter.store.counters()
    if inspect is not None:
        inspect(counter.store)
    counter.store.close()
    return observed, store_counters


def test_windowed_store_matches_dict_store_on_random_nfas():
    """Property suite: random automata x random windows, serial runs."""
    driver = random.Random(987)
    for trial in range(4):
        nfa = random_nonempty_nfa(
            num_states=driver.randint(3, 6),
            length=10,
            density=driver.uniform(0.25, 0.5),
            seed=driver.randrange(2**32),
        )
        window = driver.choice([1, 2, 3, 7])
        resident, _ = _run_counter(nfa, 10, store="dict")
        windowed, counters = _run_counter(nfa, 10, store="windowed", window=window)
        assert windowed == resident, (
            f"trial {trial}: windowed(window={window}) diverged from dict"
        )
        if window < 10:
            assert counters["store_spilled_levels"] > 0


@pytest.mark.parametrize("backend", ["bitset", "reference"])
def test_windowed_store_matches_dict_store_per_backend(backend):
    nfa = random_nonempty_nfa(num_states=5, length=9, seed=321)
    resident, _ = _run_counter(nfa, 9, store="dict", backend=backend)
    windowed, _ = _run_counter(nfa, 9, store="windowed", window=2, backend=backend)
    assert windowed == resident


def test_windowed_store_matches_dict_store_in_both_spill_formats():
    """At n = 40 under the default scale, early levels pickle small and
    spill raw, later ones spill compressed, and the descent faults both
    kinds back: the results must still equal the dict store's."""
    nfa = substring_nfa("101")
    scale = ParameterScale.practical()
    resident, _ = _run_counter(nfa, 40, store="dict", seed=3, scale=scale)
    payloads = {}
    windowed, counters = _run_counter(
        nfa, 40, store="windowed", window=2, seed=3, scale=scale,
        inspect=lambda store: payloads.update(_spill_payloads(store.samples)),
    )
    assert windowed == resident
    assert len(payloads) == counters["store_spilled_levels"] == 39
    compressed = [payload for payload in payloads.values() if not _is_raw(payload)]
    assert 0 < len(compressed) < len(payloads)
    for payload in compressed:
        assert isinstance(pickle.loads(zlib.decompress(payload)), dict)
    assert counters["store_level_faults"] > 0


def test_store_knobs_are_fingerprint_neutral():
    """``store`` / ``window`` / ``details`` never change the request
    fingerprint — the serving cache may answer across store configs."""
    from repro.automata.families import no_consecutive_ones_nfa
    from repro.automata.serialization import nfa_to_dict

    document = nfa_to_dict(no_consecutive_ones_nfa())
    base = CountRequest(method="fpras", seed=3)
    variants = [
        CountRequest(method="fpras", seed=3,
                     policy=ExecutionPolicy(store="windowed", window=2)),
        CountRequest(method="fpras", seed=3, options={"details": "summary"}),
    ]
    fingerprints = {request_fingerprint(document, 6, req)
                    for req in [base] + variants}
    assert len(fingerprints) == 1
    changed = CountRequest(method="fpras", seed=4)
    assert request_fingerprint(document, 6, changed) not in fingerprints


def test_summary_details_round_trip_under_windowed_store():
    nfa = random_nonempty_nfa(num_states=4, length=7, seed=17)
    policy = ExecutionPolicy(store="windowed", window=2)
    full = count(nfa, 7, method="fpras", epsilon=0.6, seed=5,
                 policy=policy, scale=_scale())
    summary = count(nfa, 7, method="fpras", epsilon=0.6, seed=5,
                    policy=policy, details="summary", scale=_scale())
    assert summary.estimate == full.estimate
    assert summary.raw.state_estimates == {}
    assert summary.raw.sample_counts == {}
    assert summary.raw.table_summary["final_level_estimates"]
    restored = type(summary).from_dict(summary.to_dict())
    assert restored.estimate == summary.estimate
    assert restored.raw.table_summary == summary.raw.table_summary


def test_matrix_manifests_group_dict_vs_windowed():
    """Per-group audit manifests: the windowed matrix reproduces the dict
    matrix scenario-for-scenario (same ids, fingerprints, estimates)."""
    from repro.audit.manifest import run_matrix

    base_spec = {
        "families": [
            {"family": "random_nfa",
             "args": {"num_states": 4, "seed": 7}, "lengths": [7]},
        ],
        "methods": ["fpras"],
        "accuracy": [{"epsilon": 0.6, "delta": 0.2}],
        "seeds": [1, 2],
        "scale": {"sample_cap": 4, "union_trial_cap": 8},
    }
    windowed_spec = dict(base_spec)
    windowed_spec["options"] = {"fpras": {"store": "windowed", "window": 2}}
    resident = run_matrix(base_spec)["scenarios"]
    windowed = run_matrix(windowed_spec)["scenarios"]
    assert len(resident) == len(windowed) == 2
    for lhs, rhs in zip(resident, windowed):
        assert lhs["id"] == rhs["id"]
        assert lhs["group"] == rhs["group"]
        assert lhs["fingerprint"] == rhs["fingerprint"]
        assert lhs["estimate"] == rhs["estimate"]
        assert rhs["spec"]["options"]["store"] == "windowed"
