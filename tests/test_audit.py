"""Tests for the audit pipeline: manifests, scenario matrices, drift gates.

Three layers of coverage:

* **Property-based round-trips** — a Hypothesis-style seeded generator
  draws adversarial floats (negative zero, subnormals, huge exponents,
  infinities) and random report shapes, and asserts that
  ``CountReport.to_dict``/``from_dict`` and the manifest schema survive a
  JSON round trip bit-exactly.  The generator is deterministic (one seeded
  stream, no external dependency), so a failure is a regression, not a
  flake.
* **Schema and matrix semantics** — manifest validation rejects every
  malformed document shape; one spec dict expands factorially into the
  declared number of scenarios with stable, unique ids.
* **The gate itself gets tested** — ``audit.diff`` passes an identical
  manifest pair and flags synthetically perturbed ones (inflated wall
  time, estimate nudged past epsilon, dropped scenario, delta-coverage
  shortfall), including through the ``repro audit-diff`` CLI exit code.
"""

from __future__ import annotations

import copy
import json
import math
import random

import pytest

from repro.audit.diff import DiffThresholds, diff_manifests
from repro.audit.manifest import (
    ManifestBuilder,
    load_manifest,
    manifest_filename,
    run_matrix,
    validate_manifest,
    write_manifest,
)
from repro.audit.scenarios import DEFAULT_MATRIX, Scenario, expand_matrix
from repro.cli import main as cli_main
from repro.counting.api import CountingSession, CountReport
from repro.errors import AuditError

# ----------------------------------------------------------------------
# Hypothesis-style strategies: seeded draws over adversarial values
# ----------------------------------------------------------------------
#: Floats chosen to break naive serialisation: signed zeros, the smallest
#: subnormals, numbers at both ends of the exponent range, infinities, and
#: values with no short decimal form.
ADVERSARIAL_FLOATS = [
    0.0,
    -0.0,
    5e-324,                     # smallest positive subnormal
    -5e-324,
    2.2250738585072014e-308,    # smallest positive normal
    1.7976931348623157e308,     # largest finite
    -1.7976931348623157e308,
    float("inf"),
    float("-inf"),
    0.1 + 0.2,                  # 0.30000000000000004
    1.0 / 3.0,
    9007199254740993.0,         # above 2**53
]


def draw_float(rng: random.Random, finite: bool = False) -> float:
    """One adversarial or random-exponent float from the seeded stream."""
    if rng.random() < 0.5:
        value = rng.choice(ADVERSARIAL_FLOATS)
        if finite and not math.isfinite(value):
            return 0.0
        return value
    return math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1020, 1020))


def draw_report(rng: random.Random) -> CountReport:
    """One random report shape with adversarial floats in every slot."""
    has_bounds = rng.random() < 0.5
    return CountReport(
        estimate=draw_float(rng),
        method=rng.choice(["fpras", "acjr", "montecarlo", "bruteforce", "exact"]),
        length=rng.randint(0, 10_000),
        num_states=rng.randint(1, 10_000),
        elapsed_seconds=draw_float(rng, finite=True),
        backend=rng.choice([None, "bitset", "numpy", "reference"]),
        epsilon=draw_float(rng, finite=True) if has_bounds else None,
        delta=rng.uniform(1e-9, 1.0) if has_bounds else None,
        exact=rng.random() < 0.2,
        engine_counters={f"counter_{i}": rng.randint(0, 2**62) for i in range(rng.randint(0, 4))},
        details={
            "nested": {"floats": [draw_float(rng) for _ in range(3)]},
            "text": "adversarial",
            "none": None,
        },
        raw=rng.choice([None, rng.randint(0, 2**200)]),
    )


class TestCountReportRoundTrip:
    def test_adversarial_float_round_trips_bit_exactly(self):
        rng = random.Random(0xA0D17)
        for case in range(200):
            report = draw_report(rng)
            document = json.loads(json.dumps(report.to_dict()))
            rebuilt = CountReport.from_dict(document)
            # repr equality is bit-exactness for floats (covers -0.0, which
            # compares equal to 0.0 under ==).
            assert repr(rebuilt.estimate) == repr(report.estimate), case
            assert repr(rebuilt.elapsed_seconds) == repr(report.elapsed_seconds)
            assert repr(rebuilt.epsilon) == repr(report.epsilon)
            assert rebuilt == report, case

    def test_negative_zero_estimate_keeps_its_sign(self):
        report = draw_report(random.Random(1))
        report.estimate = -0.0
        rebuilt = CountReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert math.copysign(1.0, rebuilt.estimate) == -1.0

    def test_none_error_bounds_round_trip(self):
        report = draw_report(random.Random(2))
        report.epsilon = None
        report.delta = None
        report.exact = False
        assert report.error_bounds() is None
        document = report.to_dict()
        assert document["error_bounds"] is None
        assert CountReport.from_dict(document).error_bounds() is None

    def test_empty_counters_and_details_round_trip(self):
        report = draw_report(random.Random(3))
        report.engine_counters = {}
        report.details = {}
        rebuilt = CountReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert rebuilt.engine_counters == {}
        assert rebuilt.details == {}

    def test_audit_summary_is_json_representable(self):
        rng = random.Random(4)
        for _ in range(50):
            summary = draw_report(rng).audit_summary()
            assert json.loads(json.dumps(summary))["method"] == summary["method"]


# ----------------------------------------------------------------------
# Shared tiny manifest fixtures (one real run, reused by every test)
# ----------------------------------------------------------------------
TINY_SPEC = {
    "families": [{"family": "parity", "args": {}, "lengths": [6]}],
    "methods": ["fpras", "montecarlo"],
    "accuracy": [{"epsilon": 0.5, "delta": 0.25}],
    "seeds": [1, 2],
    "options": {"montecarlo": {"num_samples": 300}},
    "scale": {"sample_cap": 6, "union_trial_cap": 8},
}


@pytest.fixture(scope="module")
def tiny_manifest():
    """One real manifest over a 4-scenario matrix (seconds, not minutes)."""
    return run_matrix(TINY_SPEC, repeats=2)


class TestManifestSchema:
    def test_manifest_validates_and_json_round_trips(self, tiny_manifest):
        validate_manifest(tiny_manifest)
        rebuilt = json.loads(json.dumps(tiny_manifest))
        validate_manifest(rebuilt)
        assert rebuilt["summary"] == json.loads(json.dumps(tiny_manifest["summary"]))

    def test_records_carry_the_audit_trail(self, tiny_manifest):
        for record in tiny_manifest["scenarios"]:
            assert record["fingerprint"] is not None and len(record["fingerprint"]) == 64
            assert record["exact"] is not None  # parity n=6 has ground truth
            assert record["relative_error"] is not None and record["relative_error"] >= 0
            assert record["repeats"] == 2 == len(record["timings"])
            assert record["report"]["estimate"] == record["estimate"]
        env = tiny_manifest["environment"]
        assert env["python"] and "cpu_count" in env

    def test_fpras_records_carry_guarantee_montecarlo_does_not(self, tiny_manifest):
        by_method = {}
        for record in tiny_manifest["scenarios"]:
            by_method.setdefault(record["spec"]["method"], record)
        assert by_method["fpras"]["within_epsilon"] in (True, False)
        assert by_method["fpras"]["report"]["epsilon"] == 0.5
        assert by_method["montecarlo"]["within_epsilon"] is None
        assert by_method["montecarlo"]["report"]["epsilon"] is None

    def test_repeats_share_one_estimate(self):
        once = run_matrix(TINY_SPEC, repeats=1)
        twice = run_matrix(TINY_SPEC, repeats=3)
        for a, b in zip(once["scenarios"], twice["scenarios"]):
            assert a["id"] == b["id"]
            assert a["estimate"] == b["estimate"]  # seeded determinism

    @pytest.mark.parametrize(
        "mutate,match",
        [
            (lambda d: d.__setitem__("kind", "nope"), "kind"),
            (lambda d: d.__setitem__("schema", 99), "schema"),
            (lambda d: d.pop("environment"), "environment"),
            (lambda d: d.pop("summary"), "summary"),
            (lambda d: d["scenarios"][0].pop("fingerprint"), "missing field"),
            (lambda d: d["scenarios"][0].__setitem__("id", d["scenarios"][1]["id"]),
             "duplicate"),
            (lambda d: d["scenarios"][0].__setitem__("repeats", 5), "disagrees"),
            (lambda d: d["scenarios"][0].__setitem__("relative_error", -0.5),
             "relative_error"),
            (lambda d: d["summary"].__setitem__("scenario_count", 99), "scenario_count"),
        ],
    )
    def test_validation_rejects_malformed_documents(self, tiny_manifest, mutate, match):
        document = copy.deepcopy(tiny_manifest)
        mutate(document)
        with pytest.raises(AuditError, match=match):
            validate_manifest(document)

    def test_property_random_record_corruption_is_caught_or_harmless(self, tiny_manifest):
        """Dropping any required record field must raise, never pass silently."""
        for field in ("id", "group", "spec", "estimate", "timings", "report"):
            document = copy.deepcopy(tiny_manifest)
            document["scenarios"][0].pop(field)
            with pytest.raises(AuditError):
                validate_manifest(document)

    def test_write_is_append_only(self, tiny_manifest, tmp_path):
        path = write_manifest(tiny_manifest, str(tmp_path))
        assert path.endswith(manifest_filename(tiny_manifest))
        with pytest.raises(AuditError, match="append-only"):
            write_manifest(tiny_manifest, path)
        # Explicit overwrite remains possible, and load round-trips.
        write_manifest(tiny_manifest, path, overwrite=True)
        loaded = load_manifest(path)
        assert loaded["scenarios"] == json.loads(json.dumps(tiny_manifest["scenarios"]))

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(AuditError, match="cannot read"):
            load_manifest(str(path))


class TestScenarioMatrix:
    def test_default_matrix_size_is_the_factorial_product(self):
        scenarios = expand_matrix(DEFAULT_MATRIX)
        assert len(scenarios) == 4 * 2 * 1 * 1 * 1 * 5  # families x methods x seeds
        ids = [scenario.scenario_id for scenario in scenarios]
        assert len(set(ids)) == len(ids)

    def test_expansion_is_deterministic(self):
        first = [s.scenario_id for s in expand_matrix(DEFAULT_MATRIX)]
        second = [s.scenario_id for s in expand_matrix(DEFAULT_MATRIX)]
        assert first == second

    def test_group_id_is_seed_blind(self):
        scenarios = expand_matrix(TINY_SPEC)
        groups = {}
        for scenario in scenarios:
            groups.setdefault(scenario.group_id, []).append(scenario.seed)
        assert all(len(seeds) == 2 for seeds in groups.values())

    def test_describe_round_trips(self):
        for scenario in expand_matrix(TINY_SPEC):
            rebuilt = Scenario.from_describe(
                json.loads(json.dumps(scenario.describe()))
            )
            assert rebuilt.scenario_id == scenario.scenario_id
            assert rebuilt.describe() == scenario.describe()

    def test_fingerprint_is_stable_and_seed_sensitive(self):
        scenarios = expand_matrix(TINY_SPEC)
        fingerprints = {}
        for scenario in scenarios:
            nfa = scenario.build_nfa()
            from repro.automata.serialization import nfa_to_dict
            from repro.counting.api import request_fingerprint

            fingerprint = request_fingerprint(
                nfa_to_dict(nfa), scenario.length, scenario.fingerprint_request()
            )
            assert fingerprint is not None
            fingerprints[scenario.scenario_id] = fingerprint
        assert len(set(fingerprints.values())) == len(fingerprints)

    @pytest.mark.parametrize(
        "spec,match",
        [
            ({}, "families"),
            ({"families": []}, "families"),
            ({"families": ["parity"], "methods": []}, "methods"),
            ({"families": ["parity"], "accuracy": []}, "accuracy"),
            ({"families": ["parity"], "bogus_axis": [1]}, "unknown matrix spec"),
            ({"families": [{"args": {}}]}, "family"),
            ({"families": ["no_such_family"]}, "unknown family"),
            ({"families": ["parity"], "methods": ["no_such_method"]}, "unknown method"),
            ({"families": ["parity"], "backends": ["no_such_backend"]},
             "unknown backend"),
            ({"families": ["parity"], "backends": ["numpy"]}, "unknown backend"),
        ],
    )
    def test_bad_specs_fail_loudly(self, spec, match):
        with pytest.raises(AuditError, match=match):
            expand_matrix(spec)

    def test_duplicate_seeds_are_rejected(self):
        spec = dict(TINY_SPEC, seeds=[1, 1])
        with pytest.raises(AuditError, match="duplicate"):
            expand_matrix(spec)


class TestSessionManifestHooks:
    def test_observer_sees_every_count_and_detaches(self):
        from repro.automata.families import parity_nfa

        session = CountingSession(epsilon=0.5, seed=5)
        seen = []
        detach = session.add_observer(
            lambda nfa, length, request, report: seen.append(
                (length, request.method, report.estimate)
            )
        )
        report = session.count(parity_nfa(2), 5, method="exact")
        assert seen == [(5, "exact", report.estimate)]
        detach()
        session.count(parity_nfa(2), 5, method="exact")
        assert len(seen) == 1

    def test_manifest_builder_attaches_to_a_session(self):
        from repro.automata.families import parity_nfa

        scenario = Scenario(
            family="parity", length=5, method="exact", epsilon=0.5, delta=0.1, seed=0
        )
        builder = ManifestBuilder(matrix=None)
        session = CountingSession(epsilon=0.5, seed=0)
        builder.attach(
            session, lambda nfa, length, request, report: scenario
        )
        session.count(parity_nfa(2), 5, method="exact")
        manifest = builder.build()
        validate_manifest(manifest)
        assert len(manifest["scenarios"]) == 1
        assert manifest["scenarios"][0]["relative_error"] == 0.0


# ----------------------------------------------------------------------
# The gate itself gets tested
# ----------------------------------------------------------------------
def _perturb_speed(document, factor=1.6):
    record = document["scenarios"][0]
    record["timings"] = [t * factor for t in record["timings"]]
    record["elapsed_seconds"] *= factor
    return record["id"]


def _perturb_estimate_past_epsilon(document):
    for record in document["scenarios"]:
        if record["report"]["epsilon"] is None or record["exact"] in (None, 0):
            continue
        epsilon = record["spec"]["epsilon"]
        record["estimate"] = record["exact"] * (1.0 + epsilon) * 1.25
        record["relative_error"] = abs(record["estimate"] - record["exact"]) / record["exact"]
        record["within_epsilon"] = False
        record["report"]["estimate"] = record["estimate"]
        return record["id"]
    raise AssertionError("fixture manifest has no guaranteed record to perturb")


class TestAuditDiffGate:
    def test_identical_manifests_pass(self, tiny_manifest):
        diff = diff_manifests(tiny_manifest, copy.deepcopy(tiny_manifest))
        assert diff.ok
        assert "no regressions" in diff.format()

    def test_inflated_wall_time_is_flagged(self, tiny_manifest):
        slowed = copy.deepcopy(tiny_manifest)
        # Lift the baseline above the noise floor so the check is exercised
        # even though the fixture runs take milliseconds.
        baseline = copy.deepcopy(tiny_manifest)
        for record in baseline["scenarios"]:
            record["elapsed_seconds"] = max(record["elapsed_seconds"], 0.05)
        for record in slowed["scenarios"]:
            record["elapsed_seconds"] = max(record["elapsed_seconds"], 0.05)
        slow_id = _perturb_speed(slowed)
        diff = diff_manifests(baseline, slowed)
        assert not diff.ok
        assert any(r.kind == "speed" and r.subject == slow_id for r in diff.regressions)

    def test_small_slowdowns_below_threshold_pass(self, tiny_manifest):
        slowed = copy.deepcopy(tiny_manifest)
        for record in slowed["scenarios"]:
            record["elapsed_seconds"] *= 1.10  # inside the 25% budget
            record["timings"] = [t * 1.10 for t in record["timings"]]
        assert diff_manifests(tiny_manifest, slowed).ok

    def test_estimate_nudged_past_epsilon_is_flagged(self, tiny_manifest):
        drifted = copy.deepcopy(tiny_manifest)
        bad_id = _perturb_estimate_past_epsilon(drifted)
        diff = diff_manifests(tiny_manifest, drifted)
        assert not diff.ok
        assert any(
            r.kind == "accuracy" and r.subject == bad_id for r in diff.regressions
        )

    def test_montecarlo_error_does_not_hard_fail(self, tiny_manifest):
        drifted = copy.deepcopy(tiny_manifest)
        for record in drifted["scenarios"]:
            if record["spec"]["method"] == "montecarlo":
                record["estimate"] = record["exact"] * 3.0
                record["relative_error"] = 2.0
        diff = diff_manifests(tiny_manifest, drifted)
        assert all(r.kind != "accuracy" for r in diff.regressions)

    def test_missing_scenario_is_a_coverage_regression(self, tiny_manifest):
        shrunk = copy.deepcopy(tiny_manifest)
        dropped = shrunk["scenarios"].pop()
        shrunk["summary"]["scenario_count"] -= 1
        diff = diff_manifests(tiny_manifest, shrunk)
        assert any(
            r.kind == "coverage" and r.subject == dropped["id"]
            for r in diff.regressions
        )

    def test_manifests_written_with_a_workers_field_still_join(self, tiny_manifest):
        """Earlier manifests spell ``"workers": 1`` in every spec; they still
        validate and join this build's scenario by scenario."""
        assert all("workers" not in record["spec"] for record in tiny_manifest["scenarios"])
        earlier = copy.deepcopy(tiny_manifest)
        for record in earlier["scenarios"]:
            record["spec"]["workers"] = 1
        validate_manifest(earlier)
        diff = diff_manifests(earlier, tiny_manifest)
        assert not any(r.kind == "coverage" for r in diff.regressions)
        assert diff.ok

    def test_added_scenarios_are_notes_not_regressions(self, tiny_manifest):
        grown = copy.deepcopy(tiny_manifest)
        baseline = copy.deepcopy(tiny_manifest)
        dropped = baseline["scenarios"].pop()
        baseline["summary"]["scenario_count"] -= 1
        diff = diff_manifests(baseline, grown)
        assert diff.ok
        assert any(dropped["id"] in note for note in diff.notes)

    def test_delta_coverage_shortfall_is_flagged(self, tiny_manifest):
        drifted = copy.deepcopy(tiny_manifest)
        # Push every fpras seed outside the guarantee: failure fraction 1.0.
        for record in drifted["scenarios"]:
            if record["report"]["epsilon"] is not None:
                record["within_epsilon"] = False
        from repro.audit.manifest import summarise_records

        drifted["summary"] = summarise_records(drifted["scenarios"])
        diff = diff_manifests(tiny_manifest, drifted)
        assert any(r.kind == "delta-coverage" for r in diff.regressions)

    def test_epsilon_utilisation_creep_is_flagged(self, tiny_manifest):
        baseline = copy.deepcopy(tiny_manifest)
        drifted = copy.deepcopy(tiny_manifest)
        for name, group in baseline["summary"]["groups"].items():
            if group["method"] == "fpras":
                group["epsilon_utilisation"] = 0.5
        for name, group in drifted["summary"]["groups"].items():
            if group["method"] == "fpras":
                group["epsilon_utilisation"] = 0.95  # toward the cliff edge
        diff = diff_manifests(baseline, drifted)
        assert any(r.kind == "accuracy-drift" for r in diff.regressions)

    def test_thresholds_are_honoured(self, tiny_manifest):
        slowed = copy.deepcopy(tiny_manifest)
        for record in slowed["scenarios"]:
            record["elapsed_seconds"] = max(record["elapsed_seconds"], 0.05) * 1.4
            record["timings"] = [record["elapsed_seconds"]]
            record["repeats"] = 1
        baseline = copy.deepcopy(tiny_manifest)
        for record in baseline["scenarios"]:
            record["elapsed_seconds"] = max(record["elapsed_seconds"], 0.05)
        assert not diff_manifests(baseline, slowed).ok
        lenient = DiffThresholds(speed_regression=0.60)
        assert diff_manifests(baseline, slowed, lenient).ok


class TestAuditCLI:
    def test_audit_writes_a_valid_manifest(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(TINY_SPEC))
        out_path = tmp_path / "manifest.json"
        exit_code = cli_main(
            ["audit", "--matrix", str(spec_path), "--output", str(out_path)]
        )
        assert exit_code == 0
        manifest = load_manifest(str(out_path))
        assert manifest["summary"]["scenario_count"] == 4
        assert "per-group accuracy summary" in capsys.readouterr().out

    def test_audit_refuses_to_overwrite_without_force(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(TINY_SPEC))
        out_path = tmp_path / "manifest.json"
        assert cli_main(["audit", "--matrix", str(spec_path),
                         "--output", str(out_path)]) == 0
        assert cli_main(["audit", "--matrix", str(spec_path),
                         "--output", str(out_path)]) == 2  # ReproError exit
        assert cli_main(["audit", "--matrix", str(spec_path),
                         "--output", str(out_path), "--force"]) == 0

    def test_audit_diff_exit_codes(self, tiny_manifest, tmp_path, capsys):
        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        write_manifest(tiny_manifest, str(old_path))
        drifted = copy.deepcopy(tiny_manifest)
        _perturb_estimate_past_epsilon(drifted)
        write_manifest(drifted, str(new_path))
        assert cli_main(["audit-diff", str(old_path), str(old_path)]) == 0
        assert cli_main(["audit-diff", str(old_path), str(new_path)]) == 1
        assert "[accuracy]" in capsys.readouterr().out

    def test_audit_diff_rejects_non_manifests(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": 1}))
        assert cli_main(["audit-diff", str(bogus), str(bogus)]) == 2
