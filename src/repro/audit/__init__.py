"""Auditable experiment pipeline: manifests, scenario matrices, drift gates.

The package turns "the parity suite passed today" into a continuously
audited claim:

* :mod:`repro.audit.scenarios` expands one declarative spec dictionary
  into a factorial scenario matrix (method x backend x
  ``(epsilon, delta)`` x automaton family x seed);
* :mod:`repro.audit.manifest` runs matrices through the unified counting
  facade and emits one append-only JSON manifest per run — git revision,
  interpreter versions, per-scenario workload fingerprints, estimates vs.
  exact ground truth, observed relative error against the epsilon bound,
  wall times and engine-counter deltas;
* :mod:`repro.audit.diff` compares two manifests and fails on speed
  regressions, epsilon violations, accuracy drift toward the bound, and
  delta-coverage shortfall across the seed sweep — the ``repro
  audit-diff`` CI gate.
"""

from repro.audit.diff import DiffThresholds, ManifestDiff, Regression, diff_manifests
from repro.audit.manifest import (
    MANIFEST_SCHEMA_VERSION,
    ManifestBuilder,
    build_manifest,
    environment,
    load_manifest,
    manifest_digest,
    manifest_filename,
    run_matrix,
    run_scenarios,
    scenario_record,
    summarise_records,
    validate_manifest,
    write_manifest,
)
from repro.audit.scenarios import DEFAULT_MATRIX, Scenario, expand_matrix

__all__ = [
    "DEFAULT_MATRIX",
    "DiffThresholds",
    "ManifestBuilder",
    "ManifestDiff",
    "MANIFEST_SCHEMA_VERSION",
    "Regression",
    "Scenario",
    "build_manifest",
    "diff_manifests",
    "environment",
    "expand_matrix",
    "load_manifest",
    "manifest_digest",
    "manifest_filename",
    "run_matrix",
    "run_scenarios",
    "scenario_record",
    "summarise_records",
    "validate_manifest",
    "write_manifest",
]
