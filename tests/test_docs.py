"""Documentation gates: doctests, docstring coverage and docs/ integrity.

The reference documentation added with the batching/registry work must not
rot: this module runs the public-API doctests as part of tier-1 (CI
additionally runs ``pytest --doctest-modules`` on the same files), enforces
the docstring-coverage floor via :mod:`tools.check_docstrings`, and checks
that the ``docs/`` subsystem exists and is cross-linked from the README.
"""

from __future__ import annotations

import doctest
import importlib
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Public-API modules whose docstring examples must stay runnable: the
#: files CI's "Public-API doctests" step runs.
DOCTEST_MODULES = [
    "repro.automata.engine",
    "repro.automata.bitset",
    "repro.automata.block",
    "repro.counting.params",
    "repro.counting.montecarlo",
    "repro.counting.sampler",
    "repro.counting.store",
    "repro.counting.union",
    "repro.counting.fpras",
    "repro.counting.api",
    "repro.counting.policy",
    "repro.audit.scenarios",
    "repro.audit.manifest",
    "repro.audit.diff",
    "repro.corpus.registry",
    "repro.serve.cache",
    "repro.serve.queue",
]

#: The floor CI enforces with ``tools/check_docstrings.py --fail-under 80``.
COVERAGE_FLOOR = 80.0


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module_name} has no doctest examples"
    assert results.failed == 0, f"{module_name}: {results.failed} doctest failures"


def _load_checker():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        return importlib.import_module("check_docstrings")
    finally:
        sys.path.pop(0)


def test_docstring_coverage_floor():
    checker = _load_checker()
    documented = 0
    documentable = 0
    for path in checker.iter_python_files([str(REPO_ROOT / "src" / "repro")]):
        file_documented, file_documentable, _missing = checker.audit_file(path)
        documented += file_documented
        documentable += file_documentable
    coverage = 100.0 * documented / documentable
    assert coverage >= COVERAGE_FLOOR, (
        f"docstring coverage {coverage:.1f}% fell below {COVERAGE_FLOOR}% "
        f"({documented}/{documentable}); run "
        f"`python tools/check_docstrings.py --verbose src/repro` for the list"
    )


def test_checker_cli_contract():
    checker = _load_checker()
    target = str(REPO_ROOT / "src" / "repro" / "automata" / "engine.py")
    assert checker.main(["--fail-under", "10", target]) == 0
    assert checker.main(["--fail-under", "100.1", target]) == 1


def test_docs_subsystem_exists_and_is_linked():
    architecture = REPO_ROOT / "docs" / "architecture.md"
    api = REPO_ROOT / "docs" / "api.md"
    assert architecture.is_file(), "docs/architecture.md is missing"
    assert api.is_file(), "docs/api.md is missing"
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/architecture.md" in readme, "README must link the architecture doc"
    assert "docs/api.md" in readme, "README must link the API reference"
    # The docs must cover the subsystems this layer introduced.
    api_text = api.read_text(encoding="utf-8")
    for symbol in (
        "EngineRegistry",
        "simulate_batch",
        "--no-engine-cache",
        "engine_counters",
        "BlockEngine",
        "nfa_to_text",
    ):
        assert symbol in api_text, f"docs/api.md must document {symbol}"
    architecture_text = architecture.read_text(encoding="utf-8")
    for term in ("batch", "registry", "unroll", "block", "serialization"):
        assert term.lower() in architecture_text.lower(), (
            f"docs/architecture.md must discuss {term}"
        )
