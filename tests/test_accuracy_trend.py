"""Seed-sweep statistical test: the (epsilon, delta) envelope, continuously.

Runs the FPRAS and the Monte-Carlo baseline over 30 seeds on six small
fixture automata with exact ground truth, and asserts the paper's headline
claim operationally: the observed relative error stays within the epsilon
bound for all but at most a delta fraction of seeds.  The per-seed
estimates are additionally locked against a golden fixture
(``tests/fixtures/accuracy_trend_golden.json``), so any change in estimator
behaviour shows up as a *diff* against the goldens — reviewable, explicit —
rather than as a statistical flake.

The whole module is marked ``statistical`` and therefore excluded from
tier-1 (``pytest -x -q``); the CI ``audit`` job runs it with
``pytest -m statistical``.

Regenerating the goldens after an intentional estimator change::

    PYTHONPATH=src python tests/test_accuracy_trend.py --regen
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.automata import families
from repro.automata.exact import count_exact
from repro.automata.random_gen import random_nonempty_nfa
from repro.counting.api import count
from repro.counting.params import ParameterScale

pytestmark = pytest.mark.statistical

#: The sweep: one (epsilon, delta) target over 30 seeds per instance.
EPSILON = 0.4
DELTA = 0.2
SEEDS = 30
SCALE_SPEC = {"sample_cap": 12, "union_trial_cap": 16}
MC_SAMPLES = 8000

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "fixtures", "accuracy_trend_golden.json"
)


def _instances():
    """The fixture automata: overlapping-pattern, counting, modular, and
    dense random NFAs with half their states accepting, whose predecessor
    unions overlap heavily."""
    return [
        ("substring_101_n9", families.substring_nfa("101"), 9),
        ("no_consecutive_ones_n10", families.no_consecutive_ones_nfa(), 10),
        ("divisibility_7_n9", families.divisibility_nfa(7), 9),
    ] + [
        (
            f"random_m{states}_n{length}_seed{seed}",
            random_nonempty_nfa(states, length, 0.12, 0.5, seed=seed),
            length,
        )
        for states, length, seed in ((20, 6, 11), (24, 6, 12), (30, 5, 7))
    ]


def run_sweep():
    """Execute the full seed sweep and return the golden-file document."""
    scale = ParameterScale.practical(**SCALE_SPEC)
    document = {
        "epsilon": EPSILON,
        "delta": DELTA,
        "seeds": SEEDS,
        "scale": SCALE_SPEC,
        "montecarlo_samples": MC_SAMPLES,
        "instances": {},
    }
    for name, nfa, length in _instances():
        exact = count_exact(nfa, length)
        fpras = [
            count(
                nfa, length, method="fpras", epsilon=EPSILON, delta=DELTA,
                seed=seed, scale=scale,
            ).estimate
            for seed in range(SEEDS)
        ]
        montecarlo = [
            count(
                nfa, length, method="montecarlo", seed=seed,
                num_samples=MC_SAMPLES,
            ).estimate
            for seed in range(SEEDS)
        ]
        document["instances"][name] = {
            "exact": exact,
            "fpras": fpras,
            "montecarlo": montecarlo,
        }
    return document


@pytest.fixture(scope="module")
def sweep():
    """The sweep, executed once and shared by every assertion below."""
    return run_sweep()


@pytest.fixture(scope="module")
def golden():
    if not os.path.exists(GOLDEN_PATH):
        pytest.fail(
            f"golden fixture {GOLDEN_PATH} is missing; regenerate it with "
            "`PYTHONPATH=src python tests/test_accuracy_trend.py --regen`"
        )
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _relative_errors(entry, method):
    exact = entry["exact"]
    return [abs(estimate - exact) / exact for estimate in entry[method]]


class TestEpsilonDeltaEnvelope:
    def test_sweep_configuration_matches_goldens(self, sweep, golden):
        for key in ("epsilon", "delta", "seeds", "scale", "montecarlo_samples"):
            assert sweep[key] == golden[key], key
        assert set(sweep["instances"]) == set(golden["instances"])

    def test_fpras_relative_error_within_epsilon(self, sweep):
        """All but a delta fraction of seeds stay inside the epsilon bound."""
        for name, entry in sweep["instances"].items():
            errors = _relative_errors(entry, "fpras")
            failures = sum(1 for error in errors if error > EPSILON)
            assert failures / len(errors) <= DELTA, (
                f"{name}: {failures}/{len(errors)} seeds outside epsilon={EPSILON}"
            )
            # The bulk of the sweep should sit well inside the envelope —
            # mean error above epsilon/2 means the estimator drifted even if
            # no single seed failed yet.
            mean_error = sum(errors) / len(errors)
            assert mean_error <= EPSILON / 2, (name, mean_error)
            assert max(errors) <= 2 * EPSILON, (name, max(errors))

    def test_montecarlo_baseline_is_sane(self, sweep):
        """The no-guarantee baseline stays loosely accurate on dense slices."""
        for name, entry in sweep["instances"].items():
            errors = _relative_errors(entry, "montecarlo")
            assert max(errors) <= 0.25, (name, max(errors))

    def test_per_seed_estimates_match_goldens_exactly(self, sweep, golden):
        """Drift is a diff, not a flake: every estimate is locked bit-exactly.

        A failure here means estimator behaviour changed.  If the change is
        intentional, regenerate the goldens (see the module docstring) and
        review the diff — the envelope tests above still guard the claim.
        """
        for name, entry in sweep["instances"].items():
            locked = golden["instances"][name]
            assert entry["exact"] == locked["exact"], name
            for method in ("fpras", "montecarlo"):
                for seed, (observed, expected) in enumerate(
                    zip(entry[method], locked[method])
                ):
                    assert repr(observed) == repr(expected), (
                        f"{name}/{method} seed {seed}: estimate {observed!r} "
                        f"drifted from golden {expected!r}"
                    )

    def test_failure_fraction_is_recorded_in_goldens(self, golden):
        """The locked trajectory itself satisfies the envelope (meta-check)."""
        for name, entry in golden["instances"].items():
            errors = _relative_errors(entry, "fpras")
            failures = sum(1 for error in errors if error > golden["epsilon"])
            assert failures / len(errors) <= golden["delta"], name


def _regenerate() -> int:
    document = run_sweep()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    for name, entry in document["instances"].items():
        errors = _relative_errors(entry, "fpras")
        print(
            f"  {name}: exact={entry['exact']} max_rel_error={max(errors):.4f} "
            f"failures={sum(1 for e in errors if e > document['epsilon'])}/{len(errors)}"
        )
    return 0


if __name__ == "__main__":
    if "--regen" in sys.argv:
        sys.exit(_regenerate())
    print(__doc__)
    sys.exit(2)
