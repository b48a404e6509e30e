"""Statistical regression tests: sampler uniformity and estimator accuracy.

Seeded, fully deterministic statistical checks that run in tier-1:

* a chi-square goodness-of-fit test of the uniform word sampler against the
  exactly-enumerated language slice (Inv-2 made operational).  The critical
  value is computed with the Wilson–Hilferty approximation so the test needs
  no external statistics package;
* a relative-error check of ``approx_count`` cross-validated against the
  independent brute-force enumerator (not the subset-construction exact
  counter the FPRAS shares structure with);
* dense random NFAs whose predecessor unions overlap heavily: their
  estimates are never 0 and stay within ``(1 ± epsilon)`` of the exact
  count, and no state estimate needs the zero-estimate fallback.  The
  largest such cell runs only in the ``statistical`` suite;
* sparse random NFAs whose languages are 4–55% of their ``Σⁿ`` (the dense
  cells above accept every word of their length), refereed by the exact
  counter: at most a ``delta`` share of runs misses the ``(1 ± epsilon)``
  band (``statistical`` suite only).

Both checks are seeded, so they are regression tests, not flaky
hypothesis tests: the sampled values are identical on every run (and on
every backend — enforced by the parity suite); the statistical thresholds
merely document that the locked behaviour is *also* statistically sound.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

import repro
from repro.automata import families
from repro.automata.exact import enumerate_slice
from repro.automata.random_gen import random_nonempty_nfa
from repro.counting.fpras import NFACounter
from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.uniform import UniformWordSampler

#: Dense random NFAs whose slices hold every word of their length (16 and
#: 32 words): their predecessor unions overlap heavily.
DENSE_CELLS = {
    "dense_m48_n4": (
        random_nonempty_nfa(48, 4, density=0.2, accepting_fraction=0.3, seed=5),
        4,
    ),
    "dense_m32_n5": (
        random_nonempty_nfa(32, 5, density=0.3, accepting_fraction=0.5, seed=5),
        5,
    ),
}


#: Ten sparse ``random_nonempty_nfa(m, n, density, accepting_fraction,
#: seed)`` cells, each with its exact count: their languages hold 4–55% of
#: the words of their length.
SPARSE_CELLS = [
    ((16, 10, 0.06, 0.1, 0), 70),
    ((16, 12, 0.06, 0.3, 0), 462),
    ((16, 12, 0.04, 0.3, 1), 849),
    ((16, 10, 0.08, 0.1, 0), 442),
    ((24, 10, 0.04, 0.1, 1), 157),
    ((24, 12, 0.04, 0.1, 0), 161),
    ((24, 12, 0.04, 0.3, 1), 1597),
    ((32, 10, 0.04, 0.1, 0), 242),
    ((32, 12, 0.04, 0.3, 0), 1262),
    ((16, 12, 0.06, 0.1, 1), 1263),
]


def chi_square_critical(df: int, alpha: float = 0.001) -> float:
    """Upper critical value of the chi-square distribution.

    Wilson–Hilferty: ``chi2_df(q) ≈ df (1 - 2/(9 df) + z_q sqrt(2/(9 df)))^3``
    with ``z_q`` the standard-normal quantile — accurate to a fraction of a
    percent for the df used here, which is ample for a 0.1% tail test.
    """
    z = _normal_quantile(1.0 - alpha)
    factor = 1.0 - 2.0 / (9.0 * df) + z * math.sqrt(2.0 / (9.0 * df))
    return df * factor**3


def _normal_quantile(p: float) -> float:
    """Standard normal quantile via the inverse error function."""
    # erfinv through Winitzki's approximation (matches analysis.statistics).
    value = 2.0 * p - 1.0
    a = 0.147
    sign = 1.0 if value >= 0 else -1.0
    ln_term = math.log(1.0 - value * value)
    first = 2.0 / (math.pi * a) + ln_term / 2.0
    return sign * math.sqrt(2.0) * math.sqrt(
        math.sqrt(first * first - ln_term / a) - first
    )


class TestSamplerUniformity:
    @pytest.mark.parametrize(
        "name,nfa,length",
        [
            ("no_consecutive_ones", families.no_consecutive_ones_nfa(), 7),
            ("substring_11", families.substring_nfa("11"), 6),
            ("parity_3", families.parity_nfa(3), 7),
        ]
        + [
            (
                f"dense_random_{seed}",
                random_nonempty_nfa(20, 5, density=0.12, accepting_fraction=0.5, seed=seed),
                5,
            )
            for seed in range(11, 15)
        ],
    )
    def test_chi_square_uniformity(self, name, nfa, length):
        population = enumerate_slice(nfa, length)
        assert population, "test instance must have a non-empty slice"
        support = len(population)
        samples_per_word = 40
        sample_count = samples_per_word * support

        parameters = FPRASParameters(
            epsilon=0.3,
            delta=0.1,
            scale=ParameterScale.practical(sample_cap=24, union_trial_cap=32),
            seed=101,
        )
        counter = NFACounter(nfa, length, parameters)
        sampler = UniformWordSampler(counter, rng=random.Random(2024))
        words = sampler.sample_many(sample_count)

        counts = Counter(words)
        # Every sampled word must be in the language (correctness, not stats).
        assert set(counts) <= set(population), name
        expected = sample_count / support
        statistic = sum(
            (counts.get(word, 0) - expected) ** 2 / expected for word in population
        )
        critical = chi_square_critical(support - 1, alpha=0.001)
        assert statistic < critical, (
            f"{name}: chi2={statistic:.1f} >= critical={critical:.1f} "
            f"(support={support}, samples={sample_count})"
        )


class TestApproxCountAccuracy:
    @pytest.mark.parametrize(
        "name,nfa,length",
        [
            ("substring_101", families.substring_nfa("101"), 9),
            ("suffix_0110", families.suffix_nfa("0110"), 8),
            ("divisibility_5", families.divisibility_nfa(5), 9),
            ("union_patterns", families.union_of_patterns_nfa(["00", "11"]), 8),
        ],
    )
    def test_relative_error_against_bruteforce(self, name, nfa, length):
        exact = repro.count(nfa, length, method="bruteforce").raw
        assert exact > 0
        errors = []
        for seed in range(5):
            result = repro.count(nfa, length, epsilon=0.3, delta=0.1, seed=seed).raw
            errors.append(result.relative_error(exact))
        # Individual runs stay within a loose multiple of epsilon (the scaled
        # constants weaken the concentration bound); the mean is tighter.
        assert max(errors) < 0.75, (name, errors)
        assert sum(errors) / len(errors) < 0.35, (name, errors)

    def test_bruteforce_agrees_with_independent_simulation(self):
        # Sanity-check the oracle itself: prefix-tree enumeration equals the
        # per-word NFA simulation it replaced.
        nfa = families.substring_nfa("0101")
        length = 8
        expected = sum(
            1
            for word in _all_words(nfa.alphabet, length)
            if nfa.accepts(word)
        )
        assert repro.count(nfa, length, method="bruteforce").raw == expected


class TestDenseUnions:
    @pytest.mark.parametrize("seed", range(5))
    def test_estimate_is_nonzero_and_within_epsilon(self, seed):
        nfa, length = DENSE_CELLS["dense_m48_n4"]
        exact = repro.count(nfa, length, method="exact").estimate
        report = repro.count(nfa, length, method="fpras", epsilon=0.5, seed=seed)
        assert report.estimate > 0
        assert report.raw.within_guarantee(exact), (report.estimate, exact)

    @pytest.mark.parametrize(
        "scale",
        [ParameterScale.practical(), ParameterScale.faithful_scaled()],
        ids=["practical", "faithful_scaled"],
    )
    def test_no_state_estimate_falls_back(self, scale, monkeypatch):
        def fail(self, state, level):
            raise AssertionError(f"state {state!r} at level {level} estimated 0")

        monkeypatch.setattr(NFACounter, "_fallback_estimate", fail)
        for name, (nfa, length) in DENSE_CELLS.items():
            report = repro.count(nfa, length, method="fpras", seed=0, scale=scale)
            assert report.estimate > 0, name

    @pytest.mark.statistical
    @pytest.mark.parametrize("seed", range(3))
    def test_large_dense_cell_is_within_epsilon(self, seed):
        nfa = random_nonempty_nfa(512, 4, density=0.02, accepting_fraction=0.3, seed=5)
        exact = repro.count(nfa, 4, method="exact").estimate
        report = repro.count(nfa, 4, method="fpras", epsilon=0.5, seed=seed)
        assert report.estimate > 0
        assert report.raw.within_guarantee(exact), (report.estimate, exact)


class TestSparseLanguages:
    """fpras on languages that are not ``Σⁿ``, refereed by ``method="exact"``.

    The runs use fpras seeds 5–9: seeds 0–4 were used to prototype estimator
    changes on these cells, so they stay out of the gate that judges them.
    """

    @pytest.mark.statistical
    @pytest.mark.parametrize(
        "epsilon",
        [
            0.5,
            0.25,
            pytest.param(
                0.1,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="ROADMAP item 3: the scaled defaults' union trial cap "
                    "binds at every epsilon, so epsilon = 0.1 misses 15 of 50",
                ),
            ),
        ],
    )
    def test_band_misses_stay_within_delta(self, epsilon):
        delta = 0.1
        misses = runs = 0
        for (states, length, density, accepting, seed), expected in SPARSE_CELLS:
            nfa = random_nonempty_nfa(
                states, length, density=density, accepting_fraction=accepting, seed=seed
            )
            exact = repro.count(nfa, length, method="exact").raw
            assert exact == expected
            for run_seed in range(5, 10):
                report = repro.count(
                    nfa, length, method="fpras", epsilon=epsilon, delta=delta,
                    seed=run_seed,
                )
                assert report.estimate > 0, (states, length, seed, run_seed)
                misses += not report.raw.within_guarantee(exact)
                runs += 1
        assert misses <= delta * runs, f"{misses}/{runs} runs missed the band"


def _all_words(alphabet, length):
    import itertools

    return itertools.product(alphabet, repeat=length)
