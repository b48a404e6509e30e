"""Differential tests: the memoised sampler descent against a memo-free reference.

:class:`ReferenceDraw` keeps the descent loop that derives every step on
every visit: one predecessor fan per level, one union estimate per symbol
and a linear running-sum scan for the symbol choice.  The memoised
:class:`~repro.counting.sampler.SampleDraw` must return the same words,
leave the RNG in the same state and report the same
:class:`~repro.counting.sampler.SamplerStatistics`.  The one exception is
``union_cache_hits`` under ``singleton_union_exact``: there a step replayed
for the whole run counts hits the reference, which derives it again in a
later batch, does not.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

import repro.counting.fpras as fpras_module
from repro.automata.engine import available_backends
from repro.automata.random_gen import random_nonempty_nfa
from repro.counting.fpras import NFACounter
from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.sampler import SampleDraw, StepTable
from repro.errors import ParameterError
from repro.workloads.longwords import long_word_scale, unary_loop_nfa

BACKENDS = [name for name in ("bitset", "reference", "numpy") if name in available_backends()]

SCALES = {
    "practical": ParameterScale.practical(sample_cap=4, union_trial_cap=8),
    "faithful_scaled": ParameterScale.faithful_scaled(sample_cap=4, union_trial_cap=8),
    "long_word": long_word_scale(),
}


class ReferenceDraw(SampleDraw):
    """The descent without a step table: every visit derives its step."""

    def draw(self, level, states, gamma0, beta, eta):
        if gamma0 <= 0:
            raise ParameterError("gamma0 must be positive")
        self.statistics.draws += 1
        eta_prime = eta / max(1, 4 * self.unroll.length)
        engine = self.unroll.engine
        alphabet = self.unroll.nfa.alphabet
        phi = gamma0
        word = []
        current = engine.encode(states)
        for current_level in range(level, 0, -1):
            fan = self.unroll.predecessor_fan(current, current_level)
            weights = [
                0.0
                if engine.is_empty(predecessors)
                else self._estimate_union(predecessors, current_level - 1, beta, eta_prime)
                for predecessors in fan
            ]
            total = sum(weights)
            if total <= 0.0:
                self.statistics.failures_no_mass += 1
                return None
            point = self.rng.random() * total
            running = 0.0
            index = len(weights) - 1
            for position, weight in enumerate(weights):
                running += weight
                if point <= running:
                    index = position
                    break
            phi /= weights[index] / total
            word.insert(0, alphabet[index])
            current = fan[index]
        if phi > 1.0:
            self.statistics.failures_phi_overflow += 1
            return None
        if self.rng.random() < phi:
            self.statistics.successes += 1
            return tuple(word)
        self.statistics.failures_rejection += 1
        return None


def _finished_counter(nfa, length, scale, backend, seed=5):
    parameters = FPRASParameters(
        epsilon=0.5, delta=0.2, scale=scale, seed=seed, backend=backend,
        use_engine_cache=False,
    )
    counter = NFACounter(nfa, length, parameters)
    counter.run()
    return counter


def _statistics(statistics, scale):
    fields = dataclasses.asdict(statistics)
    if scale.singleton_union_exact:
        del fields["union_cache_hits"]
    return fields


def _batches(counter, drawer_class, scale, seed=11):
    """Algorithm 3's sampling batches, replayed over a finished run's tables.

    One drawer per (level, live state), as ``NFACounter`` creates them, all
    sharing one RNG stream and (for the memoised drawer) one step table.
    """
    rng = random.Random(seed)
    parameters = dataclasses.replace(counter.parameters, scale=scale)
    beta, eta, _, xns = counter.derived_parameters()
    steps = StepTable(counter.length)
    observed = []
    for level in range(1, counter.length + 1):
        for state in sorted(counter.unroll.live_states(level), key=repr):
            drawer = drawer_class(
                counter.unroll, counter.estimates, counter.samples, parameters, rng,
                steps=steps,
            )
            gamma0 = parameters.gamma0(counter.estimates[(state, level)])
            words = [
                drawer.draw(level, frozenset({state}), gamma0, beta, eta / (2 * xns))
                for _ in range(xns)
            ]
            observed.append((words, rng.getstate(), _statistics(drawer.statistics, scale)))
    return observed


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scale_name", sorted(SCALES))
@pytest.mark.parametrize("seed", [3, 17, 29])
def test_memoised_batches_match_reference(seed, scale_name, backend):
    scale = SCALES[scale_name]
    nfa = random_nonempty_nfa(6, 5, density=0.3, accepting_fraction=0.4, seed=seed)
    counter = _finished_counter(nfa, 5, scale, backend)
    memoised = _batches(counter, SampleDraw, scale)
    reference = _batches(counter, ReferenceDraw, scale)
    assert memoised == reference
    assert any(word is not None for words, _, _ in memoised for word in words)


@pytest.mark.parametrize("backend", BACKENDS)
def test_memoised_descent_matches_reference_under_paper_scale(backend):
    """``paper()``: no union reuse, so only fans are replayed (tiny instance)."""
    nfa = random_nonempty_nfa(3, 2, density=0.5, seed=8)
    counter = _finished_counter(nfa, 2, SCALES["practical"], backend)
    scale = ParameterScale.paper()
    assert _batches(counter, SampleDraw, scale) == _batches(counter, ReferenceDraw, scale)


def _run_with(drawer_class, monkeypatch, nfa, length, scale, backend, store="dict"):
    monkeypatch.setattr(fpras_module, "SampleDraw", drawer_class)
    parameters = FPRASParameters(
        epsilon=0.5, delta=0.2, scale=scale, seed=7, backend=backend,
        use_engine_cache=False, store=store, window=3,
    )
    counter = NFACounter(nfa, length, parameters)
    result = counter.run()
    return {
        "estimate": result.estimate,
        "state_estimates": result.state_estimates,
        "sample_counts": result.sample_counts,
        "work": (result.union_calls, result.membership_calls, result.sample_draws,
                 result.sample_successes, result.padded_states),
        "rng_state": counter.rng.getstate(),
        "sampler": _statistics(counter.sampler_statistics, scale),
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scale_name", sorted(SCALES))
def test_memoised_run_matches_reference(scale_name, backend, monkeypatch):
    scale = SCALES[scale_name]
    nfa = random_nonempty_nfa(7, 6, density=0.3, accepting_fraction=0.4, seed=41)
    reference = _run_with(ReferenceDraw, monkeypatch, nfa, 6, scale, backend)
    memoised = _run_with(SampleDraw, monkeypatch, nfa, 6, scale, backend)
    assert memoised == reference


@pytest.mark.parametrize("store", ["dict", "windowed"])
def test_long_word_chain_replays_whole_run_steps(store, monkeypatch):
    """The unary chain under ``long_word_scale()``: every step is replayed
    for the whole run, across batches and stores, and one entry is shared
    by every level."""
    nfa = unary_loop_nfa()
    scale = long_word_scale()
    reference = _run_with(ReferenceDraw, monkeypatch, nfa, 64, scale, "bitset", store)
    memoised = _run_with(SampleDraw, monkeypatch, nfa, 64, scale, "bitset", store)
    assert memoised == reference
    counter = NFACounter(nfa, 64, FPRASParameters(scale=scale, seed=7, store=store))
    counter.run()
    assert len(counter._steps.shared) == 1
    assert counter.unroll.engine_counters()["pre_ops"] == 64


def test_clear_cache_invalidates_batch_steps():
    """After ``clear_cache()`` the next draw matches a fresh drawer on the
    same RNG state: the batch's steps are derived again, not replayed."""
    scale = SCALES["practical"]
    nfa = random_nonempty_nfa(6, 6, density=0.3, accepting_fraction=0.4, seed=17)
    counter = _finished_counter(nfa, 6, scale, "bitset")
    beta, eta, _, _ = counter.derived_parameters()
    state = sorted(counter.unroll.live_states(6), key=repr)[0]
    gamma0 = counter.parameters.gamma0(counter.estimates[(state, 6)])

    def drawer(rng):
        return SampleDraw(
            counter.unroll, counter.estimates, counter.samples, counter.parameters, rng
        )

    used = drawer(random.Random(1))
    for _ in range(20):
        used.draw(6, frozenset({state}), gamma0, beta, eta)
    used.clear_cache()
    fresh = drawer(random.Random())
    fresh.rng.setstate(used.rng.getstate())
    before = dataclasses.asdict(used.statistics)
    words = []
    for _ in range(10):
        words.append(
            (
                used.draw(6, frozenset({state}), gamma0, beta, eta),
                fresh.draw(6, frozenset({state}), gamma0, beta, eta),
            )
        )
    assert all(left == right for left, right in words)
    assert used.rng.getstate() == fresh.rng.getstate()
    after = dataclasses.asdict(used.statistics)
    delta = {key: after[key] - before[key] for key in after}
    assert delta == dataclasses.asdict(fresh.statistics)
    assert fresh.statistics.union_calls > 0
