"""Forced steps and jumps in the sampler descent.

A *forced* step has one branch with positive weight and ``weight / total ==
1.0``.  :class:`~repro.counting.sampler.SampleDraw` takes it without a
``random()`` call, pays the owed calls in bulk before anything else reads
the generator, and crosses a whole run of forced steps with one lookup in
:attr:`~repro.counting.sampler.StepTable.jumps`.  The differential tests in
``tests/test_descent_steps.py`` run it on automata with forced runs (its
``blocks`` cases) against :class:`ReferenceDraw`; this module adds runs of
the unary chain and of ``blocks_nfa(8)``, a check that every jump stands
for the steps it skips, and the edge cases.  :class:`StepwiseDraw` replays
the step table one level and one ``random()`` at a time, so unlike the
reference it counts the ``union_cache_hits`` of whole-run replays.
"""

from __future__ import annotations

import dataclasses
import math
import random
from bisect import bisect_left

import pytest
from test_descent_steps import (
    BACKENDS,
    CASES,
    SCALES,
    ReferenceDraw,
    _batches,
    _finished_counter,
    _run_with,
)

from repro.automata.families import blocks_nfa
from repro.automata.nfa import NFA
from repro.cli import main
from repro.counting import sampler as sampler_module
from repro.counting.sampler import SampleDraw, StepTable
from repro.workloads.longwords import long_word_scale, unary_loop_nfa

PRACTICAL = SCALES["practical"]


class StepwiseDraw(SampleDraw):
    """The step-table descent without forced steps or jumps."""

    def draw(self, level, states, gamma0, beta, eta):
        self.statistics.draws += 1
        eta_prime = eta / max(1, 4 * self.unroll.length)
        alphabet = self.unroll.nfa.alphabet
        valid = (self._batch, sampler_module._WHOLE_RUN)
        phi = gamma0
        word = []
        current = self.unroll.engine.encode(states)
        for current_level in range(level, 0, -1):
            entry = self.steps.levels[current_level].get(current)
            if entry is None or not any(entry[0] is stamp for stamp in valid):
                entry = self._derive_step(current, current_level, entry, beta, eta_prime)
                if entry is None:
                    self.statistics.failures_no_mass += 1
                    return None
            else:
                self.statistics.union_cache_hits += entry[5]
            _, branches, cumulative, total, probabilities, _, _ = entry
            point = self.rng.random() * total
            index = min(bisect_left(cumulative, point), len(alphabet) - 1)
            if probabilities[index] == 0.0:
                index = sampler_module._nearest_branch(probabilities, index)
            phi /= probabilities[index]
            word.insert(0, alphabet[index])
            current = branches[index]
        if phi > 1.0:
            self.statistics.failures_phi_overflow += 1
            return None
        if self.rng.random() < phi:
            self.statistics.successes += 1
            return tuple(word)
        self.statistics.failures_rejection += 1
        return None


class CountingRandom(random.Random):
    """A generator subclass overriding ``random()``: bulk advances must
    call it once per owed draw."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


def _assert_jumps_replay_their_steps(steps, alphabet):
    """Every jump whose steps are still the ones it was built from skips
    exactly those forced steps: same landing, hits and symbols."""
    checked = 0
    for (level, handle), (stamp, skipped, landing, hits, symbols) in steps.jumps.items():
        walked_hits, walked = 0, []
        for step_level in range(level, level - skipped, -1):
            entry = steps.levels[step_level][handle]
            if entry[0] is not stamp and entry[0] is not sampler_module._WHOLE_RUN:
                break  # derived again by a later batch
            assert entry[6] >= 0
            walked_hits += entry[5]
            walked.append(alphabet[entry[6]])
            handle = entry[1][entry[6]]
        else:
            assert (handle, walked_hits) == (landing, hits)
            assert symbols[skipped - 1::-1] == walked
            checked += 1
    assert checked


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scale_name", ["practical", "long_word"])
@pytest.mark.parametrize("case", ["blocks4-n16", "blocks8-n40"])
def test_jumps_replay_their_steps(case, scale_name, backend):
    """Batch-stamped jumps under ``practical``, whole-run ones under
    ``long_word``; the words are checked in ``tests/test_descent_steps.py``."""
    scale = SCALES[scale_name]
    build, length = CASES[case]
    counter = _finished_counter(build(), length, scale, backend)
    steps = StepTable(counter.length)
    _batches(counter, SampleDraw, scale, steps=steps)
    _assert_jumps_replay_their_steps(steps, counter.nfa.alphabet)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("store", ["dict", "windowed"])
def test_unary_chain_run_matches_reference(store, backend, monkeypatch):
    """Every step of the unary chain is forced and stamped whole-run."""
    args = (unary_loop_nfa(), 200, long_word_scale(), backend, store)
    assert _run_with(SampleDraw, monkeypatch, *args) == _run_with(
        ReferenceDraw, monkeypatch, *args
    )


@pytest.mark.parametrize("store", ["dict", "windowed"])
def test_blocks_run_matches_reference(store, monkeypatch):
    args = (blocks_nfa(8), 40, PRACTICAL, "bitset", store)
    assert _run_with(SampleDraw, monkeypatch, *args) == _run_with(
        ReferenceDraw, monkeypatch, *args
    )


def test_random_subclass_calls_random_per_owed_draw():
    counter = _finished_counter(blocks_nfa(4), 16, PRACTICAL, "bitset")
    generators = {name: CountingRandom(3) for name in ("memoised", "reference")}
    steps = StepTable(counter.length)
    memoised = _batches(
        counter, SampleDraw, PRACTICAL, rng=generators["memoised"], steps=steps
    )
    reference = _batches(counter, ReferenceDraw, PRACTICAL, rng=generators["reference"])
    assert memoised == reference
    assert steps.jumps
    assert generators["memoised"].calls == generators["reference"].calls


@pytest.mark.parametrize("count", [1, 2, 3, 1000, 20000])
def test_bulk_advance_equals_random_calls(count):
    bulk, stepwise = random.Random(9), random.Random(9)
    sampler_module._advance(bulk, count)
    for _ in range(count):
        stepwise.random()
    assert bulk.getstate() == stepwise.getstate()


def test_inf_estimate_stays_on_ordinary_path():
    """A lone ``inf`` weight gives ``inf / inf = nan``, not 1.0: the step
    draws and divides ``phi`` by ``nan``, so every draw is rejected."""
    counter = _finished_counter(unary_loop_nfa(), 10, long_word_scale(), "bitset")
    counter.estimates[("q", 5)] = math.inf
    beta, eta, _, _ = counter.derived_parameters()
    observed = []
    for drawer_class in (ReferenceDraw, SampleDraw):
        drawer = drawer_class(
            counter.unroll, counter.estimates, counter.samples, counter.parameters,
            random.Random(4),
        )
        words = [drawer.draw(10, frozenset({"q"}), 0.5, beta, eta) for _ in range(20)]
        observed.append((words, drawer.rng.getstate(), drawer.statistics))
    assert observed[0] == observed[1]
    assert drawer.statistics.failures_rejection == 20
    handle = counter.unroll.engine.encode(frozenset({"q"}))
    assert drawer.steps.levels[6][handle][6] == -1
    assert drawer.steps.levels[7][handle][6] == 0


def test_weight_below_probability_resolution_is_forced():
    """A positive weight whose ``weight / total`` rounds to 0.0 can only be
    bisected onto by a point of 0.0, which falls back to the other branch:
    the step is forced and the words match the reference."""
    counter = _finished_counter(blocks_nfa(4), 8, long_word_scale(), "bitset")
    counter.estimates[("b0_3", 3)] = 5e-324
    counter.estimates[("b1_3", 3)] = 4.0
    beta, eta, _, _ = counter.derived_parameters()
    observed = []
    for drawer_class in (ReferenceDraw, SampleDraw):
        drawer = drawer_class(
            counter.unroll, counter.estimates, counter.samples, counter.parameters,
            random.Random(6),
        )
        words = [drawer.draw(8, frozenset({"start"}), 0.5, beta, eta) for _ in range(30)]
        observed.append((words, drawer.rng.getstate(), drawer.statistics))
    assert observed[0] == observed[1]
    handle = counter.unroll.engine.encode(frozenset({"start"}))
    assert drawer.steps.levels[4][handle][4] == (0.0, 1.0)
    assert drawer.steps.levels[4][handle][6] == 1


def _two_rail_blocks(block_length):
    """:func:`blocks_nfa` with two parallel rails per block: the forced
    steps inside a block weigh two-set unions, so their jumps hold only for
    the batch that built them (one-set steps hold for the whole run)."""
    transitions = []
    for bit in "01":
        for rail in "xy":
            previous = "start"
            for position in range(1, block_length):
                state = f"{bit}{rail}{position}"
                transitions.append((previous, bit, state))
                previous = state
            transitions.append((previous, bit, "start"))
    return NFA.build(transitions, initial="start", accepting=["start"])


def test_clear_cache_drops_batch_jumps():
    """After ``clear_cache()`` the batch's jumps are stale: the next draws
    derive their steps again and match a fresh drawer of the same run."""
    counter = _finished_counter(_two_rail_blocks(4), 16, PRACTICAL, "bitset")
    beta, eta, _, _ = counter.derived_parameters()
    state = "start"
    gamma0 = counter.parameters.gamma0(counter.estimates[(state, 16)])

    def drawer(rng, steps=None):
        return SampleDraw(
            counter.unroll, counter.estimates, counter.samples, counter.parameters, rng,
            steps=steps,
        )

    used = drawer(random.Random(1))
    for _ in range(20):
        used.draw(16, frozenset({state}), gamma0, beta, eta)
    stamps = {jump[0] for jump in used.steps.jumps.values()}
    assert stamps == {used._batch}
    used.clear_cache()
    # A new batch of the same run: it shares the run's step table, whose
    # whole-run steps both drawers replay.
    fresh = drawer(random.Random(), used.steps)
    fresh.rng.setstate(used.rng.getstate())
    before = dataclasses.asdict(used.statistics)
    for _ in range(10):
        assert used.draw(16, frozenset({state}), gamma0, beta, eta) == fresh.draw(
            16, frozenset({state}), gamma0, beta, eta
        )
    assert used.rng.getstate() == fresh.rng.getstate()
    after = dataclasses.asdict(used.statistics)
    assert {key: after[key] - before[key] for key in after} == dataclasses.asdict(
        fresh.statistics
    )
    assert fresh.statistics.union_calls > 0


def test_whole_run_jumps_survive_batches():
    """A new batch over the unary chain's table crosses all ``n`` levels with
    the run's jump: no fan, no union, no new jump."""
    counter = _finished_counter(unary_loop_nfa(), 64, long_word_scale(), "bitset")
    steps = counter._steps
    jumps = dict(steps.jumps)
    assert {jump[0] for jump in jumps.values()} == {sampler_module._WHOLE_RUN}
    pre_ops = counter.unroll.engine_counters()["pre_ops"]
    beta, eta, _, _ = counter.derived_parameters()
    drawer = SampleDraw(
        counter.unroll, counter.estimates, counter.samples, counter.parameters,
        random.Random(2), steps=steps,
    )
    stepwise = StepwiseDraw(
        counter.unroll, counter.estimates, counter.samples, counter.parameters,
        random.Random(2), steps=steps,
    )
    for _ in range(5):
        word = drawer.draw(64, frozenset({"q"}), 0.5, beta, eta)
        assert word == stepwise.draw(64, frozenset({"q"}), 0.5, beta, eta)
    assert drawer.rng.getstate() == stepwise.rng.getstate()
    assert drawer.statistics == stepwise.statistics
    assert drawer.statistics.union_cache_hits == 5 * 64
    assert steps.jumps == jumps
    assert counter.unroll.engine_counters()["pre_ops"] == pre_ops


def test_chain_jumps_share_one_symbols_list():
    """The unary chain's jumps hold its ``n`` symbols once, not ``O(n^2)``."""
    counter = _finished_counter(
        unary_loop_nfa(), 256, long_word_scale(), "bitset", store="windowed"
    )
    jumps = counter._steps.jumps
    assert 0 < len(jumps) <= 256
    lists = {id(jump[4]): jump[4] for jump in jumps.values()}
    assert len(lists) == 1
    (symbols,) = lists.values()
    assert len(symbols) == max(jump[1] for jump in jumps.values()) == 256


def test_sample_cli_words_are_pinned(capsys):
    assert main([
        "sample", "blocks", "--family-arg", "block_length=8", "--length", "64",
        "--seed", "3", "--count", "4",
    ]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-4:] == [
        "0000000000000000111111110000000011111111000000001111111100000000",
        "0000000011111111000000000000000011111111111111111111111111111111",
        "1111111111111111111111111111111100000000000000001111111100000000",
        "1111111111111111111111111111111100000000111111111111111111111111",
    ]
