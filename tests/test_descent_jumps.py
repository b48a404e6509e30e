"""Forced steps and jumps in the sampler descent.

A *forced* step has one branch with ``weight / total == 1.0`` and every
other at exactly 0.0, so its pick is certain:
:class:`~repro.counting.sampler.SampleDraw` takes it without a ``random()``
call and crosses a whole run of forced steps with one lookup in
:attr:`~repro.counting.sampler.StepTable.jumps`.  When a jump crosses every
level from a batch's start, the start's slice holds one word, and the
batch's remaining draws are acceptance tests alone.  The differential
tests in ``tests/test_descent_steps.py`` run it on automata with forced
runs (its ``blocks`` cases) against :class:`ReferenceDraw`; this module
adds runs of the unary chain and of ``blocks_nfa(8)``, one-word slices, a
check that every jump stands for the steps it skips, and the edge cases.
:class:`StepwiseDraw` replays the step table one level at a time.
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
    CUTS,
    SCALES,
    ReferenceDraw,
    _batches,
    _assert_scope_holds_until_reseed,
    _finished_counter,
    _forced,
    _run_with,
)

from repro.automata.families import blocks_nfa, divisibility_nfa
from repro.automata.nfa import NFA
from repro.cli import main
from repro.counting import sampler as sampler_module
from repro.counting.sampler import SampleDraw, StepTable
from repro.workloads.longwords import long_word_scale, unary_loop_nfa

PRACTICAL = SCALES["practical"]


class StepwiseDraw(ReferenceDraw):
    """The step-table descent without jumps, one level at a time, batched
    one draw at a time like :class:`ReferenceDraw`."""

    def _descend(self, level, states, gamma0, beta, eta):
        self.statistics.draws += 1
        eta_prime = eta / max(1, 4 * self.unroll.length)
        alphabet = self.unroll.nfa.alphabet
        valid = (self._scope, sampler_module._WHOLE_RUN)
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
            if _forced(probabilities):
                index = probabilities.index(1.0)
            else:
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
    """A generator subclass overriding ``random()``, counting its calls."""

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
                break  # derived again in a later scope
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
@pytest.mark.parametrize("case", ["blocks4-n16", "blocks8-n40", "two-rail4-n16"])
def test_jumps_replay_their_steps(case, scale_name, backend):
    """Whole-run jumps over the one-set steps of ``blocks_nfa``, and jumps
    stamped with a drawer's scope over the two-set steps of
    :func:`_two_rail_blocks`; the words are checked in
    ``tests/test_descent_steps.py``."""
    scale = SCALES[scale_name]
    build, length = CASES.get(case, (lambda: _two_rail_blocks(4), 16))
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


def test_random_subclass_calls_random_as_the_reference_does():
    """A subclass's ``random()`` is called once per non-forced step, union
    trial draw and acceptance test, as the reference calls it."""
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


@pytest.mark.parametrize("cut", [(40, 3), (4, 3)])
def test_random_subclass_batches_call_random_as_the_reference_does(cut):
    """A batch call calls a subclass's ``random()`` once per non-forced
    step, union trial draw and acceptance test, as single reference draws
    call it."""
    counter = _finished_counter(blocks_nfa(4), 16, PRACTICAL, "bitset")
    generators = {name: CountingRandom(3) for name in ("memoised", "reference")}
    steps = StepTable(counter.length)
    memoised = _batches(
        counter, SampleDraw, PRACTICAL, rng=generators["memoised"], steps=steps, cut=cut
    )
    reference = _batches(
        counter, ReferenceDraw, PRACTICAL, rng=generators["reference"], cut=cut
    )
    assert memoised == reference
    assert steps.jumps
    assert generators["memoised"].calls == generators["reference"].calls


@pytest.mark.parametrize("backend", BACKENDS)
def test_exception_mid_batch_counts_the_replay_hits_collected(backend, monkeypatch):
    """Under ``practical`` the first draw from ``start`` through
    :func:`_two_rail_blocks` derives all 16 of its steps.  The second walks
    the same word on replays alone: per block a branch point over two
    two-set unions (two hits), two forced steps over a two-set union (one
    hit each) and one over the one-set ``{start}`` (none), 16 hits.  The
    third replays the branch point at level 16 (two hits), then turns into
    the other block and derives a new step, so ``_derive_step`` raising on
    its 17th call ends the batch in its third draw.  The batch counts the
    18 replay hits, as the stepwise descent does step by step, and leaves
    the generator as it does."""
    counter = _finished_counter(_two_rail_blocks(4), 16, PRACTICAL, backend)
    beta, eta, _, _ = counter.derived_parameters()
    gamma0 = counter.parameters.gamma0(counter.estimates[("start", 16)])
    derive = SampleDraw._derive_step

    def interrupted(drawer_class):
        calls = []

        def failing(self, *step):
            calls.append(step)
            if len(calls) == 17:
                raise RuntimeError("17th derivation")
            return derive(self, *step)

        monkeypatch.setattr(SampleDraw, "_derive_step", failing)
        drawer = drawer_class(
            counter.unroll, counter.estimates, counter.samples, counter.parameters,
            random.Random(5),
        )
        with pytest.raises(RuntimeError, match="17th derivation"):
            drawer.draw(16, frozenset({"start"}), gamma0, beta, eta, attempts=20, needed=20)
        return drawer.rng.getstate(), dataclasses.asdict(drawer.statistics)

    state, statistics = interrupted(SampleDraw)
    assert (state, statistics) == interrupted(StepwiseDraw)
    assert statistics["draws"] == 3 and statistics["union_cache_hits"] == 18


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
        words = drawer.draw(10, frozenset({"q"}), 0.5, beta, eta, attempts=20, needed=20)
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
        words = drawer.draw(8, frozenset({"start"}), 0.5, beta, eta, attempts=30, needed=30)
        observed.append((words, drawer.rng.getstate(), drawer.statistics))
    assert observed[0] == observed[1]
    handle = counter.unroll.engine.encode(frozenset({"start"}))
    assert drawer.steps.levels[4][handle][4] == (0.0, 1.0)
    assert drawer.steps.levels[4][handle][6] == 1


def _two_rail_blocks(block_length):
    """:func:`blocks_nfa` with two parallel rails per block: the forced
    steps inside a block weigh two-set unions, so their jumps hold only for
    the scope that built them (one-set steps hold for the whole run)."""
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


def test_scope_jumps_hold_until_a_reseed():
    """The jumps of a drawer's first ``draw`` call, over forced steps that
    weigh two-set unions, carry its second call; after a reseed the drawer
    derives their steps again, as a fresh drawer of the same run does."""
    counter = _finished_counter(_two_rail_blocks(4), 16, PRACTICAL, "bitset")
    fresh = _assert_scope_holds_until_reseed(counter, 16, "start", attempts=20)
    stamps = {jump[0] for jump in fresh.steps.jumps.values()}
    assert fresh._scope in stamps and sampler_module._WHOLE_RUN not in stamps


def test_whole_run_jumps_survive_batches():
    """A new batch over the unary chain's table crosses all ``n`` levels with
    the run's jump: no fan, no union, no new jump.  Its branches are one-set
    unions, which count no ``union_cache_hits``."""
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
    assert drawer.statistics.union_cache_hits == 0
    assert steps.jumps == jumps
    assert counter.unroll.engine_counters()["pre_ops"] == pre_ops


class _CountingGets(dict):
    """A level of the step table that counts its ``get`` calls."""

    gets = 0

    def get(self, *arguments):
        self.gets += 1
        return super().get(*arguments)


@pytest.mark.parametrize("head_jump", ["recorded", "dropped"])
def test_one_word_batch_reads_no_step_after_its_first_draw(head_jump):
    """The unary chain's slice at level 200 holds one word.  A batch that
    holds the run's jump from its start to level 0 draws acceptance tests
    alone; without that jump its first draw walks, records it, and the rest
    are tests.  Words, generator and statistics are the stepwise descent's,
    which reads the start's step on every draw."""
    counter = _finished_counter(unary_loop_nfa(), 200, long_word_scale(), "bitset")
    steps = counter._steps
    handle = counter.unroll.engine.encode(frozenset({"q"}))
    if head_jump == "dropped":
        del steps.jumps[(200, handle)]
    beta, eta, _, _ = counter.derived_parameters()
    observed, reads = [], []
    for drawer_class in (StepwiseDraw, SampleDraw):
        steps.levels[200] = level = _CountingGets(steps.levels[200])
        drawer = drawer_class(
            counter.unroll, counter.estimates, counter.samples, counter.parameters,
            random.Random(8), steps=steps,
        )
        words = drawer.draw(200, frozenset({"q"}), 0.5, beta, eta, attempts=40, needed=40)
        observed.append((words, drawer.rng.getstate(), drawer.statistics))
        reads.append(level.gets)
    assert observed[0] == observed[1]
    assert reads == [40, 0 if head_jump == "recorded" else 1]
    assert steps.jumps[(200, handle)][1] == 200
    words, _, statistics = observed[1]
    assert 0 < len(words) < 40 and statistics.union_cache_hits == 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cut", [None, *sorted(CUTS)])
def test_one_word_slices_match_stepwise_draws(cut, backend):
    """Every slice of ``divisibility_nfa(320)`` at ``n = 4`` holds one word,
    so a batch from level 2 up turns to acceptance tests once it holds a
    jump to level 0."""
    counter = _finished_counter(divisibility_nfa(320), 4, PRACTICAL, backend)
    steps = StepTable(counter.length)
    cut = CUTS.get(cut)
    memoised = _batches(counter, SampleDraw, PRACTICAL, steps=steps, cut=cut)
    stepwise = _batches(counter, StepwiseDraw, PRACTICAL, cut=cut)
    assert memoised == stepwise
    assert any(jump[1] == level for (level, _), jump in steps.jumps.items())
    assert any(words for draws, _, _ in memoised for words in draws)


def _one_word_through_a_union():
    """``01`` is the one word: its step at level 2 weighs the two-set union
    of ``L(a^1)`` and ``L(b^1)``, so it and a jump over it hold only for the
    scope that derived them."""
    transitions = [("s", "0", "a"), ("s", "0", "b"), ("a", "1", "q"), ("b", "1", "q")]
    return NFA.build(transitions, initial="s", accepting=["q"])


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_stamped_one_word_jump_matches_stepwise_draws(backend):
    """In a first ``draw`` call the first draw derives both steps, the
    second replays them and records a jump stamped with the drawer's scope,
    and the other ten are acceptance tests.  That jump holds for a second
    call, whose twelve draws are all acceptance tests.  After a reseed the
    first draw derives the step at level 2 again, replays the whole-run one
    at level 1 and records a new jump, and the other eleven are acceptance
    tests."""
    counter = _finished_counter(_one_word_through_a_union(), 2, PRACTICAL, backend)
    beta, eta, _, _ = counter.derived_parameters()
    gamma0 = counter.parameters.gamma0(counter.estimates[("q", 2)])
    observed, reads = [], []
    for drawer_class in (StepwiseDraw, SampleDraw):
        drawer = drawer_class(
            counter.unroll, counter.estimates, counter.samples, counter.parameters,
            random.Random(3),
        )
        calls = []
        for call in range(3):
            if call == 2:
                drawer.reseed(4)
            drawer.steps.levels[2] = level = _CountingGets(drawer.steps.levels[2])
            words = drawer.draw(2, frozenset({"q"}), gamma0, beta, eta, attempts=12, needed=12)
            calls.append((words, drawer.rng.getstate(), dataclasses.replace(drawer.statistics)))
            reads.append(level.gets)
        observed.append(calls)
    assert observed[0] == observed[1]
    assert reads == [12, 12, 12, 2, 0, 1]
    (jump,) = drawer.steps.jumps.values()
    assert jump[1] == 2 and jump[0] is drawer._scope
    assert drawer.statistics.union_calls == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_one_word_batches_overflowing_phi_leave_the_generator(backend):
    """With eight times Algorithm 3's ``gamma0`` (above 1) every draw from a
    one-word slice overflows before its acceptance test: no batch touches
    the generator, as in the stepwise descent."""
    counter = _finished_counter(divisibility_nfa(320), 4, PRACTICAL, backend)
    options = dict(cut=(12, 4), gamma_factor=8.0)
    memoised = _batches(counter, SampleDraw, PRACTICAL, **options)
    assert memoised == _batches(counter, StepwiseDraw, PRACTICAL, **options)
    untouched = random.Random(11).getstate()
    for words, state, statistics in memoised:
        assert words == [] and state == untouched
        assert statistics["failures_phi_overflow"] == statistics["draws"] == 12


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
        "1111111100000000000000000000000000000000111111110000000011111111",
        "1111111111111111000000000000000000000000000000001111111111111111",
        "1111111100000000000000000000000011111111111111111111111100000000",
        "1111111111111111000000001111111100000000111111111111111111111111",
    ]
