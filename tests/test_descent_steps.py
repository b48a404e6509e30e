"""Differential tests: the memoised sampler descent against a memo-free reference.

:class:`ReferenceDraw` keeps the descent loop that derives every step on
every visit: one predecessor fan per level, one union estimate per symbol
and a linear running-sum scan for the symbol choice.  The memoised
:class:`~repro.counting.sampler.SampleDraw` must return the same words,
leave the RNG in the same state and report the same
:class:`~repro.counting.sampler.SamplerStatistics`, ``union_cache_hits``
included: both count the multi-set union estimates a step takes from the
drawer's memo, a replay as many as deriving the step again would.

One ``draw(attempts=A, needed=K)`` call is a whole sampling batch: it must
return the words of ``A`` single reference draws cut at the ``K``-th word,
including batches that overflow ``phi``, run out of predecessor mass or
raise part-way.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

import repro.counting.fpras as fpras_module
from repro.automata.families import blocks_nfa
from repro.automata.random_gen import random_nonempty_nfa
from repro.cli import main
from repro.counting.fpras import NFACounter
from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.policy import ExecutionPolicy
from repro.counting.sampler import SampleDraw, StepTable
from repro.errors import ParameterError
from repro.workloads.longwords import long_word_scale, unary_loop_nfa

BACKENDS = ["bitset", "reference"]

SCALES = {
    "practical": ParameterScale.practical(sample_cap=4, union_trial_cap=8),
    "faithful_scaled": ParameterScale.faithful_scaled(sample_cap=4, union_trial_cap=8),
    "long_word": long_word_scale(),
}

#: The automata of the batch differentials, each with its length: random
#: NFAs by seed, and blocks of forced steps joined by branch points.
CASES = {
    seed: (
        lambda seed=seed: random_nonempty_nfa(
            6, 5, density=0.3, accepting_fraction=0.4, seed=seed
        ),
        5,
    )
    for seed in (3, 17, 29)
}
CASES["blocks4-n16"] = (lambda: blocks_nfa(4), 16)
CASES["blocks8-n40"] = (lambda: blocks_nfa(8), 40)

#: ``(attempts, needed)`` of one batch call: stopped by the ``needed``-th
#: word, or by running out of attempts first.
CUTS = {"needed-first": (40, 2), "attempts-first": (4, 3)}


def _forced(probabilities):
    """Whether one branch has probability exactly 1.0 and every other
    exactly 0.0: the pick is certain, so the step draws no ``random()``."""
    return 1.0 in probabilities and probabilities.count(0.0) == len(probabilities) - 1


class ReferenceDraw(SampleDraw):
    """The descent without a step table: every visit derives its step, and
    a forced one takes its certain branch without a ``random()`` call.

    A call is one batch: it makes up to ``attempts`` single draws, one at a
    time, and stops at the ``needed``-th word.  The union memo is the
    drawer's, kept across its calls.
    """

    def draw(self, level, states, gamma0, beta, eta, attempts=1, needed=1):
        words = []
        for _ in range(attempts):
            if len(words) >= needed:
                break
            word = self._descend(level, states, gamma0, beta, eta)
            if word is not None:
                words.append(word)
        return words

    def _descend(self, level, states, gamma0, beta, eta):
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
            probabilities = [weight / total for weight in weights]
            if _forced(probabilities):
                index = probabilities.index(1.0)
            else:
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


def _finished_counter(nfa, length, scale, backend, seed=5, store="dict"):
    parameters = FPRASParameters(epsilon=0.5, delta=0.2, scale=scale, seed=seed)
    policy = ExecutionPolicy(
        backend=backend, use_engine_cache=False, store=store, window=3
    )
    counter = NFACounter(nfa, length, parameters, policy=policy)
    counter.run()
    return counter


def _batches(counter, drawer_class, scale, rng=None, steps=None, cut=None, gamma_factor=1.0):
    """Algorithm 3's sampling batches, replayed over a finished run's tables.

    One drawer per (level, live state), all sharing one RNG stream
    (``Random(11)`` unless given) and, for the memoised drawer, one step
    table (a fresh one unless given).  Each is called ``xns`` times for one
    draw, each call its own batch, or with ``cut=(attempts, needed)`` once
    as ``draw(..., attempts=attempts, needed=needed)``.  Each draw starts
    with ``gamma_factor`` times Algorithm 3's ``gamma0``.
    """
    rng = random.Random(11) if rng is None else rng
    parameters = dataclasses.replace(counter.parameters, scale=scale)
    beta, eta, _, xns = counter.derived_parameters()
    steps = StepTable(counter.length) if steps is None else steps
    observed = []
    for level in range(1, counter.length + 1):
        for state in sorted(counter.unroll.live_states(level), key=repr):
            drawer = drawer_class(
                counter.unroll, counter.estimates, counter.samples, parameters, rng,
                steps=steps,
            )
            gamma0 = gamma_factor * parameters.gamma0(counter.estimates[(state, level)])
            arguments = (level, frozenset({state}), gamma0, beta, eta / (2 * xns))
            if cut is None:
                words = [drawer.draw(*arguments) for _ in range(xns)]
            else:
                attempts, needed = cut
                words = drawer.draw(*arguments, attempts=attempts, needed=needed)
            observed.append((words, rng.getstate(), dataclasses.asdict(drawer.statistics)))
    return observed


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scale_name", sorted(SCALES))
@pytest.mark.parametrize("case", list(CASES))
def test_memoised_batches_match_reference(case, scale_name, backend):
    scale = SCALES[scale_name]
    build, length = CASES[case]
    counter = _finished_counter(build(), length, scale, backend)
    memoised = _batches(counter, SampleDraw, scale)
    reference = _batches(counter, ReferenceDraw, scale)
    assert memoised == reference
    assert any(words for draws, _, _ in memoised for words in draws)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scale_name", sorted(SCALES))
@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("cut", sorted(CUTS))
def test_batch_call_matches_single_reference_draws(cut, case, scale_name, backend):
    scale = SCALES[scale_name]
    build, length = CASES[case]
    counter = _finished_counter(build(), length, scale, backend)
    attempts, needed = CUTS[cut]
    memoised = _batches(counter, SampleDraw, scale, cut=CUTS[cut])
    assert memoised == _batches(counter, ReferenceDraw, scale, cut=CUTS[cut])
    if cut == "needed-first":
        assert any(
            len(words) == needed and statistics["draws"] < attempts
            for words, _, statistics in memoised
        )
    else:
        assert any(0 < len(words) < needed for words, _, _ in memoised)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scale_name", sorted(SCALES))
@pytest.mark.parametrize("case", [3, 17, 29])
def test_batch_with_phi_overflows_matches_reference(case, scale_name, backend):
    """Four times Algorithm 3's ``gamma0``: about 1/e of a draw's ``phi``
    becomes 1, so batches mix overflows with words."""
    scale = SCALES[scale_name]
    build, length = CASES[case]
    counter = _finished_counter(build(), length, scale, backend)
    memoised = _batches(counter, SampleDraw, scale, cut=(12, 4), gamma_factor=4.0)
    reference = _batches(counter, ReferenceDraw, scale, cut=(12, 4), gamma_factor=4.0)
    assert memoised == reference
    assert any(words and statistics["failures_phi_overflow"] for words, _, statistics in memoised)


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_with_no_mass_failures_matches_reference(backend):
    """``blocks_nfa(4)`` with ``N(b0_1^1) = 0``: a draw whose first block is
    ``0000`` takes the forced step at level 3 and finds no mass at level 2,
    and the batch goes on drawing."""
    counter = _finished_counter(blocks_nfa(4), 16, SCALES["practical"], backend)
    counter.estimates[("b0_1", 1)] = 0.0
    beta, eta, _, _ = counter.derived_parameters()
    gamma0 = counter.parameters.gamma0(counter.estimates[("start", 16)])
    observed = []
    for drawer_class in (SampleDraw, ReferenceDraw):
        drawer = drawer_class(
            counter.unroll, counter.estimates, counter.samples, counter.parameters,
            random.Random(4),
        )
        words = drawer.draw(16, frozenset({"start"}), gamma0, beta, eta, attempts=40, needed=5)
        observed.append((words, drawer.rng.getstate(), drawer.statistics))
    assert observed[0] == observed[1]
    words, _, statistics = observed[0]
    assert len(words) == 5 and statistics.failures_no_mass >= 2
    assert all(word[:4] == ("1",) * 4 for word in words)


@pytest.mark.parametrize("backend", BACKENDS)
def test_exception_mid_batch_counts_the_draws_begun(backend, monkeypatch):
    """Under ``faithful_scaled()`` every visit derives its step, so a draw
    from level 2 derives twice and ``_derive_step`` raising on its third
    call ends the batch in its second draw.  The generator and every
    statistic, ``draws`` included, are left as one-draw calls that stop at
    the same exception leave them."""
    counter = _finished_counter(blocks_nfa(4), 8, SCALES["faithful_scaled"], backend)
    beta, eta, _, _ = counter.derived_parameters()
    gamma0 = counter.parameters.gamma0(counter.estimates[("b0_2", 2)])
    arguments = (2, frozenset({"b0_2"}), gamma0, beta, eta)
    derive = SampleDraw._derive_step

    def interrupted(batched):
        calls = []

        def failing(self, *step):
            calls.append(step)
            if len(calls) == 3:
                raise RuntimeError("third derivation")
            return derive(self, *step)

        monkeypatch.setattr(SampleDraw, "_derive_step", failing)
        drawer = SampleDraw(
            counter.unroll, counter.estimates, counter.samples, counter.parameters,
            random.Random(5),
        )
        begun = 0
        with pytest.raises(RuntimeError, match="third derivation"):
            if batched:
                drawer.draw(*arguments, attempts=10, needed=10)
            else:
                for begun in range(1, 11):
                    drawer.draw(*arguments)
        return drawer.rng.getstate(), dataclasses.asdict(drawer.statistics), begun

    state, statistics, _ = interrupted(batched=True)
    assert (state, statistics, 2) == interrupted(batched=False)
    assert statistics["draws"] == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_sample_cli_words_with_derived_steps_are_pinned(backend, capsys):
    """A dense random NFA (64 words of length 6) whose descents weigh
    multi-set unions, so the run's union estimates weigh its steps: every
    backend prints these lines."""
    assert main([
        "sample", "random_nfa", "--family-arg", "num_states=20",
        "--family-arg", "length=6", "--family-arg", "density=0.12",
        "--family-arg", "accepting_fraction=0.5", "--family-arg", "seed=11",
        "--length", "6", "--seed", "3", "--count", "6", "--backend", backend,
    ]) == 0
    assert capsys.readouterr().out.strip().splitlines() == [
        "estimated |L(A_6)| = 62.73",
        "111101",
        "111111",
        "001011",
        "101000",
        "010010",
        "010000",
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_memoised_descent_matches_reference_under_paper_scale(backend):
    """``paper()``: no union reuse, so only fans are replayed (tiny instance)."""
    nfa = random_nonempty_nfa(3, 2, density=0.5, seed=8)
    counter = _finished_counter(nfa, 2, SCALES["practical"], backend)
    scale = ParameterScale.paper()
    assert _batches(counter, SampleDraw, scale) == _batches(counter, ReferenceDraw, scale)


def _run_with(drawer_class, monkeypatch, nfa, length, scale, backend, store="dict"):
    monkeypatch.setattr(fpras_module, "SampleDraw", drawer_class)
    parameters = FPRASParameters(epsilon=0.5, delta=0.2, scale=scale, seed=7)
    policy = ExecutionPolicy(
        backend=backend, use_engine_cache=False, store=store, window=3
    )
    counter = NFACounter(nfa, length, parameters, policy=policy)
    result = counter.run()
    return {
        "estimate": result.estimate,
        "state_estimates": result.state_estimates,
        "sample_counts": result.sample_counts,
        "work": (result.union_calls, result.membership_calls, result.sample_draws,
                 result.sample_successes, result.padded_states),
        "rng_state": counter.rng.getstate(),
        "sampler": dataclasses.asdict(counter.sampler_statistics),
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
    counter = NFACounter(
        nfa, 64, FPRASParameters(scale=scale, seed=7),
        policy=ExecutionPolicy(store=store),
    )
    counter.run()
    assert len(counter._steps.shared) == 1
    assert counter.unroll.engine_counters()["pre_ops"] == 64


def _assert_scope_holds_per_drawer(counter, level, state, attempts):
    """A second ``draw`` call on a drawer replays the steps and jumps its
    first call derived, with no union trial.  A second drawer over the same
    step table derives them again, as a fresh drawer on the same step table
    and seed does; returns that fresh drawer."""
    beta, eta, _, _ = counter.derived_parameters()
    gamma0 = counter.parameters.gamma0(counter.estimates[(state, level)])
    arguments = (level, frozenset({state}), gamma0, beta, eta)

    def drawer(seed, steps=None):
        return SampleDraw(
            counter.unroll, counter.estimates, counter.samples, counter.parameters,
            random.Random(seed), steps=steps,
        )

    def batch(drawer):
        return drawer.draw(*arguments, attempts=attempts, needed=attempts)

    used = drawer(1)
    batch(used)
    steps = used.steps
    derived = {
        (step_level, handle): entry
        for step_level, entries in enumerate(steps.levels)
        for handle, entry in entries.items()
        if entry[0] is not None
    }
    jumps = dict(steps.jumps)
    assert jumps
    first = dataclasses.replace(used.statistics)
    batch(used)
    assert used.statistics.union_calls == first.union_calls
    assert used.statistics.union_cache_hits > first.union_cache_hits
    assert all(steps.levels[key[0]][key[1]] is entry for key, entry in derived.items())
    assert all(steps.jumps[key] is jump for key, jump in jumps.items())

    second = drawer(2, steps)
    fresh = drawer(2, steps)
    assert batch(second) == batch(fresh)
    assert second.rng.getstate() == fresh.rng.getstate()
    assert dataclasses.asdict(second.statistics) == dataclasses.asdict(fresh.statistics)
    assert fresh.statistics.union_calls > 0
    return fresh


def test_draw_calls_share_their_scope_within_a_drawer():
    """The union estimates of a drawer's first ``draw`` call weigh its
    second call's steps; a second drawer over the same step table does not
    see them, and derives its batch steps again."""
    nfa = random_nonempty_nfa(6, 6, density=0.3, accepting_fraction=0.4, seed=17)
    counter = _finished_counter(nfa, 6, SCALES["practical"], "bitset")
    state = sorted(counter.unroll.live_states(6), key=repr)[0]
    _assert_scope_holds_per_drawer(counter, 6, state, attempts=60)
