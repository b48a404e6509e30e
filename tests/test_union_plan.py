"""Differential tests: AppUnion over memoised union plans against a per-call reference.

:func:`reference_union` is the estimator without plans: every call copies
and shuffles each set's samples with ``rng.shuffle``, picks each trial's set
with a binary search over running sums it recomputes, and resolves the
membership of every drawn sample again.  :func:`~repro.counting.union
.approximate_union` must return the same :class:`UnionEstimate` and leave
the RNG in the same state, whether it is given a list of
:class:`SetAccess`, a fresh :class:`UnionPlan` or a plan earlier calls have
partly resolved; and whole FPRAS runs must not change when the reference
replaces it.
"""

from __future__ import annotations

import gc
import math
import random

import pytest

import repro
import repro.counting.fpras as fpras_module
import repro.counting.sampler as sampler_module
import repro.counting.union as union_module
from repro.automata.engine import available_backends
from repro.automata.random_gen import random_nonempty_nfa
from repro.counting.fpras import NFACounter
from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.policy import ExecutionPolicy
from repro.counting.union import SetAccess, UnionEstimate, UnionPlan, approximate_union
from repro.errors import ParameterError, SampleExhaustedError
from repro.workloads.longwords import long_word_scale

BACKENDS = [name for name in ("bitset", "reference", "numpy") if name in available_backends()]

CYCLIC = FPRASParameters(scale=ParameterScale.practical(union_trial_cap=40))
STRICT = FPRASParameters(
    scale=ParameterScale.practical(union_trial_cap=40).with_overrides(
        strict_sample_consumption=True
    )
)


# ----------------------------------------------------------------------
# The reference: AppUnion without plans
# ----------------------------------------------------------------------
class _ReferenceStream:
    def __init__(self, samples, rng, strict):
        self._strict = strict
        self._rng = rng
        self._items = list(samples)
        if not strict:
            rng.shuffle(self._items)
        self._position = 0
        self.exhausted = False

    def next(self):
        if not self._items:
            self.exhausted = True
            return None
        if self._position >= len(self._items):
            self.exhausted = True
            if self._strict:
                return None
            self._rng.shuffle(self._items)
            self._position = 0
        item = self._items[self._position]
        self._position += 1
        return item


def reference_union(
    sets,
    epsilon,
    delta,
    size_slack,
    parameters,
    rng,
    raise_on_exhaustion=False,
    first_containing_batch=None,
):
    sizes = [max(0.0, float(entry.size_estimate)) for entry in sets]
    total_size = sum(sizes)
    if total_size <= 0 or not sets:
        return UnionEstimate(0.0, 0, 0, 0, 0.0)
    m_hat = int(math.ceil(total_size / max(sizes)))
    trials = parameters.union_trials(epsilon, delta, size_slack, m_hat)
    strict = parameters.scale.strict_sample_consumption
    streams = [_ReferenceStream(entry.samples, rng, strict) for entry in sets]
    cumulative = []
    running = 0.0
    for size in sizes:
        running += size
        cumulative.append(running)
    exhausted = False
    drawn = []
    for _ in range(trials):
        point = rng.random() * cumulative[-1]
        low, high = 0, len(cumulative) - 1
        while low < high:
            middle = (low + high) // 2
            if point <= cumulative[middle]:
                high = middle
            else:
                low = middle + 1
        sample = streams[low].next()
        if sample is None:
            exhausted = True
            if raise_on_exhaustion:
                raise SampleExhaustedError(
                    f"set {sets[low].label!r} ran out of samples after {len(drawn)} trials"
                )
            if strict:
                break
            continue
        if streams[low].exhausted:
            exhausted = True
        drawn.append((sample, low))
    if first_containing_batch is not None and drawn:
        answers = list(first_containing_batch(drawn))
    else:
        answers = [
            next((j for j in range(index) if sets[j].oracle(sample)), -1)
            for sample, index in drawn
        ]
    unique_hits = sum(1 for containing in answers if containing < 0)
    membership_calls = sum(
        index if containing < 0 else containing + 1
        for (_, index), containing in zip(drawn, answers)
    )
    if not drawn:
        return UnionEstimate(0.0, 0, 0, membership_calls, total_size, exhausted)
    return UnionEstimate(
        (unique_hits / len(drawn)) * total_size,
        len(drawn),
        unique_hits,
        membership_calls,
        total_size,
        exhausted,
    )


# ----------------------------------------------------------------------
# Per-call comparisons
# ----------------------------------------------------------------------
def _access(members, samples, size, label=None):
    return SetAccess(
        oracle=frozenset(members).__contains__,
        samples=list(samples),
        size_estimate=size,
        label=label,
    )


def _random_sets(seed, count=4, universe=30, samples=6, zero_every=0):
    """Overlapping random sets; every ``zero_every``-th set gets size 0."""
    rng = random.Random(seed)
    sets = []
    for index in range(count):
        members = rng.sample(range(universe), rng.randrange(1, universe // 2))
        drawn = [rng.choice(members) for _ in range(samples)]
        size = float(len(members)) * rng.uniform(0.8, 1.2)
        if zero_every and index % zero_every == 0:
            size = 0.0
        sets.append(_access(members, drawn, size, label=f"T{index}"))
    return sets


class _Membership:
    """An oracle scan in batch form that records every query it answers."""

    def __init__(self, sets):
        self.oracles = [entry.oracle for entry in sets]
        self.queries = []

    def __call__(self, queries):
        self.queries.extend(queries)
        return [
            next((j for j in range(index) if self.oracles[j](sample)), -1)
            for sample, index in queries
        ]


def _plan(sets):
    return UnionPlan(
        [entry.size_estimate for entry in sets],
        [len(entry.samples) for entry in sets],
        keys=[entry.label for entry in sets],
    )


def _call(sets, parameters, rng, plan=None, **keywords):
    arguments = dict(epsilon=0.3, delta=0.1, size_slack=0.05, parameters=parameters, rng=rng)
    if plan is None:
        return approximate_union(sets, **arguments, **keywords)
    samples = {entry.label: entry.samples for entry in sets}
    return approximate_union(
        plan, **arguments, samples=samples, first_containing_batch=_Membership(sets),
        **keywords,
    )


def _assert_matches_reference(sets, parameters, seed, **keywords):
    """SetAccess list and fresh plan both equal the reference, RNG included."""
    expected_rng = random.Random(seed)
    expected = reference_union(sets, 0.3, 0.1, 0.05, parameters, expected_rng, **keywords)
    for plan in (None, _plan(sets)):
        rng = random.Random(seed)
        assert _call(sets, parameters, rng, plan, **keywords) == expected
        assert rng.getstate() == expected_rng.getstate()
    return expected


@pytest.mark.parametrize("parameters", [CYCLIC, STRICT], ids=["cyclic", "strict"])
@pytest.mark.parametrize("seed", range(12))
def test_overlapping_sets_match_reference(seed, parameters):
    expected = _assert_matches_reference(_random_sets(seed), parameters, seed)
    assert expected.trials > 0


@pytest.mark.parametrize("seed", range(6))
def test_zero_sizes_match_reference(seed):
    # Some sets weigh nothing; all-zero unions return before any draw.
    _assert_matches_reference(_random_sets(seed, zero_every=2), CYCLIC, seed)
    expected = _assert_matches_reference(_random_sets(seed, zero_every=1), CYCLIC, seed)
    assert expected == UnionEstimate(0.0, 0, 0, 0, 0.0)


@pytest.mark.parametrize("parameters", [CYCLIC, STRICT], ids=["cyclic", "strict"])
@pytest.mark.parametrize("seed", range(6))
def test_empty_sample_lists_match_reference(seed, parameters):
    sets = _random_sets(seed)
    sets[1] = _access([1, 2, 3], [], 5.0, label="empty")
    expected = _assert_matches_reference(sets, parameters, seed)
    assert expected.exhausted


@pytest.mark.parametrize("seed", range(6))
def test_duplicate_samples_match_reference(seed):
    sets = [
        _access(range(10), [3, 3, 3, 7, 7], 10.0, label="a"),
        _access(range(5, 15), [7, 7, 12, 12, 12, 5], 10.0, label="b"),
        _access(range(0, 20, 2), [4, 4, 4, 4], 10.0, label="c"),
    ]
    _assert_matches_reference(sets, CYCLIC, seed)


@pytest.mark.parametrize("seed", range(6))
def test_one_set_unions_match_reference(seed):
    sets = [_access(range(40), random.Random(seed).sample(range(40), 24), 40.0, label="only")]
    expected = _assert_matches_reference(sets, CYCLIC, seed)
    assert expected.unique_hits == expected.trials and expected.estimate == 40.0
    # More trials than samples: the one stream was reshuffled.
    assert expected.exhausted


@pytest.mark.parametrize("seed", range(6))
def test_reshuffle_on_exhaustion_matches_reference(seed):
    sets = _random_sets(seed, count=3, samples=2)
    expected = _assert_matches_reference(sets, CYCLIC, seed)
    assert expected.exhausted and expected.trials == 40


@pytest.mark.parametrize("seed", range(6))
def test_strict_exhaustion_raises_like_reference(seed):
    sets = _random_sets(seed, count=3, samples=2)
    expected_rng = random.Random(seed)
    with pytest.raises(SampleExhaustedError) as expected:
        reference_union(
            sets, 0.3, 0.1, 0.05, STRICT, expected_rng, raise_on_exhaustion=True
        )
    for plan in (None, _plan(sets)):
        rng = random.Random(seed)
        with pytest.raises(SampleExhaustedError) as raised:
            _call(sets, STRICT, rng, plan, raise_on_exhaustion=True)
        assert str(raised.value) == str(expected.value)
        assert rng.getstate() == expected_rng.getstate()


@pytest.mark.parametrize("parameters", [CYCLIC, STRICT], ids=["cyclic", "strict"])
@pytest.mark.parametrize("seed", range(8))
def test_reused_plan_matches_reference_call_by_call(seed, parameters):
    """One plan over many calls on one stream: answers fill in lazily, and
    each call still equals a memo-free reference call."""
    sets = _random_sets(seed, count=5, samples=12)
    plan = _plan(sets)
    samples = {entry.label: entry.samples for entry in sets}
    membership = _Membership(sets)
    rng = random.Random(seed)
    expected_rng = random.Random(seed)
    known = []
    for _ in range(6):
        observed = approximate_union(
            plan, 0.3, 0.1, 0.05, parameters, rng,
            first_containing_batch=membership, samples=samples,
        )
        expected = reference_union(sets, 0.3, 0.1, 0.05, parameters, expected_rng)
        assert observed == expected
        assert rng.getstate() == expected_rng.getstate()
        known.append(sum(1 for code in plan.answers if code))
    # The first call resolved only part of the plan, later calls added to
    # it, and each query resolved a different stored sample: none was asked
    # about twice.
    assert 0 < known[0] < len(plan.answers)
    assert known[-1] > known[0]
    assert known[-1] == len(membership.queries)


def test_plan_answers_match_the_oracles():
    sets = _random_sets(5, count=4, samples=10)
    plan = _plan(sets)
    samples = {entry.label: entry.samples for entry in sets}
    rng = random.Random(5)
    for _ in range(20):
        approximate_union(
            plan, 0.3, 0.1, 0.05, CYCLIC, rng,
            first_containing_batch=_Membership(sets), samples=samples,
        )
    checked = 0
    for index, entry in enumerate(sets):
        for position, sample in enumerate(entry.samples):
            code = plan.answers[plan.offsets[index] + position]
            if not code:  # never drawn
                continue
            checked += 1
            truth = next((j for j in range(index) if sets[j].oracle(sample)), -1)
            assert code - 2 == truth
    assert checked > 0


def test_plan_state_is_mostly_untracked_by_the_cycle_collector():
    """A run keeps thousands of plans; of their state only the plan and its
    offsets ``array`` add to what the cyclic garbage collector traverses."""
    plan = _plan(_random_sets(1))
    gc.collect()
    for state in (plan.keys, plan.sizes, plan.cumulative, plan.answers):
        assert not gc.is_tracked(state)


def test_unions_past_the_one_byte_answer_code_match_reference():
    # A draw from T_i = {i, i + 1} is first contained in T_{i - 1}, so the
    # answers of the late sets run past what one byte codes.
    sets = [_access({i, i + 1}, [i, i], 2.0, label=i) for i in range(300)]
    _assert_matches_reference(sets, CYCLIC, 3)
    plan = _plan(sets)
    _call(sets, CYCLIC, random.Random(3), plan)
    assert max(plan.answers) > 255


def test_plan_calls_validate_their_inputs():
    sets = _random_sets(2)
    with pytest.raises(ParameterError):
        UnionPlan([1.0, 2.0], [3])
    with pytest.raises(ParameterError):  # a plan has no oracles to fall back on
        approximate_union(
            _plan(sets), 0.3, 0.1, 0.05, CYCLIC, random.Random(0),
            samples={entry.label: entry.samples for entry in sets},
        )


def test_draw_scale_is_the_running_sum(monkeypatch):
    """Trials are drawn against the last running sum, estimates scaled by
    ``sum()``.  They agree on CPython 3.11, but 3.12's ``sum()`` is
    compensated; ``math.fsum`` stands in for it here."""
    monkeypatch.setattr(union_module, "sum", math.fsum, raising=False)
    sizes = [1.0, 3e-16, 3e-16]  # running sums 1, 1 + u, 1 + 2u; fsum 1 + 3u

    class Top(random.Random):
        """Every draw is the largest value ``random()`` can return."""

        def random(self):
            return 1.0 - 2.0**-53

    sets = [
        _access({"a"}, ["a"], sizes[0], label="first"),
        _access({"a"}, ["a"], sizes[1], label="second"),
        _access({"b"}, ["b"], sizes[2], label="third"),
    ]
    result = _call(sets, CYCLIC, Top(0))
    # The top draw lands on the second set, whose sample the first contains.
    assert result.trials == 40 and result.unique_hits == 0
    assert result.sum_of_sizes == math.fsum(sizes)


# ----------------------------------------------------------------------
# The inlined shuffle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("length", range(65))
def test_inlined_shuffle_equals_random_shuffle(length):
    for seed in range(40):
        expected_rng = random.Random(seed * 1000 + length)
        rng = random.Random(seed * 1000 + length)
        expected = list(range(length))
        observed = list(range(length))
        expected_rng.shuffle(expected)
        union_module._shuffle(observed, rng)
        assert observed == expected
        assert rng.getstate() == expected_rng.getstate()


class _OwnRandom(random.Random):
    """Overriding ``random()`` makes ``Random`` shuffle without getrandbits."""

    def random(self):
        return super().random()


def test_subclass_keeps_its_own_shuffle():
    differs = False
    for seed in range(20):
        expected_rng, rng, inlined_rng = _OwnRandom(seed), _OwnRandom(seed), random.Random(seed)
        expected, observed, inlined = (list(range(24)) for _ in range(3))
        expected_rng.shuffle(expected)
        union_module._shuffle(observed, rng)
        union_module._shuffle(inlined, inlined_rng)
        assert observed == expected
        assert rng.getstate() == expected_rng.getstate()
        differs = differs or inlined != expected
    # Not vacuous: the inlined loop would have shuffled differently.
    assert differs


@pytest.mark.parametrize("seed", range(4))
def test_subclass_generator_matches_reference(seed):
    sets = _random_sets(seed)
    expected_rng = _OwnRandom(seed)
    expected = reference_union(sets, 0.3, 0.1, 0.05, CYCLIC, expected_rng)
    for plan in (None, _plan(sets)):
        rng = _OwnRandom(seed)
        assert _call(sets, CYCLIC, rng, plan) == expected
        assert rng.getstate() == expected_rng.getstate()


# ----------------------------------------------------------------------
# Whole runs with the reference in place of the plans
# ----------------------------------------------------------------------
def _reference_over_plan(
    plan, epsilon, delta, size_slack, parameters, rng=None,
    raise_on_exhaustion=False, first_containing_batch=None, samples=None,
):
    """The counting layer's plan calls, answered by :func:`reference_union`."""
    sets = [
        SetAccess(oracle=None, samples=samples.get(key, ()), size_estimate=size, label=key)
        for key, size in zip(plan.keys, plan.sizes)
    ]
    return reference_union(
        sets, epsilon, delta, size_slack, parameters, rng,
        raise_on_exhaustion, first_containing_batch,
    )


def _use_reference(monkeypatch):
    monkeypatch.setattr(fpras_module, "approximate_union", _reference_over_plan)
    monkeypatch.setattr(sampler_module, "approximate_union", _reference_over_plan)


SCALES = {
    "practical": ParameterScale.practical(sample_cap=6, union_trial_cap=12),
    "faithful_scaled": ParameterScale.faithful_scaled(sample_cap=6, union_trial_cap=12),
    "long_word": long_word_scale(),
    # paper()'s mechanics (strict consumption, perturbation, no reuse) at a
    # size a test can run: its verbatim sample counts are in the millions.
    "tiny_paper": ParameterScale.paper().with_overrides(
        mode="scaled", sample_cap=6, union_trial_cap=12
    ),
}

#: Engine counters a run must reproduce; the cache's lookup counts drop.
ENGINE_KEYS = ("step_ops", "pre_ops", "simulated_steps", "cache_words")


def _instance(scale_name):
    if scale_name == "tiny_paper":
        return random_nonempty_nfa(4, 3, density=0.5, accepting_fraction=0.5, seed=8), 3
    return random_nonempty_nfa(7, 5, density=0.35, accepting_fraction=0.5, seed=41), 5


def _run(nfa, length, scale, backend, store):
    parameters = FPRASParameters(
        epsilon=0.5, delta=0.2, scale=scale, seed=7, backend=backend,
        use_engine_cache=False, store=store, window=2,
    )
    counter = NFACounter(nfa, length, parameters)
    result = counter.run()
    observed = {
        "estimate": result.estimate,
        "state_estimates": result.state_estimates,
        "sample_counts": result.sample_counts,
        "samples": {key: list(value) for key, value in counter.samples.items()},
        "work": (result.union_calls, result.membership_calls, result.sample_draws,
                 result.sample_successes, result.padded_states),
        "sampler": counter.sampler_statistics,
        "rng_state": counter.rng.getstate(),
    }
    if store == "dict":  # windowed runs bound the cache, so its counts shift
        observed["engine"] = {key: result.engine_counters[key] for key in ENGINE_KEYS}
    return observed


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("store", ["dict", "windowed"])
@pytest.mark.parametrize("scale_name", sorted(SCALES))
def test_runs_match_reference(scale_name, store, backend, monkeypatch):
    scale = SCALES[scale_name]
    nfa, length = _instance(scale_name)
    planned = _run(nfa, length, scale, backend, store)
    _use_reference(monkeypatch)
    reference = _run(nfa, length, scale, backend, store)
    assert planned == reference
    assert planned["work"][0] > 0  # AppUnion ran


@pytest.mark.parametrize("store", ["dict", "windowed"])
def test_sharded_pool_matches_serial_reference(store, monkeypatch):
    """Plans live per worker; two pooled workers equal the in-process
    reference over the same shard plan."""
    nfa = random_nonempty_nfa(9, 5, density=0.3, accepting_fraction=0.5, seed=3)

    def count(workers):
        report = repro.count(
            nfa, 5, method="fpras", epsilon=0.5, seed=19,
            scale=SCALES["practical"],
            policy=ExecutionPolicy(workers=workers, shards=3, store=store, window=2),
        )
        raw = report.raw
        return (report.estimate, raw.state_estimates, raw.sample_counts,
                raw.union_calls, raw.membership_calls, raw.sample_draws)

    pooled = count(2)
    _use_reference(monkeypatch)
    assert pooled == count(1)
    assert pooled[3] > 0
