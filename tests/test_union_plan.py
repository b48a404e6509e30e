"""Differential tests: AppUnion over memoised union plans against a per-call reference.

:func:`reference_union` is the estimator without plans: per trial it picks
the set by a linear scan over running sums it recomputes, draws one
``random()`` for the stored position (or, under strict consumption, takes
the set's next sample), asks every set about the sample and scores
``1 / c``.  :func:`~repro.counting.union.approximate_union` must return the
same :class:`UnionEstimate` and leave the RNG in the same state, whether it
is given a list of :class:`SetAccess`, a fresh :class:`UnionPlan` or a plan
earlier calls have partly resolved; and whole FPRAS runs must not change
when the reference replaces it.
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
from repro.errors import ParameterError, SampleExhaustedError, SamplingError
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
def reference_union(
    sets,
    epsilon,
    delta,
    size_slack,
    parameters,
    rng,
    raise_on_exhaustion=False,
    coverage_batch=None,
):
    sizes = [max(0.0, float(entry.size_estimate)) for entry in sets]
    total_size = sum(sizes)
    if total_size <= 0 or not sets:
        return UnionEstimate(0.0, 0, 0.0, 0, 0.0)
    m_hat = int(math.ceil(total_size / max(sizes)))
    trials = parameters.union_trials(epsilon, delta, size_slack, m_hat)
    strict = parameters.scale.strict_sample_consumption
    cumulative = []
    running = 0.0
    for size in sizes:
        running += size
        cumulative.append(running)
    taken = [0] * len(sets)
    exhausted = False
    drawn = []
    for _ in range(trials):
        point = rng.random() * cumulative[-1]
        index = next(i for i, running in enumerate(cumulative) if point <= running)
        stored = sets[index].samples
        if strict:
            position = taken[index]
            taken[index] += 1
        else:
            position = int(rng.random() * len(stored))
        if position == len(stored):
            exhausted = True
            if raise_on_exhaustion:
                raise SampleExhaustedError(
                    f"set {sets[index].label!r} ran out of samples after {len(drawn)} trials"
                )
            if strict:
                break
            continue
        drawn.append(stored[position])
    if coverage_batch is not None and drawn:
        counts = list(coverage_batch(drawn))
    else:
        counts = [sum(1 for entry in sets if entry.oracle(sample)) for sample in drawn]
    if 0 in counts:
        raise SamplingError("a stored sample lies outside every set of the union")
    score = math.fsum(1.0 / count for count in counts)
    membership_calls = len(drawn) * len(sets)
    if not drawn:
        return UnionEstimate(0.0, 0, 0.0, membership_calls, total_size, exhausted)
    return UnionEstimate(
        (score / len(drawn)) * total_size,
        len(drawn),
        score,
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


class _Coverage:
    """Every oracle asked about every sample, recording the samples it counts."""

    def __init__(self, sets):
        self.oracles = [entry.oracle for entry in sets]
        self.queries = []

    def __call__(self, samples):
        self.queries.extend(samples)
        return [sum(1 for oracle in self.oracles if oracle(sample)) for sample in samples]


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
        plan, **arguments, samples=samples, coverage_batch=_Coverage(sets), **keywords,
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
    assert expected == UnionEstimate(0.0, 0, 0.0, 0, 0.0)


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
    # Every trial scores 1, so the estimate is the stored size exactly.
    assert expected.unique_hits == expected.trials and expected.estimate == 40.0
    assert not expected.exhausted


@pytest.mark.parametrize("seed", range(6))
def test_draws_with_replacement_match_reference(seed):
    # 40 trials over 2 stored samples per set: positions repeat, and no set
    # runs dry.
    sets = _random_sets(seed, count=3, samples=2)
    expected = _assert_matches_reference(sets, CYCLIC, seed)
    assert not expected.exhausted and expected.trials == 40


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
def test_sample_outside_its_set_raises_like_reference(parameters):
    sets = _random_sets(4)
    sets[2] = _access([1, 2, 3], [99, 99, 99], 3.0, label="stray")
    with pytest.raises(SamplingError):
        reference_union(sets, 0.3, 0.1, 0.05, parameters, random.Random(4))
    for plan in (None, _plan(sets)):
        with pytest.raises(SamplingError, match="'stray'"):
            _call(sets, parameters, random.Random(4), plan)
        if plan is not None:  # the count is never memoised, nor scored
            assert 0 in plan.answers


@pytest.mark.parametrize("parameters", [CYCLIC, STRICT], ids=["cyclic", "strict"])
@pytest.mark.parametrize("seed", range(8))
def test_reused_plan_matches_reference_call_by_call(seed, parameters):
    """One plan over many calls on one stream: counts fill in lazily, and
    each call still equals a memo-free reference call."""
    sets = _random_sets(seed, count=5, samples=12)
    plan = _plan(sets)
    samples = {entry.label: entry.samples for entry in sets}
    coverage = _Coverage(sets)
    rng = random.Random(seed)
    expected_rng = random.Random(seed)
    known = []
    for _ in range(6):
        observed = approximate_union(
            plan, 0.3, 0.1, 0.05, parameters, rng,
            coverage_batch=coverage, samples=samples,
        )
        expected = reference_union(sets, 0.3, 0.1, 0.05, parameters, expected_rng)
        assert observed == expected
        assert rng.getstate() == expected_rng.getstate()
        known.append(sum(1 for count in plan.answers if count))
    # The first call resolved only part of the plan, later calls added to
    # it, and each query resolved a different stored sample: none was asked
    # about twice.
    assert 0 < known[0] < len(plan.answers)
    assert known[-1] > known[0]
    assert known[-1] == len(coverage.queries)


def test_plan_answers_match_the_oracles():
    sets = _random_sets(5, count=4, samples=10)
    plan = _plan(sets)
    samples = {entry.label: entry.samples for entry in sets}
    rng = random.Random(5)
    for _ in range(20):
        approximate_union(
            plan, 0.3, 0.1, 0.05, CYCLIC, rng,
            coverage_batch=_Coverage(sets), samples=samples,
        )
    checked = 0
    shared = 0
    for index, entry in enumerate(sets):
        for position, sample in enumerate(entry.samples):
            count = plan.answers[plan.offsets[index] + position]
            if not count:  # never drawn
                continue
            checked += 1
            assert count == sum(1 for other in sets if other.oracle(sample))
            shared += count > 1
    assert checked > 0 and shared > 0


def test_plan_state_is_mostly_untracked_by_the_cycle_collector():
    """A run keeps thousands of plans; of their state only the plan and its
    offsets ``array`` add to what the cyclic garbage collector traverses."""
    plan = _plan(_random_sets(1))
    gc.collect()
    for state in (plan.keys, plan.sizes, plan.cumulative, plan.answers):
        assert not gc.is_tracked(state)


def test_unions_past_the_one_byte_answer_code_match_reference():
    # Every set T_i = {0, i + 1} holds the shared element 0, so its coverage
    # count, 300, runs past what one byte holds.
    sets = [_access({0, i + 1}, [0, i + 1], 2.0, label=i) for i in range(300)]
    _assert_matches_reference(sets, CYCLIC, 3)
    plan = _plan(sets)
    _call(sets, CYCLIC, random.Random(3), plan)
    assert max(plan.answers) == 300


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
    # Through a plan: the patched ``sum`` would make the oracle counts floats.
    result = _call(sets, CYCLIC, Top(0), _plan(sets))
    # The top draw lands on the second set, whose sample the first set also
    # contains: every trial scores 1/2.
    assert result.trials == 40 and result.unique_hits == 20.0
    assert result.sum_of_sizes == math.fsum(sizes)


# ----------------------------------------------------------------------
# A generator subclass
# ----------------------------------------------------------------------
class _OwnRandom(random.Random):
    """A ``random.Random`` subclass: its draws go through its own methods."""

    def random(self):
        return super().random()


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
    raise_on_exhaustion=False, coverage_batch=None, samples=None,
):
    """The counting layer's plan calls, answered by :func:`reference_union`."""
    sets = [
        SetAccess(oracle=None, samples=samples.get(key, ()), size_estimate=size, label=key)
        for key, size in zip(plan.keys, plan.sizes)
    ]
    return reference_union(
        sets, epsilon, delta, size_slack, parameters, rng,
        raise_on_exhaustion, coverage_batch,
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
