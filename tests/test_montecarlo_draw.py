"""Monte-Carlo words as position matrices: the bulk draw and the NumPy walk.

Three layers are pinned against the word-at-a-time implementations they
replaced, which are kept below as references:

* :func:`repro.counting.montecarlo.draw_words` must return exactly the
  positions successive ``rng.choice(alphabet)`` calls return, and leave the
  generator in the same state;
* whole Monte-Carlo runs must reproduce the reference loop's estimate,
  hits, final generator state and batch counters on every backend (an
  unset one runs bitset), with and without a progress callback, and from a
  session pinned for fpras with a windowed store (Monte-Carlo takes no
  store, so the session drops it and the run is the same serial loop); a
  block is 8192 words, or ``2**18`` positions when that is more words;
* the bitset engine's vectorised trie walk must agree with the generic
  sorted walk on a bitset engine, mask for mask and counter for counter.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.automata.engine import Engine, create_engine
from repro.automata.families import substring_nfa
from repro.automata.nfa import NFA
from repro.automata.random_gen import random_nonempty_nfa
from repro.counting.api import CountingSession, CountRequest, dispatch
from repro.counting.montecarlo import MonteCarloEstimate, draw_words, run_montecarlo
from repro.counting.params import ParameterScale
from repro.counting.policy import ExecutionPolicy
from repro.errors import ParameterError

BATCH_COUNTERS = ("step_ops", "batch_steps_saved", "batch_calls", "batch_words")


# ----------------------------------------------------------------------
# References: the word-at-a-time implementations the matrix path replaced
# ----------------------------------------------------------------------
def reference_draw(rng, alphabet, length, count):
    """The historical draw: one ``rng.choice`` per symbol, tuple words."""
    return [tuple(rng.choice(alphabet) for _ in range(length)) for _ in range(count)]


def reference_run_montecarlo(nfa, length, num_samples, rng, engine):
    """The historical ``run_montecarlo`` loop over tuple-word blocks."""
    alphabet = list(nfa.alphabet)
    total_words = len(alphabet) ** length
    # 8192 words, or 2**18 positions when that is more words.
    block_size = max(8192, 2**18 // max(length, 1))
    hits = 0
    remaining = num_samples
    while remaining:
        block = min(block_size, remaining)
        words = [
            tuple(rng.choice(alphabet) for _ in range(length))
            for _ in range(block)
        ]
        hits += sum(engine.accepts_batch(words))
        remaining -= block
    estimate = (hits / num_samples) * total_words
    return MonteCarloEstimate(
        estimate=estimate, hits=hits, samples=num_samples, total_words=total_words
    )


class FloatOnlyRandom(random.Random):
    """Overrides ``random()``, so ``choice`` draws through floats."""

    def random(self):
        return super().random()


class BitReversedRandom(random.Random):
    """Overrides ``getrandbits``: the same outputs, bit-reversed per call."""

    def getrandbits(self, k):
        value = super().getrandbits(k)
        return int(format(value, f"0{k}b")[::-1], 2) if k else 0


def _alphabet(size):
    return [f"s{position}" for position in range(size)]


# ----------------------------------------------------------------------
# draw_words
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8, 255, 256, 257])
def test_draw_matches_choice_loop(size):
    alphabet = _alphabet(size)
    for length in (0, 1, 12):
        for count_ in (0, 1, 8192):
            seed = 1000 * size + 10 * length + count_
            bulk, scalar = random.Random(seed), random.Random(seed)
            matrix = draw_words(bulk, size, length, count_)
            expected = reference_draw(scalar, alphabet, length, count_)
            assert matrix.shape == (count_, length)
            assert [tuple(alphabet[p] for p in row) for row in matrix.tolist()] == expected
            assert bulk.getstate() == scalar.getstate(), (size, length, count_)


@pytest.mark.parametrize("size", range(1, 65))
def test_draw_filters_like_randbelow_at_every_small_size(size):
    # Each size keeps the top size.bit_length() bits of an output and
    # rejects those >= size, as ``Random._randbelow`` does; up to 64 that
    # is every bit width from 1 to 7 and every rejection rate it allows.
    alphabet = _alphabet(size)
    for seed in range(4):
        bulk, scalar = random.Random(seed * 1000 + size), random.Random(seed * 1000 + size)
        matrix = draw_words(bulk, size, 5, 120)
        expected = reference_draw(scalar, alphabet, 5, 120)
        assert [tuple(alphabet[p] for p in row) for row in matrix.tolist()] == expected
        assert bulk.getstate() == scalar.getstate(), (size, seed)


@pytest.mark.parametrize("rng_class", [FloatOnlyRandom, BitReversedRandom])
@pytest.mark.parametrize("size", [1, 2, 3, 8, 257])
def test_draw_matches_choice_loop_for_subclasses(rng_class, size):
    alphabet = _alphabet(size)
    bulk, scalar = rng_class(size), rng_class(size)
    matrix = draw_words(bulk, size, 12, 300)
    expected = reference_draw(scalar, alphabet, 12, 300)
    assert [tuple(alphabet[p] for p in row) for row in matrix.tolist()] == expected
    assert bulk.getstate() == scalar.getstate()


@pytest.mark.parametrize("size", [2, 3, 257])
def test_draw_from_a_used_generator(size):
    # Index mid-block and gauss_next set: the draw starts where the stream
    # stands and writes back gauss_next with the advanced twister state.
    alphabet = _alphabet(size)
    bulk, scalar = random.Random(size), random.Random(size)
    for rng in (bulk, scalar):
        for _ in range(100):
            rng.random()
        rng.gauss(0.0, 1.0)
    assert bulk.getstate()[1][-1] not in (0, 624)
    assert bulk.getstate()[2] is not None
    matrix = draw_words(bulk, size, 7, 900)
    expected = reference_draw(scalar, alphabet, 7, 900)
    assert [tuple(alphabet[p] for p in row) for row in matrix.tolist()] == expected
    assert bulk.getstate() == scalar.getstate()
    assert bulk.gauss(0.0, 1.0) == scalar.gauss(0.0, 1.0)


def test_draw_continues_a_stream_block_by_block():
    # Blocks of any size read one stream: 3 + 5 words equal 8 words.
    split, whole = random.Random(4), random.Random(4)
    blocks = np.vstack([draw_words(split, 3, 6, 3), draw_words(split, 3, 6, 5)])
    assert np.array_equal(blocks, draw_words(whole, 3, 6, 8))
    assert split.getstate() == whole.getstate()


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------
def _reference_run(nfa, length, num_samples, seed):
    """Hits, final stream state and batch counters of the reference loop.

    Counters are backend-independent, so the reference engine answers for
    all.
    """
    rng = random.Random(seed)
    engine = create_engine(nfa, "reference")
    result = reference_run_montecarlo(nfa, length, num_samples, rng, engine)
    counters = engine.counters()
    return result.hits, rng.getstate(), {key: counters[key] for key in BATCH_COUNTERS}


_RUN_NFAS = {
    "binary-70": (random_nonempty_nfa(70, 9, density=0.06, seed=8), 9),
    "ternary-12": (
        random_nonempty_nfa(12, 5, density=0.2, alphabet=("a", "b", "c"), seed=5),
        5,
    ),
}


@pytest.mark.parametrize("name", sorted(_RUN_NFAS))
@pytest.mark.parametrize("with_progress", [False, True])
@pytest.mark.parametrize("via", ["request", "session"])
@pytest.mark.parametrize("backend", ["bitset", "reference", None, "auto"])
def test_run_matches_reference_loop(name, with_progress, via, backend):
    nfa, length = _RUN_NFAS[name]
    num_samples = 10_000  # one block
    rng = random.Random(17)
    policy = ExecutionPolicy(backend=backend, use_engine_cache=False)
    if via == "request":
        request = CountRequest(
            method="montecarlo",
            seed=rng,
            options={"num_samples": num_samples},
            policy=policy,
        )
    else:
        # Monte-Carlo takes neither a store nor fpras's scale: a session
        # pinned with them drops both for it, and the run is the same loop.
        session = CountingSession(
            scale=ParameterScale.practical(),
            policy=policy.with_overrides(store="windowed", window=2),
        )
        request = session.request("montecarlo", seed=rng, num_samples=num_samples)
        assert request.policy == policy
        assert request.options == {"num_samples": num_samples}
    events = []
    report = dispatch(
        nfa, length, request, progress=events.append if with_progress else None
    )
    hits, state, counters = _reference_run(nfa, length, num_samples, 17)
    assert report.details["hits"] == hits
    assert report.estimate == hits / num_samples * len(nfa.alphabet) ** length
    assert rng.getstate() == state
    assert {key: report.engine_counters[key] for key in BATCH_COUNTERS} == counters
    assert bool(events) == with_progress
    # An unset backend (None or "auto") runs Monte-Carlo on bitset.
    assert report.backend == ("reference" if backend == "reference" else "bitset")


def _blocks_of(nfa, length, num_samples, seed, backend):
    """Shapes of the serial run's accepts_batch blocks, with its counters."""
    engine = create_engine(nfa, backend)
    shapes = []
    accepts_batch = engine.accepts_batch

    def recording(words):
        shapes.append(words.shape)
        return accepts_batch(words)

    engine.accepts_batch = recording
    rng = random.Random(seed)
    result = run_montecarlo(nfa, length, num_samples, rng, engine)
    counters = {key: engine.counters()[key] for key in BATCH_COUNTERS}
    return shapes, (result.hits, rng.getstate(), counters)


def test_short_words_share_one_block():
    # 20,000 words of 12 symbols are 240,000 positions: one walk, where
    # 8192-word blocks took three.
    nfa = random_nonempty_nfa(70, 12, density=0.03, seed=2)
    shapes, run = _blocks_of(nfa, 12, 20_000, 3, "bitset")
    assert shapes == [(20_000, 12)]
    assert run == _reference_run(nfa, 12, 20_000, 3)


def test_long_words_keep_8192_word_blocks():
    # At n = 40 an 8192-word block already holds more than 2**18 positions,
    # so the blocks and batch counters are those of fixed 8192-word blocks.
    nfa = substring_nfa("1011")
    shapes, run = _blocks_of(nfa, 40, 8292, 5, "bitset")
    assert shapes == [(8192, 40), (100, 40)]
    assert run == _reference_run(nfa, 40, 8292, 5)


def test_short_word_blocks_split_at_2_18_positions():
    nfa, length = _RUN_NFAS["ternary-12"]
    per_block = 2**18 // length  # 52,428 five-symbol words
    shapes, run = _blocks_of(nfa, length, 2 * per_block + 100, 9, "bitset")
    assert shapes == [(per_block, length), (per_block, length), (100, length)]
    assert run == _reference_run(nfa, length, 2 * per_block + 100, 9)


# ----------------------------------------------------------------------
# The vectorised walk against the generic sorted walk
# ----------------------------------------------------------------------
def _walk_pair(nfa, words):
    """``simulate_batch`` of the vectorised walk and of the generic sorted
    walk, each on its own bitset engine: both return masks."""
    vectorised, generic = create_engine(nfa, "bitset"), create_engine(nfa, "bitset")
    fast = vectorised.simulate_batch(words)
    slow = Engine.simulate_batch(generic, words)
    counters = [
        {key: engine.counters()[key] for key in BATCH_COUNTERS}
        for engine in (vectorised, generic)
    ]
    accepts = create_engine(nfa, "bitset").accepts_batch(words)
    return fast, slow, counters, accepts, generic


def _assert_walks_agree(nfa, words):
    fast, slow, (fast_counters, slow_counters), accepts, generic = _walk_pair(nfa, words)
    assert fast == slow
    assert fast_counters == slow_counters
    assert accepts == [generic.intersects(handle, generic.accepting) for handle in slow]


# Dead prefixes: from the initial state, "0" leads nowhere and "11" dies.
_DEAD_PREFIX_NFA = NFA.build(
    [("s", "1", "t"), ("t", "0", "t"), ("t", "0", "u"), ("u", "1", "u")],
    initial="s",
    accepting=["u"],
    alphabet=("0", "1"),
)


@pytest.mark.parametrize("seed", range(16))
def test_walk_matches_generic_on_mixed_tuple_batches(seed):
    rng = random.Random(seed)
    nfa = random_nonempty_nfa(130, 6, density=0.03, seed=seed)
    words = [
        tuple(rng.choice("01") for _ in range(rng.randrange(9))) for _ in range(120)
    ]
    words += words[:15] + [(), ()]  # duplicates and empty words
    rng.shuffle(words)
    _assert_walks_agree(nfa, words)
    _assert_walks_agree(nfa, ["".join(word) for word in words])


@pytest.mark.parametrize("seed", range(16))
def test_walk_matches_generic_on_position_matrices(seed):
    rng = random.Random(seed)
    nfa = random_nonempty_nfa(130, 6, density=0.03, seed=seed)
    matrix = draw_words(rng, 2, 7, 400)
    _assert_walks_agree(nfa, matrix)
    # The matrix and its decoded tuples are the same batch.
    tuples = [tuple("01"[p] for p in row) for row in matrix.tolist()]
    assert _walk_pair(nfa, matrix)[:3] == _walk_pair(nfa, tuples)[:3]


def _monte_carlo_block():
    """A ``wide-montecarlo``-shaped block: 20,000 words at n = 12, of which
    only about 4,000 are distinct."""
    nfa = random_nonempty_nfa(
        512, 12, density=1.1 / 512, accepting_fraction=0.3, seed=1
    )
    return nfa, draw_words(random.Random(1), 2, 12, 20_000)


def _multi_key_block():
    """Ternary words at n = 70: 31 symbols fit one 62-bit key, so each word
    spans three keys.  Some words differ from another only in their second
    or third key, and the second half of the rows repeats the first.  About
    two in five words stay alive to the end; others die past level 31."""
    rng = random.Random(70)
    nfa = random_nonempty_nfa(40, 70, density=0.03, alphabet=("a", "b", "c"), seed=1)
    words = draw_words(rng, 3, 70, 150)
    variants = words[:60].copy()
    variants[:30, 40] = (variants[:30, 40] + 1) % 3
    variants[30:, 65] = (variants[30:, 65] + 2) % 3
    half = np.vstack([words, variants])
    return nfa, np.vstack([half, half])


def _prefix_block():
    """A word, each proper prefix of it, the empty word and an unknown
    symbol, each twice, as tuples."""
    nfa = random_nonempty_nfa(130, 6, density=0.03, seed=0)
    word = ("1", "0", "1", "1", "0", "0", "1")
    words = [word[:cut] for cut in range(len(word) + 1)] + [("z",), word[:3] + ("z",)]
    words += words
    random.Random(2).shuffle(words)
    return nfa, words


@pytest.mark.parametrize(
    "block", [_monte_carlo_block, _multi_key_block, _prefix_block],
    ids=["monte-carlo", "multi-key", "prefixes"],
)
def test_walk_matches_generic_on_batches_with_repeats(block):
    nfa, words = block()
    _assert_walks_agree(nfa, words)


def test_monte_carlo_block_is_mostly_repeats():
    _, words = _monte_carlo_block()
    assert len(np.unique(words, axis=0)) < 5_000


def test_walk_on_dead_prefixes():
    words = [("0",), ("0", "1", "1"), ("1", "1"), ("1", "1", "0"), ("1", "0", "1"),
             ("1", "0", "0", "1"), ("1",), ("1", "0", "1")]
    _assert_walks_agree(_DEAD_PREFIX_NFA, words)
    _assert_walks_agree(_DEAD_PREFIX_NFA, np.array([[0, 1, 1], [1, 1, 0], [1, 0, 1]]))


def test_walk_gives_each_unknown_symbol_its_own_trie_child():
    # "x" and "y" under the same parent are two stepped children, exactly
    # as the generic walk counts them; sharing one code would merge them.
    words = [("1", "x"), ("1", "y"), ("1", "x", "0"), ("x",), ("y",), ("1", "0")]
    _assert_walks_agree(_DEAD_PREFIX_NFA, words)
    fast, _, (fast_counters, _), accepts, _ = _walk_pair(_DEAD_PREFIX_NFA, words)
    # Level 1: "1", "x", "y"; level 2 under "1": "x", "y", "0".
    assert fast_counters["step_ops"] == 6
    assert accepts == [False] * 5 + [True]


@pytest.mark.parametrize(
    "batch", [[], np.empty((0, 4), dtype=np.intp), np.zeros((3, 0), dtype=np.intp)]
)
def test_walk_on_empty_batches_and_empty_words(batch):
    _assert_walks_agree(_DEAD_PREFIX_NFA, batch)


@pytest.mark.parametrize("backend", ["bitset", "reference"])
def test_position_matrix_validation(backend):
    engine = create_engine(_DEAD_PREFIX_NFA, backend)
    for bad in (np.array([[0, 2]]), np.array([[-1, 0]]), np.array([0, 1]), np.zeros((1, 2))):
        with pytest.raises(ParameterError):
            engine.accepts_batch(bad)
