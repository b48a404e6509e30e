"""Differential parity suite: the bitset backend vs the frozenset reference.

The bitset engine is only admissible because it is *observationally
identical* to the reference semantics.  This suite pins that down at every
layer as a differential matrix (``reference`` / ``bitset``):

* engine level — ``accepts`` / ``step`` / ``pre`` / encode-decode round
  trips agree on ~200 seeded random NFAs plus the structured families;
* batch walk — the bitset engine's NumPy walk (``simulate_batch`` /
  ``accepts_batch``) agrees with per-word reference simulation on the same
  sweeps and on automata of up to five 64-bit blocks, and counts its trie
  walk exactly as the generic sorted walk does;
* unrolling level — live-state sets per level, live-restricted predecessor
  sets and witnesses agree;
* algorithm level — a full FPRAS run with a shared seeded
  ``random.Random`` produces bit-identical estimates, per-state tables,
  sample multisets, work counters and uniform-sampler draws on every
  backend;
* backend selection — the ``auto`` pseudo-backend means unset: it resolves
  to ``bitset`` at every automaton size and shares registry slots with it;
* lookup tables built on first touch — a fresh engine holds well under a
  megabyte at 1024 states, a lookup builds only the table it touches, the
  tables it builds answer like the reference engine, and the batch walk's
  tensors exist only once a batch has been walked.

Any divergence found here is a bug in one of the backends, not a tolerance
issue: every assertion is exact.
"""

from __future__ import annotations

import gc
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from repro.automata import engine as engine_module
from repro.automata import families
from repro.automata.block import BatchWalker
from repro.automata.engine import (
    EngineRegistry,
    available_backends,
    create_engine,
    resolve_backend,
)
from repro.automata.nfa import NFA
from repro.automata.random_gen import random_nfa, random_nonempty_nfa
from repro.automata.unroll import ReachabilityCache, UnrolledAutomaton
from repro.counting.fpras import NFACounter
from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.policy import ExecutionPolicy
from repro.counting.uniform import UniformWordSampler

#: Seeds for the random-NFA sweep (~200 automata overall; see the fixtures).
RANDOM_SWEEP_SEEDS = range(160)

#: The non-reference backends under differential test against the reference.
FAST_BACKENDS = ("bitset",)

#: Engine counters a batched simulation adds to.
BATCH_COUNTERS = ("step_ops", "batch_steps_saved", "batch_calls", "batch_words")

FAMILY_INSTANCES = [
    ("all_words", families.all_words_nfa()),
    ("parity_3", families.parity_nfa(3)),
    ("parity_5_residue_2", families.parity_nfa(5, residue=2)),
    ("divisibility_5", families.divisibility_nfa(5)),
    ("divisibility_7", families.divisibility_nfa(7)),
    ("substring_101", families.substring_nfa("101")),
    ("substring_0110", families.substring_nfa("0110")),
    ("suffix_0110", families.suffix_nfa("0110")),
    ("suffix_10", families.suffix_nfa("10")),
    ("union_patterns", families.union_of_patterns_nfa(["00", "11", "0101"])),
    ("blocks_3", families.blocks_nfa(3)),
    ("ladder_4", families.ladder_nfa(4)),
    ("no_consecutive_ones", families.no_consecutive_ones_nfa()),
]


def _random_instance(seed: int) -> NFA:
    """One deterministic random NFA; parameters vary with the seed."""
    rng = random.Random(seed)
    num_states = rng.randrange(1, 14)
    density = rng.choice([0.1, 0.2, 0.35, 0.5])
    accepting_fraction = rng.choice([0.15, 0.3, 0.6])
    return random_nfa(
        num_states,
        density=density,
        accepting_fraction=accepting_fraction,
        seed=seed,
        ensure_connected=bool(seed % 2),
    )


def _probe_words(nfa: NFA, seed: int, count: int = 25, max_length: int = 9):
    """Deterministic probe words: short exhaustive ones plus random longer ones."""
    words = [()]
    for length in (1, 2, 3):
        words.extend(itertools.product(nfa.alphabet, repeat=length))
    rng = random.Random(seed * 7919 + 13)
    alphabet = list(nfa.alphabet)
    for _ in range(count):
        length = rng.randrange(4, max_length + 1)
        words.append(tuple(rng.choice(alphabet) for _ in range(length)))
    return words


def _engine_pair(nfa: NFA, backend: str = "bitset"):
    return create_engine(nfa, "reference"), create_engine(nfa, backend)


class TestEngineRegistry:
    def test_all_backends_registered(self):
        assert available_backends() == ("auto", "bitset", "reference")

    def test_unknown_backend_rejected(self, substring_101_nfa):
        from repro.errors import ParameterError

        for backend in ("no-such-backend", "numpy"):
            with pytest.raises(ParameterError):
                create_engine(substring_101_nfa, backend)


class TestEngineLevelParity:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("seed", RANDOM_SWEEP_SEEDS)
    def test_random_nfa_simulation_parity(self, seed, backend):
        nfa = _random_instance(seed)
        reference, fast = _engine_pair(nfa, backend)
        # Structural handles decode identically.
        assert fast.decode(fast.initial) == reference.decode(reference.initial)
        assert fast.decode(fast.accepting) == reference.decode(
            reference.accepting
        )
        for word in _probe_words(nfa, seed):
            assert fast.accepts(word) == reference.accepts(word), word
            assert fast.reachable_states(word) == reference.reachable_states(
                word
            ), word

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("seed", range(0, 80))
    def test_random_nfa_step_and_pre_parity(self, seed, backend):
        nfa = _random_instance(seed)
        reference, fast = _engine_pair(nfa, backend)
        rng = random.Random(seed + 10_000)
        states = sorted(nfa.states, key=repr)
        for _ in range(20):
            subset = frozenset(
                state for state in states if rng.random() < 0.4
            )
            handle_ref = reference.encode(subset)
            handle_fast = fast.encode(subset)
            assert fast.decode(handle_fast) == subset
            assert reference.count(handle_ref) == fast.count(handle_fast)
            for symbol in nfa.alphabet:
                assert fast.decode(
                    fast.step(handle_fast, symbol)
                ) == reference.step(handle_ref, symbol)
                assert fast.decode(
                    fast.pre(handle_fast, symbol)
                ) == reference.pre(handle_ref, symbol)
            assert fast.decode(
                fast.step_all(handle_fast)
            ) == reference.step_all(handle_ref)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("name,nfa", FAMILY_INSTANCES)
    def test_family_simulation_parity(self, name, nfa, backend):
        reference, fast = _engine_pair(nfa, backend)
        for word in _probe_words(nfa, seed=len(name)):
            assert fast.accepts(word) == reference.accepts(word), (name, word)
            assert fast.reachable_states(word) == reference.reachable_states(word)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_accepts_matches_nfa_accepts(self, backend):
        # The fast engines must agree with the NFA's own simulation too.
        for name, nfa in FAMILY_INSTANCES[:6]:
            engine = create_engine(nfa, backend)
            for word in _probe_words(nfa, seed=3):
                assert engine.accepts(word) == nfa.accepts(word), (name, word)

    def test_unknown_state_contract_identical(self):
        # Every backend rejects unknown states in encode and treats them as
        # never contained in contains.
        from repro.errors import AutomatonError

        nfa = families.substring_nfa("101")
        for backend in available_backends():
            engine = create_engine(nfa, backend)
            with pytest.raises(AutomatonError):
                engine.encode(["no-such-state"])
            handle = engine.simulate("101")
            assert engine.contains(handle, "no-such-state") is False
            assert engine.contains(handle, "done") is True


def _multi_block_instance(seed: int) -> NFA:
    """A random NFA of 65-300 states: its sets span two to five blocks."""
    rng = random.Random(seed)
    num_states = rng.randrange(65, 301)
    return random_nfa(
        num_states,
        density=rng.choice([1.0, 2.0, 3.0]) / num_states,
        accepting_fraction=rng.choice([0.1, 0.3]),
        seed=seed,
        ensure_connected=bool(seed % 2),
    )


def _assert_batch_walk_parity(nfa: NFA, words) -> None:
    """The bitset engine's batch walk against per-word reference simulation,
    and its accounting against the reference engine's generic sorted walk."""
    words = words + words[::3]  # repeats share their whole path
    reference, walked = _engine_pair(nfa)
    generic = create_engine(nfa, "reference")
    handles = walked.simulate_batch(words)
    generic.simulate_batch(words)
    assert {key: walked.counters()[key] for key in BATCH_COUNTERS} == {
        key: generic.counters()[key] for key in BATCH_COUNTERS
    }
    assert [walked.decode(handle) for handle in handles] == [
        reference.reachable_states(word) for word in words
    ]
    assert walked.accepts_batch(words) == [reference.accepts(word) for word in words]


class TestBatchWalkParity:
    """The bitset engine's second forward path, its NumPy batch walk.

    ``simulate_batch`` / ``accepts_batch`` step chunk-table tensors, not the
    per-handle lookup tables above, so the walk gets the same random and
    family sweeps, plus automata whose sets span several blocks.
    """

    @pytest.mark.parametrize("seed", RANDOM_SWEEP_SEEDS)
    def test_random_nfa_batch_walk_parity(self, seed):
        nfa = _random_instance(seed)
        _assert_batch_walk_parity(nfa, _probe_words(nfa, seed))

    @pytest.mark.parametrize("name,nfa", FAMILY_INSTANCES)
    def test_family_batch_walk_parity(self, name, nfa):
        _assert_batch_walk_parity(nfa, _probe_words(nfa, seed=len(name)))

    @pytest.mark.parametrize("seed", range(40))
    def test_multi_block_batch_walk_parity(self, seed):
        nfa = _multi_block_instance(seed)
        _assert_batch_walk_parity(nfa, _probe_words(nfa, seed))

    @pytest.mark.parametrize(
        "num_states", [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 191, 192, 193]
    )
    def test_batch_walk_parity_at_chunk_and_block_bounds(self, num_states):
        # A set is ``num_states`` bits in whole 64-bit blocks, and the
        # relation rows pad it to whole 8-bit chunks.
        nfa = random_nfa(num_states, density=min(0.5, 2.0 / num_states), seed=num_states)
        _assert_batch_walk_parity(nfa, _probe_words(nfa, num_states))

    def test_accepts_batch_matches_nfa_accepts(self):
        for name, nfa in FAMILY_INSTANCES[:6]:
            words = _probe_words(nfa, seed=3)
            engine = create_engine(nfa, "bitset")
            assert engine.accepts_batch(words) == [
                nfa.accepts(word) for word in words
            ], name

    @pytest.mark.parametrize("seed", range(0, 40))
    def test_random_subset_walk_step_parity(self, seed):
        # A walk reads its tensors at reachable sets only; random subsets
        # reach any chunk-table entry.  One call steps every (subset,
        # symbol) pair in shuffled order, so the per-symbol grouping of a
        # trie level is covered too.
        nfa = _random_instance(seed)
        reference, fast = _engine_pair(nfa)
        walker = BatchWalker(
            nfa, {state: fast.state_index(state) for state in nfa.states}
        )
        rng = random.Random(seed + 10_000)
        states = sorted(nfa.states, key=repr)
        subsets = [frozenset(states)] + [
            frozenset(state for state in states if rng.random() < 0.4)
            for _ in range(20)
        ]
        subsets = [subset for subset in subsets if subset]  # a walk steps live sets
        pairs = [
            (position, code)
            for position in range(len(subsets))
            for code in range(len(nfa.alphabet))
        ]
        rng.shuffle(pairs)
        parents, codes = (np.array(column, dtype=np.intp) for column in zip(*pairs))
        node_states = np.vstack(
            [walker._blocks_of(fast.encode(subset)) for subset in subsets]
        )
        children = walker._step_children(node_states, parents, codes)
        assert [
            fast.decode(int.from_bytes(row.tobytes(), "little")) for row in children
        ] == [
            reference.step(reference.encode(subsets[position]), nfa.alphabet[code])
            for position, code in pairs
        ]


class TestUnrollParity:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("seed", range(40, 120))
    def test_live_states_and_predecessors_parity(self, seed, backend):
        nfa = _random_instance(seed)
        length = 6
        unroll_ref = UnrolledAutomaton(nfa, length, backend="reference")
        unroll_bit = UnrolledAutomaton(nfa, length, backend=backend)
        for level in range(length + 1):
            assert unroll_bit.live_states(level) == unroll_ref.live_states(level)
            for state in sorted(nfa.states, key=repr):
                assert unroll_bit.is_live(state, level) == unroll_ref.is_live(
                    state, level
                )
                for symbol in nfa.alphabet:
                    assert unroll_bit.predecessors(
                        state, symbol, level
                    ) == unroll_ref.predecessors(state, symbol, level)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("seed", range(80, 120))
    def test_predecessors_of_set_and_witness_parity(self, seed, backend):
        nfa = _random_instance(seed)
        length = 5
        unroll_ref = UnrolledAutomaton(nfa, length, backend="reference")
        unroll_bit = UnrolledAutomaton(nfa, length, backend=backend)
        rng = random.Random(seed)
        states = sorted(nfa.states, key=repr)
        for level in range(length + 1):
            subset = [state for state in states if rng.random() < 0.5]
            for symbol in nfa.alphabet:
                assert unroll_bit.predecessors_of_set(
                    subset, symbol, level
                ) == unroll_ref.predecessors_of_set(subset, symbol, level)
            for state in states:
                assert unroll_bit.witness(state, level) == unroll_ref.witness(
                    state, level
                )

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_reachability_cache_parity_and_counters(self, suffix_nfa_0110, backend):
        cache_ref = ReachabilityCache(
            suffix_nfa_0110, backend="reference", use_engine_cache=False
        )
        cache_bit = ReachabilityCache(
            suffix_nfa_0110, backend=backend, use_engine_cache=False
        )
        for word in ("", "0110", "01101", "0", "011", "0110110"):
            assert cache_bit.reachable(word) == cache_ref.reachable(word)
        # The prefix-sharing structure (and thus the amortisation accounting)
        # is representation-independent.
        assert len(cache_bit) == len(cache_ref)
        assert cache_bit.simulated_steps == cache_ref.simulated_steps
        assert cache_bit.lookups == cache_ref.lookups


class TestAlgorithmParity:
    def _run_counter(self, nfa, length, backend, seed):
        parameters = FPRASParameters(
            epsilon=0.4,
            delta=0.2,
            scale=ParameterScale.practical(sample_cap=8, union_trial_cap=12),
            seed=seed,
        )
        counter = NFACounter(
            nfa, length, parameters, policy=ExecutionPolicy(backend=backend)
        )
        result = counter.run()
        return counter, result

    @pytest.mark.parametrize("seed", range(100, 112))
    def test_fpras_runs_identical_across_backends(self, seed):
        nfa = random_nonempty_nfa(7, 6, density=0.35, seed=seed)
        counter_ref, result_ref = self._run_counter(nfa, 6, "reference", seed)
        for backend in FAST_BACKENDS:
            counter_fast, result_fast = self._run_counter(nfa, 6, backend, seed)
            assert result_fast.estimate == result_ref.estimate
            assert result_fast.state_estimates == result_ref.state_estimates
            assert result_fast.sample_counts == result_ref.sample_counts
            assert result_fast.union_calls == result_ref.union_calls
            assert result_fast.membership_calls == result_ref.membership_calls
            assert result_fast.sample_draws == result_ref.sample_draws
            assert result_fast.sample_successes == result_ref.sample_successes
            assert result_fast.padded_states == result_ref.padded_states
            assert counter_fast.samples == counter_ref.samples
            assert result_fast.backend == backend
        assert result_ref.backend == "reference"

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("name,nfa,length", [
        ("substring_101", families.substring_nfa("101"), 8),
        ("suffix_0110", families.suffix_nfa("0110"), 7),
        ("no_consecutive_ones", families.no_consecutive_ones_nfa(), 9),
    ])
    def test_family_fpras_parity(self, name, nfa, length, backend):
        _, result_ref = self._run_counter(nfa, length, "reference", seed=23)
        _, result_fast = self._run_counter(nfa, length, backend, seed=23)
        assert result_fast.estimate == result_ref.estimate, name
        assert result_fast.membership_calls == result_ref.membership_calls, name

    def test_uniform_sampler_draws_identical(self, fibonacci_nfa):
        draws = {}
        for backend in ("reference", *FAST_BACKENDS):
            parameters = FPRASParameters(epsilon=0.4, delta=0.2, seed=31)
            counter = NFACounter(
                fibonacci_nfa, 7, parameters, policy=ExecutionPolicy(backend=backend)
            )
            sampler = UniformWordSampler(counter, rng=random.Random(99))
            draws[backend] = sampler.sample_many(25)
        assert draws["bitset"] == draws["reference"]

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_montecarlo_and_bruteforce_backend_agreement(self, backend):
        from repro.counting.api import count

        fast, reference = ExecutionPolicy(backend=backend), ExecutionPolicy(
            backend="reference"
        )
        for seed in range(112, 118):
            nfa = _random_instance(seed)
            assert (
                count(nfa, 7, method="bruteforce", policy=fast).raw
                == count(nfa, 7, method="bruteforce", policy=reference).raw
            )
            mc_fast = count(
                nfa, 7, method="montecarlo", seed=5, policy=fast, num_samples=400
            ).raw
            mc_ref = count(
                nfa, 7, method="montecarlo", seed=5, policy=reference, num_samples=400
            ).raw
            assert mc_fast.estimate == mc_ref.estimate
            assert mc_fast.hits == mc_ref.hits


class TestDegenerateAutomataParity:
    """Backend parity on the empty-language and single-state automata."""

    EMPTY_LANGUAGE = NFA(
        states=frozenset({"a", "b"}),
        initial="a",
        transitions=frozenset({("a", "0", "a"), ("a", "1", "a")}),
        accepting=frozenset({"b"}),  # unreachable: L(A) is empty
    )
    SINGLE_STATE = NFA(
        states=frozenset({"only"}),
        initial="only",
        transitions=frozenset({("only", "0", "only")}),
        accepting=frozenset({"only"}),
    )
    SINGLE_STATE_NO_LOOP = NFA(
        states=frozenset({"only"}),
        initial="only",
        transitions=frozenset(),
        accepting=frozenset({"only"}),
    )

    @pytest.mark.parametrize(
        "nfa",
        [EMPTY_LANGUAGE, SINGLE_STATE, SINGLE_STATE_NO_LOOP],
        ids=["empty_language", "single_state", "single_state_no_loop"],
    )
    def test_simulation_parity(self, nfa):
        words = ["", "0", "1", "00", "01", "0110", "000000"]
        for backend in FAST_BACKENDS:
            reference = create_engine(nfa, "reference")
            fast = create_engine(nfa, backend)
            for word in words:
                assert fast.accepts(word) == reference.accepts(word), (backend, word)
                assert fast.reachable_states(word) == reference.reachable_states(
                    word
                ), (backend, word)
            assert fast.accepts_batch(words) == reference.accepts_batch(words)
            assert fast.counters()["step_ops"] == reference.counters()["step_ops"]

    @pytest.mark.parametrize(
        "nfa",
        [EMPTY_LANGUAGE, SINGLE_STATE, SINGLE_STATE_NO_LOOP],
        ids=["empty_language", "single_state", "single_state_no_loop"],
    )
    def test_fpras_estimates_identical(self, nfa):
        results = {}
        for backend in ("reference", *FAST_BACKENDS):
            parameters = FPRASParameters(
                epsilon=0.4,
                delta=0.2,
                scale=ParameterScale.practical(sample_cap=6, union_trial_cap=8),
                seed=7,
            )
            policy = ExecutionPolicy(backend=backend, use_engine_cache=False)
            results[backend] = NFACounter(nfa, 5, parameters, policy=policy).run()
        for backend in FAST_BACKENDS:
            assert results[backend].estimate == results["reference"].estimate
            assert (
                results[backend].membership_calls
                == results["reference"].membership_calls
            )


#: Automaton sizes the ``auto`` rule is pinned at: one state, 257 (just past
#: the 256 states above which ``auto`` used to pick numpy) and 1024.
AUTO_SIZES = (1, 257, 1024)


def _sized_instance(num_states: int) -> NFA:
    """A sparse random automaton with ``num_states`` states."""
    return random_nfa(num_states, density=min(0.5, 1.5 / num_states), seed=num_states)


class TestAutoBackend:
    def test_resolution_ignores_size(self):
        # ``auto`` means unset, and no automaton enters the rule.
        assert resolve_backend("auto") == "bitset"
        assert resolve_backend(None) == "bitset"
        assert resolve_backend("reference") == "reference"

    @pytest.mark.parametrize("num_states", AUTO_SIZES)
    def test_auto_engine_name_is_concrete(self, num_states):
        assert create_engine(_sized_instance(num_states), "auto").name == "bitset"

    @pytest.mark.parametrize("num_states", AUTO_SIZES)
    def test_auto_shares_registry_slot_with_concrete_backend(self, num_states):
        registry = EngineRegistry(max_entries=8)
        nfa = _sized_instance(num_states)
        assert registry.get(nfa, "auto") is registry.get(nfa, "bitset")
        assert registry.get(nfa, "auto") is not registry.get(nfa, "reference")

    def test_auto_fpras_matches_concrete_backend(self):
        nfa = random_nonempty_nfa(7, 6, density=0.35, seed=5)
        results = {}
        for backend in ("auto", "bitset"):
            parameters = FPRASParameters(
                epsilon=0.4,
                delta=0.2,
                scale=ParameterScale.practical(sample_cap=6, union_trial_cap=8),
                seed=11,
            )
            policy = ExecutionPolicy(backend=backend, use_engine_cache=False)
            results[backend] = NFACounter(nfa, 6, parameters, policy=policy).run()
        assert results["auto"].estimate == results["bitset"].estimate
        # The report names the concrete backend the run actually used.
        assert results["auto"].backend == "bitset"

    @pytest.mark.parametrize("backend", [None, "auto"])
    def test_unset_backend_runs_montecarlo_on_bitset(self, backend):
        from repro.counting.api import count

        nfa = families.substring_nfa("101")
        unset, bitset = (
            count(
                nfa, 8, method="montecarlo", seed=5, num_samples=400,
                policy=ExecutionPolicy(backend=name),
            )
            for name in (backend, "bitset")
        )
        assert unset.backend == "bitset"
        assert unset.estimate == bitset.estimate
        assert unset.details["hits"] == bitset.details["hits"]


@pytest.fixture(scope="module")
def wide_nfa():
    """1024 states at the ``wide-fpras`` density: 128 chunks per mask."""
    return random_nfa(1024, density=1.5 / 1024, seed=41)


def _built_chunks(tables):
    """Chunks of a bitset relation whose lookup table has been built."""
    return [chunk for chunk, table in enumerate(tables) if isinstance(table, list)]


class TestTablesBuiltOnFirstTouch:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_a_fresh_engine_holds_under_a_megabyte(self, wide_nfa, backend):
        # Building every table up front held about 23 MiB here.
        tracemalloc.start()
        try:
            engine = create_engine(wide_nfa, backend)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert engine.name == backend
        assert held < 1 << 20

    def test_a_dropped_bitset_engine_is_freed_at_once(self, wide_nfa):
        # A placeholder reaches its chunk list through a weak reference to
        # the engine, so unbuilt chunks form no reference cycle and the
        # engine's tables go without the cyclic collector.
        symbol = wide_nfa.alphabet[0]
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            engine = create_engine(wide_nfa, "bitset")
            for state in wide_nfa.states:
                engine.pre(engine.singleton(state), symbol)
            built, _ = tracemalloc.get_traced_memory()
            del engine
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert built - before > 1 << 20
        assert after - before < 16 << 10

    def test_one_bitset_pre_builds_one_chunk_table(self, wide_nfa):
        engine = create_engine(wide_nfa, "bitset")
        symbol = wide_nfa.alphabet[0]
        state = sorted(wide_nfa.states, key=repr)[-1]
        engine.pre(engine.singleton(state), symbol)
        assert _built_chunks(engine._rev[symbol]) == [engine.state_index(state) // 8]
        untouched = [
            engine._fwd_all,
            *engine._fwd.values(),
            *(tables for other, tables in engine._rev.items() if other != symbol),
        ]
        assert not any(_built_chunks(tables) for tables in untouched)

    def test_bitset_montecarlo_builds_only_walk_tensors(self, wide_nfa, monkeypatch):
        # Monte-Carlo's blocks go through the batch walk alone: its walker
        # builds forward tensors, and no per-handle lookup table is built.
        from repro.counting.api import count

        registry = EngineRegistry()
        monkeypatch.setattr(engine_module, "SHARED_ENGINE_REGISTRY", registry)
        report = count(wide_nfa, 8, method="montecarlo", seed=3, num_samples=2000)
        engine = registry.get(wide_nfa, "bitset")
        assert report.backend == "bitset"
        assert engine._walker._tensors
        assert not any(_built_chunks(tables) for tables in engine._relations.values())

    def test_a_fresh_walker_holds_only_packed_rows(self, wide_nfa):
        # Two symbols' packed rows take 256 KiB; one symbol's tensor would
        # take 4 MiB.
        engine = create_engine(wide_nfa, "bitset")
        index = {state: engine.state_index(state) for state in wide_nfa.states}
        tracemalloc.start()
        try:
            walker = BatchWalker(wide_nfa, index)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not walker._tensors
        assert held < 1 << 20

    def test_a_walk_builds_only_the_tensors_it_steps(self, wide_nfa):
        engine = create_engine(wide_nfa, "bitset")
        symbol = wide_nfa.alphabet[1]
        engine.simulate_batch([(symbol,) * 3, (symbol,), ()])
        assert list(engine._walker._tensors) == [1]

    def test_fpras_builds_no_walk_tensor(self, monkeypatch):
        from repro.counting.api import count

        registry = EngineRegistry()
        monkeypatch.setattr(engine_module, "SHARED_ENGINE_REGISTRY", registry)
        nfa = random_nonempty_nfa(300, 4, density=1.5 / 300, seed=7)
        report = count(nfa, 4, method="fpras", seed=3)
        assert report.backend == "bitset"
        assert registry.get(nfa, "bitset")._walker is None

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_partial_last_chunk_parity(self, backend):
        # 1021 states: the last chunk covers 5 states, so its table is short.
        nfa = random_nfa(1021, density=2.0 / 1021, seed=43)
        reference, fast = _engine_pair(nfa, backend)
        states = sorted(nfa.states, key=repr)
        rng = random.Random(47)
        subsets = [frozenset({state}) for state in states[-6:] + states[:2]]
        for density in (0.002, 0.02, 0.3):
            subsets.extend(
                frozenset(state for state in states if rng.random() < density)
                for _ in range(4)
            )
        for subset in subsets:
            handle_ref, handle_fast = reference.encode(subset), fast.encode(subset)
            for symbol in nfa.alphabet:
                assert fast.decode(fast.step(handle_fast, symbol)) == reference.step(
                    handle_ref, symbol
                )
                assert fast.decode(fast.pre(handle_fast, symbol)) == reference.pre(
                    handle_ref, symbol
                )
            assert fast.decode(fast.step_all(handle_fast)) == reference.step_all(
                handle_ref
            )
        words = _probe_words(nfa, 49, count=40, max_length=10)
        assert [fast.decode(handle) for handle in fast.simulate_batch(words)] == [
            reference.simulate(word) for word in words
        ]
