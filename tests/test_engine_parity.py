"""Differential parity suite: fast backends vs the frozenset reference.

The bitset and numpy block engines are only admissible because they are
*observationally identical* to the reference semantics.  This suite pins
that down at every layer as a three-way differential matrix
(``reference`` / ``bitset`` / ``numpy``):

* engine level — ``accepts`` / ``step`` / ``pre`` / encode-decode round
  trips agree on ~200 seeded random NFAs plus the structured families;
* unrolling level — live-state sets per level, live-restricted predecessor
  sets and witnesses agree;
* algorithm level — a full FPRAS run with a shared seeded
  ``random.Random`` produces bit-identical estimates, per-state tables,
  sample multisets, work counters and uniform-sampler draws on every
  backend;
* backend selection — the ``auto`` pseudo-backend resolves to a concrete
  backend by automaton size and shares registry slots with it.

Any divergence found here is a bug in one of the backends, not a tolerance
issue: every assertion is exact.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.automata import families
from repro.automata.engine import (
    AUTO_BLOCK_THRESHOLD,
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
from repro.counting.uniform import UniformWordSampler

#: Seeds for the random-NFA sweep (~200 automata overall; see the fixtures).
RANDOM_SWEEP_SEEDS = range(160)

#: The non-reference backends under differential test against the reference.
FAST_BACKENDS = ("bitset", "numpy")

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
        assert "reference" in available_backends()
        assert "bitset" in available_backends()
        assert "numpy" in available_backends()
        assert "auto" in available_backends()

    def test_unknown_backend_rejected(self, substring_101_nfa):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            create_engine(substring_101_nfa, "no-such-backend")


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
    @pytest.mark.parametrize("seed", range(0, 40))
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


class TestUnrollParity:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("seed", range(40, 80))
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
    @pytest.mark.parametrize("seed", range(80, 100))
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
            backend=backend,
        )
        counter = NFACounter(nfa, length, parameters)
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
            parameters = FPRASParameters(
                epsilon=0.4, delta=0.2, seed=31, backend=backend
            )
            counter = NFACounter(fibonacci_nfa, 7, parameters)
            sampler = UniformWordSampler(counter, rng=random.Random(99))
            draws[backend] = sampler.sample_many(25)
        assert draws["bitset"] == draws["reference"]
        assert draws["numpy"] == draws["reference"]

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_montecarlo_and_bruteforce_backend_agreement(self, backend):
        from repro.counting.api import count
        from repro.counting.policy import ExecutionPolicy

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
    """Three-backend parity on the empty-language and single-state automata."""

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
                backend=backend,
                use_engine_cache=False,
            )
            results[backend] = NFACounter(nfa, 5, parameters).run()
        for backend in FAST_BACKENDS:
            assert results[backend].estimate == results["reference"].estimate
            assert (
                results[backend].membership_calls
                == results["reference"].membership_calls
            )


class TestAutoBackend:
    def test_resolution_by_size(self):
        small = families.substring_nfa("101")
        assert resolve_backend(small, "auto") == "bitset"
        assert resolve_backend(small, None) == "bitset"
        assert resolve_backend(small, "numpy") == "numpy"
        big = random_nfa(AUTO_BLOCK_THRESHOLD + 1, density=0.02, seed=1)
        assert resolve_backend(big, "auto") == "numpy"

    def test_auto_engine_name_is_concrete(self):
        small = families.substring_nfa("101")
        assert create_engine(small, "auto").name == "bitset"
        big = random_nfa(AUTO_BLOCK_THRESHOLD + 1, density=0.02, seed=2)
        assert create_engine(big, "auto").name == "numpy"

    def test_auto_shares_registry_slot_with_concrete_backend(self):
        registry = EngineRegistry(max_entries=8)
        small = families.substring_nfa("101")
        assert registry.get(small, "auto") is registry.get(small, "bitset")
        big = random_nfa(AUTO_BLOCK_THRESHOLD + 1, density=0.02, seed=3)
        assert registry.get(big, "auto") is registry.get(big, "numpy")

    def test_auto_fpras_matches_concrete_backend(self):
        nfa = random_nonempty_nfa(7, 6, density=0.35, seed=5)
        results = {}
        for backend in ("auto", "bitset"):
            parameters = FPRASParameters(
                epsilon=0.4,
                delta=0.2,
                scale=ParameterScale.practical(sample_cap=6, union_trial_cap=8),
                seed=11,
                backend=backend,
                use_engine_cache=False,
            )
            results[backend] = NFACounter(nfa, 6, parameters).run()
        assert results["auto"].estimate == results["bitset"].estimate
        # The report names the concrete backend the run actually used.
        assert results["auto"].backend == "bitset"
