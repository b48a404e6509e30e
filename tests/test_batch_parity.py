"""Differential tests for the batched simulation layer and engine registry.

The batch API is only admissible under the same contract as the backends
themselves: *observational identity*.  This suite pins down, exactly (no
tolerances):

* ``simulate_batch`` / ``accepts_batch`` / ``coverage_batch`` return, per
  word, precisely what the per-word ``simulate`` / ``accepts`` / membership
  oracles return — including empty words, duplicated words and
  mixed-length multisets;
* the batch work counters (``step_ops`` performed, ``batch_words``,
  ``batch_steps_saved``) are identical between the ``bitset`` backend's
  vectorised walk and the ``reference`` backend's generic sorted walk,
  i.e. both walks visit the same trie nodes;
* ``approximate_union`` produces bit-identical estimates and accounting on
  its two coverage strategies (every oracle asked, batched
  ``coverage_batch``) under a shared seed;
* the engine registry shares engines by automaton *value*, evicts LRU, and
  is observationally transparent: a full FPRAS run with the cache disabled
  (``--no-engine-cache`` / ``use_engine_cache=False``) reproduces the cached
  run bit for bit.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.automata import families
from repro.automata.engine import (
    EngineRegistry,
    acquire_engine,
    available_backends,
    create_engine,
)
from repro.automata.nfa import NFA
from repro.automata.random_gen import random_nfa, random_nonempty_nfa
from repro.automata.unroll import ReachabilityCache, UnrolledAutomaton
from repro.counting.fpras import NFACounter
from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.policy import ExecutionPolicy
from repro.counting.union import SetAccess, approximate_union

BATCH_SWEEP_SEEDS = range(60)

#: The non-reference backends under differential test against the reference.
FAST_BACKENDS = ("bitset",)


def _random_instance(seed: int) -> NFA:
    rng = random.Random(seed)
    return random_nfa(
        rng.randrange(1, 14),
        density=rng.choice([0.1, 0.25, 0.4]),
        accepting_fraction=rng.choice([0.2, 0.5]),
        seed=seed,
        ensure_connected=bool(seed % 2),
    )


def _word_multiset(nfa: NFA, seed: int, count: int = 40, max_length: int = 10):
    """A deliberately awkward multiset: empty word, duplicates, mixed lengths."""
    rng = random.Random(seed * 31 + 7)
    alphabet = list(nfa.alphabet)
    words = [(), ()]  # the empty word, twice
    for _ in range(count):
        length = rng.randrange(0, max_length + 1)
        words.append(tuple(rng.choice(alphabet) for _ in range(length)))
    words.extend(words[2:12])  # duplicate a block to exercise the trie reuse
    rng.shuffle(words)
    return words


class TestSimulateBatchParity:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("seed", BATCH_SWEEP_SEEDS)
    def test_batch_matches_per_word_and_backends_agree(self, seed, backend):
        nfa = _random_instance(seed)
        words = _word_multiset(nfa, seed)
        reference = create_engine(nfa, "reference")
        fast = create_engine(nfa, backend)
        handles_ref = reference.simulate_batch(words)
        handles_fast = fast.simulate_batch(words)
        for word, handle_ref, handle_fast in zip(words, handles_ref, handles_fast):
            expected = reference.decode(reference.simulate(word))
            assert reference.decode(handle_ref) == expected, word
            assert fast.decode(handle_fast) == expected, word
            assert fast.decode(fast.simulate(word)) == expected, word

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("seed", range(0, 24))
    def test_batch_work_counters_backend_identical(self, seed, backend):
        nfa = _random_instance(seed)
        words = _word_multiset(nfa, seed)
        reference = create_engine(nfa, "reference")
        fast = create_engine(nfa, backend)
        reference.simulate_batch(words)
        fast.simulate_batch(words)
        assert reference.step_ops == fast.step_ops
        assert reference.batch_calls == fast.batch_calls == 1
        assert reference.batch_words == fast.batch_words == len(words)
        assert reference.batch_steps_saved == fast.batch_steps_saved

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("seed", range(0, 24))
    def test_batch_saves_work_relative_to_per_word(self, seed, backend):
        """The trie walk never steps more than per-word simulation would."""
        nfa = _random_instance(seed)
        words = _word_multiset(nfa, seed)
        batched = create_engine(nfa, backend)
        batched.simulate_batch(words)
        scalar = create_engine(nfa, backend)
        for word in words:
            scalar.simulate(word)
        assert batched.step_ops + batched.batch_steps_saved == scalar.step_ops
        assert batched.step_ops <= scalar.step_ops
        # The duplicated block guarantees actual sharing on this multiset.
        assert batched.batch_steps_saved > 0

    def test_accepts_batch_matches_accepts(self):
        for name, nfa in [
            ("substring_101", families.substring_nfa("101")),
            ("parity_3", families.parity_nfa(3)),
            ("no_consecutive_ones", families.no_consecutive_ones_nfa()),
        ]:
            words = _word_multiset(nfa, seed=len(name))
            for backend in available_backends():
                engine = create_engine(nfa, backend)
                assert engine.accepts_batch(words) == [
                    engine.accepts(word) for word in words
                ], (name, backend)

    def test_empty_batch(self):
        engine = create_engine(families.substring_nfa("101"))
        assert engine.simulate_batch([]) == []
        assert engine.accepts_batch([]) == []


class TestMembershipBatchParity:
    @pytest.mark.parametrize("seed", range(12, 24))
    def test_membership_batch_matches_scalar_loop(self, seed):
        """Batched coverage counts equal the per-state membership oracles."""
        nfa = _random_instance(seed)
        words = _word_multiset(nfa, seed)
        states = sorted(nfa.states, key=repr)
        rng = random.Random(seed)
        unions = [rng.sample(states, rng.randrange(1, len(states) + 1)) for _ in range(4)]
        per_backend = {}
        for backend in available_backends():
            unroll = UnrolledAutomaton(nfa, 10, backend=backend, use_engine_cache=False)
            counts = []
            for union in unions:
                cover = unroll.coverage_batch(unroll.engine.encode(union))
                batched = cover(words)
                assert batched == [
                    sum(1 for state in union if unroll.member(state, word))
                    for word in words
                ], backend
                counts.append(batched)
            per_backend[backend] = counts
        assert per_backend["bitset"] == per_backend["reference"]

    def test_reachability_cache_batch_matches_scalar(self):
        nfa = families.suffix_nfa("0110")
        words = _word_multiset(nfa, seed=3)
        scalar = ReachabilityCache(nfa, backend="bitset", use_engine_cache=False)
        batched = ReachabilityCache(nfa, backend="bitset", use_engine_cache=False)
        expected = [scalar.reachable_handle(word) for word in words]
        observed = batched.reachable_handle_batch(words)
        assert observed == expected
        # Identical amortisation accounting: the cache stores every prefix,
        # so the total step count is order-independent.
        assert batched.simulated_steps == scalar.simulated_steps
        assert batched.lookups == scalar.lookups
        assert len(batched) == len(scalar)


class TestUnionBatchEquivalence:
    def _accesses_and_batch(self, length=7):
        nfa = families.substring_nfa("101")
        unroll = UnrolledAutomaton(nfa, length, use_engine_cache=False)
        states = sorted(unroll.live_states(length), key=repr)
        rng = random.Random(11)
        words = list(itertools.product(nfa.alphabet, repeat=length))
        samples = {
            state: rng.choices(
                [word for word in words if unroll.member(state, word)], k=12
            )
            for state in states
        }
        accesses = [
            SetAccess(
                oracle=unroll.membership_oracle(state),
                samples=samples[state],
                size_estimate=float(10 + position),
                label=state,
            )
            for position, state in enumerate(states)
        ]
        return unroll, states, accesses

    def test_oracle_and_batch_membership_identical(self):
        unroll, states, accesses = self._accesses_and_batch()
        parameters = FPRASParameters(seed=3)
        results = {}
        for mode in ("oracle", "batch"):
            keywords = {}
            if mode == "batch":
                keywords["coverage_batch"] = unroll.coverage_batch(
                    unroll.engine.encode(states)
                )
            rng = random.Random(29)
            results[mode] = (
                approximate_union(
                    accesses,
                    epsilon=0.4,
                    delta=0.2,
                    size_slack=0.1,
                    parameters=parameters,
                    rng=rng,
                    **keywords,
                ),
                rng.getstate(),
            )
        baseline, baseline_state = results["oracle"]
        observed, observed_state = results["batch"]
        assert observed == baseline
        assert observed_state == baseline_state
        # Not vacuous: some trials hit samples several sets contain.
        assert 0 < baseline.unique_hits < baseline.trials

    @pytest.mark.parametrize("seed", range(118, 126))
    def test_fpras_with_batching_backend_parity(self, seed):
        """End-to-end: the batched inner loops keep the backends identical."""
        nfa = random_nonempty_nfa(6, 5, density=0.35, seed=seed)
        results = {}
        for backend in available_backends():
            parameters = FPRASParameters(
                epsilon=0.5,
                delta=0.2,
                scale=ParameterScale.practical(sample_cap=6, union_trial_cap=10),
                seed=seed,
            )
            policy = ExecutionPolicy(backend=backend, use_engine_cache=False)
            results[backend] = NFACounter(nfa, 5, parameters, policy=policy).run()
        reference = results["reference"]
        for backend in FAST_BACKENDS:
            fast = results[backend]
            assert fast.estimate == reference.estimate, backend
            assert fast.membership_calls == reference.membership_calls, backend
            assert fast.state_estimates == reference.state_estimates, backend
            counters_ref = reference.engine_counters
            counters_fast = fast.engine_counters
            for key in (
                "step_ops",
                "pre_ops",
                "batch_calls",
                "batch_words",
                "batch_steps_saved",
                "cache_lookups",
                "cache_batch_lookups",
                "cache_batch_words",
                "cache_batch_hits",
                "simulated_steps",
            ):
                assert counters_fast[key] == counters_ref[key], (backend, key)


class TestEngineRegistry:
    def test_value_keyed_sharing_and_counters(self):
        registry = EngineRegistry(max_entries=8)
        first = families.substring_nfa("101")
        second = families.substring_nfa("101")  # equal value, distinct object
        assert first is not second
        engine = registry.get(first, "bitset")
        assert registry.get(second, "bitset") is engine
        assert registry.get(first, "reference") is not engine
        assert registry.counters() == {"hits": 1, "misses": 2, "entries": 2}

    def test_lru_eviction(self):
        registry = EngineRegistry(max_entries=2)
        automata = [families.parity_nfa(k) for k in (2, 3, 4)]
        engines = [registry.get(nfa) for nfa in automata]
        assert len(registry) == 2
        # The oldest entry was evicted; re-acquiring rebuilds it.
        assert registry.get(automata[0]) is not engines[0]
        # The other two remained shared until evicted.
        assert registry.counters()["misses"] == 4

    def test_acquire_engine_flags(self):
        registry = EngineRegistry()
        nfa = families.parity_nfa(3)
        engine, from_cache = acquire_engine(nfa, registry=registry)
        assert from_cache is False
        again, from_cache = acquire_engine(nfa, registry=registry)
        assert from_cache is True and again is engine
        private, from_cache = acquire_engine(nfa, use_cache=False, registry=registry)
        assert from_cache is False and private is not engine

    def test_shared_and_private_runs_bit_identical(self):
        nfa = families.no_consecutive_ones_nfa()
        shared = FPRASParameters(epsilon=0.5, seed=13)
        shared_first = NFACounter(nfa, 8, shared).run()
        shared_second = NFACounter(nfa, 8, shared).run()
        private = NFACounter(
            nfa, 8, shared, policy=ExecutionPolicy(use_engine_cache=False)
        ).run()
        assert shared_first.estimate == shared_second.estimate == private.estimate
        assert (
            shared_first.membership_calls
            == shared_second.membership_calls
            == private.membership_calls
        )
        assert shared_second.engine_counters["engine_cache_hit"] == 1
        assert private.engine_counters["engine_cache_hit"] == 0
        # Per-run engine deltas are registry-independent.
        for key in ("step_ops", "pre_ops", "cache_lookups", "simulated_steps"):
            assert (
                shared_second.engine_counters[key] == private.engine_counters[key]
            ), key

    def test_unrolled_automata_share_registry_engine(self):
        nfa = families.divisibility_nfa(5)
        first = UnrolledAutomaton(nfa, 6)
        second = UnrolledAutomaton(families.divisibility_nfa(5), 6)
        assert second.engine is first.engine
        assert second.engine_cache_hit
        isolated = UnrolledAutomaton(nfa, 6, use_engine_cache=False)
        assert isolated.engine is not first.engine

    def test_cli_no_engine_cache_flag(self, capsys):
        from repro.cli import main

        arguments = [
            "count",
            "parity",
            "--length",
            "6",
            "--epsilon",
            "0.5",
            "--seed",
            "3",
        ]
        assert main(arguments) == 0
        cached_output = capsys.readouterr().out
        assert main(arguments + ["--no-engine-cache"]) == 0
        uncached_output = capsys.readouterr().out

        def estimates(text):
            return [
                line
                for line in text.splitlines()
                if "fpras" in line or "estimate" in line
            ]

        assert estimates(cached_output) == estimates(uncached_output)
        assert "engine_cache_hit" in cached_output
