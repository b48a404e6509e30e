"""Baseline: the ACJR-style FPRAS (Arenas, Croquevielle, Jayaram, Riveros).

The paper's comparison target is the first FPRAS for #NFA [ACJR 2019/2021].
Both schemes follow the same template (Fig. 1 of the paper): unroll the
automaton, and per (state, level) maintain a size estimate and a multiset of
sampled words.  The differences this module reproduces are the ones the
paper calls out:

* **Union estimation.**  ACJR estimate the size of a union
  ``⋃_i L(p_i^{l-1})`` with the *sequential-difference* estimator implied by
  their invariant (ACJR-1): process predecessor states in a fixed order and,
  for each ``p_i``, estimate the fraction of ``L(p_i)`` *not* covered by the
  earlier predecessors using the stored samples of ``p_i`` themselves —
  ``N(q^l) ≈ Σ_i N(p_i) · |{σ in S(p_i) : σ ∉ ⋃_{j<i} L(p_j)}| / |S(p_i)|``.
  Their analysis requires this fraction to be accurate *for every subset of
  states simultaneously* (a union bound over exponentially many events),
  which is what forces their per-state sample count up to ``O((mn/ε)^7)``.
* **Sample counts.**  ``ns_ACJR = κ^7`` with ``κ = mn/ε`` versus the new
  scheme's ``Õ(n^4/ε^2)``.  In scaled mode both are capped, but the cap for
  the ACJR baseline is configurable independently so experiments can keep
  the configured ratio visible while staying runnable.

The point of this re-implementation is the head-to-head *shape* comparison
(who wins, how the gap scales with ``m``, ``n``, ``ε``); it is not a
line-by-line port of the ACJR paper.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.automata.nfa import NFA, State, Word
from repro.automata.unroll import UnrolledAutomaton
from repro.counting.params import (
    acjr_samples_per_state,
    validate_attempt_factor,
    validate_epsilon,
    validate_sample_cap,
)
from repro.errors import EmptyLanguageError, ParameterError

StateLevel = Tuple[State, int]


@dataclass(frozen=True)
class ACJRParameters:
    """Accuracy targets and scaled sample caps for the ACJR baseline.

    ``sample_cap`` must be an int of at least 2 and ``attempt_factor`` a
    finite number of at least 1, as on
    :class:`~repro.counting.params.ParameterScale`.  ``backend`` and
    ``use_engine_cache`` mirror the same knobs on
    :class:`~repro.counting.params.FPRASParameters`: they select the NFA
    simulation engine and whether it is acquired from the shared
    :class:`~repro.automata.engine.EngineRegistry`.  Results are identical
    for every combination; only speed differs.
    """

    epsilon: float = 0.5
    delta: float = 0.1
    sample_cap: int = 96
    attempt_factor: float = 6.0
    seed: Optional[int] = None
    backend: Optional[str] = None
    use_engine_cache: bool = True

    def __post_init__(self) -> None:
        validate_epsilon(self.epsilon)
        if not 0 < self.delta < 1:
            raise ParameterError("delta must lie in (0, 1)")
        validate_sample_cap(self.sample_cap)
        validate_attempt_factor(self.attempt_factor)

    def samples_per_state_paper(self, num_states: int, length: int) -> float:
        """The configured (un-scaled) ACJR sample count ``κ^7``."""
        return acjr_samples_per_state(num_states, length, self.epsilon)

    def samples_per_state(self, num_states: int, length: int) -> int:
        """Operational (capped) sample count per (state, level)."""
        return int(
            max(2, min(self.sample_cap, self.samples_per_state_paper(num_states, length)))
        )


@dataclass
class ACJRResult:
    """Outcome of one ACJR-baseline run."""

    estimate: float
    length: int
    num_states: int
    epsilon: float
    ns: int
    elapsed_seconds: float
    membership_calls: int
    sample_draws: int
    sample_successes: int
    state_estimates: Dict[StateLevel, float] = field(default_factory=dict)

    def relative_error(self, exact: int) -> float:
        if exact == 0:
            return 0.0 if self.estimate == 0 else float("inf")
        return abs(self.estimate - exact) / exact


class ACJRCounter:
    """The ACJR-style baseline FPRAS (template of Fig. 1 with ACJR estimators)."""

    def __init__(
        self,
        nfa: NFA,
        length: int,
        parameters: Optional[ACJRParameters] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if length < 0:
            raise ParameterError("length must be non-negative")
        self.nfa = nfa
        self.length = length
        self.parameters = parameters if parameters is not None else ACJRParameters()
        self.rng = rng if rng is not None else random.Random(self.parameters.seed)
        self.unroll = UnrolledAutomaton(
            nfa,
            length,
            backend=self.parameters.backend,
            use_engine_cache=self.parameters.use_engine_cache,
        )
        self.estimates: Dict[StateLevel, float] = {}
        self.samples: Dict[StateLevel, List[Word]] = {}
        self._membership_calls = 0
        self._sample_draws = 0
        self._sample_successes = 0
        # The sequential-difference estimator is deterministic given the
        # stored estimates/samples of its level, so memoising it is a pure
        # speedup (no behavioural change).
        self._union_cache: Dict[Tuple[Tuple[State, ...], int], float] = {}

    # ------------------------------------------------------------------
    def run(self) -> ACJRResult:
        """Execute the baseline dynamic program and return the estimate."""
        start = time.perf_counter()
        ns = self.parameters.samples_per_state(self.nfa.num_states, self.length)
        attempts = max(ns, int(math.ceil(self.parameters.attempt_factor * ns)))

        initial = self.nfa.initial
        self.estimates[(initial, 0)] = 1.0
        self.samples[(initial, 0)] = [()] * ns

        for level in range(1, self.length + 1):
            for state in sorted(self.unroll.live_states(level), key=repr):
                estimate = self._estimate_state(state, level)
                if estimate <= 0.0:
                    estimate = 1.0
                self.estimates[(state, level)] = estimate
                self.samples[(state, level)] = self._draw_samples(
                    state, level, ns, attempts
                )

        estimate = self._final_estimate()
        elapsed = time.perf_counter() - start
        return ACJRResult(
            estimate=estimate,
            length=self.length,
            num_states=self.nfa.num_states,
            epsilon=self.parameters.epsilon,
            ns=ns,
            elapsed_seconds=elapsed,
            membership_calls=self._membership_calls,
            sample_draws=self._sample_draws,
            sample_successes=self._sample_successes,
            state_estimates=dict(self.estimates),
        )

    # ------------------------------------------------------------------
    def _union_estimate(self, states: Sequence[State], level: int) -> float:
        """ACJR's sequential-difference union estimator over ``L(p^level)``.

        For predecessors in a fixed order, the contribution of ``p_i`` is its
        own size estimate times the fraction of its stored samples that avoid
        all earlier predecessor languages.
        """
        ordered = sorted(states, key=repr)
        cache_key = (tuple(ordered), level)
        cached = self._union_cache.get(cache_key)
        if cached is not None:
            return cached
        total = 0.0
        for position, state in enumerate(ordered):
            size = self.estimates.get((state, level), 0.0)
            if size <= 0:
                continue
            stored = self.samples.get((state, level), ())
            if not stored:
                continue
            outside = 0
            for word in stored:
                covered = False
                for earlier in ordered[:position]:
                    self._membership_calls += 1
                    if self.unroll.member(earlier, word):
                        covered = True
                        break
                if not covered:
                    outside += 1
            total += size * (outside / len(stored))
        self._union_cache[cache_key] = total
        return total

    def _estimate_state(self, state: State, level: int) -> float:
        total = 0.0
        for symbol in self.nfa.alphabet:
            predecessors = self.unroll.predecessors(state, symbol, level)
            if predecessors:
                total += self._union_estimate(sorted(predecessors, key=repr), level - 1)
        return total

    def _draw_samples(
        self, state: State, level: int, ns: int, attempts: int
    ) -> List[Word]:
        """Backward sampling using the sequential-difference branch estimates."""
        collected: List[Word] = []
        target_estimate = self.estimates[(state, level)]
        gamma0 = 2.0 / (3.0 * math.e * target_estimate)
        for _ in range(attempts):
            if len(collected) >= ns:
                break
            self._sample_draws += 1
            word = self._draw_one(state, level, gamma0)
            if word is not None:
                self._sample_successes += 1
                collected.append(word)
        if len(collected) < ns:
            witness = self.unroll.witness(state, level)
            if witness is None:  # pragma: no cover - live states have witnesses
                raise EmptyLanguageError(f"no witness for live state {state!r}")
            collected.extend([witness] * (ns - len(collected)))
        return collected

    def _draw_one(self, state: State, level: int, gamma0: float) -> Optional[Word]:
        phi = gamma0
        word: Word = ()
        current = frozenset({state})
        for current_level in range(level, 0, -1):
            branch_sizes: Dict[str, float] = {}
            branch_preds: Dict[str, frozenset] = {}
            for symbol in self.nfa.alphabet:
                predecessors = self.unroll.predecessors_of_set(
                    current, symbol, current_level
                )
                branch_preds[symbol] = predecessors
                branch_sizes[symbol] = (
                    self._union_estimate(sorted(predecessors, key=repr), current_level - 1)
                    if predecessors
                    else 0.0
                )
            total = sum(branch_sizes.values())
            if total <= 0:
                return None
            point = self.rng.random() * total
            running = 0.0
            chosen = None
            for symbol, size in branch_sizes.items():
                running += size
                if point <= running:
                    chosen = symbol
                    break
            if chosen is None:
                chosen = list(branch_sizes)[-1]
            probability = branch_sizes[chosen] / total
            phi /= probability
            word = (chosen,) + word
            current = branch_preds[chosen]
        if phi > 1.0:
            return None
        if self.rng.random() < phi:
            return word
        return None

    def _final_estimate(self) -> float:
        accepting = sorted(self.unroll.accepting_live_states(), key=repr)
        if not accepting:
            return 0.0
        if len(accepting) == 1:
            return self.estimates.get((accepting[0], self.length), 0.0)
        return self._union_estimate(accepting, self.length)
