"""Almost-uniform generation of accepted words, built on the FPRAS tables.

The paper's opening observation is the Jerrum–Valiant–Vazirani
inter-reducibility of approximate counting and almost-uniform sampling for
self-reducible problems.  Algorithm 3 already materialises everything needed
to *sample*: per-(state, level) size estimates and sample multisets.  This
module packages that direction as a reusable generator: after one counting
pass, each :meth:`UniformWordSampler.sample` call draws a fresh word from
``L(A_n)`` whose distribution is (close to) uniform — the primitive the
regular-path-query and probabilistic-database applications consume.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.automata.nfa import NFA, Word
from repro.counting.fpras import NFACounter
from repro.counting.params import FPRASParameters, validate_length
from repro.counting.sampler import SampleDraw
from repro.errors import EmptyLanguageError, ParameterError, SamplingError


def validate_count(count: object) -> None:
    """Raise :class:`~repro.errors.ParameterError` unless ``count``, a
    number of words to draw, is a non-negative int that is not a bool."""
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 0:
        raise ParameterError(f"count must be a non-negative int, got {count!r}")


@dataclass
class SamplingReport:
    """Diagnostics of a batch of uniform-sampling attempts."""

    requested: int
    produced: int
    attempts: int

    @property
    def acceptance_rate(self) -> float:
        if self.attempts == 0:
            return 0.0
        return self.produced / self.attempts


class UniformWordSampler:
    """Draws (almost) uniform words from ``L(A_n)`` using a completed counter.

    Parameters
    ----------
    counter:
        An :class:`~repro.counting.fpras.NFACounter`.  If it has not been run
        yet, :meth:`prepare` (or the first sampling call) runs it.
    max_attempts_per_word:
        Rejection-sampling retry budget per requested word.  The per-attempt
        success probability is roughly ``2/(3e) ≈ 0.245`` (Theorem 2), so the
        default of 64 makes failures vanishingly rare on healthy instances.
    """

    def __init__(
        self,
        counter: NFACounter,
        max_attempts_per_word: int = 64,
        rng: Optional[random.Random] = None,
    ) -> None:
        if max_attempts_per_word < 1:
            raise ParameterError("max_attempts_per_word must be positive")
        self.counter = counter
        self.max_attempts_per_word = max_attempts_per_word
        self.rng = rng if rng is not None else counter.rng
        self._estimate: Optional[float] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_request(
        cls,
        nfa: NFA,
        length: int,
        request: "CountRequest",
        max_attempts_per_word: int = 64,
    ) -> "UniformWordSampler":
        """Build a sampler from a unified :class:`~repro.counting.api.CountRequest`.

        The counting pass that backs the sampler always runs the paper's
        FPRAS (sampling needs its ``N`` / ``S`` tables), so the request's
        method must be ``"fpras"``, and ``length`` is checked as
        :func:`~repro.counting.api.dispatch` checks it.  The pass is the
        serial :class:`NFACounter` run, so a policy with ``shards`` or
        ``workers`` other than 1 raises instead of being ignored.  This is
        the path :meth:`repro.counting.api.CountingSession.sampler` uses,
        and it is bit-identical to building the :class:`NFACounter` by hand
        from the same knobs.
        """
        from repro.counting.api import fpras_counter

        if request.method != "fpras":
            raise ParameterError(
                f"uniform sampling requires the 'fpras' counting method, "
                f"not {request.method!r} (the sampler reuses the FPRAS tables)"
            )
        policy = request.policy
        if policy.shards != 1 or policy.workers != 1:
            raise ParameterError(
                f"uniform sampling runs a serial counting pass; it takes "
                f"shards=1 and workers=1, got shards={policy.shards} and "
                f"workers={policy.workers}"
            )
        validate_length(length)
        counter = fpras_counter(nfa, length, request)
        return cls(counter, max_attempts_per_word=max_attempts_per_word)

    @classmethod
    def for_nfa(
        cls,
        nfa: NFA,
        length: int,
        parameters: Optional[FPRASParameters] = None,
        max_attempts_per_word: int = 64,
    ) -> "UniformWordSampler":
        """Build (and prepare) a sampler for ``L(A_length)`` from scratch."""
        counter = NFACounter(nfa, length, parameters)
        sampler = cls(counter, max_attempts_per_word=max_attempts_per_word)
        sampler.prepare()
        return sampler

    def prepare(self) -> float:
        """Run the counting pass if needed; returns the estimate of ``|L(A_n)|``."""
        if not self.counter.has_run:
            result = self.counter.run()
            self._estimate = result.estimate
        elif self._estimate is None:
            self._estimate = self._recover_estimate()
        if self._estimate is None or self._estimate <= 0:
            raise EmptyLanguageError(
                "the language slice appears to be empty; nothing to sample"
            )
        return self._estimate

    def _recover_estimate(self) -> float:
        accepting = self.counter.unroll.accepting_live_states()
        return sum(
            self.counter.state_estimate(state, self.counter.length)
            for state in accepting
        )

    # ------------------------------------------------------------------
    def sample(self) -> Word:
        """Draw one word from ``L(A_n)``.

        Raises :class:`~repro.errors.SamplingError` if all
        ``max_attempts_per_word`` attempts fail, and
        :class:`~repro.errors.EmptyLanguageError` if the slice is empty.
        """
        words, _ = self._draw(self.max_attempts_per_word, 1)
        if not words:
            raise SamplingError(
                f"failed to draw a word after {self.max_attempts_per_word} attempts"
            )
        return words[0]

    def sample_many(self, count: int) -> List[Word]:
        """Draw ``count`` words (independent rejection-sampling attempts)."""
        validate_count(count)
        return [self.sample() for _ in range(count)]

    def sample_with_report(self, count: int) -> tuple:
        """Draw up to ``count`` words, returning ``(words, SamplingReport)``.

        Unlike :meth:`sample_many`, per-word failures are not fatal: the
        report records how many attempts were spent, which the uniformity
        experiment (E7) uses to measure the empirical acceptance rate.
        """
        validate_count(count)
        words, attempts = self._draw(count * self.max_attempts_per_word, count)
        report = SamplingReport(requested=count, produced=len(words), attempts=attempts)
        return words, report

    def _draw(self, attempts: int, needed: int) -> Tuple[List[Word], int]:
        """Up to ``attempts`` sampler draws from ``L(A_n)``, stopping at
        ``needed`` words: the words and the number of draws made."""
        estimate = self.prepare()
        counter = self.counter
        accepting = frozenset(counter.unroll.accepting_live_states())
        if not accepting:
            raise EmptyLanguageError("no accepting state is live at the final level")
        parameters = counter.parameters
        # The run's step table: its fans, union plans and whole-run steps
        # carry over.  The call's drawer is a new scope, so the steps whose
        # weights came from the run's union estimates are derived again.
        drawer = SampleDraw(
            counter.unroll, counter.estimates, counter.samples, parameters, self.rng,
            steps=counter._steps,
        )
        words = drawer.draw(
            counter.length,
            accepting,
            parameters.gamma0(estimate),
            parameters.beta(counter.length),
            parameters.eta(counter.length, counter.nfa.num_states),
            attempts=attempts,
            needed=needed,
        )
        return words, drawer.statistics.draws
