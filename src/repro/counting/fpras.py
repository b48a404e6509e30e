"""Algorithm 3 — the paper's FPRAS for #NFA.

The main procedure runs a dynamic program over the unrolled automaton: for
every level ``l`` (from 0 to ``n``) and every live state ``q`` it computes

* ``N(q^l)`` — an estimate of ``|L(q^l)|``, obtained by applying ``AppUnion``
  (Algorithm 1) to the predecessor languages for each alphabet symbol and
  summing the per-symbol estimates (the per-symbol unions are disjoint since
  their words end in different symbols);
* ``S(q^l)`` — a multiset of ``ns`` near-uniform samples from ``L(q^l)``,
  obtained from up to ``xns`` invocations of the backward sampler
  (Algorithm 2, one :meth:`~repro.counting.sampler.SampleDraw.draw` call)
  and padded with a fixed witness word if fewer than ``ns`` samples were
  drawn.

The returned estimate is ``N(q_F^n)``; the implementation generalises the
paper's single-accepting-state assumption by estimating the union of the
accepting states' languages at the last level with one extra ``AppUnion``
call (the paper's "without loss of generality" reduction in code form —
:meth:`repro.automata.nfa.NFA.normalized_single_accepting` is also available
if the caller prefers the structural reduction).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.automata.nfa import NFA, State, Word
from repro.automata.unroll import UnrolledAutomaton
from repro.counting.params import FPRASParameters, ParameterScale
from repro.counting.sampler import SampleDraw, StepTable
from repro.counting.store import create_store
from repro.counting.union import approximate_union
from repro.errors import EmptyLanguageError, ParameterError

StateLevel = Tuple[State, int]


@dataclass
class CountResult:
    """Outcome of one FPRAS run, with enough diagnostics for the experiments.

    Attributes
    ----------
    estimate:
        The estimate of ``|L(A_n)|``.
    length, num_states:
        The instance parameters ``n`` and ``m``.
    epsilon, delta:
        The accuracy / confidence targets used.
    ns, xns:
        Operational per-state sample-set size and sampling-attempt budget.
    elapsed_seconds:
        Wall-clock time of the run.
    union_calls, membership_calls, sample_draws, sample_successes:
        Work counters aggregated over the whole run.
    padded_states:
        Number of (state, level) pairs whose sample multiset needed padding
        (the ``SmallS`` event of Lemma 5).
    state_estimates:
        The full table ``N(q^l)`` (used by accuracy experiments and by the
        uniform word sampler).  Empty when the run was made with
        ``details="summary"`` — see :attr:`table_summary`.
    sample_counts:
        Number of genuinely drawn (non-padding) samples per (state, level).
        Empty under ``details="summary"``.
    table_summary:
        Under ``details="summary"``, a compact digest of the per-state
        tables (entry counts plus the final level's estimates) so reports
        stay small for large ``n``; empty under the default
        ``details="full"``.
    backend:
        Name of the simulation engine the run used (``"bitset"`` /
        ``"reference"``).
    engine_counters:
        Mask-level work counters from the engine and the reachability cache
        — the data behind the backend-comparison benchmarks.  Keys:
        ``step_ops`` / ``pre_ops`` / ``decode_ops`` (primitive engine
        operations attributable to this run), ``batch_calls`` /
        ``batch_words`` / ``batch_steps_saved`` (engine-level batched
        simulation), ``cache_words`` / ``cache_lookups`` /
        ``simulated_steps`` (reachability-cache amortisation),
        ``cache_batch_lookups`` / ``cache_batch_words`` /
        ``cache_batch_hits`` (batched membership through the cache) and
        ``engine_cache_hit`` (1 when the engine came from the shared
        registry rather than being rebuilt).
    """

    estimate: float
    length: int
    num_states: int
    epsilon: float
    delta: float
    ns: int
    xns: int
    elapsed_seconds: float
    union_calls: int
    membership_calls: int
    sample_draws: int
    sample_successes: int
    padded_states: int
    state_estimates: Dict[StateLevel, float] = field(default_factory=dict)
    sample_counts: Dict[StateLevel, int] = field(default_factory=dict)
    backend: str = "unknown"
    engine_counters: Dict[str, int] = field(default_factory=dict)
    table_summary: Dict[str, object] = field(default_factory=dict)

    def relative_error(self, exact: int) -> float:
        """``|estimate - exact| / exact`` (``inf`` when ``exact`` is 0 and estimate isn't)."""
        if exact == 0:
            return 0.0 if self.estimate == 0 else float("inf")
        return abs(self.estimate - exact) / exact

    def within_guarantee(self, exact: int) -> bool:
        """Whether the estimate satisfies the paper's multiplicative guarantee."""
        if exact == 0:
            return self.estimate == 0
        lower = exact / (1.0 + self.epsilon)
        upper = exact * (1.0 + self.epsilon)
        return lower <= self.estimate <= upper


class NFACounter:
    """The faster FPRAS for #NFA (Algorithm 3 of the paper).

    >>> from repro.automata.families import no_consecutive_ones_nfa
    >>> counter = NFACounter(
    ...     no_consecutive_ones_nfa(), length=8,
    ...     parameters=FPRASParameters(epsilon=0.4, seed=11))
    >>> result = counter.run()
    >>> result.estimate > 0 and counter.has_run
    True

    The instance keeps its internal ``N`` / ``S`` tables after :meth:`run`
    so that :class:`repro.counting.uniform.UniformWordSampler` can reuse them
    to generate words without re-running the dynamic program.  All hot loops
    run on the engine selected by ``parameters.backend``, acquired from the
    shared engine registry unless ``parameters.use_engine_cache`` is off;
    AppUnion's coverage counts are answered through the batched
    reachability API (see
    :meth:`repro.automata.unroll.UnrolledAutomaton.coverage_batch`),
    one cached per-handle walk on every backend.
    """

    def __init__(
        self,
        nfa: NFA,
        length: int,
        parameters: Optional[FPRASParameters] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if length < 0:
            raise ParameterError("length must be non-negative")
        self.nfa = nfa
        self.length = length
        self.parameters = parameters if parameters is not None else FPRASParameters()
        seed = self.parameters.seed
        self.rng = rng if rng is not None else random.Random(seed)
        if self.parameters.store == "windowed":
            # Windowed runs bound the reachability cache too (otherwise its
            # per-prefix memoisation is O(n^2) and would dominate exactly
            # the long-word runs the window exists for).  Membership answers
            # are unchanged — only engine-level diagnostics shift, which are
            # outside the parity contract like the store counters.
            cache_max_words: Optional[int] = max(64, self.parameters.window * 16)
            cache_prefix_limit: Optional[int] = 64
            cache_max_symbols: Optional[int] = 65536
        else:
            cache_max_words = None
            cache_prefix_limit = None
            cache_max_symbols = None
        self.unroll = UnrolledAutomaton(
            nfa,
            length,
            backend=self.parameters.backend,
            use_engine_cache=self.parameters.use_engine_cache,
            cache_max_words=cache_max_words,
            cache_prefix_limit=cache_prefix_limit,
            cache_max_symbols=cache_max_symbols,
        )
        # The state-table store decides where the N / S tables live (all
        # resident for "dict", sliding sample window for "windowed"); the
        # bound views keep every call site — including the sampler and the
        # sharded executor — working against ``counter.estimates`` /
        # ``counter.samples`` exactly as before.  For the default DictStore
        # the views *are* plain dicts.
        self.store = create_store(self.parameters.store, self.parameters.window)
        self.estimates = self.store.estimates
        self.samples = self.store.samples
        self._sample_counts = self.store.sample_counts
        # The run's one drawer: each of its ``draw`` calls is one sampling
        # batch, its descent union estimates hold until it is reseeded
        # (for the whole run when serial), and its step table derives each
        # descent step's fan once per run (see SampleDraw); the table's
        # union plans also serve the level estimates and the final estimate.
        self._steps = StepTable(length)
        self._sampler = SampleDraw(
            self.unroll,
            self.estimates,
            self.samples,
            self.parameters,
            self.rng,
            steps=self._steps,
        )
        self.sampler_statistics = self._sampler.statistics
        self._union_calls = 0
        self._membership_calls = 0
        self._padded_states = 0
        self._has_run = False

    # ------------------------------------------------------------------
    # Main procedure
    # ------------------------------------------------------------------
    def derived_parameters(self) -> Tuple[float, float, int, int]:
        """The operational ``(beta, eta, ns, xns)`` tuple for this instance.

        Pure functions of the constructor arguments; exposed so the sharded
        executor (:mod:`repro.counting.parallel`) can process states with
        exactly the values :meth:`run` would use.
        """
        n = self.length
        m = self.nfa.num_states
        return (
            self.parameters.beta(n),
            self.parameters.eta(n, m),
            self.parameters.ns(n, m),
            self.parameters.xns(n, m),
        )

    def run(
        self,
        progress: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> CountResult:
        """Execute Algorithm 3 and return the estimate with diagnostics.

        ``progress``, when given, is called after every completed level of
        the dynamic program with ``{"method", "level", "levels",
        "live_states"}`` — the anytime hook the serving layer streams
        progress from.  The callback never touches the RNG stream, so the
        default ``progress=None`` path and a monitored run are
        bit-identical.
        """
        start = time.perf_counter()
        n = self.length
        beta, eta, ns, xns = self.derived_parameters()

        self._initialise_level_zero(ns)
        for level in range(1, n + 1):
            states = sorted(self.unroll.live_states(level), key=repr)
            self._process_level(level, states, beta, eta, ns, xns)
            if progress is not None:
                progress(
                    {
                        "method": "fpras",
                        "level": level,
                        "levels": n,
                        "live_states": len(states),
                    }
                )

        estimate = self._final_estimate(beta, eta)
        elapsed = time.perf_counter() - start
        self._has_run = True
        if self.parameters.details == "summary":
            state_estimates: Dict[StateLevel, float] = {}
            sample_counts: Dict[StateLevel, int] = {}
            table_summary = self.table_summary()
        else:
            state_estimates = dict(self.estimates)
            sample_counts = dict(self._sample_counts)
            table_summary = {}
        return CountResult(
            estimate=estimate,
            length=n,
            num_states=self.nfa.num_states,
            epsilon=self.parameters.epsilon,
            delta=self.parameters.delta,
            ns=ns,
            xns=xns,
            elapsed_seconds=elapsed,
            state_estimates=state_estimates,
            sample_counts=sample_counts,
            backend=self.unroll.backend,
            engine_counters=self.diagnostics_counters(),
            table_summary=table_summary,
            **self.work_statistics(),
        )

    def diagnostics_counters(self) -> Dict[str, int]:
        """Engine counters plus the store's ``store_*`` activity counters.

        Both families are representation-level diagnostics: excluded from
        the locked-counter and parity suites, reported for benchmarks and
        audits.
        """
        counters = self.unroll.engine_counters()
        counters.update(self.store.counters())
        return counters

    def table_summary(self) -> Dict[str, object]:
        """Compact digest of the N / S tables (the ``details="summary"`` body)."""
        final = {
            str(state): self.estimates.get((state, self.length), 0.0)
            for state in sorted(self.unroll.accepting_live_states(), key=repr)
        }
        return {
            "mode": "summary",
            "estimate_entries": len(self.estimates),
            "sample_count_entries": len(self._sample_counts),
            "final_level_estimates": final,
        }

    # ------------------------------------------------------------------
    # Steps of Algorithm 3
    # ------------------------------------------------------------------
    def _initialise_level_zero(self, ns: int) -> None:
        """Lines 6-10: the base level contains only the initial state with ``lambda``."""
        initial = self.nfa.initial
        self.estimates[(initial, 0)] = 1.0
        # The empty word is the single element of L(I^0); the stored multiset
        # is padded to ns copies so AppUnion at level 1 never runs dry.
        self.samples[(initial, 0)] = [()] * max(1, ns)
        self._sample_counts[(initial, 0)] = 1

    def _process_level(
        self,
        level: int,
        states: Sequence[State],
        beta: float,
        eta: float,
        ns: int,
        xns: int,
    ) -> None:
        """Lines 12-30 for every live state of one level, in ``repr`` order.

        A level reads only the tables of the levels below it, so this is
        the one place a shard plan (:mod:`repro.counting.parallel`) changes
        how a level is processed.
        """
        for state in states:
            self._process_state(state, level, beta, eta, ns, xns)

    def _process_state(
        self,
        state: State,
        level: int,
        beta: float,
        eta: float,
        ns: int,
        xns: int,
    ) -> None:
        """Lines 12-30 for one (state, level) pair.

        Every draw comes from :attr:`rng`; the sampling batch is one
        :meth:`~repro.counting.sampler.SampleDraw.draw` call of the run's
        drawer.  The sharded executor reseeds that drawer, and with it
        :attr:`rng`, with each shard's substream, which is the only
        difference between serial and sharded state processing.
        """
        estimate = self._estimate_state(state, level, beta, eta)
        estimate = self._maybe_perturb(estimate, level, eta)
        if estimate <= 0.0:
            estimate = self._fallback_estimate(state, level)
        self.estimates[(state, level)] = estimate

        gamma0 = self.parameters.gamma0(estimate)
        eta_sample = eta / max(1, 2 * xns)
        collected = self._sampler.draw(
            level, frozenset({state}), gamma0, beta, eta_sample, attempts=xns, needed=ns
        )
        self._sample_counts[(state, level)] = len(collected)

        if len(collected) < ns:
            witness = self.unroll.witness(state, level)
            if witness is None:  # pragma: no cover - live states always have witnesses
                raise EmptyLanguageError(
                    f"state {state!r} live at level {level} but no witness found"
                )
            self._padded_states += 1
            collected.extend([witness] * (ns - len(collected)))
        self.samples[(state, level)] = collected

    def _estimate_state(self, state: State, level: int, beta: float, eta: float) -> float:
        """Lines 12-17: per-symbol AppUnion over predecessor languages, then sum.

        A one-set union is its set: every trial scores 1, so AppUnion would
        return the stored size estimate exactly, whatever the trial count.
        It is read directly, with no plan, trials, RNG draws or counter
        increments.
        """
        n = self.length
        beta_prime = (1.0 + beta) ** (level - 1) - 1.0
        delta_union = eta / (2.0 * (1.0 - 2.0 ** -(n + 1)))
        encode = self.unroll.engine.encode
        total = 0.0
        for symbol in self.nfa.alphabet:
            predecessors = self.unroll.predecessors(state, symbol, level)
            if not predecessors:
                continue
            if len(predecessors) == 1:
                (only,) = predecessors
                total += max(0.0, float(self.estimates.get((only, level - 1), 0.0)))
                continue
            handle = encode(predecessors)
            plan = self._steps.union_plan(
                level - 1,
                handle,
                sorted(predecessors, key=repr),
                self.estimates,
                self.samples,
            )
            result = approximate_union(
                plan,
                epsilon=beta,
                delta=delta_union,
                size_slack=beta_prime,
                parameters=self.parameters,
                rng=self.rng,
                coverage_batch=self.unroll.coverage_batch(handle),
                samples=self.samples,
            )
            self._union_calls += 1
            self._membership_calls += result.membership_calls
            total += result.estimate
        return total

    def _maybe_perturb(self, estimate: float, level: int, eta: float) -> float:
        """Lines 16-19: the analysis-only random replacement of the estimate."""
        if not self.parameters.scale.faithful_perturbation:
            return estimate
        threshold = eta / max(1, 2 * self.length)
        if self.rng.random() < threshold:
            ceiling = len(self.nfa.alphabet) ** level
            return float(self.rng.randint(0, ceiling))
        return estimate

    def _fallback_estimate(self, state: State, level: int) -> float:
        """The best single-predecessor estimate, at least 1, for a live state
        whose estimate came out 0.

        A live state's unions estimate above 0 (every trial scores at least
        ``1 / k``), so this is reached only when ``faithful_perturbation``
        draws ``randint(0, …) == 0``.  The replacement keeps ``gamma0``
        defined, so sampling can proceed.
        """
        best = 0.0
        for symbol in self.nfa.alphabet:
            for predecessor in self.unroll.predecessors(state, symbol, level):
                best = max(best, self.estimates.get((predecessor, level - 1), 0.0))
        return max(1.0, best)

    def _final_estimate(self, beta: float, eta: float) -> float:
        """Line 31, generalised to any number of accepting states.

        With a single live accepting state this is exactly ``N(q_F^n)``;
        with several, the languages may overlap, so one more AppUnion over
        the final level's accepting states produces the union estimate.
        """
        accepting = sorted(self.unroll.accepting_live_states(), key=repr)
        if not accepting:
            return 0.0
        if len(accepting) == 1:
            return self.estimates.get((accepting[0], self.length), 0.0)
        beta_prime = (1.0 + beta) ** self.length - 1.0
        handle = self.unroll.engine.encode(accepting)
        plan = self._steps.union_plan(
            self.length, handle, accepting, self.estimates, self.samples
        )
        result = approximate_union(
            plan,
            epsilon=beta,
            delta=eta / 2.0,
            size_slack=beta_prime,
            parameters=self.parameters,
            rng=self.rng,
            coverage_batch=self.unroll.coverage_batch(handle),
            samples=self.samples,
        )
        self._union_calls += 1
        self._membership_calls += result.membership_calls
        return result.estimate

    # ------------------------------------------------------------------
    # Sharded-execution hooks (see repro.counting.parallel)
    # ------------------------------------------------------------------
    def work_statistics(self) -> Dict[str, int]:
        """Snapshot of the algorithm-level work counters accumulated so far.

        The keys are the corresponding :class:`CountResult` fields, which
        :meth:`run` fills from them.  The sharded executor snapshots this
        before and after a shard task; the difference is the task's
        deterministic work contribution, which is identical no matter which
        worker process executes the task.
        """
        stats = self.sampler_statistics
        return {
            "union_calls": self._union_calls + stats.union_calls,
            "membership_calls": self._membership_calls + stats.membership_calls,
            "sample_draws": stats.draws,
            "sample_successes": stats.successes,
            "padded_states": self._padded_states,
        }

    def install_state(
        self,
        state: State,
        level: int,
        estimate: float,
        samples: Sequence[Word],
        drawn: int,
    ) -> None:
        """Install an externally computed ``(state, level)`` table entry.

        Used by the sharded executor to merge per-shard results into the
        coordinator's (and every worker's) ``N`` / ``S`` tables between
        levels; values always come from :meth:`_process_state` runs, so the
        tables end up exactly as a serial execution of the same shard plan
        would leave them.
        """
        self.estimates[(state, level)] = estimate
        self.samples[(state, level)] = list(samples)
        self._sample_counts[(state, level)] = drawn

    # ------------------------------------------------------------------
    # Post-run accessors
    # ------------------------------------------------------------------
    @property
    def has_run(self) -> bool:
        return self._has_run

    def state_estimate(self, state: State, level: int) -> float:
        """The computed ``N(q^l)`` (0 for states never live at that level)."""
        return self.estimates.get((state, level), 0.0)

    def state_samples(self, state: State, level: int) -> Sequence[Word]:
        """The stored sample multiset ``S(q^l)``."""
        return tuple(self.samples.get((state, level), ()))


def count_nfa(
    nfa: NFA,
    length: int,
    epsilon: float = 0.5,
    delta: float = 0.1,
    seed: Optional[int] = None,
    scale: Optional[ParameterScale] = None,
    backend: Optional[str] = None,
    use_engine_cache: bool = True,
) -> CountResult:
    """One-call convenience wrapper around :class:`NFACounter`.

    Parameters mirror the paper's interface: the NFA, the word length ``n``
    (in unary in the paper — an ``int`` here), the accuracy ``epsilon`` and
    the confidence ``delta``.  ``scale`` selects between paper-exact and
    laptop-scale parameters (see :class:`ParameterScale`); ``backend``
    selects the simulation engine (``None`` for the default bitset backend)
    and ``use_engine_cache=False`` opts out of the shared engine registry
    (results are identical either way).

    >>> from repro.automata.nfa import NFA
    >>> nfa = NFA.build(
    ...     [("s", "0", "s"), ("s", "1", "t"), ("t", "0", "t"), ("t", "1", "t")],
    ...     initial="s", accepting=["t"])
    >>> result = count_nfa(nfa, length=4, epsilon=0.5, seed=7)
    >>> result.estimate > 0 and result.backend == "bitset"
    True
    >>> result.estimate == count_nfa(
    ...     nfa, length=4, epsilon=0.5, seed=7, use_engine_cache=False).estimate
    True

    The call delegates through the unified counting registry
    (``repro.count(..., method="fpras")`` — see :mod:`repro.counting.api`)
    and returns the raw :class:`CountResult`; estimates, RNG stream and
    work counters are bit-identical to constructing :class:`NFACounter`
    directly.
    """
    from repro.counting.api import count
    from repro.counting.policy import ExecutionPolicy

    report = count(
        nfa,
        length,
        method="fpras",
        epsilon=epsilon,
        delta=delta,
        seed=seed,
        policy=ExecutionPolicy(backend=backend, use_engine_cache=use_engine_cache),
        scale=scale,
    )
    return report.raw
