"""Unified counting façade: one API over every #NFA counter.

The reproduction ships five ways to count ``|L(A_n)|`` — the paper's FPRAS
(Algorithm 3), the ACJR baseline, naive Monte-Carlo, brute-force
enumeration and the exact subset DP — which historically each had their own
entry point, knob spelling and result type.  This module is the single
coherent surface over all of them:

* :class:`CountRequest` normalises the shared knobs (``epsilon``,
  ``delta``, ``seed``), a per-method ``options`` mapping and the
  :class:`~repro.counting.policy.ExecutionPolicy` that says how the run
  executes, with validation at construction time;
* :data:`METHOD_REGISTRY` maps method names to :class:`CounterMethod`
  implementations; new estimators plug in with :func:`register_method`
  instead of new one-off wiring;
* :class:`CountReport` is the one normalised result every method returns —
  estimate, relative-error bounds where defined, wall time,
  ``engine_counters`` deltas, and the raw per-method result for power
  users;
* :class:`CountingSession` pins the shared knobs once and reuses engines
  across repeated calls through the shared
  :class:`~repro.automata.engine.EngineRegistry`;
* :func:`count` is the module-level convenience re-exported as
  ``repro.count``.

The counter classes (:class:`~repro.counting.fpras.NFACounter`,
:class:`~repro.counting.acjr.ACJRCounter`) stay usable on their own; a
registered method's report carries their result as :attr:`CountReport.raw`.

>>> from repro.automata.nfa import NFA
>>> nfa = NFA.build(
...     [("s", "0", "s"), ("s", "1", "t"), ("t", "0", "t"), ("t", "1", "t")],
...     initial="s", accepting=["t"])
>>> count(nfa, 4, method="exact").estimate
15.0
>>> report = count(nfa, 4, method="fpras", epsilon=0.5, seed=7)
>>> report.method, report.estimate > 0, report.epsilon
('fpras', True, 0.5)
>>> session = CountingSession(epsilon=0.5, seed=7)
>>> session.count(nfa, 4).estimate == report.estimate
True
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    Union,
)

from repro.automata.engine import AUTO_BACKEND, acquire_engine
from repro.automata.exact import count_exact
from repro.automata.nfa import NFA
from repro.counting.acjr import ACJRCounter, ACJRParameters, ACJRResult
from repro.counting.bruteforce import DEFAULT_ENUMERATION_LIMIT, enumerate_count
from repro.counting.fpras import CountResult, FPRASParameters, NFACounter
from repro.counting.montecarlo import MonteCarloEstimate, run_montecarlo
from repro.counting.params import ParameterScale, validate_epsilon, validate_length
from repro.counting.policy import (
    POLICY_OPTION_NAMES,
    ExecutionPolicy,
    MethodCapabilities,
)
from repro.errors import CountingMethodError, ParameterError

#: A seed is either absent, an integer, or an existing stream to continue.
SeedLike = Union[None, int, random.Random]

#: The method used when a request / session does not name one.
DEFAULT_METHOD = "fpras"

#: An anytime-progress callback: called with a small plain-dict snapshot
#: after every completed unit of work (fpras: one level of the dynamic
#: program; montecarlo: one block of its serial loop).
#: Callbacks run on the calling thread, never touch the RNG streams, and
#: therefore cannot change the estimate.
ProgressCallback = Callable[[Dict[str, object]], None]

#: Baseline options checked where a request is built: a positive ``int``
#: (bools rejected) or ``None`` — the default ``num_samples``, and no
#: enumeration ``limit``.
POSITIVE_INT_OPTIONS = ("num_samples", "limit")


# ----------------------------------------------------------------------
# Request and report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CountRequest:
    """A validated, normalised specification of one counting run.

    Attributes
    ----------
    method:
        Registry name of the counter to run (see :func:`available_methods`).
        The name itself is resolved at dispatch time, so requests can be
        built before a custom method is registered.
    epsilon, delta:
        The shared accuracy / confidence targets.  Methods without a
        multiplicative guarantee (``montecarlo``) or that are exact
        (``bruteforce``, ``exact``) ignore them.
    seed:
        ``None``, an ``int`` (not a bool), or a ``random.Random`` stream to
        continue — the latter is how differential tests compare RNG
        streams across entry points.
    options:
        Per-method knobs, e.g. ``scale`` (fpras), ``sample_cap`` /
        ``attempt_factor`` (acjr), ``num_samples`` (montecarlo), ``limit``
        (bruteforce).  Unknown options are rejected at dispatch; the
        execution knobs ``shards`` / ``store`` / ``window`` are rejected
        here, since they belong on ``policy``.
    policy:
        The :class:`~repro.counting.policy.ExecutionPolicy` that says how
        the run executes (``backend``, ``use_engine_cache``, ``workers``,
        ``shards``, ``store``, ``window``).  Only fpras, the one method
        registered with worker support, accepts ``workers != 1`` or takes
        ``shards`` / ``store`` / ``window``; dispatch rejects the rest with
        :class:`~repro.errors.CountingMethodError`.

    >>> CountRequest(method="montecarlo", options={"num_samples": 64}).epsilon
    0.5
    >>> CountRequest(epsilon=0.0)
    Traceback (most recent call last):
        ...
    repro.errors.ParameterError: epsilon must be a finite positive number, got 0.0
    >>> CountRequest(policy=ExecutionPolicy(backend="bitset", workers=2)).policy.workers
    2
    """

    method: str = DEFAULT_METHOD
    epsilon: float = 0.5
    delta: float = 0.1
    seed: SeedLike = None
    options: Mapping[str, object] = field(default_factory=dict)
    policy: ExecutionPolicy = field(default_factory=ExecutionPolicy)

    def __post_init__(self) -> None:
        if not isinstance(self.method, str) or not self.method:
            raise ParameterError("method must be a non-empty string")
        validate_epsilon(self.epsilon)
        if not isinstance(self.delta, (int, float)) or not 0 < self.delta < 1:
            raise ParameterError("delta must lie in (0, 1)")
        if self.seed is not None and (
            isinstance(self.seed, bool) or not isinstance(self.seed, (int, random.Random))
        ):
            raise ParameterError(
                f"seed must be None, an int, or a random.Random (got {self.seed!r})"
            )
        try:
            options = dict(self.options)
        except (TypeError, ValueError):
            raise ParameterError("options must be a mapping of option names to values")
        if any(not isinstance(key, str) for key in options):
            raise ParameterError("option names must be strings")
        for name in POSITIVE_INT_OPTIONS:
            value = options.get(name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int) or value < 1
            ):
                raise ParameterError(
                    f"{name} must be a positive integer or None (got {value!r})"
                )
        misplaced = sorted(set(options) & set(POLICY_OPTION_NAMES))
        if misplaced:
            raise ParameterError(
                f"execution knob(s) {misplaced} are not per-method options; "
                "set them on the ExecutionPolicy instead"
            )
        if not isinstance(self.policy, ExecutionPolicy):
            raise ParameterError(
                "policy must be an ExecutionPolicy instance "
                f"(got {type(self.policy).__name__})"
            )
        object.__setattr__(self, "options", options)

    def rng(self) -> random.Random:
        """The run's randomness stream (a fresh ``Random`` unless one was given)."""
        if isinstance(self.seed, random.Random):
            return self.seed
        return random.Random(self.seed)

    def integer_seed(self) -> Optional[int]:
        """The seed as an ``int`` when one was given, else ``None``."""
        return self.seed if isinstance(self.seed, int) else None

    def option(self, name: str, default: object = None) -> object:
        """One per-method option, treating a stored ``None`` as absent."""
        value = self.options.get(name)
        return default if value is None else value


#: Schema version of :meth:`CountReport.to_dict` documents.
REPORT_SCHEMA_VERSION = 1


def _plain_value(value: object) -> object:
    """Recursively flatten a value to JSON-representable plain types.

    Tuples become lists, sets become sorted lists, mapping keys are
    stringified, and anything without a JSON form falls back to ``str``.
    Used for :attr:`CountReport.details`, which per-method runners populate
    with whatever diagnostics they have.
    """
    if isinstance(value, Mapping):
        return {str(key): _plain_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_plain_value(item) for item in value), key=repr)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _table_to_rows(table: Mapping) -> List[List[object]]:
    """A ``(state, level) -> value`` table as sorted ``[state, level, value]`` rows."""
    return [
        [str(state), level, value]
        for (state, level), value in sorted(
            table.items(), key=lambda item: (str(item[0][0]), item[0][1])
        )
    ]


def _table_from_rows(rows) -> Dict[Tuple[object, int], object]:
    """Rebuild a per-(state, level) table from :func:`_table_to_rows` output."""
    return {(state, int(level)): value for state, level, value in rows}


def _raw_to_plain(raw: object) -> object:
    """Flatten :attr:`CountReport.raw` to a tagged, JSON-representable form.

    The per-method result dataclasses become ``{"kind": ...}`` dictionaries
    (state-table keys turned into rows), exact integer counts keep full
    precision as JSON integers, and unknown raw objects degrade to a
    stringified ``"opaque"`` payload rather than failing serialisation.
    """
    if raw is None:
        return None
    if isinstance(raw, bool):
        return {"kind": "opaque", "value": str(raw)}
    if isinstance(raw, int):
        return {"kind": "int", "value": raw}
    if isinstance(raw, CountResult):
        return {
            "kind": "fpras",
            "estimate": raw.estimate,
            "length": raw.length,
            "num_states": raw.num_states,
            "epsilon": raw.epsilon,
            "delta": raw.delta,
            "ns": raw.ns,
            "xns": raw.xns,
            "elapsed_seconds": raw.elapsed_seconds,
            "union_calls": raw.union_calls,
            "membership_calls": raw.membership_calls,
            "sample_draws": raw.sample_draws,
            "sample_successes": raw.sample_successes,
            "padded_states": raw.padded_states,
            "state_estimates": _table_to_rows(raw.state_estimates),
            "sample_counts": _table_to_rows(raw.sample_counts),
            "backend": raw.backend,
            "engine_counters": {
                str(key): value for key, value in raw.engine_counters.items()
            },
            "table_summary": _plain_value(raw.table_summary),
        }
    if isinstance(raw, ACJRResult):
        return {
            "kind": "acjr",
            "estimate": raw.estimate,
            "length": raw.length,
            "num_states": raw.num_states,
            "epsilon": raw.epsilon,
            "ns": raw.ns,
            "elapsed_seconds": raw.elapsed_seconds,
            "membership_calls": raw.membership_calls,
            "sample_draws": raw.sample_draws,
            "sample_successes": raw.sample_successes,
            "state_estimates": _table_to_rows(raw.state_estimates),
        }
    if isinstance(raw, MonteCarloEstimate):
        return {
            "kind": "montecarlo",
            "estimate": raw.estimate,
            "hits": raw.hits,
            "samples": raw.samples,
            "total_words": raw.total_words,
        }
    return {"kind": "opaque", "value": str(raw)}


def _raw_from_plain(document: object) -> object:
    """Inverse of :func:`_raw_to_plain` (opaque payloads stay strings)."""
    if document is None:
        return None
    if not isinstance(document, Mapping):
        raise CountingMethodError(
            f"raw payload must be a tagged mapping or null, got {document!r}"
        )
    kind = document.get("kind")
    if kind == "int":
        return int(document["value"])
    if kind == "opaque":
        return document["value"]
    if kind == "fpras":
        return CountResult(
            estimate=document["estimate"],
            length=int(document["length"]),
            num_states=int(document["num_states"]),
            epsilon=document["epsilon"],
            delta=document["delta"],
            ns=int(document["ns"]),
            xns=int(document["xns"]),
            elapsed_seconds=document["elapsed_seconds"],
            union_calls=int(document["union_calls"]),
            membership_calls=int(document["membership_calls"]),
            sample_draws=int(document["sample_draws"]),
            sample_successes=int(document["sample_successes"]),
            padded_states=int(document["padded_states"]),
            state_estimates=_table_from_rows(document["state_estimates"]),
            sample_counts=_table_from_rows(document["sample_counts"]),
            backend=document["backend"],
            engine_counters=dict(document["engine_counters"]),
            table_summary=dict(document.get("table_summary") or {}),
        )
    if kind == "acjr":
        return ACJRResult(
            estimate=document["estimate"],
            length=int(document["length"]),
            num_states=int(document["num_states"]),
            epsilon=document["epsilon"],
            ns=int(document["ns"]),
            elapsed_seconds=document["elapsed_seconds"],
            membership_calls=int(document["membership_calls"]),
            sample_draws=int(document["sample_draws"]),
            sample_successes=int(document["sample_successes"]),
            state_estimates=_table_from_rows(document["state_estimates"]),
        )
    if kind == "montecarlo":
        return MonteCarloEstimate(
            estimate=document["estimate"],
            hits=int(document["hits"]),
            samples=int(document["samples"]),
            total_words=int(document["total_words"]),
        )
    raise CountingMethodError(f"unknown raw payload kind {kind!r}")


@dataclass
class CountReport:
    """The normalised outcome every registered counting method returns.

    Attributes
    ----------
    estimate:
        The (possibly exact) estimate of ``|L(A_n)|`` as a float.  For the
        exact methods the precision-preserving integer is in :attr:`raw`.
    method:
        Registry name of the method that produced the report.
    length, num_states:
        The instance parameters ``n`` and ``m``.
    elapsed_seconds:
        Wall-clock time of the counting run itself.
    backend:
        Simulation-engine name, or ``None`` for methods that run no engine
        (the exact subset DP).
    epsilon, delta:
        The multiplicative-error / failure-probability targets, where the
        method defines them (``fpras`` and ``acjr``); ``None`` otherwise.
    exact:
        Whether the estimate is exact (``bruteforce`` / ``exact``).
    engine_counters:
        Per-run engine work-counter deltas (``step_ops``, ``batch_*``,
        ``cache_*``, ``engine_cache_hit``, …); empty for engineless methods.
    details:
        Normalised per-method diagnostics (e.g. ``ns`` / ``xns`` for
        fpras, ``hits`` / ``samples`` for montecarlo, ``limit`` /
        ``total_words`` for bruteforce).
    raw:
        The untouched per-method result for power users — a
        :class:`~repro.counting.fpras.CountResult`,
        :class:`~repro.counting.acjr.ACJRResult`,
        :class:`~repro.counting.montecarlo.MonteCarloEstimate`, or the
        exact ``int``.
    """

    estimate: float
    method: str
    length: int
    num_states: int
    elapsed_seconds: float
    backend: Optional[str] = None
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    exact: bool = False
    engine_counters: Dict[str, int] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)
    raw: object = None

    def error_bounds(self) -> Optional[Tuple[float, float]]:
        """The interval the true count lies in when the guarantee holds.

        ``(estimate, estimate)`` for exact methods,
        ``(estimate / (1 + eps), estimate * (1 + eps))`` where a
        multiplicative guarantee is defined, ``None`` otherwise.
        """
        if self.exact:
            return (self.estimate, self.estimate)
        if self.epsilon is None:
            return None
        return (self.estimate / (1.0 + self.epsilon), self.estimate * (1.0 + self.epsilon))

    def relative_error(self, exact: int) -> float:
        """``|estimate - exact| / exact`` (``inf`` when ``exact`` is 0 and estimate isn't)."""
        if exact == 0:
            return 0.0 if self.estimate == 0 else float("inf")
        return abs(self.estimate - exact) / exact

    def within_guarantee(self, exact: int) -> Optional[bool]:
        """Whether the estimate meets the method's multiplicative guarantee.

        ``None`` when the method defines no guarantee (montecarlo).
        """
        if self.exact:
            return self.estimate == exact
        if self.epsilon is None:
            return None
        if exact == 0:
            return self.estimate == 0
        return exact / (1.0 + self.epsilon) <= self.estimate <= exact * (1.0 + self.epsilon)

    def audit_summary(self) -> Dict[str, object]:
        """The compact, JSON-representable summary audit manifests record.

        Everything a later reader needs to audit the run — estimate,
        method, instance size, wall time, backend, accuracy targets,
        engine-counter deltas and the normalised per-method diagnostics —
        without the heavyweight ``raw`` state tables :meth:`to_dict`
        carries.  Used by :mod:`repro.audit.manifest` as the per-scenario
        ``report`` block.

        >>> from repro.automata.families import no_consecutive_ones_nfa
        >>> summary = count(no_consecutive_ones_nfa(), 5, method="exact").audit_summary()
        >>> summary["estimate"], summary["exact"]
        (13.0, True)
        """
        bounds = self.error_bounds()
        return {
            "estimate": self.estimate,
            "method": self.method,
            "length": self.length,
            "num_states": self.num_states,
            "elapsed_seconds": self.elapsed_seconds,
            "backend": self.backend,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "exact": self.exact,
            "error_bounds": list(bounds) if bounds is not None else None,
            "engine_counters": {
                str(key): value for key, value in self.engine_counters.items()
            },
            "details": _plain_value(self.details),
        }

    def to_dict(self) -> Dict[str, object]:
        """A lossless, JSON-serialisable form of the report.

        This is the serving layer's response body (``POST /count``).  The
        per-method :attr:`raw` result is flattened to plain types — result
        dataclasses become tagged dictionaries with state-table keys turned
        into ``[state, level, value]`` rows, exact integer counts keep full
        precision — and :attr:`details` values are recursively converted
        (tuples to lists, non-string keys stringified).  ``error_bounds``
        is included as derived convenience data for clients and ignored on
        the way back in.  :meth:`from_dict` restores an equal report;
        ``json`` preserves float reprs, so estimates round-trip
        bit-identically.

        >>> from repro.automata.families import no_consecutive_ones_nfa
        >>> report = count(no_consecutive_ones_nfa(), 5, method="exact")
        >>> CountReport.from_dict(report.to_dict()) == report
        True
        >>> import json
        >>> json.loads(json.dumps(report.to_dict()))["estimate"]
        13.0
        """
        bounds = self.error_bounds()
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "estimate": self.estimate,
            "method": self.method,
            "length": self.length,
            "num_states": self.num_states,
            "elapsed_seconds": self.elapsed_seconds,
            "backend": self.backend,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "exact": self.exact,
            "engine_counters": {
                str(key): value for key, value in self.engine_counters.items()
            },
            "details": _plain_value(self.details),
            "raw": _raw_to_plain(self.raw),
            "error_bounds": list(bounds) if bounds is not None else None,
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "CountReport":
        """Rebuild a report from :meth:`to_dict` output (validating the schema)."""
        if not isinstance(document, Mapping):
            raise CountingMethodError(
                f"count-report document must be a mapping, got {type(document).__name__}"
            )
        schema = document.get("schema")
        if schema != REPORT_SCHEMA_VERSION:
            raise CountingMethodError(
                f"unsupported count-report schema {schema!r} "
                f"(this build reads schema {REPORT_SCHEMA_VERSION})"
            )
        try:
            return cls(
                estimate=document["estimate"],
                method=document["method"],
                length=int(document["length"]),
                num_states=int(document["num_states"]),
                elapsed_seconds=document["elapsed_seconds"],
                backend=document.get("backend"),
                epsilon=document.get("epsilon"),
                delta=document.get("delta"),
                exact=bool(document.get("exact", False)),
                engine_counters=dict(document.get("engine_counters") or {}),
                details=dict(document.get("details") or {}),
                raw=_raw_from_plain(document.get("raw")),
            )
        except KeyError as missing:
            raise CountingMethodError(
                f"count-report document is missing field {missing}"
            ) from missing


# ----------------------------------------------------------------------
# Method registry
# ----------------------------------------------------------------------
class CounterMethod(Protocol):
    """The protocol a registered counting method implements."""

    name: str
    summary: str
    option_names: FrozenSet[str]
    capabilities: MethodCapabilities

    def run(
        self,
        nfa: NFA,
        length: int,
        request: CountRequest,
        progress: Optional[ProgressCallback] = None,
    ) -> CountReport:
        """Execute the method for one instance and return its report."""


#: ``runner(nfa, length, request)``, plus a ``progress`` callback argument
#: for methods whose capabilities declare ``progress``.
MethodRunner = Callable[..., CountReport]


@dataclass(frozen=True)
class RegisteredMethod:
    """A :class:`CounterMethod` built from a plain runner function."""

    name: str
    summary: str
    option_names: FrozenSet[str]
    runner: MethodRunner = field(repr=False)
    capabilities: MethodCapabilities = field(default_factory=MethodCapabilities)

    def run(
        self,
        nfa: NFA,
        length: int,
        request: CountRequest,
        progress: Optional[ProgressCallback] = None,
    ) -> CountReport:
        """Delegate to the wrapped runner, passing ``progress`` when given."""
        if progress is None:
            return self.runner(nfa, length, request)
        return self.runner(nfa, length, request, progress)


#: All registered counting methods, keyed by name.
METHOD_REGISTRY: Dict[str, CounterMethod] = {}


def register_method(
    name: str,
    *,
    summary: str,
    options: Tuple[str, ...] = (),
    capabilities: Optional[MethodCapabilities] = None,
) -> Callable[[MethodRunner], MethodRunner]:
    """Class/function decorator adding a counting method to the registry.

    ``options`` names the per-method knobs the method accepts through
    :attr:`CountRequest.options`; anything else is rejected at dispatch.
    ``capabilities`` is the method's declarative
    :class:`~repro.counting.policy.MethodCapabilities` record — most
    importantly ``workers=True`` declares that the runner honours the
    request policy's ``workers`` (fpras routes it through the sharded
    executor in :mod:`repro.counting.parallel`), and ``progress=True`` that
    it takes a fourth argument, an anytime :data:`ProgressCallback`;
    dispatch rejects ``workers != 1`` and a callback for methods that do
    not declare them.

    >>> @register_method("fortytwo", summary="always 42")
    ... def _run(nfa, length, request):
    ...     return CountReport(estimate=42.0, method="fortytwo", length=length,
    ...                        num_states=nfa.num_states, elapsed_seconds=0.0)
    >>> METHOD_REGISTRY["fortytwo"].capabilities.workers
    False
    >>> "fortytwo" in available_methods()
    True
    >>> _ = METHOD_REGISTRY.pop("fortytwo")  # keep the doctest side-effect free
    """
    resolved = capabilities if capabilities is not None else MethodCapabilities()

    def decorator(runner: MethodRunner) -> MethodRunner:
        if name in METHOD_REGISTRY:
            raise CountingMethodError(f"counting method {name!r} is already registered")
        METHOD_REGISTRY[name] = RegisteredMethod(
            name=name,
            summary=summary,
            option_names=frozenset(options),
            runner=runner,
            capabilities=resolved,
        )
        return runner

    return decorator


def available_methods() -> Tuple[str, ...]:
    """Sorted names of every registered counting method."""
    return tuple(sorted(METHOD_REGISTRY))


def resolve_method(name: str) -> CounterMethod:
    """Look up a registered method, raising a helpful error when unknown."""
    method = METHOD_REGISTRY.get(name)
    if method is None:
        raise CountingMethodError(
            f"unknown counting method {name!r}; available: {list(available_methods())}"
        )
    return method


# ----------------------------------------------------------------------
# Registered methods
# ----------------------------------------------------------------------
def fpras_parameters(request: CountRequest) -> FPRASParameters:
    """The :class:`FPRASParameters` a request denotes (shared with the sampler)."""
    scale = request.option("scale")
    policy = request.policy
    return FPRASParameters(
        epsilon=request.epsilon,
        delta=request.delta,
        scale=scale if scale is not None else ParameterScale.practical(),
        seed=request.integer_seed(),
        backend=policy.backend,
        use_engine_cache=policy.use_engine_cache,
        store=policy.store,
        window=policy.window,
        details=request.option("details", "full"),
    )


def fpras_counter(nfa: NFA, length: int, request: CountRequest) -> NFACounter:
    """An unrun :class:`NFACounter` for the request (also used by the sampler)."""
    rng = request.seed if isinstance(request.seed, random.Random) else None
    return NFACounter(nfa, length, fpras_parameters(request), rng=rng)


def _engine_counter_deltas(engine, base: Dict[str, int], from_cache: bool) -> Dict[str, int]:
    """Per-run engine counter deltas plus the registry-hit diagnostic."""
    counters = {
        key: value - base.get(key, 0) for key, value in engine.counters().items()
    }
    counters["engine_cache_hit"] = int(from_cache)
    return counters


@register_method(
    "fpras",
    summary="the paper's FPRAS (Algorithm 3)",
    options=("scale", "shards", "store", "window", "details"),
    capabilities=MethodCapabilities(
        workers=True,
        progress=True,
        stores=("dict", "windowed"),
    ),
)
def _run_fpras(
    nfa: NFA,
    length: int,
    request: CountRequest,
    progress: Optional[ProgressCallback] = None,
) -> CountReport:
    """Run :class:`NFACounter` and normalise its :class:`CountResult`.

    ``workers != 1`` or ``shards > 1`` route through the sharded executor
    (:func:`repro.counting.parallel.run_fpras_sharded`); a one-shard plan is
    bit-identical to the serial run, and a fixed multi-shard plan is
    bit-identical across worker counts.  Either way
    :meth:`NFACounter.run` runs the levels, and ``progress`` (see
    :func:`dispatch`) observes each completed one without touching the RNG
    stream, so it never changes the estimate.
    """
    policy = request.policy
    if policy.workers != 1 or policy.shards != 1:
        from repro.counting.parallel import run_fpras_sharded

        result, parallel_details = run_fpras_sharded(
            nfa,
            length,
            fpras_parameters(request),
            shards=policy.shards,
            workers=policy.workers,
            seed=request.seed,
            progress=progress,
        )
    else:
        result = fpras_counter(nfa, length, request).run(progress=progress)
        parallel_details = {}
    return CountReport(
        estimate=result.estimate,
        method="fpras",
        length=length,
        num_states=nfa.num_states,
        elapsed_seconds=result.elapsed_seconds,
        backend=result.backend,
        epsilon=request.epsilon,
        delta=request.delta,
        engine_counters=dict(result.engine_counters),
        details={
            "ns": result.ns,
            "xns": result.xns,
            "union_calls": result.union_calls,
            "membership_calls": result.membership_calls,
            "sample_draws": result.sample_draws,
            "padded_states": result.padded_states,
            **(
                {"store": policy.store, "window": policy.window}
                if policy.store != "dict"
                else {}
            ),
            **parallel_details,
        },
        raw=result,
    )


@register_method(
    "acjr",
    summary="ACJR-style baseline FPRAS (prior work)",
    options=("sample_cap", "attempt_factor"),
)
def _run_acjr(nfa: NFA, length: int, request: CountRequest) -> CountReport:
    """Run :class:`ACJRCounter` and normalise its :class:`ACJRResult`."""
    parameters = ACJRParameters(
        epsilon=request.epsilon,
        delta=request.delta,
        sample_cap=request.option("sample_cap", 96),
        attempt_factor=request.option("attempt_factor", 6.0),
        seed=request.integer_seed(),
        backend=request.policy.backend,
        use_engine_cache=request.policy.use_engine_cache,
    )
    rng = request.seed if isinstance(request.seed, random.Random) else None
    counter = ACJRCounter(nfa, length, parameters, rng=rng)
    result = counter.run()
    return CountReport(
        estimate=result.estimate,
        method="acjr",
        length=length,
        num_states=nfa.num_states,
        elapsed_seconds=result.elapsed_seconds,
        backend=counter.unroll.backend,
        epsilon=request.epsilon,
        delta=request.delta,
        engine_counters=counter.unroll.engine_counters(),
        details={
            "ns": result.ns,
            "membership_calls": result.membership_calls,
            "sample_draws": result.sample_draws,
        },
        raw=result,
    )


@register_method(
    "montecarlo",
    summary="naive Monte-Carlo sampling baseline",
    options=("num_samples",),
    capabilities=MethodCapabilities(progress=True),
)
def _run_montecarlo(
    nfa: NFA,
    length: int,
    request: CountRequest,
    progress: Optional[ProgressCallback] = None,
) -> CountReport:
    """Acquire an engine, run the Monte-Carlo loop, report counter deltas.

    An unset backend (``None`` or ``"auto"``) runs on ``"numpy"``: every
    backend draws the same words and makes the same acceptance decisions,
    and on a 2-CPU host numpy's trie walk ran 3–6× faster than bitset's on
    automata of 4–512 states (10,000 words at n = 12).  A ``progress``
    callback (see :func:`dispatch`) observes every block of
    :func:`~repro.counting.montecarlo.run_montecarlo` without touching the
    stream.
    """
    num_samples = request.option("num_samples", 10_000)
    policy = request.policy
    backend = "numpy" if policy.backend in (None, AUTO_BACKEND) else policy.backend
    engine, from_cache = acquire_engine(
        nfa, backend, use_cache=policy.use_engine_cache
    )
    base = dict(engine.counters())
    started = time.perf_counter()
    result = run_montecarlo(nfa, length, num_samples, request.rng(), engine, progress)
    elapsed = time.perf_counter() - started
    return CountReport(
        estimate=result.estimate,
        method="montecarlo",
        length=length,
        num_states=nfa.num_states,
        elapsed_seconds=elapsed,
        backend=engine.name,
        engine_counters=_engine_counter_deltas(engine, base, from_cache),
        details={
            "hits": result.hits,
            "samples": result.samples,
            "total_words": result.total_words,
            "density_estimate": result.density_estimate,
        },
        raw=result,
    )


@register_method(
    "bruteforce",
    summary="exhaustive prefix-tree enumeration of the slice",
    options=("limit",),
)
def _run_bruteforce(nfa: NFA, length: int, request: CountRequest) -> CountReport:
    """Enumerate the slice exactly, reporting limit info and counter deltas."""
    limit = request.options.get("limit", DEFAULT_ENUMERATION_LIMIT)
    engine, from_cache = acquire_engine(
        nfa, request.policy.backend, use_cache=request.policy.use_engine_cache
    )
    base = dict(engine.counters())
    started = time.perf_counter()
    count_value = enumerate_count(nfa, length, limit, engine)
    elapsed = time.perf_counter() - started
    return CountReport(
        estimate=float(count_value),
        method="bruteforce",
        length=length,
        num_states=nfa.num_states,
        elapsed_seconds=elapsed,
        backend=engine.name,
        exact=True,
        engine_counters=_engine_counter_deltas(engine, base, from_cache),
        details={"limit": limit, "total_words": len(nfa.alphabet) ** length},
        raw=count_value,
    )


@register_method("exact", summary="exact reachable-subset dynamic program")
def _run_exact(nfa: NFA, length: int, request: CountRequest) -> CountReport:
    """Run the exact subset DP (engineless; ``raw`` keeps full precision)."""
    started = time.perf_counter()
    count_value = count_exact(nfa, length)
    elapsed = time.perf_counter() - started
    return CountReport(
        estimate=float(count_value),
        method="exact",
        length=length,
        num_states=nfa.num_states,
        elapsed_seconds=elapsed,
        exact=True,
        raw=count_value,
    )


# ----------------------------------------------------------------------
# Dispatch and convenience entry points
# ----------------------------------------------------------------------
def _methods_with(capability: str) -> List[str]:
    """Names of the registered methods whose capabilities declare ``capability``."""
    return sorted(
        name
        for name, entry in METHOD_REGISTRY.items()
        if getattr(entry.capabilities, capability)
    )


def dispatch(
    nfa: NFA,
    length: int,
    request: CountRequest,
    progress: Optional[ProgressCallback] = None,
) -> CountReport:
    """Resolve a request's method, validate its options, and run it.

    ``progress`` is an anytime callback (the serving layer's streaming
    hook), accepted by methods whose capabilities declare ``progress``:
    fpras reports after every completed level of the dynamic program,
    montecarlo after every block of its serial loop.  It runs
    on the calling thread and never touches the RNG streams, so the report
    is bit-identical to a run without it.
    """
    method = resolve_method(request.method)
    validate_length(length)
    policy = request.policy
    unknown = (set(request.options) | set(policy.method_options())) - set(
        method.option_names
    )
    if unknown:
        accepted = sorted(method.option_names)
        raise CountingMethodError(
            f"method {request.method!r} does not accept option(s) {sorted(unknown)}; "
            f"accepted options: {accepted if accepted else 'none'}"
        )
    if policy.workers != 1 and not method.capabilities.workers:
        raise CountingMethodError(
            f"method {request.method!r} does not support sharded parallel "
            f"execution (workers={policy.workers}); methods with worker "
            f"support: {_methods_with('workers')}"
        )
    if progress is not None and not method.capabilities.progress:
        raise CountingMethodError(
            f"method {request.method!r} does not support anytime progress; "
            f"methods with progress support: {_methods_with('progress')}"
        )
    return method.run(nfa, length, request, progress)


# ----------------------------------------------------------------------
# Request canonicalisation (the serving layer's cache key)
# ----------------------------------------------------------------------
#: Per-method options that can never change an estimate — the state-table
#: store and its window only move table entries between RAM and spill (the
#: parity contract in :mod:`repro.counting.store`), and ``details`` only
#: selects how much of the tables a report embeds.  Like ``workers``, they
#: are excluded from the cache key so one cached answer serves every
#: execution configuration.
RESULT_NEUTRAL_OPTIONS = frozenset({"store", "window", "details"})


def canonical_request_knobs(request: CountRequest, length: int) -> Dict[str, object]:
    """The normalised knob mapping a result-cache key is derived from.

    Contains exactly the knobs that can change an estimate: the method
    name, the instance length, the epsilon/delta targets, the integer
    seed, the policy's backend, and the per-method options in sorted
    order, joined by the policy's non-default fpras knobs — notably
    ``shards``, which selects the shard plan and hence the RNG substream
    layout.  ``workers`` and ``use_engine_cache`` are deliberately absent:
    the sharded executor's plan-invariance contract makes estimates
    bit-identical across worker counts, and the engine registry never
    changes results — so one cached answer serves every worker
    configuration.  Result-neutral options (:data:`RESULT_NEUTRAL_OPTIONS`
    — the fpras ``store`` / ``window`` / ``details`` knobs) are filtered
    out for the same reason.

    >>> a = CountRequest(method="fpras", seed=7, policy=ExecutionPolicy(shards=2))
    >>> b = CountRequest(method="fpras", seed=7,
    ...                  policy=ExecutionPolicy(workers=4, shards=2))
    >>> canonical_request_knobs(a, 8) == canonical_request_knobs(b, 8)
    True
    >>> c = CountRequest(method="fpras", seed=7,
    ...                  policy=ExecutionPolicy(shards=2, store="windowed", window=8))
    >>> canonical_request_knobs(c, 8) == canonical_request_knobs(a, 8)
    True
    >>> canonical_request_knobs(a, 8)["options"]
    {'shards': 2}
    """
    if isinstance(request.seed, random.Random):
        raise CountingMethodError(
            "a random.Random seed is a live stream and cannot be canonicalised"
        )
    options = {**request.options, **request.policy.method_options()}
    return {
        "method": request.method,
        "length": int(length),
        "epsilon": float(request.epsilon),
        "delta": float(request.delta),
        "seed": request.seed,
        "backend": request.policy.backend,
        "options": {
            key: options[key]
            for key in sorted(options)
            if key not in RESULT_NEUTRAL_OPTIONS
        },
    }


def request_fingerprint(
    document: Mapping[str, object], length: int, request: CountRequest
) -> Optional[str]:
    """The content-addressed cache key for one (automaton, request), or ``None``.

    ``document`` is :func:`~repro.automata.serialization.nfa_to_dict`
    output — already canonical (sorted states and transitions), so the
    SHA-256 over the compact sorted-key JSON of ``{"nfa": document,
    "request": knobs}`` identifies the *computation content* rather than
    any particular client's spelling of it: a million clients asking about
    the same regex with the same knobs hash to the same key.

    ``None`` marks the request uncacheable: no seed (every run draws fresh
    entropy, so results are not repeatable), a live ``random.Random``
    stream, or an option with no JSON form (e.g. an in-process
    ``ParameterScale`` object).
    """
    if request.seed is None or isinstance(request.seed, random.Random):
        return None
    knobs = canonical_request_knobs(request, length)
    try:
        payload = json.dumps(
            {"nfa": document, "request": knobs},
            sort_keys=True,
            separators=(",", ":"),
        )
    except (TypeError, ValueError):
        return None
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def count(
    nfa: NFA,
    length: int,
    method: str = DEFAULT_METHOD,
    *,
    epsilon: float = 0.5,
    delta: float = 0.1,
    seed: SeedLike = None,
    policy: Optional[ExecutionPolicy] = None,
    **options: object,
) -> CountReport:
    """Count ``|L(A_length)|`` with any registered method (``repro.count``).

    ``policy`` holds the execution knobs (``backend``, ``use_engine_cache``,
    ``workers``, ``shards``, ``store``, ``window``) as one typed
    :class:`~repro.counting.policy.ExecutionPolicy`; the default policy when
    none is given.  Extra keyword arguments become per-method options
    (``scale``, ``sample_cap``, ``num_samples``, ``limit``, …): an execution
    knob passed that way raises, :class:`~repro.errors.ParameterError` for
    ``shards`` / ``store`` / ``window`` and
    :class:`~repro.errors.CountingMethodError` (an option the method does
    not accept) for the others.  A policy with ``workers != 1`` runs
    fpras, the one method declaring worker capability, through the sharded
    parallel executor — see :mod:`repro.counting.parallel`; estimates are
    bit-identical for every worker count.

    >>> from repro.automata.families import no_consecutive_ones_nfa
    >>> count(no_consecutive_ones_nfa(), 5, method="bruteforce").raw
    13
    >>> count(no_consecutive_ones_nfa(), 5, method="exact",
    ...       policy=ExecutionPolicy()).raw
    13
    >>> count(no_consecutive_ones_nfa(), 5, method="no_such_method")
    Traceback (most recent call last):
        ...
    repro.errors.CountingMethodError: unknown counting method 'no_such_method'; \
available: ['acjr', 'bruteforce', 'exact', 'fpras', 'montecarlo']
    """
    request = CountRequest(
        method=method,
        epsilon=epsilon,
        delta=delta,
        seed=seed,
        options=options,
        policy=policy if policy is not None else ExecutionPolicy(),
    )
    return dispatch(nfa, length, request)


class CountingSession:
    """Pins the shared counting knobs once; every call goes through the registry.

    A session is the façade the CLI, harness and applications use: seed
    and :class:`~repro.counting.policy.ExecutionPolicy` (the default one
    when none is given) are fixed at construction, repeated
    calls on the same automaton reuse its engine through the shared
    :class:`~repro.automata.engine.EngineRegistry` (watch
    ``report.engine_counters["engine_cache_hit"]``), and every
    :class:`CountReport` is kept in :attr:`reports` for later inspection.

    >>> from repro.automata.families import no_consecutive_ones_nfa
    >>> session = CountingSession(epsilon=0.4, seed=11)
    >>> first = session.count(no_consecutive_ones_nfa(), 6)
    >>> second = session.count(no_consecutive_ones_nfa(), 6)
    >>> first.estimate == second.estimate  # pinned seed -> repeatable
    True
    >>> second.engine_counters["engine_cache_hit"]
    1
    >>> session.count(no_consecutive_ones_nfa(), 6, method="exact").raw
    21
    >>> len(session.reports)
    3
    """

    def __init__(
        self,
        *,
        method: str = DEFAULT_METHOD,
        epsilon: float = 0.5,
        delta: float = 0.1,
        seed: SeedLike = None,
        policy: Optional[ExecutionPolicy] = None,
        **options: object,
    ) -> None:
        self._base = CountRequest(
            method=method,
            epsilon=epsilon,
            delta=delta,
            seed=seed,
            options=options,
            policy=policy if policy is not None else ExecutionPolicy(),
        )
        # Pinned options must be valid for the pinned method, so typos fail
        # here instead of being silently dropped by the per-method filter in
        # :meth:`request` (which only exists so a session pinned for one
        # method can still run the others).
        unknown = (
            set(self._base.options) | set(self._base.policy.method_options())
        ) - set(resolve_method(method).option_names)
        if unknown:
            raise CountingMethodError(
                f"session option(s) {sorted(unknown)} are not accepted by the "
                f"pinned method {method!r}"
            )
        self._reports: List[CountReport] = []
        self._observers: List[Callable[..., None]] = []

    # ------------------------------------------------------------------
    @property
    def defaults(self) -> CountRequest:
        """The pinned request every call starts from."""
        return self._base

    @property
    def reports(self) -> Tuple[CountReport, ...]:
        """Every report produced by this session, in call order."""
        return tuple(self._reports)

    @property
    def last_report(self) -> Optional[CountReport]:
        """The most recent report, or ``None`` before the first call."""
        return self._reports[-1] if self._reports else None

    # ------------------------------------------------------------------
    def request(
        self,
        method: Optional[str] = None,
        policy: Optional[ExecutionPolicy] = None,
        **overrides: object,
    ) -> CountRequest:
        """The request one call would use: pinned knobs plus overrides.

        Session-level options that the target method does not accept are
        dropped (so a session pinned for fpras can still run ``exact``);
        so are the pinned policy's ``shards`` / ``store`` / ``window`` and
        ``workers`` when the method does not take them, which go back to
        their defaults.  A per-call ``policy`` replaces the pinned one.
        Per-call overrides and policies are kept verbatim and validated at
        dispatch, so a flat ``backend`` / ``use_engine_cache`` / ``workers``
        override raises :class:`~repro.errors.CountingMethodError` there, as
        on :func:`count`; a flat ``shards`` / ``store`` / ``window`` raises
        :class:`~repro.errors.ParameterError` when the request is built.

        >>> session = CountingSession(policy=ExecutionPolicy(workers=2))
        >>> session.request("exact").policy.workers
        1
        >>> session.request(
        ...     "exact", policy=ExecutionPolicy(backend="reference")).policy.backend
        'reference'
        """
        method_name = method if method is not None else self._base.method
        entry = resolve_method(method_name)
        accepted = entry.option_names
        core = {}
        for knob in ("epsilon", "delta", "seed"):
            if knob in overrides:
                core[knob] = overrides.pop(knob)
        options = {
            key: value for key, value in self._base.options.items() if key in accepted
        }
        options.update(overrides)
        if policy is None:
            unused = [name for name in POLICY_OPTION_NAMES if name not in accepted]
            if not entry.capabilities.workers:
                unused.append("workers")
            defaults = ExecutionPolicy()
            policy = replace(
                self._base.policy, **{name: getattr(defaults, name) for name in unused}
            )
        return replace(
            self._base, method=method_name, options=options, policy=policy, **core
        )

    # ------------------------------------------------------------------
    # Manifest hooks: the audit pipeline observes sessions through these.
    def add_observer(self, observer: Callable[..., None]) -> Callable[[], None]:
        """Register a callback invoked after every completed count.

        The observer is called as ``observer(nfa, length, request, report)``
        on the calling thread, after the report is recorded — this is the
        hook :class:`repro.audit.manifest.ManifestBuilder` attaches through
        to capture a session's runs into an audit manifest without changing
        any call site.  Returns a zero-argument detach function.
        """
        self._observers.append(observer)

        def detach() -> None:
            if observer in self._observers:
                self._observers.remove(observer)

        return detach

    def count(
        self,
        nfa: NFA,
        length: int,
        method: Optional[str] = None,
        policy: Optional[ExecutionPolicy] = None,
        **overrides: object,
    ) -> CountReport:
        """Count one instance through the registry with the pinned knobs
        (``policy`` and ``overrides`` as in :meth:`request`)."""
        request = self.request(method, policy, **overrides)
        report = dispatch(nfa, length, request)
        self._reports.append(report)
        for observer in list(self._observers):
            observer(nfa, length, request, report)
        return report

    def sampler(
        self,
        nfa: NFA,
        length: int,
        max_attempts_per_word: int = 64,
        **overrides: object,
    ):
        """An almost-uniform word sampler sharing the session's pinned knobs.

        Sampling rides the FPRAS tables, so the underlying counting pass
        always uses the ``fpras`` method regardless of the session default.
        Returns a :class:`~repro.counting.uniform.UniformWordSampler`.
        """
        from repro.counting.uniform import UniformWordSampler

        return UniformWordSampler.from_request(
            nfa,
            length,
            self.request("fpras", **overrides),
            max_attempts_per_word=max_attempts_per_word,
        )

    def describe(self) -> Dict[str, object]:
        """The pinned knobs, policy fields included, as a plain dictionary."""
        return {
            "method": self._base.method,
            "epsilon": self._base.epsilon,
            "delta": self._base.delta,
            "seed": self._base.seed,
            **self._base.policy.describe(),
            "options": dict(self._base.options),
            "calls": len(self._reports),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CountingSession(method={self._base.method!r}, "
            f"epsilon={self._base.epsilon}, delta={self._base.delta}, "
            f"seed={self._base.seed!r}, backend={self._base.policy.backend!r}, "
            f"calls={len(self._reports)})"
        )
