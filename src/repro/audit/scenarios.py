"""Declarative scenario matrices for audited experiment runs.

Every benchmark and experiment in the repo used to hand-roll its sweep as a
nested ``for`` loop (``harness/experiments.py``, the old
``tools/bench_report.py`` workload list).  This module replaces those ad-hoc
loops with a single declarative *matrix spec*: one plain dictionary naming
the levels of each factor — automaton family, word length, counting method,
simulation backend, ``(epsilon, delta)`` accuracy target and seed — which
:func:`expand_matrix` crosses factorially into a flat list of
:class:`Scenario` objects, the way experiment-design tools cross factorial
design levels.

A :class:`Scenario` is fully declarative: it knows how to build its
automaton (:meth:`Scenario.build_nfa`), how to phrase itself as a
:class:`~repro.counting.api.CountRequest` (:meth:`Scenario.request`), and
how to describe itself as plain JSON (:meth:`Scenario.describe`).  Stable
identifiers (:attr:`Scenario.scenario_id` and the seed-blind
:attr:`Scenario.group_id`) let two manifests from different commits be
joined scenario-by-scenario, which is what the drift gate in
:mod:`repro.audit.diff` does.

>>> spec = {
...     "families": [{"family": "substring", "args": {"pattern": "101"},
...                   "lengths": [8]}],
...     "methods": ["fpras", "exact"],
...     "accuracy": [{"epsilon": 0.4, "delta": 0.1}],
...     "seeds": [0, 1],
... }
>>> scenarios = expand_matrix(spec)
>>> len(scenarios)  # 1 family x 1 length x 2 methods x 1 accuracy x 2 seeds
4
>>> scenarios[0].scenario_id
'fpras+default+w1+eps0.4+delta0.1+substring(pattern=101)+n8+seed0'
>>> scenarios[0].group_id
'fpras+default+w1+eps0.4+delta0.1+substring(pattern=101)+n8'
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.automata.engine import available_backends
from repro.automata.families import FAMILY_REGISTRY, build_family
from repro.automata.nfa import NFA
from repro.counting.api import CountRequest, available_methods
from repro.counting.params import ParameterScale
from repro.counting.policy import POLICY_OPTION_NAMES, ExecutionPolicy
from repro.errors import AuditError

#: Spec keys :func:`expand_matrix` understands; anything else is an error.
SPEC_KEYS = frozenset(
    {"families", "methods", "backends", "accuracy", "seeds", "options", "scale"}
)

#: The smoke-scale matrix CI audits on every run: both estimators with a
#: guarantee story (fpras seed-swept, montecarlo as the no-guarantee
#: baseline) over families with cheap exact ground truth — three structured
#: ones and a dense random NFA, half its states accepting, whose predecessor
#: unions overlap.
DEFAULT_MATRIX: Mapping[str, object] = {
    "families": [
        {"family": "substring", "args": {"pattern": "101"}, "lengths": [10]},
        {"family": "divisibility", "args": {"divisor": 48}, "lengths": [10]},
        {"family": "no_consecutive_ones", "args": {}, "lengths": [12]},
        {
            "family": "random_nfa",
            "args": {
                "num_states": 20,
                "length": 6,
                "density": 0.12,
                "accepting_fraction": 0.5,
                "seed": 11,
            },
            "lengths": [6],
        },
    ],
    "methods": ["fpras", "montecarlo"],
    "backends": [None],
    "accuracy": [{"epsilon": 0.4, "delta": 0.2}],
    "seeds": [11, 12, 13, 14, 15],
    "options": {"montecarlo": {"num_samples": 20000}},
    "scale": {"sample_cap": 12, "union_trial_cap": 16},
}


def _format_args(args: Mapping[str, object]) -> str:
    """Family arguments as a stable ``key=value`` signature string."""
    return ",".join(f"{key}={args[key]}" for key in sorted(args))


@dataclass(frozen=True)
class Scenario:
    """One fully-specified cell of a scenario matrix.

    Attributes
    ----------
    family, family_args, length:
        The workload: a registered automaton family, its construction
        arguments and the word length ``n``.
    method, backend:
        How to count: a registered method and a simulation backend
        (``None`` means the default).
    epsilon, delta, seed:
        The accuracy target and the RNG seed of this cell.
    options:
        Per-method knobs forwarded into :attr:`CountRequest.options`; the
        fpras execution knobs ``store`` / ``window`` among them go to the
        request's policy instead.
    scale:
        Optional plain-dictionary form of
        :meth:`~repro.counting.params.ParameterScale.practical` arguments,
        applied to ``fpras`` runs (kept as a dictionary so the scenario —
        and hence its fingerprint — stays JSON-representable).
    """

    family: str
    family_args: Mapping[str, object] = field(default_factory=dict)
    length: int = 8
    method: str = "fpras"
    backend: Optional[str] = None
    epsilon: float = 0.5
    delta: float = 0.1
    seed: int = 0
    options: Mapping[str, object] = field(default_factory=dict)
    scale: Optional[Mapping[str, object]] = None

    def __post_init__(self) -> None:
        if self.family not in FAMILY_REGISTRY:
            raise AuditError(
                f"unknown family {self.family!r}; known: {sorted(FAMILY_REGISTRY)}"
            )
        if self.method not in available_methods():
            raise AuditError(
                f"unknown method {self.method!r}; known: {list(available_methods())}"
            )
        if self.backend is not None and self.backend not in available_backends():
            raise AuditError(
                f"unknown backend {self.backend!r}; "
                f"known: {list(available_backends())}"
            )
        if not isinstance(self.seed, int):
            raise AuditError("scenario seeds must be integers (manifests are replayable)")

    # ------------------------------------------------------------------
    @property
    def group_id(self) -> str:
        """Identifier shared by every seed of an otherwise-identical cell.

        The drift gate aggregates relative errors per group to judge
        delta-coverage across the seed sweep.
        """
        backend = self.backend if self.backend is not None else "default"
        # "+w1" stays so these ids still match earlier manifests' (every run is serial).
        return (
            f"{self.method}+{backend}+w1"
            f"+eps{self.epsilon}+delta{self.delta}"
            f"+{self.family}({_format_args(self.family_args)})+n{self.length}"
        )

    @property
    def scenario_id(self) -> str:
        """Stable identifier joining this cell across manifests."""
        return f"{self.group_id}+seed{self.seed}"

    # ------------------------------------------------------------------
    def build_nfa(self) -> NFA:
        """Construct the scenario's automaton from the family registry."""
        return build_family(self.family, **dict(self.family_args))

    def request(self) -> CountRequest:
        """The :class:`CountRequest` that executes this scenario.

        The plain-dictionary :attr:`scale` is materialised into a
        :class:`~repro.counting.params.ParameterScale` here, at the last
        moment, so everything stored on the scenario itself stays JSON.
        """
        scale = None
        if self.scale is not None and self.method == "fpras":
            scale = ParameterScale.practical(**dict(self.scale))
        return self._request(scale)

    def fingerprint_request(self) -> CountRequest:
        """A JSON-canonicalisable twin of :meth:`request` for fingerprinting.

        Identical knobs, but ``scale`` stays the plain dictionary so
        :func:`~repro.counting.api.request_fingerprint` can hash it; the
        executing request and the fingerprinted request denote the same
        computation.
        """
        scale = None
        if self.scale is not None and self.method == "fpras":
            scale = {key: self.scale[key] for key in sorted(self.scale)}
        return self._request(scale)

    def _request(self, scale: object) -> CountRequest:
        """The scenario's request with ``scale`` (if not ``None``) as an option."""
        options = dict(self.options)
        execution = {
            name: options.pop(name) for name in POLICY_OPTION_NAMES if name in options
        }
        if scale is not None:
            options["scale"] = scale
        return CountRequest(
            method=self.method,
            epsilon=self.epsilon,
            delta=self.delta,
            seed=self.seed,
            options=options,
            policy=ExecutionPolicy(backend=self.backend, **execution),
        )

    def describe(self) -> Dict[str, object]:
        """The scenario as a plain JSON-representable specification."""
        return {
            "family": self.family,
            "family_args": {key: self.family_args[key] for key in sorted(self.family_args)},
            "length": self.length,
            "method": self.method,
            "backend": self.backend,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "seed": self.seed,
            "options": {key: self.options[key] for key in sorted(self.options)},
            "scale": (
                {key: self.scale[key] for key in sorted(self.scale)}
                if self.scale is not None
                else None
            ),
        }

    @classmethod
    def from_describe(cls, document: Mapping[str, object]) -> "Scenario":
        """Rebuild a scenario from :meth:`describe` output."""
        try:
            return cls(
                family=document["family"],
                family_args=dict(document.get("family_args") or {}),
                length=int(document["length"]),
                method=document["method"],
                backend=document.get("backend"),
                epsilon=float(document["epsilon"]),
                delta=float(document["delta"]),
                seed=int(document["seed"]),
                options=dict(document.get("options") or {}),
                scale=document.get("scale"),
            )
        except KeyError as missing:
            raise AuditError(
                f"scenario specification is missing field {missing}"
            ) from missing


def _family_entries(spec: Mapping[str, object]) -> List[Tuple[str, Dict[str, object], List[int]]]:
    """Normalise the ``families`` axis to ``(name, args, lengths)`` triples."""
    raw = spec.get("families")
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)) or not raw:
        raise AuditError("matrix spec needs a non-empty 'families' list")
    entries: List[Tuple[str, Dict[str, object], List[int]]] = []
    for item in raw:
        if isinstance(item, str):
            entries.append((item, {}, [8]))
            continue
        if not isinstance(item, Mapping) or "family" not in item:
            raise AuditError(
                f"family entry {item!r} must be a name or a mapping with a 'family' key"
            )
        lengths = item.get("lengths")
        if lengths is None:
            lengths = [item.get("length", 8)]
        entries.append(
            (item["family"], dict(item.get("args") or {}), [int(n) for n in lengths])
        )
    return entries


def _accuracy_entries(spec: Mapping[str, object]) -> List[Tuple[float, float]]:
    """Normalise the ``accuracy`` axis to ``(epsilon, delta)`` pairs."""
    raw = spec.get("accuracy", [{"epsilon": 0.5, "delta": 0.1}])
    pairs: List[Tuple[float, float]] = []
    for item in raw:
        if isinstance(item, Mapping):
            pairs.append((float(item["epsilon"]), float(item["delta"])))
        else:
            epsilon, delta = item
            pairs.append((float(epsilon), float(delta)))
    if not pairs:
        raise AuditError("matrix spec 'accuracy' list must not be empty")
    return pairs


def expand_matrix(spec: Mapping[str, object]) -> List[Scenario]:
    """Cross a declarative matrix spec into its flat scenario list.

    The spec is one dictionary whose keys are the factorial axes —
    ``families`` (each entry a family name or ``{"family", "args",
    "lengths"}`` mapping), ``methods``, ``backends`` (default ``[None]``),
    ``accuracy`` (``{"epsilon", "delta"}`` mappings or ``(epsilon, delta)``
    pairs) and ``seeds`` (default ``[0]``) — plus two non-crossed
    modifiers: ``options`` (a mapping *per method*, attached to every
    scenario of that method) and ``scale`` (plain
    :meth:`ParameterScale.practical` keywords applied to fpras scenarios).
    Expansion order is deterministic: families outermost, seeds innermost,
    exactly as written in the spec.

    >>> len(expand_matrix(DEFAULT_MATRIX))
    40
    """
    if not isinstance(spec, Mapping):
        raise AuditError("matrix spec must be a mapping of axis names to levels")
    unknown = set(spec) - SPEC_KEYS
    if unknown:
        raise AuditError(
            f"unknown matrix spec key(s) {sorted(unknown)}; "
            f"known keys: {sorted(SPEC_KEYS)}"
        )
    methods = list(spec.get("methods", ["fpras"]))
    if not methods:
        raise AuditError("matrix spec 'methods' list must not be empty")
    backends = list(spec.get("backends", [None]))
    seeds = [int(s) for s in spec.get("seeds", [0])]
    per_method_options = dict(spec.get("options") or {})
    scale = spec.get("scale")
    scenarios: List[Scenario] = []
    for family, args, lengths in _family_entries(spec):
        for length in lengths:
            for method in methods:
                for backend in backends:
                    for epsilon, delta in _accuracy_entries(spec):
                        for seed in seeds:
                            scenarios.append(
                                Scenario(
                                    family=family,
                                    family_args=args,
                                    length=length,
                                    method=method,
                                    backend=backend,
                                    epsilon=epsilon,
                                    delta=delta,
                                    seed=seed,
                                    options=dict(per_method_options.get(method) or {}),
                                    scale=scale,
                                )
                            )
    ids = [scenario.scenario_id for scenario in scenarios]
    if len(set(ids)) != len(ids):
        raise AuditError("matrix spec expands to duplicate scenario ids")
    return scenarios
