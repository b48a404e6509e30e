"""Typed execution policies and declarative method capabilities.

The knobs that decide how a counting run executes — ``backend`` and
``use_engine_cache`` for every method plus the fpras-only ``store`` /
``window`` — live in one typed record:

* :class:`ExecutionPolicy` bundles every knob that decides *how* a run
  executes.  It is the ``policy`` field of
  :class:`~repro.counting.api.CountRequest`, the ``policy`` argument of
  :func:`repro.count`, :class:`~repro.counting.api.CountingSession`, the
  counter classes (:class:`~repro.counting.fpras.NFACounter`,
  :class:`~repro.counting.acjr.ACJRCounter`) and the CLI; the method
  runners pass the request's policy to the counters.
* :class:`MethodCapabilities` is the declarative record of what a
  registered method supports (anytime progress).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.automata.engine import available_backends
from repro.counting.store import validate_store, validate_window
from repro.errors import ParameterError

#: The policy fields a method accepts only if it names them among its
#: options (fpras does).  A request's ``options`` may not hold them — they
#: belong on the policy — but the two external formats that spell them as
#: options, a ``POST /count`` body and an audit spec's per-method
#: ``options``, route them here.
POLICY_OPTION_NAMES: Tuple[str, ...] = ("store", "window")


@dataclass(frozen=True)
class ExecutionPolicy:
    """Every knob deciding *how* a counting run executes, in one record.

    Attributes
    ----------
    backend:
        Simulation-engine name.  ``None`` and ``"auto"`` both mean unset:
        the ``montecarlo`` runner takes them as ``"numpy"`` and every other
        method as the default ``"bitset"`` (see
        :func:`repro.automata.engine.resolve_backend`).
    use_engine_cache:
        Whether engines come from the shared
        :class:`~repro.automata.engine.EngineRegistry`.  A shared engine's
        decode memo stays warm across runs, so only the diagnostic
        ``engine_counters["decode_ops"]`` may differ.
    store, window:
        State-table store layout (``"dict"`` / ``"windowed"``) and the
        windowed store's resident level count.

    Only ``backend`` is part of a run's cache key (see
    :func:`~repro.counting.api.canonical_request_knobs`).  The other three
    never change an estimate: the parity suites hold estimates
    bit-identical across stores and windows, and the engine registry only
    shares transition tables.  Every backend gives the same estimate too,
    but the key keeps the one the client named.  Every run is serial.

    >>> ExecutionPolicy().describe()["store"]
    'dict'
    >>> ExecutionPolicy(backend="numpy").method_options()
    {}
    >>> ExecutionPolicy(store="windowed", window=8).method_options()
    {'store': 'windowed', 'window': 8}
    >>> ExecutionPolicy(store="csv")
    Traceback (most recent call last):
        ...
    repro.errors.ParameterError: unknown state-table store 'csv'; available: ['dict', 'windowed']
    """

    backend: Optional[str] = None
    use_engine_cache: bool = True
    store: str = "dict"
    window: int = 4

    def __post_init__(self) -> None:
        if self.backend is not None and self.backend not in available_backends():
            raise ParameterError(
                f"unknown simulation backend {self.backend!r}; "
                f"available: {list(available_backends())}"
            )
        if not isinstance(self.use_engine_cache, bool):
            raise ParameterError("use_engine_cache must be a bool")
        validate_store(self.store)
        validate_window(self.window)

    # Kept read-only because perfbench's oversubscription guard reads it.
    @property
    def workers(self) -> int:
        """Always 1: every run is serial."""
        return 1

    # ------------------------------------------------------------------
    def method_options(self) -> Dict[str, object]:
        """The fpras-only knobs this policy sets, defaults omitted.

        Dispatch checks these names against the method's options (so a
        windowed store on ``exact`` raises); a default policy contributes
        none.  The cache key leaves them out, since no store or window
        changes an estimate.
        """
        options: Dict[str, object] = {}
        if self.store != "dict":
            options["store"] = self.store
        if self.window != 4:
            options["window"] = self.window
        return options

    def describe(self) -> Dict[str, object]:
        """The policy as a plain dictionary (for reports and manifests)."""
        return {
            "backend": self.backend,
            "use_engine_cache": self.use_engine_cache,
            "store": self.store,
            "window": self.window,
        }

    def with_overrides(self, **changes: object) -> "ExecutionPolicy":
        """A modified copy — convenience for sweeps and CLI wiring.

        >>> ExecutionPolicy().with_overrides(store="windowed").store
        'windowed'
        """
        return replace(self, **changes)


@dataclass(frozen=True)
class MethodCapabilities:
    """What a registered counting method declares it can do.

    Dispatch reads these fields, ``repro methods`` renders them as
    capability columns and ``GET /methods`` serves them.  Which stores a
    method takes is not declared here: dispatch checks a policy's
    non-default ``store`` / ``window`` against the method's option names.

    Attributes
    ----------
    progress:
        The runner accepts an anytime progress callback (the ``progress``
        argument of :func:`~repro.counting.api.dispatch`).

    >>> MethodCapabilities().progress
    False
    >>> MethodCapabilities(progress="yes")
    Traceback (most recent call last):
        ...
    repro.errors.ParameterError: progress must be a bool
    """

    progress: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.progress, bool):
            raise ParameterError("progress must be a bool")

    def describe(self) -> Dict[str, object]:
        """The capabilities as a plain dictionary (for ``GET /methods``)."""
        return {"progress": self.progress}
