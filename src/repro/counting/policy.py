"""Typed execution policies and declarative method capabilities.

The knobs that decide how a counting run executes — ``backend``,
``use_engine_cache`` and ``workers`` for every method plus the
fpras-only ``shards`` / ``store`` / ``window`` — live in one typed
record:

* :class:`ExecutionPolicy` bundles every knob that decides *how* a run
  executes.  It is the ``policy`` field of
  :class:`~repro.counting.api.CountRequest` and the ``policy`` argument of
  :func:`repro.count`, :class:`~repro.counting.api.CountingSession` and
  the CLI; the method runners read it from the request.
* :class:`MethodCapabilities` is the declarative record of what a
  registered method supports (workers, anytime progress, accepted
  stores).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.automata.engine import available_backends
from repro.errors import ParameterError

#: The policy fields a method accepts only if it names them among its
#: options (fpras does).  A request's ``options`` may not hold them — they
#: belong on the policy — but the two external formats that spell them as
#: options, a ``POST /count`` body and an audit spec's per-method
#: ``options``, route them here.
POLICY_OPTION_NAMES: Tuple[str, ...] = ("shards", "store", "window")


@dataclass(frozen=True)
class ExecutionPolicy:
    """Every knob deciding *how* a counting run executes, in one record.

    Attributes
    ----------
    backend:
        Simulation-engine name (``None`` selects the default backend; see
        :func:`repro.automata.engine.resolve_backend` for the ``"auto"``
        rule).  The ``montecarlo`` runner takes ``None`` and ``"auto"`` as
        ``"numpy"``.
    use_engine_cache:
        Whether engines come from the shared
        :class:`~repro.automata.engine.EngineRegistry`.
    workers:
        Process count for the sharded executor (``1`` serial, ``0`` one
        per CPU).
    shards:
        Shard-plan size for methods that honour it (fpras).
    store, window:
        State-table store layout (``"dict"`` / ``"windowed"``) and the
        windowed store's resident level count.

    Only ``backend`` and ``shards`` are part of a run's cache key (see
    :func:`~repro.counting.api.canonical_request_knobs`).  The other four
    never change an estimate: the parity suites hold estimates
    bit-identical across worker counts, stores and windows, and the engine
    registry only shares transition tables.  ``shards`` picks the shard
    plan and hence the random substreams each group of states draws from,
    so it moves the estimate (``substring("101")`` at n = 8, seed 1 reads
    143.13 unsharded and 146.53 with ``shards=3``).  Every backend gives the
    same estimate too, but the key keeps the one the client named.

    >>> ExecutionPolicy().describe()["store"]
    'dict'
    >>> ExecutionPolicy(backend="numpy", workers=2).method_options()
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
    workers: int = 1
    shards: int = 1
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
        # Late imports keep this module importable before the counting
        # package finishes wiring (parallel/store import no policy symbols).
        from repro.counting.parallel import validate_shards, validate_workers
        from repro.counting.store import validate_store, validate_window

        validate_workers(self.workers)
        validate_shards(self.shards)
        validate_store(self.store)
        validate_window(self.window)

    # ------------------------------------------------------------------
    def method_options(self) -> Dict[str, object]:
        """The fpras-only knobs this policy sets, defaults omitted.

        Dispatch checks these names against the method's options (so a
        windowed store on ``exact`` raises), and the cache key carries
        them beside the request's options; a default policy contributes
        none.
        """
        options: Dict[str, object] = {}
        if self.shards != 1:
            options["shards"] = self.shards
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
            "workers": self.workers,
            "shards": self.shards,
            "store": self.store,
            "window": self.window,
        }

    def with_overrides(self, **changes: object) -> "ExecutionPolicy":
        """A modified copy — convenience for sweeps and CLI wiring.

        >>> ExecutionPolicy().with_overrides(workers=4).workers
        4
        """
        return replace(self, **changes)


@dataclass(frozen=True)
class MethodCapabilities:
    """What a registered counting method declares it can do.

    Dispatch reads these fields, ``repro methods`` renders them as
    capability columns and ``GET /methods`` serves them.

    Attributes
    ----------
    workers:
        The runner honours the policy's ``workers`` through the sharded
        executor (:mod:`repro.counting.parallel`).
    progress:
        The runner accepts an anytime progress callback (the ``progress``
        argument of :func:`~repro.counting.api.dispatch`).
    stores:
        State-table store names the method accepts (every method handles
        the default resident ``"dict"`` store).

    >>> MethodCapabilities().workers
    False
    >>> MethodCapabilities(workers=True, stores=("dict", "windowed")).stores
    ('dict', 'windowed')
    >>> MethodCapabilities(stores=())
    Traceback (most recent call last):
        ...
    repro.errors.ParameterError: stores must name at least one store
    """

    workers: bool = False
    progress: bool = False
    stores: Tuple[str, ...] = ("dict",)

    def __post_init__(self) -> None:
        for flag in ("workers", "progress"):
            if not isinstance(getattr(self, flag), bool):
                raise ParameterError(f"{flag} must be a bool")
        if not isinstance(self.stores, tuple) or not self.stores:
            raise ParameterError("stores must name at least one store")
        from repro.counting.store import validate_store

        for store in self.stores:
            validate_store(store)

    def describe(self) -> Dict[str, object]:
        """The capabilities as a plain dictionary (for ``repro methods``)."""
        return {
            "workers": self.workers,
            "progress": self.progress,
            "stores": list(self.stores),
        }
