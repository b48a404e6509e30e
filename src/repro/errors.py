"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class AutomatonError(ReproError):
    """Raised when an automaton is structurally invalid or misused."""


class InvalidTransitionError(AutomatonError):
    """Raised when a transition references unknown states or symbols."""


class EmptyLanguageError(AutomatonError):
    """Raised when an operation requires a non-empty language slice.

    The main FPRAS, for instance, needs at least one witness word in
    ``L(q^l)`` to pad a sample multiset; if the slice is empty the pad step
    cannot be performed and the caller made an inconsistent request.
    """


class RegexSyntaxError(ReproError):
    """Raised when a regular expression cannot be parsed."""


class ParameterError(ReproError):
    """Raised when FPRAS parameters are inconsistent or out of range."""


class CountingMethodError(ParameterError, ValueError):
    """Raised when a unified-counting method name or option is invalid.

    Derives from both :class:`ParameterError` (so ``except ReproError``
    still catches every library failure) and :class:`ValueError` (the
    exception type application helpers such as
    :func:`repro.applications.leakage.estimate_leakage_bits` historically
    raised for bad method names).
    """


class SampleExhaustedError(ReproError):
    """Raised in strict mode when AppUnion consumes more samples than stored.

    The paper treats this as a low-probability failure event (Algorithm 1,
    line 8).  In strict consumption mode we surface it as an exception so
    tests can assert on the paper's bound for its probability; the scaled
    default draws every trial's sample uniformly with replacement, so only
    a set with no stored samples at all can run dry there.
    """


class SamplingError(ReproError):
    """Raised when a sampler cannot deliver a valid sample.

    :class:`~repro.counting.uniform.UniformWordSampler` raises it when every
    attempt for one word failed on a non-empty language slice, and AppUnion
    when a stored sample lies outside its own set (no set of the union
    contains it).  Neither is an empty-language condition, which is what
    :class:`EmptyLanguageError` reports.
    """


class ReductionError(ReproError):
    """Raised when an application-level reduction to #NFA cannot be built."""


class AuditError(ReproError):
    """Raised when an audit manifest is invalid or an audit run is misused.

    Covers schema violations in :mod:`repro.audit.manifest` documents,
    malformed scenario-matrix specs in :mod:`repro.audit.scenarios`, and
    attempts to overwrite an existing manifest (manifests are append-only
    by contract: nothing is overwritten, everything stays auditable).
    """


class CorpusError(ReproError):
    """Raised when a corpus fixture is missing, drifted, or tampered with.

    The real-workload corpus (:mod:`repro.corpus`) checks in serialized
    automata with content-addressed integrity digests; a fixture file whose
    body no longer matches its digest — or whose digest no longer matches a
    rebuild from the curated source definition — is refused rather than
    silently loaded, so benchmark and audit trajectories never run on
    drifted workloads.
    """


class ExperimentError(ReproError):
    """Raised by the harness when an experiment is misconfigured."""
