"""The corpus registry: build, persist, verify and load corpus fixtures.

The curated sources (:mod:`repro.corpus.patterns`,
:mod:`repro.corpus.rpq`) are code; the *fixtures* are their compiled
automata, checked in as JSON documents under ``tests/fixtures/corpus/`` so
every session — tests, benchmarks, audit runs, CI — counts the same
workloads bit-for-bit without recompiling regexes.

Integrity is content-addressed twice over:

* every fixture document embeds ``digest`` — the SHA-256 of its own
  canonical JSON body (with the digest field removed).  A fixture edited
  by hand, truncated, or corrupted fails :func:`load_fixture` with
  :class:`~repro.errors.CorpusError` instead of silently feeding a
  drifted workload into a manifest;
* ``fingerprint`` — the :func:`repro.counting.api.request_fingerprint`
  of the automaton under a canonical probe request — ties the fixture to
  the serving layer's cache identity, so a corpus workload and a
  ``POST /count`` of the same automaton resolve to the same key.

``repro corpus build`` regenerates fixtures from the sources (the build
is deterministic, so rebuilding an untouched source reproduces the digest
exactly), ``repro corpus verify`` proves the checked-in fixtures still
match a fresh rebuild, and :func:`corpus_matrix_spec` turns any fixture
subset into a declarative audit scenario matrix — which is how corpus
workloads reach ``repro audit`` manifests, the drift gate and BENCH
artifacts with no new plumbing.

>>> fixture = build_fixture(CORPUS_REGISTRY["valid.hex_color"])
>>> fixture["num_states"], fixture["id"]
(8, 'valid.hex_color')
>>> fixture["digest"] == fixture_digest(fixture)
True
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.automata.nfa import NFA
from repro.automata.regex import compile_regex
from repro.automata.serialization import nfa_from_dict, nfa_to_dict
from repro.corpus.patterns import PATTERNS, CorpusPattern
from repro.corpus.rpq import RPQ_QUERIES
from repro.counting.api import CountRequest, request_fingerprint
from repro.errors import CorpusError

#: Format tag + version embedded in every fixture document.
FIXTURE_FORMAT = "repro-corpus-fixture"
FIXTURE_VERSION = 1

#: The canonical probe request every fixture's ``fingerprint`` is computed
#: under — one fixed request so the fingerprint identifies the *automaton*
#: (two fixtures with the same automaton and length collide, as they should).
PROBE_REQUEST = CountRequest(method="fpras", epsilon=0.5, delta=0.1, seed=0)

#: Environment variable overriding the fixture directory.
CORPUS_DIR_ENV = "REPRO_CORPUS_DIR"

#: The full registry: every curated source, keyed by stable corpus id.
CORPUS_REGISTRY: Dict[str, CorpusPattern] = {
    entry.corpus_id: entry for entry in (*PATTERNS, *RPQ_QUERIES)
}


@dataclass(frozen=True)
class CorpusFixture:
    """One loaded, integrity-checked corpus fixture.

    Carries the source metadata verbatim plus the rebuilt
    :class:`~repro.automata.nfa.NFA` and the fixture's content digest.
    """

    corpus_id: str
    kind: str
    pattern: str
    description: str
    source: Mapping[str, str]
    tags: Tuple[str, ...]
    lengths: Tuple[int, ...]
    nfa: NFA
    digest: str
    fingerprint: Optional[str]

    @property
    def num_states(self) -> int:
        """Number of automaton states ``m`` (drives ground-truth eligibility)."""
        return self.nfa.num_states


def _entry_kind(entry: CorpusPattern) -> str:
    """``"rpq"`` for query-class entries, ``"regex"`` for pattern entries."""
    return "rpq" if entry.corpus_id.startswith("rpq.") else "regex"


def _canonical(document: Mapping[str, object]) -> str:
    """The canonical compact JSON the digest is computed over."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def fixture_digest(document: Mapping[str, object]) -> str:
    """SHA-256 of the fixture's canonical body, excluding the digest itself."""
    body = {key: value for key, value in document.items() if key != "digest"}
    return hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()


def build_fixture(entry: CorpusPattern) -> Dict[str, object]:
    """Compile one curated source into its fixture document.

    Deterministic: the regex compiler prunes and relabels states
    canonically and :func:`~repro.automata.serialization.nfa_to_dict`
    sorts every list, so building the same source twice yields the same
    document — and hence the same digest — on any machine.
    """
    nfa = compile_regex(entry.pattern, alphabet=entry.alphabet)
    automaton = nfa_to_dict(nfa)
    document: Dict[str, object] = {
        "format": FIXTURE_FORMAT,
        "version": FIXTURE_VERSION,
        "id": entry.corpus_id,
        "kind": _entry_kind(entry),
        "pattern": entry.pattern,
        "description": entry.description,
        "source": dict(entry.source),
        "tags": list(entry.tags),
        "lengths": list(entry.lengths),
        "num_states": nfa.num_states,
        "alphabet_size": len(nfa.alphabet),
        "automaton": automaton,
        "fingerprint": request_fingerprint(
            automaton, entry.lengths[0], PROBE_REQUEST
        ),
    }
    document["digest"] = fixture_digest(document)
    return document


def corpus_dir() -> str:
    """The fixture directory: ``$REPRO_CORPUS_DIR`` or the repo checkout's.

    Fixtures live in ``tests/fixtures/corpus/`` at the repository root
    (they are test data as much as workload data); resolved relative to
    this file so any process with the repo on ``PYTHONPATH`` finds them.
    """
    override = os.environ.get(CORPUS_DIR_ENV)
    if override:
        return override
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "tests", "fixtures", "corpus")


def fixture_path(corpus_id: str, directory: Optional[str] = None) -> str:
    """The on-disk path of one fixture document."""
    return os.path.join(directory or corpus_dir(), f"{corpus_id}.json")


def write_fixture(
    entry: CorpusPattern, directory: Optional[str] = None
) -> str:
    """Build ``entry`` and write its fixture document; returns the path.

    Unlike audit manifests, fixtures are *regenerated in place* — the
    digest, not the file system, is the integrity story — so an existing
    file is overwritten.
    """
    directory = directory or corpus_dir()
    os.makedirs(directory, exist_ok=True)
    document = build_fixture(entry)
    path = fixture_path(entry.corpus_id, directory)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _registry_entry(corpus_id: str) -> CorpusPattern:
    try:
        return CORPUS_REGISTRY[corpus_id]
    except KeyError as missing:
        raise CorpusError(
            f"unknown corpus fixture {corpus_id!r}; known: {sorted(CORPUS_REGISTRY)}"
        ) from missing


def _read_document(corpus_id: str, directory: Optional[str]) -> Dict[str, object]:
    path = fixture_path(corpus_id, directory)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError as missing:
        raise CorpusError(
            f"corpus fixture {corpus_id!r} has no file at {path!r}; "
            "run `repro corpus build` to regenerate the fixtures"
        ) from missing
    except (OSError, ValueError) as error:
        raise CorpusError(f"cannot read corpus fixture {path!r}: {error}") from error
    if not isinstance(document, dict):
        raise CorpusError(f"corpus fixture {path!r} is not a JSON object")
    return document


def load_fixture(
    corpus_id: str, directory: Optional[str] = None
) -> CorpusFixture:
    """Load one fixture, refusing tampered or drifted documents.

    Checks, in order: the format/version tags, that the file's ``id``
    matches its name, that the embedded digest matches a recomputation
    over the body (tamper/corruption detection), and that the automaton
    block round-trips.  Any mismatch is a :class:`CorpusError` — a
    drifted fixture never flows silently into a manifest.
    """
    _registry_entry(corpus_id)
    document = _read_document(corpus_id, directory)
    if document.get("format") != FIXTURE_FORMAT:
        raise CorpusError(
            f"fixture {corpus_id!r}: not a {FIXTURE_FORMAT} document"
        )
    if document.get("version") != FIXTURE_VERSION:
        raise CorpusError(
            f"fixture {corpus_id!r}: unsupported version {document.get('version')!r}"
        )
    if document.get("id") != corpus_id:
        raise CorpusError(
            f"fixture file for {corpus_id!r} claims id {document.get('id')!r}"
        )
    recomputed = fixture_digest(document)
    if document.get("digest") != recomputed:
        raise CorpusError(
            f"fixture {corpus_id!r} failed its integrity check: embedded "
            f"digest {str(document.get('digest'))[:12]}... does not match "
            f"recomputed {recomputed[:12]}...; the file has drifted — "
            "rebuild it from source with `repro corpus build` if the "
            "change is intentional"
        )
    nfa = nfa_from_dict(document["automaton"])
    if nfa.num_states != document.get("num_states"):
        raise CorpusError(
            f"fixture {corpus_id!r}: recorded num_states "
            f"{document.get('num_states')!r} disagrees with the automaton "
            f"({nfa.num_states} states)"
        )
    return CorpusFixture(
        corpus_id=corpus_id,
        kind=str(document["kind"]),
        pattern=str(document["pattern"]),
        description=str(document["description"]),
        source=dict(document.get("source") or {}),
        tags=tuple(document.get("tags") or ()),
        lengths=tuple(int(n) for n in document.get("lengths") or ()),
        nfa=nfa,
        digest=str(document["digest"]),
        fingerprint=document.get("fingerprint"),
    )


def load_corpus(
    directory: Optional[str] = None,
    ids: Optional[Sequence[str]] = None,
) -> Dict[str, CorpusFixture]:
    """Load (a subset of) the corpus as ``corpus_id -> CorpusFixture``."""
    selected = list(ids) if ids is not None else sorted(CORPUS_REGISTRY)
    return {
        corpus_id: load_fixture(corpus_id, directory) for corpus_id in selected
    }


def load_fixture_nfa(corpus_id: str) -> NFA:
    """The fixture's automaton alone — the ``corpus`` family builder."""
    return load_fixture(corpus_id).nfa


def verify_fixture(
    corpus_id: str, directory: Optional[str] = None
) -> str:
    """Prove one checked-in fixture matches a fresh rebuild of its source.

    Stronger than :func:`load_fixture`'s tamper check: a *consistent*
    edit (body and digest both rewritten) passes loading but fails here,
    because the source definition in code is the ground truth.  Returns
    the verified digest.
    """
    entry = _registry_entry(corpus_id)
    fixture = load_fixture(corpus_id, directory)
    rebuilt = build_fixture(entry)
    if rebuilt["digest"] != fixture.digest:
        raise CorpusError(
            f"fixture {corpus_id!r} does not match its source definition: "
            f"checked-in digest {fixture.digest[:12]}... vs rebuilt "
            f"{str(rebuilt['digest'])[:12]}...; run `repro corpus build` to "
            "regenerate it from source"
        )
    return fixture.digest


def verify_corpus(
    directory: Optional[str] = None,
    ids: Optional[Sequence[str]] = None,
) -> Dict[str, str]:
    """Verify fixtures against their sources; ``corpus_id -> digest`` on success."""
    selected = list(ids) if ids is not None else sorted(CORPUS_REGISTRY)
    return {
        corpus_id: verify_fixture(corpus_id, directory)
        for corpus_id in selected
    }


def corpus_stats(
    directory: Optional[str] = None,
    ids: Optional[Sequence[str]] = None,
) -> List[Dict[str, object]]:
    """Per-fixture size/shape rows (the ``repro corpus stats`` table)."""
    rows: List[Dict[str, object]] = []
    for corpus_id, fixture in load_corpus(directory, ids).items():
        rows.append(
            {
                "id": corpus_id,
                "kind": fixture.kind,
                "states": fixture.num_states,
                "transitions": len(fixture.nfa.transitions),
                "alphabet": len(fixture.nfa.alphabet),
                "lengths": ",".join(str(n) for n in fixture.lengths),
                "digest": fixture.digest[:12],
            }
        )
    return rows


# ----------------------------------------------------------------------
# Scenario-matrix integration
# ----------------------------------------------------------------------
#: Fixture ids of the default corpus audit matrix: shapes from all three
#: application areas, every one small enough (``m <= 96``) for exact
#: ground truth at its suggested lengths.
DEFAULT_MATRIX_IDS: Tuple[str, ...] = (
    "log.http_status",
    "log.quoted_field",
    "lint.identifier",
    "valid.hex_color",
    "rpq.social.coworker_reach",
    "rpq.transport.single_flight",
    "rpq.citation.contested",
)


def corpus_matrix_spec(
    ids: Optional[Sequence[str]] = None,
    *,
    methods: Sequence[str] = ("fpras",),
    seeds: Sequence[int] = (31, 32),
    epsilon: float = 0.4,
    delta: float = 0.2,
    lengths_per_fixture: int = 1,
    scale: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """A declarative audit matrix spec over corpus fixtures.

    Each selected fixture becomes one ``families`` entry of the
    ``corpus`` family (``args={"fixture": id}``) at its first
    ``lengths_per_fixture`` suggested lengths; the result is a plain spec
    dict for :func:`repro.audit.scenarios.expand_matrix` /
    :func:`repro.audit.manifest.run_matrix`, so corpus workloads cross
    with methods, backends and accuracy targets exactly like the
    synthetic families.
    """
    selected = list(ids) if ids is not None else list(DEFAULT_MATRIX_IDS)
    families: List[Dict[str, object]] = []
    for corpus_id in selected:
        entry = _registry_entry(corpus_id)
        families.append(
            {
                "family": "corpus",
                "args": {"fixture": corpus_id},
                "lengths": list(entry.lengths[:max(1, lengths_per_fixture)]),
            }
        )
    return {
        "families": families,
        "methods": list(methods),
        "accuracy": [{"epsilon": epsilon, "delta": delta}],
        "seeds": list(seeds),
        "scale": dict(scale) if scale is not None
        else {"sample_cap": 12, "union_trial_cap": 16},
    }


#: The default corpus audit matrix (``repro audit --matrix corpus``):
#: 7 fixtures x fpras x 2 seeds = 14 scenarios, all with exact ground truth.
CORPUS_MATRIX: Dict[str, object] = corpus_matrix_spec()
