"""Command-line interface: ``repro-nfa`` / ``python -m repro``.

Sub-commands
------------
``count``      count a named family instance with any registered method;
``sample``     draw almost-uniform words from a family instance;
``experiment`` run one of the registered experiments (E1 … E7);
``families``   list the available structured NFA families;
``methods``    list the registered counting methods;
``corpus``     manage the real-workload corpus (list/build/verify/stats);
``serve``      start the counting HTTP server (:mod:`repro.serve`);
``audit``      run a declarative scenario matrix into an audit manifest
               (``--matrix`` takes a spec file or a built-in name:
               ``default``, ``corpus``);
``audit-diff`` gate one manifest against a baseline (speed + accuracy drift);
``params``     print the paper vs operational FPRAS parameters for (m, n, eps).

All counting goes through the unified façade
(:mod:`repro.counting.api`): ``count --method {fpras,acjr,montecarlo,
bruteforce,exact}`` dispatches through the method registry, and the shared
estimator flags (``--epsilon/--delta/--seed/--backend/--no-engine-cache``)
are defined once in a parent parser shared by ``count`` and ``sample``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.automata.engine import available_backends
from repro.automata.families import FAMILY_REGISTRY, build_family
from repro.automata.nfa import word_to_string
from repro.counting.api import (
    METHOD_REGISTRY,
    CountingSession,
    available_methods,
)
from repro.counting.policy import POLICY_OPTION_NAMES, ExecutionPolicy
from repro.counting.uniform import validate_count
from repro.errors import ReproError
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.reporting import format_key_values, format_table


def _family_arguments(raw: Optional[List[str]]) -> dict:
    """Parse ``key=value`` family parameters, coercing ints where possible."""
    parsed: dict = {}
    for item in raw or []:
        if "=" not in item:
            raise SystemExit(f"family argument {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        try:
            parsed[key] = int(value)
        except ValueError:
            parsed[key] = value
    return parsed


def _session_from_args(args: argparse.Namespace) -> CountingSession:
    """The pinned counting session every estimator sub-command runs through."""
    policy = ExecutionPolicy(
        backend=args.backend,
        use_engine_cache=not args.no_engine_cache,
    )
    return CountingSession(
        epsilon=args.epsilon,
        delta=args.delta,
        seed=args.seed,
        policy=policy,
    )


def _method_options(args: argparse.Namespace) -> dict:
    """Per-method options the user set explicitly (validated at dispatch)."""
    options: dict = {}
    if args.num_samples is not None:
        options["num_samples"] = args.num_samples
    if args.limit is not None:
        # 0 (or negative) disables the enumeration safety valve entirely.
        options["limit"] = args.limit if args.limit > 0 else None
    if args.sample_cap is not None:
        options["sample_cap"] = args.sample_cap
    if getattr(args, "details", None) is not None:
        options["details"] = args.details
    return options


def _call_policy(args: argparse.Namespace) -> ExecutionPolicy:
    """The execution knobs of ``count``'s per-call run (validated at dispatch)."""
    knobs = {
        name: getattr(args, name)
        for name in POLICY_OPTION_NAMES
        if getattr(args, name) is not None
    }
    return ExecutionPolicy(
        backend=args.backend,
        use_engine_cache=not args.no_engine_cache,
        **knobs,
    )


def _cmd_count(args: argparse.Namespace) -> int:
    nfa = build_family(args.family, **_family_arguments(args.family_arg))
    session = _session_from_args(args)
    rows = []
    exact_report = None
    exact_value = None
    if args.exact or args.compare:
        exact_report = session.count(nfa, args.length, method="exact")
        exact_value = exact_report.raw
        rows.append({"method": "exact", "estimate": exact_value, "rel_error": 0.0})
        if args.exact and not args.compare:
            print(format_table(rows, title=f"#NFA for {args.family}, n={args.length}"))
            return 0
    options = _method_options(args)
    # Explicit per-call policy: asking for --store (or --window) with a
    # method that does not take it fails loudly instead of silently
    # degrading (the session-pinned copy still degrades for the
    # ground-truth `exact` run above).
    policy = _call_policy(args)
    if (
        args.method == "exact"
        and exact_report is not None
        and not options
        and not policy.method_options()
    ):
        # --compare --method exact: the ground truth already ran once.  Any
        # other knob still goes through dispatch below so it is rejected
        # exactly as it would be without --compare.
        report = exact_report
    else:
        report = session.count(
            nfa, args.length, method=args.method, policy=policy, **options
        )
        row = {"method": report.method, "estimate": report.estimate}
        if exact_value is not None:
            row["rel_error"] = report.relative_error(exact_value)
        rows.append(row)
    print(format_table(rows, title=f"#NFA for {args.family}, n={args.length}"))
    details = {
        "states": nfa.num_states,
        "method": report.method,
        "backend": report.backend,
        "engine_cache_hit": report.engine_counters.get("engine_cache_hit", 0),
        "batched_membership_words": report.engine_counters.get("cache_batch_words", 0),
        "elapsed_seconds": report.elapsed_seconds,
    }
    if report.method == "fpras":
        details["samples_per_state (ns)"] = report.raw.ns
        details["sampling_attempts (xns)"] = report.raw.xns
        if "store" in report.details:
            details["store"] = report.details["store"]
            details["window"] = report.details["window"]
            details["spilled_levels"] = report.engine_counters.get(
                "store_spilled_levels", 0
            )
    elif report.method == "acjr":
        details["samples_per_state (ns)"] = report.raw.ns
    elif report.method == "montecarlo":
        details["random_words_drawn"] = report.details["samples"]
        details["accepting_hits"] = report.details["hits"]
    elif report.method == "bruteforce":
        details["enumeration_limit"] = report.details["limit"]
        details["total_words"] = report.details["total_words"]
    print(format_key_values(details, title="run details"))
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    validate_count(args.count)
    nfa = build_family(args.family, **_family_arguments(args.family_arg))
    sampler = _session_from_args(args).sampler(nfa, args.length)
    estimate = sampler.prepare()
    print(f"estimated |L(A_{args.length})| = {estimate:.4g}")
    for word in sampler.sample_many(args.count):
        print(word_to_string(word))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = run_experiment(args.name, quick=not args.full)
    print(format_table(result.rows, title=f"{result.experiment}: {result.description}"))
    for note in result.notes:
        print(f"note: {note}")
    print(f"(elapsed {result.elapsed_seconds:.2f}s)")
    return 0


def _cmd_families(_args: argparse.Namespace) -> int:
    rows = [
        {"family": name, "builder": fn.__name__}
        for name, fn in sorted(FAMILY_REGISTRY.items())
    ]
    print(format_table(rows, title="available NFA families"))
    return 0


def _cmd_methods(_args: argparse.Namespace) -> int:
    rows = []
    for name in available_methods():
        entry = METHOD_REGISTRY[name]
        rows.append(
            {
                "method": name,
                "summary": entry.summary,
                "options": ", ".join(sorted(entry.option_names)) or "-",
                "progress": "yes" if entry.capabilities.progress else "-",
            }
        )
    print(format_table(rows, title="registered counting methods"))
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    # Imported lazily: only the corpus sub-command pays for fixture I/O.
    from repro.corpus import (
        CORPUS_REGISTRY,
        build_fixture,
        corpus_dir,
        corpus_stats,
        verify_corpus,
        write_fixture,
    )

    directory = args.dir if args.dir is not None else corpus_dir()
    ids = list(args.id) if args.id else sorted(CORPUS_REGISTRY)
    unknown = [corpus_id for corpus_id in ids if corpus_id not in CORPUS_REGISTRY]
    if unknown:
        print(
            f"error: unknown corpus id(s) {unknown}; "
            f"known ids: {sorted(CORPUS_REGISTRY)}",
            file=sys.stderr,
        )
        return 2

    if args.corpus_command == "list":
        rows = [
            {
                "id": entry.corpus_id,
                "kind": "rpq" if entry.corpus_id.startswith("rpq.") else "regex",
                "pattern": entry.pattern,
                "lengths": ",".join(str(n) for n in entry.lengths),
                "source": entry.source["name"],
            }
            for corpus_id, entry in sorted(CORPUS_REGISTRY.items())
            if corpus_id in ids
        ]
        print(format_table(rows, title="corpus registry (in-code sources)"))
        return 0

    if args.corpus_command == "build":
        for corpus_id in ids:
            document = build_fixture(CORPUS_REGISTRY[corpus_id])
            path = write_fixture(CORPUS_REGISTRY[corpus_id], directory)
            print(f"built {corpus_id}: {document['digest'][:12]} -> {path}")
        print(f"built {len(ids)} fixture(s) into {directory}")
        return 0

    if args.corpus_command == "verify":
        results = verify_corpus(directory, ids)
        for corpus_id in ids:
            print(f"verified {corpus_id}: {results[corpus_id][:12]}")
        print(f"verified {len(ids)} fixture(s) against their sources: OK")
        return 0

    # stats: load every requested fixture and tabulate its shape.
    rows = corpus_stats(directory, ids)
    print(format_table(rows, title=f"corpus fixtures in {directory}"))
    return 0


#: Built-in matrix names ``repro audit --matrix`` resolves before trying a file.
BUILTIN_MATRICES = ("default", "corpus")


def _resolve_matrix(name: "Optional[str]") -> dict:
    """Resolve ``--matrix`` to a spec dict: builtin name, file path, or default."""
    import json

    from repro.audit import DEFAULT_MATRIX

    if name is None or name == "default":
        return DEFAULT_MATRIX
    if name == "corpus":
        from repro.corpus import CORPUS_MATRIX

        return CORPUS_MATRIX
    with open(name, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _cmd_audit(args: argparse.Namespace) -> int:
    # Imported lazily: the audit pipeline is only paid for when used.
    from repro.audit import run_matrix, write_manifest

    spec = _resolve_matrix(args.matrix)
    manifest = run_matrix(spec, repeats=args.repeats)
    path = write_manifest(manifest, args.output, overwrite=args.force)
    summary = manifest["summary"]
    rows = []
    for name, group in summary["groups"].items():
        rows.append(
            {
                "group": name,
                "seeds": group["count"],
                "max_rel_error": group["max_relative_error"],
                "eps_util": group["epsilon_utilisation"],
                "fail_frac": group["failure_fraction"],
                "delta": group["delta"],
            }
        )
    print(format_table(rows, title="audit manifest: per-group accuracy summary"))
    print(
        f"wrote {path} ({summary['scenario_count']} scenarios, "
        f"{summary['total_elapsed_seconds']:.2f}s counting time)"
    )
    return 0


def _cmd_audit_diff(args: argparse.Namespace) -> int:
    from repro.audit import DiffThresholds, diff_manifests, load_manifest

    thresholds = DiffThresholds(
        speed_regression=args.speed_threshold,
        min_seconds=args.min_seconds,
        drift_floor=args.drift_floor,
        drift_tolerance=args.drift_tolerance,
        delta_slack=args.delta_slack,
    )
    diff = diff_manifests(
        load_manifest(args.old), load_manifest(args.new), thresholds
    )
    print(diff.format())
    return 0 if diff.ok else 1


def _cmd_params(args: argparse.Namespace) -> int:
    from repro.counting.fpras import FPRASParameters

    parameters = FPRASParameters(epsilon=args.epsilon, delta=args.delta)
    print(
        format_key_values(
            parameters.describe(args.length, args.states),
            title=f"FPRAS parameters for m={args.states}, n={args.length}",
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so the other sub-commands never pay for the HTTP stack.
    from repro.serve import CountingServer

    server = CountingServer(
        host=args.host,
        port=args.port,
        queue_capacity=args.queue_capacity,
        cache_entries=args.cache_entries,
    )
    host, port = server.address
    print(f"repro serve listening on http://{host}:{port}")
    print("endpoints: POST /count  GET /stats  GET /methods  (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
    return 0


def _estimator_options(default_epsilon: float) -> argparse.ArgumentParser:
    """The shared ``--epsilon/--delta/--seed/--backend/--no-engine-cache`` block.

    Defined once as a parent parser so ``count`` and ``sample`` cannot
    drift apart; ``default_epsilon`` is the only knob that differs between
    the sub-commands.
    """
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--epsilon", type=float, default=default_epsilon)
    shared.add_argument("--delta", type=float, default=0.1)
    shared.add_argument("--seed", type=int, default=None)
    shared.add_argument(
        "--backend",
        choices=sorted(available_backends()),
        default=None,
        help="NFA simulation engine: unset (or auto) runs every method on "
        "bitset; reference is the frozenset baseline",
    )
    shared.add_argument(
        "--no-engine-cache",
        action="store_true",
        help="build a private engine instead of using the shared engine registry "
        "(results are identical; use for isolated timing or debugging)",
    )
    shared.add_argument(
        "--family-arg", action="append", metavar="KEY=VALUE", help="family parameter"
    )
    return shared


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-nfa",
        description="A faster FPRAS for #NFA (PODS 2024) — reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    count = subparsers.add_parser(
        "count",
        parents=[_estimator_options(default_epsilon=0.3)],
        help="count a named family instance with any registered method",
    )
    count.add_argument("family", choices=sorted(FAMILY_REGISTRY))
    count.add_argument("--length", "-n", type=int, default=10)
    count.add_argument(
        "--method",
        choices=sorted(available_methods()),
        default="fpras",
        help="counting method from the unified registry (default: fpras)",
    )
    count.add_argument(
        "--num-samples",
        type=int,
        default=None,
        help="montecarlo: number of random words to draw (default: 10000)",
    )
    count.add_argument(
        "--limit",
        type=int,
        default=None,
        help="bruteforce: enumeration safety limit, 0 disables it "
        "(default: 2000000)",
    )
    count.add_argument(
        "--sample-cap",
        type=int,
        default=None,
        help="acjr: per-(state, level) sample cap (default: 96)",
    )
    count.add_argument(
        "--store",
        choices=["dict", "windowed"],
        default=None,
        help="fpras: state-table store — 'dict' keeps every level resident "
        "(default), 'windowed' keeps a sliding window of sample lists and "
        "spills older levels to disk; estimates and RNG streams are "
        "bit-identical either way",
    )
    count.add_argument(
        "--window",
        type=int,
        default=None,
        help="fpras: levels of sample lists kept resident by --store "
        "windowed (default: 4)",
    )
    count.add_argument(
        "--details",
        choices=["full", "summary"],
        default=None,
        help="fpras: 'summary' replaces the per-state tables in the result "
        "with a compact digest (default: full)",
    )
    count.add_argument("--exact", action="store_true", help="exact count only")
    count.add_argument(
        "--compare", action="store_true", help="exact and the selected method"
    )
    count.set_defaults(handler=_cmd_count)

    sample = subparsers.add_parser(
        "sample",
        parents=[_estimator_options(default_epsilon=0.4)],
        help="draw almost-uniform accepted words",
    )
    sample.add_argument("family", choices=sorted(FAMILY_REGISTRY))
    sample.add_argument("--length", "-n", type=int, default=10)
    sample.add_argument("--count", "-c", type=int, default=5)
    sample.set_defaults(handler=_cmd_sample)

    experiment = subparsers.add_parser("experiment", help="run a registered experiment")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--full", action="store_true", help="full (slow) sweep")
    experiment.set_defaults(handler=_cmd_experiment)

    families_cmd = subparsers.add_parser("families", help="list NFA families")
    families_cmd.set_defaults(handler=_cmd_families)

    methods_cmd = subparsers.add_parser(
        "methods", help="list registered counting methods"
    )
    methods_cmd.set_defaults(handler=_cmd_methods)

    corpus = subparsers.add_parser(
        "corpus",
        help="manage the curated real-workload corpus "
        "(list / build / verify / stats)",
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_shared = argparse.ArgumentParser(add_help=False)
    corpus_shared.add_argument(
        "--id",
        action="append",
        metavar="CORPUS_ID",
        help="restrict to one corpus id (repeatable; default: all)",
    )
    corpus_shared.add_argument(
        "--dir",
        default=None,
        help="fixture directory (default: tests/fixtures/corpus, or "
        "$REPRO_CORPUS_DIR)",
    )
    corpus_list = corpus_sub.add_parser(
        "list", parents=[corpus_shared], help="list the in-code corpus registry"
    )
    corpus_list.set_defaults(handler=_cmd_corpus)
    corpus_build = corpus_sub.add_parser(
        "build",
        parents=[corpus_shared],
        help="regenerate checked-in fixtures from their in-code sources",
    )
    corpus_build.set_defaults(handler=_cmd_corpus)
    corpus_verify = corpus_sub.add_parser(
        "verify",
        parents=[corpus_shared],
        help="prove every fixture's digest matches a fresh build from source",
    )
    corpus_verify.set_defaults(handler=_cmd_corpus)
    corpus_stats_cmd = corpus_sub.add_parser(
        "stats", parents=[corpus_shared], help="tabulate fixture shapes and digests"
    )
    corpus_stats_cmd.set_defaults(handler=_cmd_corpus)

    serve = subparsers.add_parser(
        "serve",
        help="start the counting HTTP server (POST /count, GET /stats, "
        "GET /methods)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=8,
        help="concurrent counting runs admitted before answering 429 "
        "(default: 8; cache hits are never queued)",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=1024,
        help="size of the content-addressed result cache (default: 1024)",
    )
    serve.set_defaults(handler=_cmd_serve)

    audit = subparsers.add_parser(
        "audit",
        help="run a declarative scenario matrix and write an audit manifest",
    )
    audit.add_argument(
        "--matrix",
        default=None,
        metavar="SPEC.json|NAME",
        help="matrix spec file, or a built-in name "
        f"({', '.join(BUILTIN_MATRICES)}); default: the built-in smoke matrix",
    )
    audit.add_argument(
        "--output",
        "-o",
        default=".",
        help="manifest file, or a directory to drop a content-addressed "
        "manifest-<rev>-<digest>.json into (default: current directory)",
    )
    audit.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="timing repetitions per scenario; the median wall time is "
        "recorded (default: %(default)s)",
    )
    audit.add_argument(
        "--force",
        action="store_true",
        help="allow overwriting an existing manifest file (manifests are "
        "append-only by default)",
    )
    audit.set_defaults(handler=_cmd_audit)

    audit_diff = subparsers.add_parser(
        "audit-diff",
        help="compare two audit manifests; non-zero exit on speed or "
        "accuracy regressions",
    )
    audit_diff.add_argument("old", help="baseline manifest (the previous run)")
    audit_diff.add_argument("new", help="candidate manifest (this run)")
    audit_diff.add_argument(
        "--speed-threshold",
        type=float,
        default=0.25,
        help="allowed fractional wall-time growth per scenario "
        "(default: %(default)s)",
    )
    audit_diff.add_argument(
        "--min-seconds",
        type=float,
        default=0.005,
        help="wall-time floor below which speed changes are noise "
        "(default: %(default)s)",
    )
    audit_diff.add_argument(
        "--drift-floor",
        type=float,
        default=0.8,
        help="epsilon-utilisation level below which drift is never flagged "
        "(default: %(default)s)",
    )
    audit_diff.add_argument(
        "--drift-tolerance",
        type=float,
        default=0.1,
        help="utilisation increase over the baseline that flags drift "
        "(default: %(default)s)",
    )
    audit_diff.add_argument(
        "--delta-slack",
        type=float,
        default=0.0,
        help="additive slack on the delta-coverage failure fraction "
        "(default: %(default)s)",
    )
    audit_diff.set_defaults(handler=_cmd_audit_diff)

    params = subparsers.add_parser("params", help="show paper vs operational parameters")
    params.add_argument("--states", "-m", type=int, default=10)
    params.add_argument("--length", "-n", type=int, default=20)
    params.add_argument("--epsilon", type=float, default=0.2)
    params.add_argument("--delta", type=float, default=0.1)
    params.set_defaults(handler=_cmd_params)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by both the console script and ``python -m repro``.

    Library failures (:class:`~repro.errors.ReproError` — e.g. a brute-force
    enumeration over its safety limit, options a method rejects, or family
    parameters its builder does not take) are reported as one-line errors
    with exit code 2 instead of tracebacks.  A reader that closes stdout
    early ends the run with exit code 1 and no traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        # Flushed here, a reader that closed the pipe early is caught below.
        sys.stdout.flush()
        return status
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at devnull so that
        # flush has nowhere to fail (the Python docs' recipe for SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
