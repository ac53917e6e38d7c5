"""Command-line interface: ``python -m repro`` / ``repro-decompose``.

Builds a workload graph, runs the chosen decomposition or carving algorithm,
validates the result, and prints the measured parameters — a quick way to see
the reproduction's headline numbers without writing any code.

``--mode suite`` switches to the batched pipeline: a whole
``(scenario x n x method x eps x seed x task)`` grid is run through
:func:`repro.run_suite`, either from a JSON spec file (``--spec``, format in
``docs/pipeline.md``) or from the single-run flags (``--suite-mode`` picks
decomposition or carving for the flag-built grid; ``--tasks mis,coloring``
adds the application task axis — every task of a cell group reuses one
decomposition), optionally fanned out over ``--workers`` processes and
resumed from / persisted to ``--store``.  Single-run decompositions take
``--task`` to run one application on top (``--list-tasks`` prints the task
registry).  Each grid column's topology is built once and shared — in
process when serial, through a ``.csrbin`` file that every pool worker
maps in pool runs.

In suite mode ``--graph-backend`` and ``--spill-dir`` are run options like
``--workers``: they choose how the grid runs, never what it computes, so
they are not part of the suite spec a ``--spec`` file holds or the store
header records.  An invalid run option exits 2 with a one-line error.

``--faults`` / ``--cell-timeout`` / ``--max-retries`` switch a suite into
**supervised execution**: seeded fault injection, per-cell deadlines,
bounded retries with backoff, and poison-cell quarantine as explicit
``status=failed`` records (rerunning the suite heals them) — see
``docs/robustness.md``.  ``--list-fault-kinds`` prints the fault
vocabulary.

The run store behind ``--store`` is pluggable (``--store-backend``, or by
extension: ``.sqlite``/``.db`` selects the indexed SQLite backend, anything
else the JSON-lines interchange format).  ``--mode diff`` regression-diffs
two stores (``--store`` vs ``--baseline``) into a Markdown report, and the
``store`` verbs (``python -m repro store migrate|export|merge|info``)
convert between backends and union shard stores losslessly.  ``--shard
I/K`` runs one deterministic slice of a grid (each shard writing its own
store) so a sweep can fan out across machines; ``store merge`` reassembles
the shards into a store indistinguishable from an unsharded run's.

``--trace`` / ``--metrics`` / ``--progress`` switch on the unified
telemetry layer: a pool-safe span trace, a per-run metrics summary record
in the store, and a live stderr heartbeat.  ``python -m repro trace
summarize|slowest|critical-path FILE`` analyses a trace;
``python -m repro telemetry export --store PATH`` prints the stored
metrics in Prometheus text format — see ``docs/telemetry.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.metrics import evaluate_carving, evaluate_decomposition
from repro.analysis.tables import format_table
from repro.clustering.validation import check_ball_carving, check_network_decomposition
from repro.core.api import carve, decompose, run_task
from repro.pipeline.scenarios import SCENARIOS, build_workload, list_scenarios
from repro.registry import METHODS, TASKS


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-decompose",
        description=(
            "Reproduce 'Strong-Diameter Network Decomposition' (PODC 2021): "
            "run a decomposition or ball carving and print its measured parameters."
        ),
    )
    parser.add_argument(
        "--family",
        choices=list_scenarios(),
        default="torus",
        help="workload graph family (a scenario registry name; see --list-scenarios)",
    )
    parser.add_argument("--n", type=int, default=256, help="approximate number of nodes")
    parser.add_argument(
        "--method",
        choices=sorted(METHODS.names()),
        default="strong-log3",
        help="algorithm to run",
    )
    parser.add_argument(
        "--task",
        choices=sorted(TASKS.names()),
        default="decompose",
        help=(
            "decomposition mode: application task to run on top of the "
            "computed decomposition ('decompose' records the decomposition "
            "itself; 'mis' / 'coloring' solve and verify via the C*D "
            "template — see --list-tasks)"
        ),
    )
    parser.add_argument(
        "--mode",
        choices=("decomposition", "carving", "suite", "diff"),
        default="decomposition",
        help=(
            "compute a full network decomposition, a single ball carving, "
            "run a whole suite grid through the batch pipeline, or diff two "
            "run stores (--store vs --baseline) into a regression report"
        ),
    )
    parser.add_argument("--eps", type=float, default=0.5, help="carving boundary parameter")
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the workload generator and the randomized baselines",
    )
    parser.add_argument(
        "--graph-backend",
        choices=("memory", "memmap"),
        default="memory",
        help=(
            "where the topology lives: 'memory' builds networkx / heap-CSR "
            "graphs (default); 'memmap' streams into on-disk np.memmap-backed "
            "CSR files and runs the networkx-free facade, bounding the "
            "resident set on million-node graphs (results are identical — "
            "see docs/out_of_core.md)"
        ),
    )
    parser.add_argument(
        "--spill-dir",
        metavar="DIR",
        default=None,
        help=(
            "directory for out-of-core artifacts: memmap scratch / edgelist "
            "conversion cache files, and — in suite pool mode — the column "
            "files the workers map (default: system temp dir)"
        ),
    )
    parser.add_argument(
        "--partition-nodes",
        type=int,
        metavar="N",
        default=None,
        help=(
            "decomposition mode: decompose in deterministic BFS-ordered "
            "chunks of at most N nodes with per-chunk color offsets, bounding "
            "the peak working set on out-of-core graphs (trades color count "
            "for memory)"
        ),
    )
    parser.add_argument(
        "--skip-validation",
        action="store_true",
        help="skip the invariant validators (faster on large graphs)",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help=(
            "instead of running a single algorithm, write a Markdown experiment "
            "report (live summary + archived benchmark tables) to PATH"
        ),
    )
    parser.add_argument(
        "--save",
        metavar="PATH",
        default=None,
        help="also write the computed clustering as JSON to PATH",
    )
    parser.add_argument(
        "--spec",
        metavar="PATH",
        default=None,
        help=(
            "suite mode: JSON suite spec file to run (see docs/pipeline.md); "
            "without it a one-scenario grid is built from the other flags"
        ),
    )
    parser.add_argument(
        "--suite-mode",
        choices=("decomposition", "carving"),
        default="decomposition",
        help=(
            "suite mode without --spec: task type of the flag-built grid "
            "(carving expands the --eps value as a grid axis)"
        ),
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help=(
            "suite mode: run store to resume from and stream results into "
            "(created if missing; completed cells are skipped; a .sqlite/.db "
            "extension selects the SQLite backend).  diff mode: the store "
            "under test"
        ),
    )
    parser.add_argument(
        "--store-backend",
        choices=("auto", "jsonl", "sqlite"),
        default="auto",
        help=(
            "store backend override ('auto' selects by the --store path "
            "extension: .sqlite/.sqlite3/.db -> sqlite, else jsonl)"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="diff mode: the baseline run store to compare --store against",
    )
    parser.add_argument(
        "--diff-tolerance",
        metavar="FIELD=VALUE",
        action="append",
        default=None,
        help=(
            "diff mode: per-field tolerance override (repeatable), e.g. "
            "'clusters=1', 'algo_s=0.5,1.0' (relative,absolute seconds) or "
            "'rounds=none' to skip a field"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="suite mode: process-pool size (1 = serial, 0 = one per CPU)",
    )
    parser.add_argument(
        "--shard",
        metavar="I/K",
        default=None,
        help=(
            "suite mode: run only deterministic shard I of a K-way split of "
            "the grid (0 <= I < K), e.g. '--shard 0/2'; cells are "
            "partitioned by a stable hash of their topology column, so "
            "task groups and column batching stay intact and the split "
            "never changes when the grid is reordered.  Each shard writes "
            "its own --store; union them afterwards with 'python -m repro "
            "store merge'"
        ),
    )
    parser.add_argument(
        "--tasks",
        metavar="TASKS",
        default="decompose",
        help=(
            "suite mode without --spec: comma-separated task axis of the "
            "flag-built grid (e.g. 'mis,coloring'); every task of a cell "
            "group reuses one decomposition"
        ),
    )
    parser.add_argument(
        "--faults",
        metavar="PLAN",
        default=None,
        help=(
            "suite mode: seeded fault-injection plan as 'kind:value' pairs "
            "(e.g. 'drop:0.05,crash:1'; kinds via --list-fault-kinds); "
            "enables supervised execution — see docs/robustness.md"
        ),
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "suite mode: per-cell wall-clock deadline; an expired cell "
            "counts a failed attempt (pool workers are terminated and the "
            "pool respawned); enables supervised execution"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "suite mode: retries per failing cell (seeded exponential "
            "backoff) before it is quarantined as an explicit "
            "status=failed record instead of aborting the suite; enables "
            "supervised execution"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help=(
            "suite mode: append a span trace (one JSON line per closed "
            "span, pool-safe) to FILE; analyse it with 'python -m repro "
            "trace summarize|slowest|critical-path FILE' — see "
            "docs/telemetry.md"
        ),
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "suite mode: collect the run's counters/histograms and store "
            "them as a per-run telemetry summary record; export with "
            "'python -m repro telemetry export --store PATH'"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "suite mode: print a rate-limited live heartbeat to stderr "
            "(cells done/failed/retried, rate, ETA)"
        ),
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print the registered workload scenarios and exit",
    )
    parser.add_argument(
        "--list-tasks",
        action="store_true",
        help="print the registered pipeline tasks and exit",
    )
    parser.add_argument(
        "--list-fault-kinds",
        action="store_true",
        help="print the fault-injection kinds accepted by --faults and exit",
    )
    return parser


def _run_suite_mode(args) -> int:
    """``--mode suite``: run a grid through the pipeline and print its rows."""
    import dataclasses

    import repro
    from repro.analysis.tables import rows_from_records
    from repro.pipeline.spec import RunConfig, SuiteSpec, load_spec

    # Every RunConfig field has a flag of the same name.
    options = {field.name: getattr(args, field.name) for field in dataclasses.fields(RunConfig)}
    if args.spec is None:
        tasks = tuple(
            task.strip() for task in str(args.tasks).split(",") if task.strip()
        ) or ("decompose",)
        spec = SuiteSpec(
            name="cli-{}".format(args.family),
            scenarios=(args.family,),
            sizes=(args.n,),
            methods=(args.method,),
            mode=args.suite_mode,
            eps=(args.eps,),
            seeds=(args.seed,),
            tasks=tasks,
            partition_nodes=args.partition_nodes,
            validate=not args.skip_validation,
        )
    try:
        if args.spec is not None:
            spec = load_spec(args.spec)
            if args.partition_nodes is not None:
                spec = dataclasses.replace(spec, partition_nodes=args.partition_nodes)
        RunConfig(**options)
    except (OSError, ValueError) as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2
    result = repro.run_suite(spec, store=args.store, progress=args.progress, **options)
    print(
        format_table(
            rows_from_records(result.records),
            title="suite {!r} — {} cells".format(spec.name, len(result.records)),
        )
    )
    arena = result.arena
    sharing = ""
    if arena["mode"] != "off":
        sharing = ", {} column(s) / {} build(s) [{}]".format(
            arena["columns"], arena["graph_builds"], arena["mode"]
        )
    print(
        "executed {} cell(s), {} store hit(s), {:.2f}s{}{}".format(
            result.executed,
            result.skipped,
            result.seconds,
            sharing,
            " — store: {}".format(args.store) if args.store else "",
        )
    )
    supervisor = result.supervisor or {}
    if supervisor:
        failed = sum(
            1 for record in result.records if record.get("status") == "failed"
        )
        print(
            "supervisor: {} failure(s), {} retrie(s) ({} retried ok), "
            "{} quarantined, {} timeout(s), {} pool respawn(s); "
            "{} cell(s) failed in store".format(
                supervisor.get("failures", 0),
                supervisor.get("retries", 0),
                supervisor.get("retried_ok", 0),
                supervisor.get("quarantined", 0),
                supervisor.get("timeouts", 0),
                supervisor.get("pool_respawns", 0),
                failed,
            )
        )
    return 0


def _run_diff_mode(args) -> int:
    """``--mode diff``: regression-diff two run stores, print Markdown.

    Exit code 0 when the diff is clean (no tolerance-breaking deltas and no
    baseline cells missing), 1 otherwise — so CI can gate on it directly.
    """
    from repro.analysis.diff import diff_stores, parse_tolerance_overrides

    if args.store is None or args.baseline is None:
        print("--mode diff needs both --store and --baseline", file=sys.stderr)
        return 2
    import os

    from repro.pipeline.backends import open_store

    # Usage errors (missing files, bad tolerance syntax, unknown fields)
    # exit 2, keeping exit 1 unambiguous: "the diff found regressions".
    try:
        tolerances = parse_tolerance_overrides(args.diff_tolerance or [])
        if not os.path.exists(args.store):
            raise FileNotFoundError("no such run store: {!r}".format(args.store))
        # --store-backend overrides the extension for the store under test;
        # the baseline is always opened by its own extension.
        current = open_store(args.store, backend=args.store_backend)
        diff = diff_stores(current, args.baseline, tolerances=tolerances)
    except (ValueError, OSError) as error:
        print("diff: {}".format(error), file=sys.stderr)
        return 2
    markdown = diff.to_markdown()
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(markdown)
        print("wrote regression diff to {}".format(args.report))
    print(markdown)
    return 0 if diff.clean else 1


def build_store_parser() -> argparse.ArgumentParser:
    """Parser for the ``store`` maintenance verbs (``python -m repro store``)."""
    parser = argparse.ArgumentParser(
        prog="repro-decompose store",
        description=(
            "Run-store maintenance: convert stores between the JSON-lines "
            "interchange format and the indexed SQLite backend, and merge "
            "shard stores into one — losslessly."
        ),
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    migrate = verbs.add_parser(
        "migrate",
        help="convert a run store to another backend (selected by the "
        "destination extension, or forced with --store-backend)",
    )
    migrate.add_argument("source", help="existing run store (any backend)")
    migrate.add_argument("destination", help="store file to create")
    migrate.add_argument(
        "--store-backend",
        choices=("auto", "jsonl", "sqlite"),
        default="auto",
        help="destination backend ('auto' selects by extension)",
    )

    export = verbs.add_parser(
        "export",
        help="export any run store to the canonical JSON-lines interchange "
        "format (byte-identical to a store written directly as JSONL)",
    )
    export.add_argument("source", help="existing run store (any backend)")
    export.add_argument("destination", help="JSON-lines file to create")

    merge = verbs.add_parser(
        "merge",
        help="union shard run stores (written by --shard suite runs) into "
        "one store, byte-losslessly; refuses conflicting cells and "
        "mismatched suite specs",
    )
    merge.add_argument(
        "sources", nargs="+", help="shard run stores to merge (any backend)"
    )
    merge.add_argument("destination", help="merged store file to create")
    merge.add_argument(
        "--store-backend",
        choices=("auto", "jsonl", "sqlite"),
        default="auto",
        help="destination backend ('auto' selects by extension)",
    )

    info = verbs.add_parser("info", help="print a store's header and cell count")
    info.add_argument("source", help="run store to inspect (any backend)")
    return parser


def _store_main(argv: List[str]) -> int:
    """Dispatch the ``store migrate|export|merge|info`` verbs."""
    import json

    from repro.pipeline.backends import (
        StoreMergeError,
        backend_for_path,
        convert_store,
        merge_stores,
        open_store,
        shard_provenance,
    )

    import os

    args = build_store_parser().parse_args(argv)
    if args.verb == "merge":
        try:
            destination = merge_stores(
                args.sources,
                args.destination,
                destination_backend=args.store_backend,
            )
        except (StoreMergeError, ValueError, OSError) as error:
            print("store merge: {}".format(error), file=sys.stderr)
            return 1
        count = len(destination)
        destination.close()
        print(
            "merged {} record(s) from {} store(s) -> {} ({})".format(
                count,
                len(args.sources),
                args.destination,
                args.store_backend
                if args.store_backend != "auto"
                else backend_for_path(args.destination),
            )
        )
        return 0
    if not os.path.exists(args.source):
        print("store {}: no such store: {}".format(args.verb, args.source), file=sys.stderr)
        return 1
    if args.verb == "info":
        store = open_store(args.source)
        print(
            "backend={} suite={!r} cells={}".format(store.backend, store.suite, len(store))
        )
        if store.metadata:
            print("metadata: {}".format(json.dumps(store.metadata)))
        provenance = shard_provenance(store)
        if provenance is not None:
            shard = provenance.get("shard")
            if isinstance(shard, dict):
                print(
                    "shard: {}/{}".format(shard.get("index"), shard.get("count"))
                )
            for entry in provenance.get("merged_from") or []:
                entry_shard = entry.get("shard")
                print(
                    "merged-from: {} (shard {}, {} cell(s))".format(
                        entry.get("source"),
                        "{}/{}".format(entry_shard.get("index"), entry_shard.get("count"))
                        if isinstance(entry_shard, dict)
                        else "-",
                        entry.get("cells"),
                    )
                )
        store.close()
        return 0

    destination_backend = (
        "jsonl" if args.verb == "export" else getattr(args, "store_backend", "auto")
    )
    try:
        destination = convert_store(
            args.source, args.destination, destination_backend=destination_backend
        )
    except (ValueError, OSError) as error:
        print("store {}: {}".format(args.verb, error), file=sys.stderr)
        return 1
    count = len(destination)
    destination.close()
    print(
        "{} {} record(s): {} ({}) -> {} ({})".format(
            "migrated" if args.verb == "migrate" else "exported",
            count,
            args.source,
            backend_for_path(args.source),
            args.destination,
            destination_backend
            if destination_backend != "auto"
            else backend_for_path(args.destination),
        )
    )
    return 0


def build_trace_parser() -> argparse.ArgumentParser:
    """Parser for the trace-analysis verbs (``python -m repro trace``)."""
    parser = argparse.ArgumentParser(
        prog="repro-decompose trace",
        description=(
            "Analyse a span trace written by a --trace suite run: rebuild "
            "the span tree and report where the time went."
        ),
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    summarize = verbs.add_parser(
        "summarize",
        help="per-phase breakdown, per-span-name totals, and outlier cells",
    )
    summarize.add_argument("trace_file", help="span trace (JSON lines)")

    slowest = verbs.add_parser("slowest", help="the top-N longest spans")
    slowest.add_argument("trace_file", help="span trace (JSON lines)")
    slowest.add_argument(
        "--top", type=int, default=10, metavar="N", help="spans to show (default 10)"
    )
    slowest.add_argument(
        "--name",
        default=None,
        metavar="SPAN",
        help="restrict to one span name (e.g. cell.task)",
    )

    critical = verbs.add_parser(
        "critical-path",
        help="the heaviest root-to-leaf chain of the span tree",
    )
    critical.add_argument("trace_file", help="span trace (JSON lines)")
    return parser


def _trace_main(argv: List[str]) -> int:
    """Dispatch the ``trace summarize|slowest|critical-path`` verbs."""
    import os

    from repro.analysis.trace import (
        format_critical_path,
        format_slowest,
        format_summary,
        load_trace,
    )

    args = build_trace_parser().parse_args(argv)
    if not os.path.exists(args.trace_file):
        print(
            "trace {}: no such trace file: {}".format(args.verb, args.trace_file),
            file=sys.stderr,
        )
        return 1
    trace = load_trace(args.trace_file)
    if args.verb == "summarize":
        print(format_summary(trace))
    elif args.verb == "slowest":
        print(format_slowest(trace, top=args.top, name=args.name))
    else:
        print(format_critical_path(trace))
    return 0


def build_telemetry_parser() -> argparse.ArgumentParser:
    """Parser for the metrics verbs (``python -m repro telemetry``)."""
    parser = argparse.ArgumentParser(
        prog="repro-decompose telemetry",
        description=(
            "Export the telemetry summary records a --metrics suite run "
            "stored alongside its results."
        ),
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    export = verbs.add_parser(
        "export",
        help="print a store's metrics in Prometheus text exposition format",
    )
    export.add_argument(
        "--store", required=True, metavar="PATH", help="run store to export from"
    )
    export.add_argument(
        "--store-backend",
        choices=("auto", "jsonl", "sqlite"),
        default="auto",
        help="store backend override ('auto' selects by extension)",
    )
    return parser


def _telemetry_main(argv: List[str]) -> int:
    """Dispatch the ``telemetry export`` verb."""
    import os

    from repro import telemetry
    from repro.pipeline.backends import open_store

    args = build_telemetry_parser().parse_args(argv)
    if not os.path.exists(args.store):
        print(
            "telemetry {}: no such run store: {}".format(args.verb, args.store),
            file=sys.stderr,
        )
        return 1
    store = open_store(args.store, backend=args.store_backend)
    summaries = [
        record for record in store.summaries() if record.get("kind") == "telemetry"
    ]
    store.close()
    if not summaries:
        print(
            "telemetry export: store has no telemetry summaries "
            "(run the suite with --metrics)",
            file=sys.stderr,
        )
        return 1
    # Later runs of a resumed suite re-count from zero, so merge the
    # summaries into one cumulative registry before rendering.
    registry = telemetry.MetricsRegistry()
    for record in summaries:
        registry.merge(record.get("metrics") or {})
    print(telemetry.render_prometheus(registry.snapshot()))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "store":
        return _store_main(list(argv[1:]))
    if argv and argv[0] == "trace":
        return _trace_main(list(argv[1:]))
    if argv and argv[0] == "telemetry":
        return _telemetry_main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)

    for listed, catalogue in (
        (args.list_scenarios, [SCENARIOS.get(name) for name in list_scenarios()]),
        (args.list_tasks, TASKS),
    ):
        if listed:
            for spec in catalogue:
                print("{:14s} {}".format(spec.name, spec.description))
            return 0

    if args.list_fault_kinds:
        from repro.registry import FAULT_KINDS

        for kind in FAULT_KINDS:
            print(
                "{:10s} [{}] {}".format(
                    kind.name, "/".join(kind.scopes), kind.description
                )
            )
        return 0

    if args.mode == "suite":
        return _run_suite_mode(args)

    if args.mode == "diff":
        return _run_diff_mode(args)

    if args.report is not None:
        from repro.analysis.report import generate_report

        report = generate_report(live_summary_n=min(args.n, 144))
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print("wrote experiment report to {}".format(args.report))
        return 0

    if args.graph_backend == "memmap":
        from repro.pipeline.scenarios import build_workload_memmap

        graph = build_workload_memmap(
            args.family, args.n, seed=args.seed, spill_dir=args.spill_dir
        )
    else:
        graph = build_workload(args.family, args.n, seed=args.seed)
    print(
        "graph: family={} nodes={} edges={}".format(
            args.family, graph.number_of_nodes(), graph.number_of_edges()
        )
    )

    if args.mode == "carving":
        carving = carve(graph, args.eps, method=args.method, seed=args.seed)
        if not args.skip_validation:
            # The randomized baselines guarantee their dead fraction only
            # in expectation, so structural invariants are checked but
            # the per-run dead fraction gets slack.
            lenient = not METHODS.get(args.method).deterministic
            check_ball_carving(carving, max_dead_fraction=0.99 if lenient else None)
        metrics = evaluate_carving(carving, args.method)
        print(format_table([metrics.as_row()], title="ball carving"))
        result = carving
    else:
        decomposition = decompose(
            graph,
            method=args.method,
            seed=args.seed,
            partition_nodes=args.partition_nodes,
        )
        if not args.skip_validation:
            check_network_decomposition(decomposition)
        metrics = evaluate_decomposition(decomposition, args.method)
        print(format_table([metrics.as_row()], title="network decomposition"))
        if args.task != "decompose":
            task_result = run_task(
                graph,
                method=args.method,
                task=args.task,
                decomposition=decomposition,
            )
            print(format_table([task_result.as_row()], title="task {}".format(args.task)))
            if not args.skip_validation and not task_result.metrics.get("verified"):
                print(
                    "task {} solution failed verification".format(args.task),
                    file=sys.stderr,
                )
                return 1
        result = decomposition

    if args.save is not None:
        from repro.graphs.io import write_clustering

        write_clustering(result, args.save)
        print("wrote clustering to {}".format(args.save))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
