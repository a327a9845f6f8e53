"""Command-line interface.

``python -m repro <command>``:

* ``stats <graph>`` — Table-2-style statistics of a graph file;
* ``count <graph> -k K [--variant V]`` — count k-cliques;
* ``list <graph> -k K [--limit N]`` — list k-cliques;
* ``spectrum <graph>`` — clique counts for every size;
* ``datasets`` — show the built-in Table-2 stand-ins;
* ``bench <dataset...> -k K [-k K2] [--json] [--compare BASELINE.json]``
  — a (graphs × ks × algorithms) matrix, optionally emitting a
  machine-readable ``BENCH_<timestamp>.json`` and gating against a
  committed baseline (exit 3 on regression; see docs/OBSERVABILITY.md);
* ``mutate <graph> -k K (--trace FILE | --random N)`` — replay (or
  synthesize) a batch insert/delete mutation trace through the dynamic
  layer, maintaining counts incrementally; ``--verify`` gates every
  batch with the dynamic-vs-scratch oracle (exit 5 on divergence);
* ``profile <graph> -k K`` — span tree + hot-loop metrics of one run;
* ``fuzz --budget N --seed S [--oracle NAME] [--emit-regression [DIR]]``
  — the differential/metamorphic fuzzing subsystem: replayable seeded
  cases, cross-engine + metamorphic oracles (``variants`` holds every
  Table-1 variant, cold and warm, and the baselines to the reference
  count; ``service-versions`` checks
  every query-service answer under concurrent mutation against the graph
  version it reports), delta-debugging shrinker, auto-emitted pytest
  regressions (exit 4 on any violation; see docs/FUZZING.md);
* ``lint [paths] [--format text|json] [--rules IDS]`` — the
  repo-aware static analysis (intra-module rules R1–R4 plus the
  interprocedural call-graph rules R5–R8; see docs/STATIC_ANALYSIS.md);
* ``serve [--port P] [--graph NAME=SPEC ...] [--max-query-work W]`` —
  start the clique query daemon: NDJSON over TCP, request coalescing,
  cost-budget admission control (see docs/SERVICE.md);
* ``query <op> ...`` — talk to a running daemon (``count``/``list``/
  ``find``/``spectrum``/``register``/``mutate``/``stats``/...; exit 6
  when admission control rejects the query).

Graph files may be edge lists (``.txt``/``.edges``, SNAP format), Matrix
Market (``.mtx``) or this library's ``.npz``. A built-in dataset name
(e.g. ``chebyshev4``) is accepted anywhere a graph path is.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .analysis.stats import GraphSummary, graph_summary
from .bench.datasets import DATASETS, load_dataset
from .bench.harness import run_experiment
from .bench.reporting import format_table
from .core.api import ENGINES, VARIANTS, count_cliques, list_cliques
from .core.existence import clique_spectrum
from .core.prepared import PreparedGraph
from .core.sharded import parse_memory_size
from .pram.tracker import Tracker
from .service.daemon import DEFAULT_PORT
from .service.registry import load_graph_spec

__all__ = ["main"]

# One graph-spec vocabulary everywhere (CLI positionals, the daemon's
# register endpoint): dataset name, .npz, .mtx, or SNAP edge list.
_load_graph = load_graph_spec


def _cmd_stats(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    summary = graph_summary(
        g, args.graph, with_sigma=args.sigma, with_omega=args.omega
    )
    print(GraphSummary.header())
    print(summary.row())
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    tracker = Tracker()
    result = count_cliques(
        g,
        args.k,
        variant=args.variant,
        eps=args.eps,
        tracker=tracker,
        engine=args.engine,
        workers=args.workers,
        kernelize=args.kernelize,
        memory_budget_bytes=args.memory_budget,
    )
    print(f"{args.k}-cliques: {result.count}")
    if args.cost:
        print(
            f"engine = {result.engine}"
            + (f" ({result.engine_reason})" if result.engine_reason else "")
        )
        print(f"work  = {tracker.work:.6g}")
        print(f"depth = {tracker.depth:.6g}")
        print(f"T_72  = {result.simulated_time(72):.6g}")
        for phase, cost in tracker.phases.items():
            print(f"  phase {phase}: work={cost.work:.4g} depth={cost.depth:.4g}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"limit must be >= 0, got {args.limit}")
    g = _load_graph(args.graph)
    cliques = list_cliques(
        g,
        args.k,
        variant=args.variant,
        engine=args.engine,
        kernelize=args.kernelize,
    )
    shown = cliques if args.limit is None else cliques[: args.limit]
    for c in shown:
        print(" ".join(str(v) for v in c))
    if args.limit is not None and len(cliques) > args.limit:
        print(
            f"... ({len(cliques) - args.limit} more)",
            file=sys.stderr,
        )
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    spectrum = clique_spectrum(g, k_max=args.k_max)
    print(
        format_table(
            ["k", "#cliques"], [[k, c] for k, c in sorted(spectrum.items())]
        )
    )
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in DATASETS:
        g = load_dataset(name)
        rows.append([name, g.num_vertices, g.num_edges])
    print(format_table(["dataset", "|V|", "|E|"], rows))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .obs import (
        MetricsRegistry,
        SpanRecorder,
        compare_records,
        load_record,
        make_record,
        write_record,
    )

    ks = args.k or [4]
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    want_json = args.json or args.out is not None or args.compare is not None
    registry = MetricsRegistry() if want_json else None
    recorder = SpanRecorder() if want_json else None

    measurements = []
    rows = []
    for graph_spec in args.graph:
        g = _load_graph(graph_spec)
        # One shared preprocessing context per graph: a multi-k sweep
        # charges the order/orientation/communities once, not per cell.
        # A *fresh* context (not the module LRU) so the recorded work is a
        # deterministic function of this invocation alone — the regression
        # gate diffs it against a committed baseline. --cold restores the
        # per-cell rebuild (for preprocessing-inclusive comparisons).
        # Baselines ignore the context either way.
        prepared = None if args.cold else PreparedGraph(g)
        for k in ks:
            for algo in algos:
                m = run_experiment(
                    g,
                    k,
                    algo,
                    repeats=args.repeats,
                    graph_name=graph_spec,
                    metrics=registry,
                    spans=recorder,
                    prepared=prepared,
                    memory_budget_bytes=args.memory_budget,
                )
                measurements.append(m)
                rows.append(
                    [
                        graph_spec,
                        k,
                        algo,
                        m.engine,
                        m.count,
                        f"{m.wall_mean:.4f}s",
                        f"{m.work:.4g}",
                        f"{m.search_work:.4g}",
                        f"{m.t72:.4g}",
                        m.peak_candidate,
                    ]
                )
    print(
        format_table(
            [
                "graph",
                "k",
                "algorithm",
                "engine",
                "count",
                "wall",
                "work",
                "search work",
                "T_72",
                "peak cand",
            ],
            rows,
        )
    )

    exit_code = 0
    if want_json:
        record = make_record(
            measurements,
            metrics=registry.to_dict() if registry is not None else None,
            spans=recorder.to_dict() if recorder is not None else None,
            note=args.note,
        )
        path = write_record(record, path=args.out)
        print(f"bench record written: {path}")
        if args.compare is not None:
            baseline = load_record(args.compare)
            metrics = tuple(
                m.strip() for m in args.metrics.split(",") if m.strip()
            )
            report = compare_records(
                record, baseline, tolerance=args.tolerance, metrics=metrics
            )
            print(report.summary())
            if not report.ok:
                # Name the breached field(s) explicitly: the exit-3 log
                # must say *which* metric/tolerance failed, not just
                # which record.
                for line in report.breaches():
                    print(f"bench compare breach: {line}", file=sys.stderr)
                exit_code = 3
    return exit_code


def _cmd_mutate(args: argparse.Namespace) -> int:
    import json

    from .dynamic import DynamicGraph, VerificationError, random_trace
    from .obs import MetricsRegistry

    g = _load_graph(args.graph)
    ks = args.k or [4]
    if (args.trace is None) == (args.random is None):
        print(
            "error: pass exactly one of --trace FILE or --random N",
            file=sys.stderr,
        )
        return 1
    if args.trace is not None:
        with open(args.trace, encoding="utf-8") as fh:
            trace = json.load(fh)
        if isinstance(trace, dict):
            trace = trace["trace"]
    else:
        trace = random_trace(
            g, batches=args.random, batch_size=args.batch, seed=args.seed
        )

    registry = MetricsRegistry()
    tracker = Tracker()
    tracker.attach_metrics(registry)
    dyn = DynamicGraph(g, tracker=tracker, verify=args.verify)
    for k in ks:
        dyn.count(k)

    rows = []
    exit_code = 0
    try:
        for step in trace:
            record = dyn.apply_trace([step])[0]
            report = dyn.last_report
            rows.append(
                [
                    record.version,
                    record.op,
                    len(record.batch),
                    " ".join(f"k{k}:{d:+d}" for k, d in record.deltas) or "-",
                    report.affected_triangles if report else 0,
                    f"{report.patched_ratio:.2f}" if report else "-",
                ]
            )
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        exit_code = 5
    print(
        format_table(
            ["version", "op", "batch", "count deltas", "tri delta", "patched"],
            rows,
        )
    )
    for k in ks:
        print(f"{k}-cliques after {dyn.version} batch(es): {dyn.count(k)}")
    if args.emit_trace is not None:
        with open(args.emit_trace, "w", encoding="utf-8") as fh:
            json.dump({"trace": dyn.trace()}, fh, indent=2, sort_keys=True)
        print(f"trace written: {args.emit_trace}")
    if args.json is not None:
        payload = {
            "graph": args.graph,
            "version": dyn.version,
            "counts": {str(k): dyn.count(k) for k in ks},
            "trace": dyn.trace(),
            "metrics": registry.to_dict(),
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"mutation report written: {args.json}")
    return exit_code


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .obs import format_profile, profile_run

    g = _load_graph(args.graph)
    report = profile_run(g, args.k, variant=args.variant, eps=args.eps)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "variant": report.variant,
                    "k": report.k,
                    "count": report.count,
                    "work": report.work,
                    "depth": report.depth,
                    "engine": report.engine,
                    "engine_reason": report.engine_reason,
                    "spans": report.spans,
                    "metrics": report.metrics,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(format_profile(report))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import format_json, format_text, rules_by_id, run_lint

    rules = None if args.rules is None else rules_by_id(args.rules)
    findings = run_lint(args.paths or ["src"], rules=rules)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    print(format_json(findings) if args.format == "json" else format_text(findings))
    return 1 if findings else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from .fuzz import run_fuzz
    from .obs import MetricsRegistry

    registry = MetricsRegistry()
    report = run_fuzz(
        budget=args.budget,
        seed=args.seed,
        oracles=args.oracle,
        ks=tuple(args.k) if args.k else (4, 5),
        max_vertices=args.max_n,
        shrink=not args.no_shrink,
        emit_dir=args.emit_regression,
        artifact_dir=args.artifacts,
        metrics=registry,
        time_limit=args.time_limit,
        verbose=args.verbose,
    )
    print(report.summary())
    if args.out is not None:
        payload = report.to_dict()
        payload["metrics"] = registry.to_dict()
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"fuzz report written: {args.out}")
    return 0 if report.ok else 4


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import CliqueService, ServiceError

    service = CliqueService(
        eps=args.eps,
        workers=args.workers,
        max_query_work=args.max_query_work,
        max_inflight_work=args.max_inflight_work,
        queue_limit=args.queue_limit,
        cache_size=args.cache_size,
        memory_budget_bytes=args.memory_budget,
    )
    for item in args.graph or []:
        name, sep, spec = item.partition("=")
        if not sep:
            spec = name  # bare SPEC: the spec doubles as the name
        try:
            stats = service.registry.register(name, spec=spec)
        except ServiceError as exc:
            print(f"error: cannot preload {item!r}: {exc}", file=sys.stderr)
            return 1
        print(
            f"registered {stats.name!r}: n={stats.n} m={stats.m} "
            f"s={stats.degeneracy}"
        )

    def ready(host: str, port: int) -> None:
        print(f"repro daemon listening on {host}:{port}", flush=True)

    try:
        asyncio.run(service.run(args.host, args.port, ready=ready))
    except KeyboardInterrupt:
        pass
    return 0


def _query_fields(args: argparse.Namespace) -> dict:
    """The request payload of one ``repro query`` sub-command."""
    op = args.qop
    if op == "register":
        return {"name": args.name, "spec": args.spec}
    if op == "unregister":
        return {"name": args.name}
    if op in ("count", "list", "find"):
        fields = {"graph": args.graph, "k": args.k}
        if op in ("count", "list"):
            fields["variant"] = args.variant
            fields["engine"] = args.engine
            fields["kernelize"] = args.kernelize or None
        if op == "list" and args.limit is not None:
            fields["limit"] = args.limit
        return fields
    if op == "spectrum":
        return {"graph": args.graph, "k_max": args.k_max}
    if op == "mutate":
        batch = []
        for edge in args.edges:
            u, _, v = edge.replace(":", ",").partition(",")
            batch.append([int(u), int(v)])
        return {"graph": args.graph, "mutation": args.mutation, "batch": batch}
    return {}  # ping / graphs / stats / shutdown carry no fields


def _print_query_result(op: str, result: dict) -> None:
    if op == "count":
        extra = []
        if result.get("coalesced"):
            extra.append("coalesced")
        if result.get("warm"):
            extra.append("warm")
        suffix = f"  [{', '.join(extra)}]" if extra else ""
        print(
            f"{result['k']}-cliques in {result['graph']} "
            f"(v{result['version']}): {result['count']}{suffix}"
        )
    elif op == "list":
        for clique in result.get("cliques", []):
            print(" ".join(str(v) for v in clique))
        if result.get("truncated"):
            print(f"... (of {result['count']} total)", file=sys.stderr)
    elif op == "find":
        witness = result.get("witness")
        print("none" if witness is None else " ".join(str(v) for v in witness))
    elif op == "spectrum":
        for k, count in sorted(
            result.get("spectrum", {}).items(), key=lambda kv: int(kv[0])
        ):
            print(f"k={k}: {count}")
    elif op == "graphs":
        for row in result.get("graphs", []):
            print(
                f"{row['name']}: n={row['n']} m={row['m']} "
                f"s={row['degeneracy']} v{row['version']}"
            )
    elif op == "ping":
        print(f"pong (version {result.get('version', '?')})")
    elif op == "shutdown":
        print("daemon stopping")
    else:  # register / unregister / mutate / stats: structured output
        import json

        json.dump(result, sys.stdout, indent=2, sort_keys=True)
        print()


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from .service import QueryClient, ServiceError

    try:
        with QueryClient(args.host, args.port, timeout=args.timeout) as client:
            result = client.request(args.qop, **_query_fields(args))
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for key, value in sorted(exc.details.items()):
            print(f"  {key}: {value}", file=sys.stderr)
        # Admission rejections get their own exit code so scripts can
        # back off / retry instead of treating them as hard failures.
        return 6 if exc.code in ("over-budget", "over-memory", "queue-full") else 1
    except (ConnectionError, OSError) as exc:
        print(
            f"error: cannot reach daemon at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    if args.as_json:
        json.dump(result, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        _print_query_result(args.qop, result)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Community-centric parallel k-clique listing (SPAA'21 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="Table-2-style statistics of a graph")
    p.add_argument("graph", help="graph file or built-in dataset name")
    p.add_argument("--sigma", action="store_true", help="also compute the community degeneracy")
    p.add_argument("--omega", action="store_true", help="also compute the clique number")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("count", help="count k-cliques")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True, help="clique size")
    p.add_argument("--variant", choices=VARIANTS, default="best-work")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
        help="executor: auto (default), reference, frontier or sharded",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="processes the frontier executor runs its plan's units on "
        "(default: one; never changes the engine)",
    )
    p.add_argument(
        "--memory-budget",
        type=parse_memory_size,
        default=None,
        metavar="SIZE",
        help="cap on resident frontier-table bytes (e.g. 512M, 1G); when "
        "the predicted tables exceed it, auto streams disk-backed shards "
        "(default: unlimited)",
    )
    p.add_argument(
        "--kernelize",
        action="store_true",
        help="pre-shrink with the triangle-support kernel before the "
        "search (k >= 4)",
    )
    p.add_argument("--cost", action="store_true", help="print work/depth breakdown")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("list", help="list k-cliques (one per line)")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--variant", choices=VARIANTS, default="best-work")
    p.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
        help="listing engine: auto (default), reference, frontier or sharded",
    )
    p.add_argument(
        "--kernelize",
        action="store_true",
        help="list on the triangle-support kernel, lifting witnesses "
        "back to original vertex ids",
    )
    p.add_argument("--limit", type=int, default=None, help="print at most N cliques")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("spectrum", help="clique counts for every size")
    p.add_argument("graph")
    p.add_argument("--k-max", type=int, default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("datasets", help="show the built-in Table-2 stand-ins")
    p.set_defaults(func=_cmd_datasets)

    p = sub.add_parser(
        "bench",
        help="benchmark a (graphs x ks x algorithms) matrix; optional JSON "
        "record + regression gate",
    )
    p.add_argument("graph", nargs="+", help="graph file(s) or dataset name(s)")
    p.add_argument(
        "-k",
        type=int,
        action="append",
        help="clique size; repeatable for a sweep (default: 4)",
    )
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument(
        "--cold",
        action="store_true",
        help="rebuild preprocessing per cell instead of sharing one "
        "prepared context per graph",
    )
    p.add_argument(
        "--algos",
        default="c3list,kclist,arbcount",
        help="comma-separated algorithm names (see bench.ALGORITHMS)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="also write a machine-readable BENCH_<timestamp>.json record",
    )
    p.add_argument(
        "--out", default=None, help="path for the JSON record (implies --json)"
    )
    p.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE.json",
        help="compare against a baseline record; exit 3 on regression",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative growth per watched metric (default 0.25)",
    )
    p.add_argument(
        "--metrics",
        default="work,depth,wall_mean",
        help="comma-separated metrics the comparison watches",
    )
    p.add_argument("--note", default="", help="free-form note stored in the record")
    p.add_argument(
        "--memory-budget",
        type=parse_memory_size,
        default=None,
        metavar="SIZE",
        help="memory budget handed to budget-aware algorithms (e.g. "
        "sharded; default: unlimited)",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "mutate",
        help="replay or synthesize a batch-mutation trace with incremental "
        "clique maintenance (exit 5 on verification failure)",
    )
    p.add_argument("graph", help="graph file or built-in dataset name")
    p.add_argument(
        "-k",
        type=int,
        action="append",
        help="clique size to maintain; repeatable (default: 4)",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="JSON mutation trace to replay (as emitted by --emit-trace)",
    )
    p.add_argument(
        "--random",
        type=int,
        default=None,
        metavar="N",
        help="synthesize N seeded random batches instead of replaying",
    )
    p.add_argument(
        "--batch", type=int, default=4, help="edges per random batch (default 4)"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for --random")
    p.add_argument(
        "--verify",
        action="store_true",
        help="gate every batch with the dynamic-vs-scratch oracle",
    )
    p.add_argument(
        "--emit-trace",
        default=None,
        metavar="FILE",
        help="write the applied trace as replayable JSON",
    )
    p.add_argument(
        "--json",
        default=None,
        metavar="REPORT.json",
        help="write counts + dynamic.* metrics + trace as JSON",
    )
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser(
        "profile", help="one observed run: span tree + hot-loop metrics"
    )
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--variant", choices=VARIANTS, default="best-work")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "fuzz",
        help="differential + metamorphic fuzzing of every engine "
        "(exit 4 on violation)",
    )
    p.add_argument(
        "--budget", type=int, default=100, help="number of generated cases"
    )
    p.add_argument("--seed", type=int, default=0, help="campaign seed (replayable)")
    p.add_argument(
        "--oracle",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict to specific oracles (repeatable; default: all — "
        "see docs/FUZZING.md for the catalog)",
    )
    p.add_argument(
        "-k",
        type=int,
        action="append",
        help="clique size; repeatable (default: 4 and 5)",
    )
    p.add_argument(
        "--max-n", type=int, default=26, help="largest case size in vertices"
    )
    p.add_argument(
        "--time-limit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop drawing new cases after this many seconds (> 0; the "
        "first case always runs)",
    )
    p.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip delta-debugging minimization of failing cases",
    )
    p.add_argument(
        "--emit-regression",
        nargs="?",
        const=os.path.join("tests", "regressions"),
        default=None,
        metavar="DIR",
        help="write a pytest regression per failure bucket "
        "(default DIR: tests/regressions)",
    )
    p.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="write one JSON repro artifact per failure bucket",
    )
    p.add_argument(
        "--out", default=None, metavar="REPORT.json",
        help="write the full machine-readable campaign report",
    )
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("lint", help="repo-aware static analysis (rules R1-R8)")
    p.add_argument("paths", nargs="*", help="files/directories (default: src)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (e.g. R5,R6,R7,R8); "
        "default: all",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "serve",
        help="start the clique query daemon (NDJSON over TCP; coalescing + "
        "cost-budget admission; see docs/SERVICE.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"listen port (default {DEFAULT_PORT}; 0 picks a free port)",
    )
    p.add_argument(
        "--graph",
        action="append",
        metavar="NAME=SPEC",
        help="preload a graph under NAME (SPEC: dataset name or file path; "
        "repeatable; bare SPEC uses the spec as the name)",
    )
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="engine worker threads (default: executor's choice)",
    )
    p.add_argument(
        "--max-query-work",
        type=float,
        default=None,
        help="per-query admission budget in predicted PRAM work units; "
        "costlier queries are rejected with over-budget",
    )
    p.add_argument(
        "--max-inflight-work",
        type=float,
        default=None,
        help="global budget on the summed predicted work of running "
        "queries; excess queries queue",
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="max queries waiting on the in-flight budget (default 64)",
    )
    p.add_argument(
        "--cache-size",
        type=int,
        default=64,
        help="prepared-context cache capacity (default 64)",
    )
    p.add_argument(
        "--memory-budget",
        type=parse_memory_size,
        default=None,
        metavar="SIZE",
        help="resident table-byte budget (e.g. 512M): shardable queries "
        "stream within it, unshardable over-budget queries are rejected "
        "with over-memory (default: unlimited)",
    )
    p.set_defaults(func=_cmd_serve)

    qp = sub.add_parser(
        "query",
        help="talk to a running daemon (exit 6 on admission rejection)",
    )
    qsub = qp.add_subparsers(dest="qop", required=True)

    def _qparser(name: str, help_text: str) -> argparse.ArgumentParser:
        q = qsub.add_parser(name, help=help_text)
        q.add_argument("--host", default="127.0.0.1")
        q.add_argument("--port", type=int, default=DEFAULT_PORT)
        q.add_argument("--timeout", type=float, default=30.0)
        q.add_argument(
            "--json",
            action="store_true",
            dest="as_json",
            help="print the raw result object",
        )
        q.set_defaults(func=_cmd_query)
        return q

    _qparser("ping", "liveness + version")

    q = _qparser("register", "load a graph into the daemon under a name")
    q.add_argument("name")
    q.add_argument("spec", help="dataset name or graph file path")

    q = _qparser("unregister", "drop a named graph")
    q.add_argument("name")

    _qparser("graphs", "list registered graphs with their stats")

    q = _qparser("count", "count k-cliques on a registered graph")
    q.add_argument("graph")
    q.add_argument("-k", type=int, required=True)
    q.add_argument("--variant", choices=VARIANTS, default="best-work")
    q.add_argument("--engine", choices=ENGINES, default="auto")
    q.add_argument("--kernelize", action="store_true")

    q = _qparser("list", "list k-cliques on a registered graph")
    q.add_argument("graph")
    q.add_argument("-k", type=int, required=True)
    q.add_argument("--variant", choices=VARIANTS, default="best-work")
    q.add_argument("--engine", choices=ENGINES, default="auto")
    q.add_argument("--kernelize", action="store_true")
    q.add_argument("--limit", type=int, default=None)

    q = _qparser("find", "find one k-clique witness (or none)")
    q.add_argument("graph")
    q.add_argument("-k", type=int, required=True)

    q = _qparser("spectrum", "clique counts for every size")
    q.add_argument("graph")
    q.add_argument("--k-max", type=int, default=None, dest="k_max")

    q = _qparser("mutate", "apply an edge batch through the dynamic layer")
    q.add_argument("graph")
    q.add_argument("mutation", choices=("insert", "delete"))
    q.add_argument(
        "edges",
        nargs="+",
        metavar="U,V",
        help="edges as comma- or colon-separated pairs (e.g. 3,17)",
    )

    _qparser("stats", "service counters, cache info, admission state")
    _qparser("shutdown", "stop the daemon")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed the pipe (``repro list ... | head``). Point
        # stdout at devnull so the flush at interpreter exit cannot raise
        # a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
