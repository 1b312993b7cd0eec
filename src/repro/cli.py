"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro table1              # Table 1 (usability study)
    python -m repro fig5                # Fig. 5 (real-profile tree sizes)
    python -m repro fig6 left           # Fig. 6 left (uniform sizes)
    python -m repro fig6 center         # Fig. 6 center (zipf sizes)
    python -m repro fig6 right          # Fig. 6 right (skew crossover)
    python -m repro fig7 real           # Fig. 7 left (real profile accesses)
    python -m repro fig7 synthetic      # Fig. 7 center+right (synthetic)
    python -m repro chaos               # availability under injected faults
    python -m repro chaos --sharded     # distributed chaos vs the shard router
    python -m repro persistence         # kill/restart recovery + paging
    python -m repro analyze             # project-native static checks

Every command accepts ``--seed`` and, where meaningful, ``--sizes`` to
re-run the sweep at other scales than the paper's.
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence

from repro.eval import (
    fig5_real_profile,
    fig6_size_sweep,
    fig6_skew_sweep,
    fig7_real_profile,
    fig7_synthetic,
    format_series,
    format_table,
    run_usability_study,
)

__all__ = ["build_parser", "main"]

_DEFAULT_SIZES = (500, 1000, 5000, 10000)
_DEFAULT_SKEWS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the evaluation of 'Adding Context to "
        "Preferences' (ICDE 2007).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="usability study (Table 1)")
    table1.add_argument("--users", type=int, default=10)
    table1.add_argument("--seed", type=int, default=11)

    fig5 = sub.add_parser("fig5", help="real-profile tree sizes (Fig. 5)")
    fig5.add_argument("--seed", type=int, default=42)

    fig6 = sub.add_parser("fig6", help="synthetic tree sizes (Fig. 6)")
    fig6.add_argument("panel", choices=["left", "center", "right"])
    fig6.add_argument("--seed", type=int, default=17)
    fig6.add_argument("--sizes", type=int, nargs="+", default=list(_DEFAULT_SIZES))

    fig7 = sub.add_parser("fig7", help="resolution cell accesses (Fig. 7)")
    fig7.add_argument("panel", choices=["real", "synthetic"])
    fig7.add_argument("--seed", type=int, default=None)
    fig7.add_argument("--sizes", type=int, nargs="+", default=list(_DEFAULT_SIZES))
    fig7.add_argument("--queries", type=int, default=50)

    report = sub.add_parser(
        "report", help="run every experiment, emit a Markdown report"
    )
    report.add_argument("--quick", action="store_true",
                        help="smaller sweeps for a fast smoke run")
    report.add_argument("--seed", type=int, default=17)
    report.add_argument("--output", type=str, default=None,
                        help="write to a file instead of stdout")

    stats = sub.add_parser(
        "stats",
        help="observability snapshot for a scripted multi-user workload",
    )
    stats.add_argument(
        "--format",
        choices=["table", "json", "prometheus"],
        default="table",
        help="table = headline numbers; json / prometheus = raw snapshot",
    )
    stats.add_argument("--users", type=int, default=4)
    stats.add_argument("--queries", type=int, default=60)
    stats.add_argument("--rows", type=int, default=2000)
    stats.add_argument("--cache-capacity", type=int, default=8)
    stats.add_argument("--seed", type=int, default=11)

    serve = sub.add_parser(
        "serve-bench",
        help="concurrent serving workload: throughput scaling + churn check",
    )
    serve.add_argument("--users", type=int, default=8)
    serve.add_argument("--rows", type=int, default=1500)
    serve.add_argument("--queries", type=int, default=160)
    serve.add_argument(
        "--threads",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="worker counts to sweep (each replays the same request set)",
    )
    serve.add_argument(
        "--io-wait-ms",
        type=float,
        default=6.0,
        help="simulated per-request I/O wait; 0 shows the GIL-bound CPU curve",
    )
    serve.add_argument("--writers", type=int, default=4)
    serve.add_argument("--edits-per-writer", type=int, default=10)
    serve.add_argument("--cache-capacity", type=int, default=64)
    serve.add_argument("--seed", type=int, default=17)
    serve.add_argument(
        "--json", action="store_true", help="emit the raw report as JSON"
    )

    shard = sub.add_parser(
        "shard-bench",
        help="multi-process sharded serving: QPS scaling + rebalance audit",
    )
    shard.add_argument("--users", type=int, default=8)
    shard.add_argument("--rows", type=int, default=1500)
    shard.add_argument("--queries", type=int, default=160)
    shard.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="worker-process counts to sweep (same request set each)",
    )
    shard.add_argument(
        "--io-wait-ms",
        type=float,
        default=15.0,
        help="simulated per-request I/O wait (remote row-store fetch); "
        "0 shows the single-core CPU-bound curve",
    )
    shard.add_argument(
        "--worker-threads",
        type=int,
        default=2,
        help="threads serving one batch inside each worker process",
    )
    shard.add_argument("--cache-capacity", type=int, default=64)
    shard.add_argument("--seed", type=int, default=17)
    shard.add_argument(
        "--no-chaos",
        action="store_true",
        help="skip the worker-kill + rebalance round",
    )
    shard.add_argument(
        "--json", action="store_true", help="emit the raw report as JSON"
    )
    shard.add_argument(
        "--output", type=str, default=None,
        help="also write the JSON report to this file "
        "(BENCH_sharded.json style)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection run: availability/latency under a seeded "
        "fault schedule, with vs without the resilience layer",
    )
    chaos.add_argument("--users", type=int, default=6)
    chaos.add_argument("--rows", type=int, default=400)
    chaos.add_argument("--rounds", type=int, default=5)
    chaos.add_argument("--queries-per-round", type=int, default=40)
    chaos.add_argument("--edits-per-round", type=int, default=4)
    chaos.add_argument("--concurrent-batch", type=int, default=16)
    chaos.add_argument("--max-workers", type=int, default=4)
    chaos.add_argument("--seed", type=int, default=23)
    chaos.add_argument(
        "--sharded",
        action="store_true",
        help="run the distributed chaos schedule against the sharded "
        "tier (network faults + kills + drains vs the shard router)",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes for --sharded (ignored otherwise)",
    )
    chaos.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the resilience-disabled comparison run "
        "(single-process chaos only; ignored with --sharded)",
    )
    chaos.add_argument(
        "--json", action="store_true", help="emit the raw report as JSON"
    )
    chaos.add_argument(
        "--output", type=str, default=None,
        help="also write the JSON report to this file (BENCH_chaos.json style)",
    )

    persistence = sub.add_parser(
        "persistence",
        help="durability run: kill/restart recovery equality, plus an "
        "optional paged-users scale benchmark",
    )
    persistence.add_argument("--users", type=int, default=8)
    persistence.add_argument("--rows", type=int, default=300)
    persistence.add_argument("--rounds", type=int, default=4)
    persistence.add_argument("--edits-per-round", type=int, default=6)
    persistence.add_argument("--queries-per-round", type=int, default=24)
    persistence.add_argument("--hydrated-budget", type=int, default=4)
    persistence.add_argument(
        "--backend", choices=["jsonl", "sqlite"], default="jsonl"
    )
    persistence.add_argument("--seed", type=int, default=29)
    persistence.add_argument(
        "--paging-users",
        type=int,
        default=0,
        help="also run the paging benchmark with this many registered "
        "users (0 = skip)",
    )
    persistence.add_argument("--paging-queries", type=int, default=2000)
    persistence.add_argument(
        "--json", action="store_true", help="emit the raw report as JSON"
    )
    persistence.add_argument(
        "--output", type=str, default=None,
        help="also write the JSON report to this file "
        "(BENCH_persistence.json style)",
    )

    analyze = sub.add_parser(
        "analyze",
        help="static checks: lock order, layering, hygiene, blocking "
        "effects, fault/exception/schema contracts",
    )
    analyze.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="text = line per finding; json = machine-readable report; "
        "sarif = SARIF 2.1.0 for code-scanning upload",
    )
    analyze.add_argument(
        "--root",
        type=str,
        default=None,
        help="package directory to analyze (default: the installed repro "
        "package itself)",
    )
    analyze.add_argument(
        "--baseline",
        type=str,
        default=None,
        help="JSON baseline file; matching findings are reported as "
        "suppressed instead of failing the run",
    )
    analyze.add_argument(
        "--output",
        type=str,
        default=None,
        help="also write the rendered report to this file",
    )
    return parser


def _run_table1(args: argparse.Namespace) -> str:
    study = run_usability_study(num_users=args.users, seed=args.seed)
    headers = ["", *[f"User {row.user_id}" for row in study.rows]]
    rows = [
        ["Num of updates", *[row.num_updates for row in study.rows]],
        ["Update time (mins)", *[row.update_time_minutes for row in study.rows]],
        ["Exact match", *[f"{row.exact_match_pct:.0f}%" for row in study.rows]],
        ["1 cover state", *[f"{row.one_cover_pct:.0f}%" for row in study.rows]],
        ["Hierarchy", *[f"{row.multi_cover_hierarchy_pct:.0f}%" for row in study.rows]],
        ["Jaccard", *[f"{row.multi_cover_jaccard_pct:.0f}%" for row in study.rows]],
    ]
    return format_table(headers, rows, title="Table 1. User Study Results")


def _run_fig5(args: argparse.Namespace) -> str:
    experiment = fig5_real_profile(seed=args.seed)
    cells = experiment.cells_by_label()
    num_bytes = experiment.bytes_by_label()
    labels = ["serial", *[f"order{i}" for i in range(1, 7)]]
    return format_table(
        ["ordering", "cells", "bytes"],
        [[label, cells[label], num_bytes[label]] for label in labels],
        title="Fig. 5 - profile tree size, real profile",
    )


def _run_fig6(args: argparse.Namespace) -> str:
    if args.panel == "right":
        series = fig6_skew_sweep(_DEFAULT_SKEWS, seed=args.seed)
        return format_series(
            "Fig. 6 (right) - cells vs skew of the 200-value domain",
            "a",
            _DEFAULT_SKEWS,
            series,
        )
    distribution = "uniform" if args.panel == "left" else "zipf"
    sizes = tuple(args.sizes)
    series = fig6_size_sweep(distribution, sizes, seed=args.seed)
    return format_series(
        f"Fig. 6 ({args.panel}) - cells, {distribution} distribution",
        "#prefs",
        sizes,
        series,
    )


def _run_fig7(args: argparse.Namespace) -> str:
    if args.panel == "real":
        seed = 42 if args.seed is None else args.seed
        measurements = fig7_real_profile(num_queries=args.queries, seed=seed)
        return format_table(
            ["method", "mean cells/query"],
            [
                [label, f"{measurement.mean_cells:.1f}"]
                for label, measurement in measurements.items()
            ],
            title=f"Fig. 7 (left) - accesses, real profile, {args.queries} queries",
        )
    seed = 17 if args.seed is None else args.seed
    sizes = tuple(args.sizes)
    uniform = fig7_synthetic("uniform", sizes, num_queries=args.queries, seed=seed)
    zipf = fig7_synthetic("zipf", sizes, num_queries=args.queries, seed=seed)
    series = {
        "exact_uni": [f"{v:.1f}" for v in uniform["tree_exact"]],
        "exact_zipf": [f"{v:.1f}" for v in zipf["tree_exact"]],
        "exact_serial": [f"{v:.1f}" for v in uniform["serial_exact"]],
        "cover_uni": [f"{v:.1f}" for v in uniform["tree_cover"]],
        "cover_zipf": [f"{v:.1f}" for v in zipf["tree_cover"]],
        "cover_serial": [f"{v:.1f}" for v in uniform["serial_cover"]],
    }
    return format_series(
        "Fig. 7 (center/right) - mean cell accesses per query",
        "#prefs",
        sizes,
        series,
    )


def _run_report(args: argparse.Namespace) -> str:
    from repro.eval.report import generate_report

    text = generate_report(quick=args.quick, seed=args.seed)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text, encoding="utf-8")
        return f"report written to {args.output}"
    return text


def _run_stats(args: argparse.Namespace) -> str:
    from repro.eval.observability import run_scripted_workload

    report = run_scripted_workload(
        num_users=args.users,
        num_queries=args.queries,
        num_rows=args.rows,
        cache_capacity=args.cache_capacity,
        seed=args.seed,
    )
    if args.format == "json":
        import json

        return json.dumps(
            {"workload": report["workload"], "snapshot": report["snapshot"]}, indent=2
        )
    if args.format == "prometheus":
        return str(report["prometheus"]).rstrip("\n")
    summary = report["summary"]
    rows: list[list[object]] = [
        ["queries executed", int(summary["queries"])],
        ["plain fallbacks", int(summary["plain_fallbacks"])],
        ["states resolved", int(summary["states_resolved"])],
        ["cache hits", int(summary["cache_hits"])],
        ["cache misses", int(summary["cache_misses"])],
        ["cache hit rate", f"{summary['cache_hit_rate']:.2%}"],
        ["cache evictions", int(summary["cache_evictions"])],
        ["cache invalidations", int(summary["cache_invalidations"])],
        ["selections (indexed)", int(summary["selections_indexed"])],
        ["selections (scan)", int(summary["selections_scan"])],
        ["relation listeners", report["relation_listeners"]],
    ]
    for stage, latency in sorted(summary["stages"].items()):
        rows.append(
            [
                f"{stage} p50/p95 (ms)",
                f"{latency['p50'] * 1000:.3f} / {latency['p95'] * 1000:.3f}",
            ]
        )
    return format_table(
        ["metric", "value"],
        rows,
        title=(
            f"Serving-path observability - {args.users} users, "
            f"{args.queries} queries, {args.rows} rows"
        ),
    )


def _run_serve_bench(args: argparse.Namespace) -> str:
    from repro.eval.serving import run_serve_bench

    report = run_serve_bench(
        num_users=args.users,
        num_rows=args.rows,
        num_queries=args.queries,
        thread_counts=tuple(args.threads),
        io_wait_ms=args.io_wait_ms,
        num_writers=args.writers,
        edits_per_writer=args.edits_per_writer,
        cache_capacity=args.cache_capacity,
        seed=args.seed,
    )
    if args.json:
        import json

        return json.dumps(report, indent=2)
    rows: list[list[object]] = [
        [
            f"{count} thread{'s' if int(count) != 1 else ''}",
            f"{series['qps']:.0f} q/s",
            f"{series['speedup']:.2f}x",
        ]
        for count, series in report["series"].items()
    ]
    churn = report["churn"]
    rows.extend(
        [
            ["identical output", "yes" if report["identical_output"] else "NO"],
            [
                "churn phase",
                f"{churn['queries']} queries vs {churn['num_writers']} writers",
                f"{churn['failed_requests']} failed / {churn['lost_updates']} lost",
            ],
        ]
    )
    workload = report["workload"]
    return format_table(
        ["threads", "throughput", "speedup"],
        rows,
        title=(
            f"Concurrent serving - {workload['num_users']} users, "
            f"{workload['num_rows']} rows, {workload['num_queries']} queries, "
            f"io_wait {workload['io_wait_ms']:.1f} ms"
        ),
    )


def _run_shard_bench(args: argparse.Namespace) -> str:
    from repro.eval.sharding import run_shard_bench

    report = run_shard_bench(
        num_users=args.users,
        num_rows=args.rows,
        num_queries=args.queries,
        worker_counts=tuple(args.workers),
        io_wait_ms=args.io_wait_ms,
        worker_threads=args.worker_threads,
        cache_capacity=args.cache_capacity,
        seed=args.seed,
        chaos=not args.no_chaos,
    )
    if args.output:
        import json
        from pathlib import Path

        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    if args.json:
        import json

        return json.dumps(report, indent=2)
    rows: list[list[object]] = [
        [
            f"{count} worker{'s' if int(count) != 1 else ''}",
            f"{series['qps']:.0f} q/s",
            f"{series['speedup']:.2f}x",
        ]
        for count, series in report["series"].items()
    ]
    rows.append(
        ["identical output", "yes" if report["identical_output"] else "NO", ""]
    )
    chaos = report["chaos"]
    if chaos.get("enabled"):
        rows.append(
            [
                "chaos round",
                f"{chaos['worker_deaths']} killed / "
                f"{chaos['rebalances']} rebalances",
                "identical"
                if chaos["identical_after_rebalance"]
                else "DIVERGED",
            ]
        )
    workload = report["workload"]
    return format_table(
        ["workers", "throughput", "speedup"],
        rows,
        title=(
            f"Sharded serving - {workload['num_users']} users, "
            f"{workload['num_rows']} rows, {workload['num_queries']} queries, "
            f"io_wait {workload['io_wait_ms']:.1f} ms"
        ),
    )


def _run_chaos(args: argparse.Namespace) -> str:
    import json

    from repro.eval.chaos import run_chaos

    if args.sharded:
        return _run_chaos_sharded(args)
    report = run_chaos(
        num_users=args.users,
        num_rows=args.rows,
        rounds=args.rounds,
        queries_per_round=args.queries_per_round,
        edits_per_round=args.edits_per_round,
        concurrent_batch=args.concurrent_batch,
        max_workers=args.max_workers,
        seed=args.seed,
        with_baseline=not args.no_baseline,
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    if args.json:
        return json.dumps(report, indent=2)
    resilient = report["resilient"]
    rows: list[list[object]] = [
        ["requests", resilient["requests"]],
        ["availability", f"{resilient['availability']:.2%}"],
    ]
    for level, count in resilient["served_by_level"].items():
        rows.append([f"served @ {level}", count])
    failures = resilient["failures"]
    rows += [
        ["failures", sum(failures.values())],
        [
            "latency p50/p99 (ms)",
            f"{resilient['latency_ms']['p50']:.3f} / "
            f"{resilient['latency_ms']['p99']:.3f}",
        ],
        [
            "correctness audit",
            f"{resilient['correctness']['mismatches']} mismatches / "
            f"{resilient['correctness']['checked']} checked",
        ],
        ["edits applied / rejected",
         f"{resilient['edits_applied']} / {resilient['edit_failures']}"],
    ]
    baseline = report.get("baseline")
    if baseline is not None:
        rows += [
            ["baseline availability", f"{baseline['availability']:.2%}"],
            [
                "baseline demonstrably fails",
                "yes" if report["baseline_demonstrably_fails"] else "NO",
            ],
        ]
    workload = report["workload"]
    return format_table(
        ["metric", "value"],
        rows,
        title=(
            f"Chaos run - {workload['rounds']} rounds, seed "
            f"{workload['seed']}, {workload['num_users']} users, "
            f"{workload['num_rows']} rows"
        ),
    )


def _run_chaos_sharded(args: argparse.Namespace) -> str:
    import json

    from repro.eval.chaos_sharded import run_chaos_sharded

    report = run_chaos_sharded(
        num_users=args.users,
        num_rows=args.rows,
        num_workers=args.workers,
        queries_per_round=args.queries_per_round,
        edits_per_round=args.edits_per_round,
        seed=args.seed,
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    if args.json:
        return json.dumps(report, indent=2)
    run = report["hardened"]
    rows: list[list[object]] = [
        ["requests (queries + edits)", run["requests"]],
        ["availability", f"{run['availability']:.2%}"],
        ["identical rankings", "yes" if run["identical_output"] else "NO"],
        ["lost replies", run["lost_replies"]],
        ["double-served replies", run["duplicate_replies"]],
        ["dedup-served replies", run["dedup_replies"]],
        [
            "edits via (forward/wal/resync)",
            " / ".join(
                str(run["applied_via"].get(key, 0))
                for key in ("forward", "wal", "resync")
            ),
        ],
    ]
    for key in (
        "conn_failures",
        "reconnects",
        "hedged_requests",
        "worker_deaths",
        "rebalances",
        "drains",
    ):
        rows.append([key.replace("_", " "), run["router"][key]])
    workload = report["workload"]
    return format_table(
        ["metric", "value"],
        rows,
        title=(
            f"Sharded chaos - {len(workload['rounds'])} rounds, "
            f"{workload['num_workers']} workers, seed {workload['seed']}"
        ),
    )


def _run_persistence(args: argparse.Namespace) -> str:
    import json

    from repro.eval.persistence import run_kill_restart, run_paging_bench

    report: dict[str, object] = {
        "kill_restart": run_kill_restart(
            num_users=args.users,
            num_rows=args.rows,
            rounds=args.rounds,
            edits_per_round=args.edits_per_round,
            queries_per_round=args.queries_per_round,
            hydrated_budget=args.hydrated_budget,
            backend=args.backend,
            seed=args.seed,
        )
    }
    if args.paging_users > 0:
        report["paging"] = run_paging_bench(
            num_users=args.paging_users,
            hydrated_budget=args.hydrated_budget,
            num_queries=args.paging_queries,
            backend=args.backend,
            seed=args.seed,
        )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    if args.json:
        return json.dumps(report, indent=2)
    kill = report["kill_restart"]
    rows: list[list[object]] = [
        ["restarts", kill["restarts"]],
        ["torn tails repaired", kill["torn_tails_repaired"]],
        ["edits applied / rejected",
         f"{kill['edits_applied']} / {kill['edits_rejected']}"],
        ["recovery rate", f"{kill['recovery_rate']:.2%}"],
        [
            "ranking audit",
            f"{kill['ranking_mismatches']} mismatches / "
            f"{kill['ranking_checks']} checked",
        ],
        [
            "identical after recovery",
            "yes" if kill["identical_after_recovery"] else "NO",
        ],
    ]
    paging = report.get("paging")
    if paging is not None:
        rows += [
            ["registered users", paging["registration"]["users"]],
            [
                "peak hydrated / budget",
                f"{paging['paging']['peak_hydrated']} / "
                f"{paging['paging']['hydrated_budget']}",
            ],
            ["recovery complete",
             "yes" if paging.get("recovery", {}).get("complete") else "NO"],
        ]
    workload = kill["workload"]
    return format_table(
        ["metric", "value"],
        rows,
        title=(
            f"Persistence run - {workload['rounds']} rounds, "
            f"{workload['backend']} backend, seed {workload['seed']}, "
            f"{workload['num_users']} users"
        ),
    )


_RUNNERS = {
    "table1": _run_table1,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "report": _run_report,
    "stats": _run_stats,
    "serve-bench": _run_serve_bench,
    "shard-bench": _run_shard_bench,
    "chaos": _run_chaos,
    "persistence": _run_persistence,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "analyze":
        # The one command with a meaningful failure exit code: CI runs
        # it as a gate, so findings must fail the process.
        from pathlib import Path

        from repro.analysis import analyze, load_baseline

        baseline = load_baseline(Path(args.baseline)) if args.baseline else None
        report = analyze(Path(args.root) if args.root else None, baseline=baseline)
        rendered = report.render(args.format)
        if args.output:
            Path(args.output).write_text(rendered + "\n", encoding="utf-8")
        print(rendered)
        return 0 if report.ok else 1
    print(_RUNNERS[args.command](args))
    return 0
