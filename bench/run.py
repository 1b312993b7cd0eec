"""Run the repository benchmark and print every metric by name.

Usage::

    python3 bench/run.py --workload rank_wide --seed 17 --seconds 12 --trace 0
    python3 bench/run.py --seed 17 [--out DIR] [--smoke]

With ``--workload`` and ``--trace`` the run measures one workload and
its last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` - the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``). Without them
it runs every workload both ways and its last line summarises the run.
Each run also writes a JSON report (values, spreads, sample counts,
environment stamp) under ``--out`` for ``bench/compare.py``.

An untraced run is five timed trials, one after another, each in a
fresh process, then a replay of the first trial's operations on a
sequential twin; a traced run is a timing and a counting trial of the
same fixed operations, then the same replay. Every reply that differs
from the twin's counts as failed, and the exit status is non-zero when
any operation failed. ``bench/README.md`` describes how each metric is
taken.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if sys.path and Path(sys.path[0]).resolve() == ROOT / "bench":
    # Run as a script: import the benchmark as the ``bench`` package, so
    # its modules never shadow the standard library's (``trace``).
    sys.path[0] = str(ROOT)

from bench.metrics import (  # noqa: E402
    best_quartile,
    block_stats,
    declared,
    load_spec,
    percentiles_ms,
    spread,
)

TRIALS = 5
SMOKE_TRIALS = 2
#: A run must end within this many seconds, its own set-up included.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """A trial could not run; no result is printed."""


def _child(spec: dict, deadline: float) -> dict:
    """Run one trial in a fresh process and return its result."""
    process = subprocess.Popen(
        [sys.executable, "-m", "bench.trial"],
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(
            json.dumps(spec), timeout=max(1.0, deadline - time.monotonic())
        )
    except BaseException as error:
        # Out of time or interrupted: the trial and anything it started
        # (a shard worker) share a session; stop them all, then wait.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            raise BenchError(
                f"{spec['workload']} {spec['mode']} trial ran out of time"
            ) from error
        raise
    if process.returncode != 0:
        raise BenchError(
            f"{spec['workload']} {spec['mode']} trial exited with "
            f"{process.returncode}:\n{stderr[-4000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def _mismatches(trial: dict, reference: list[str]) -> int:
    """Replies that differ from the twin's (failed ones are counted already)."""
    return sum(
        1
        for got, want in zip(trial["digests"], reference, strict=True)
        if got != "failed" and got != want
    )


def _summary(value: float, values: list[float], unit: str, n: int) -> dict:
    """A reported metric: its value, the spread it was taken from, and n."""
    return {"value": value, "unit": unit, "n": n, "spread": spread(values)}


def _by_kind(results: list[dict]) -> dict[str, dict]:
    """Latency of each operation kind on its own (queries vs edits)."""
    by_kind = {}
    for kind in sorted({kind for trial in results for kind in trial["kinds"]}):
        per_trial = [
            [value for value, op in zip(trial["latency_ns"], trial["kinds"]) if op == kind]
            for trial in results
        ]
        percentiles = [percentiles_ms(values) for values in per_trial if values]
        by_kind[kind] = {
            "p50_ms": statistics.median(p50 for p50, _ in percentiles),
            "p95_ms": statistics.median(p95 for _, p95 in percentiles),
            "n": sum(len(values) for values in per_trial),
        }
    return by_kind


def run_untraced(base: dict, seconds: float, trials: int, deadline: float) -> dict:
    """The timed trials plus the twin check of the first one."""
    results = [
        _child(
            {**base, "mode": "timed", "stream": stream, "seconds": seconds / trials,
             "digests": stream == 0},
            deadline,
        )
        for stream in range(trials)
    ]
    first = results[0]
    reference = _child(
        {**base, "mode": "verify", "stream": 0, "ops": len(first["digests"])}, deadline
    )["digests"]
    mismatches = _mismatches(first, reference)

    # Timings: the better quartile of all blocks of all trials. Set-up
    # and memory: the median over the trials.
    samples = sum(len(trial["latency_ns"]) for trial in results)
    blocks: dict[str, list[float]] = {}
    for trial in results:
        for metric, values in block_stats(trial["latency_ns"], trial["requests_per_op"]).items():
            blocks.setdefault(metric, []).extend(values)
    per_trial = {
        "setup_s": [trial["setup_s"] for trial in results],
        "peak_rss_mb": [trial["rss_mb"] for trial in results],
    }
    metrics = {}
    for metric, declaration in declared("end_to_end").items():
        if metric in blocks:
            value = best_quartile(blocks[metric], declaration["better"])
            metrics[metric] = _summary(value, blocks[metric], declaration["unit"],
                                       samples * first["requests_per_op"]
                                       if metric == "throughput_ops" else samples)
        else:
            values = per_trial[metric]
            metrics[metric] = _summary(statistics.median(values), values,
                                       declaration["unit"], trials)
    return {
        "attempted": sum(trial["attempted"] for trial in results),
        "failed": sum(trial["failed"] for trial in results) + mismatches,
        "metrics": metrics,
        "by_kind": _by_kind(results),
        "params": first["params"],
    }


def run_traced(name: str, base: dict, out: Path, deadline: float) -> dict:
    """A timing and a counting trial of the same fixed operations.

    Layer times, the tracing overhead and the trace file come from the
    timing trial; exact counts from the counting trial, whose cell
    accounting would slow the layers it counts in.
    """
    fixed = {**base, "mode": "traced", "stream": 0, "fixed": True}
    trace_file = out / f"{name}.trace.jsonl"
    traced = _child({**fixed, "digests": True, "trace_file": str(trace_file)}, deadline)
    counted = _child({**fixed, "count_cells": True}, deadline)
    reference = _child(
        {**base, "mode": "verify", "stream": 0, "ops": len(traced["digests"])}, deadline
    )["digests"]
    mismatches = _mismatches(traced, reference)

    per_layer = declared("per_layer")
    layers = {**counted["layers"], **traced["layers"]}
    metrics = {}
    for metric, declaration in per_layer.items():
        if metric not in layers:
            raise BenchError(f"traced trial did not measure {metric}")
        metrics[metric] = {"value": layers[metric], "unit": declaration["unit"],
                           "n": len(traced["latency_ns"])}
    return {
        "attempted": traced["attempted"] + counted["attempted"],
        "failed": traced["failed"] + counted["failed"] + mismatches,
        "metrics": metrics,
        "params": traced["params"],
        "trace_file": str(trace_file),
    }


def _git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` (None outside a clone)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment_stamp(workdir: Path) -> dict:
    """Where the numbers were measured."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "wal_dir": str(workdir),
    }


def _print_result(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        detail = f"n={entry['n']}"
        if "spread" in entry:
            band = entry["spread"]
            detail += f", q1={band['q1']:.6g}, q3={band['q3']:.6g}"
        print(f"{name:13s} {metric:28s} {entry['value']:14.6g} {entry['unit']:6s} ({detail})")
    verdict = "ok" if result["failed"] == 0 else "FAILED"
    print(f"{name:13s} {'checks':28s} {result['failed']} failed of "
          f"{result['attempted']} attempted: {verdict}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run, split over the trials "
                             "(default: BENCHMARK.json's run_seconds, or 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both)")
    parser.add_argument("--out", default=str(ROOT / ".bench_out"),
                        help="directory for reports, traces and scratch files")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and two trials, for tests")
    args = parser.parse_args(argv)
    args.names = names if args.workload == "all" else [args.workload]
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    return args


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    trials = SMOKE_TRIALS if args.smoke else TRIALS
    traces = [args.trace] if args.trace is not None else [0, 1]
    out = Path(args.out).resolve()
    workdir = out / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)

    report = {
        "env": environment_stamp(workdir),
        "seed": args.seed,
        "seconds": args.seconds,
        "trials": trials,
        "smoke": args.smoke,
        "workloads": {},
    }
    results = []
    try:
        for name in args.names:
            base = {"workload": name, "seed": args.seed, "smoke": args.smoke,
                    "workdir": str(workdir)}
            entry = report["workloads"].setdefault(name, {"attempted": 0, "failed": 0})
            for trace in traces:
                deadline = time.monotonic() + RUN_LIMIT_S
                if trace:
                    result = run_traced(name, base, out, deadline)
                    entry["layers"] = result["metrics"]
                    entry["trace_file"] = result["trace_file"]
                else:
                    result = run_untraced(base, args.seconds, trials, deadline)
                    entry["metrics"] = result["metrics"]
                    entry["by_kind"] = result["by_kind"]
                entry["params"] = result["params"]
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry["correct"] = entry["failed"] == 0
                _print_result(name, result)
                results.append(result)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2

    label = (f"{args.names[0]}-seed{args.seed}-trace{traces[0]}"
             if len(args.names) == 1 and len(traces) == 1 else f"report-seed{args.seed}")
    report_path = out / f"{label}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    failed = sum(result["failed"] for result in results)
    attempted = sum(result["attempted"] for result in results)
    if len(results) == 1:
        metrics = {metric: {"value": entry["value"], "unit": entry["unit"]}
                   for metric, entry in results[0]["metrics"].items()}
        line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    else:
        print(f"report: {report_path}")
        line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "report": str(report_path)}
    print(json.dumps(line))
    return 0 if failed == 0 else 1


def _stop(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    # Turn a termination request into an exception, so a running trial
    # and its processes are stopped on the way out.
    signal.signal(signal.SIGTERM, _stop)
    sys.exit(main())
