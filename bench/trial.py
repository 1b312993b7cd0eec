"""One trial of one workload, in the current process.

``bench/run.py`` starts each trial in a fresh process with
``python3 -m bench.trial``, writes the trial's spec as JSON to its
standard input and reads the result from the last line of its standard
output. Tests call :func:`run_trial` directly.

A trial has three phases: set-up (timed on its own), an untimed
warm-up, then the timed operations - either until ``seconds`` have
passed or, when ``fixed`` is set, exactly the workload's ``trace_ops``
(so traced counts repeat exactly). A ``traced`` trial wraps the layers
(see :mod:`bench.trace`) during the timed phase; a ``verify`` trial
builds the sequential twin instead and returns its fingerprints.
"""

from __future__ import annotations

import itertools
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Operations per block when a traced trial alternates plain and
#: traced blocks.
TRACE_BLOCK = 20


def run_trial(spec: dict) -> dict:
    """Run the trial ``spec`` describes and return its measurements.

    ``spec`` keys: ``workload``, ``seed``, ``smoke``, ``mode``
    (``timed``/``traced``/``verify``), ``stream``, ``seconds`` or
    ``fixed``, ``digests`` (return reply fingerprints), ``workdir``
    (scratch space), ``trace_file`` and ``count_cells`` for traced
    trials and ``ops`` (how many operations to replay) for verify
    trials.
    """
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]](spec["seed"], spec.get("smoke", False))
    stream = spec.get("stream", 0)
    if spec["mode"] == "verify":
        return {"digests": workload.reference(stream, spec["ops"])}

    workdir = Path(tempfile.mkdtemp(prefix="trial-", dir=spec["workdir"]))
    try:
        started = time.perf_counter()
        system = workload.setup(workdir)
        setup_s = time.perf_counter() - started
        try:
            result = _measure(workload, system, spec)
        finally:
            workload.close(system)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["setup_s"] = setup_s
    result["rss_mb"] = (own + children) / 1024.0
    return result


def _measure(workload, system, spec: dict) -> dict:
    ops = workload.ops(spec.get("stream", 0))
    keep_digests = spec.get("digests", False)
    count_cells = spec.get("count_cells", False)
    digests: list[str] = []
    # Timed operations in order: their latencies, kinds and whether traced.
    latency_ns: list[int] = []
    kinds: list[str] = []
    traced_flags: list[bool] = []
    attempted = failed = 0
    tracer = None

    def perform(op: tuple, traced: bool = False) -> int:
        nonlocal attempted, failed
        attempted += 1
        started = time.perf_counter_ns()
        if traced:
            # The root span covers the call only, not the fingerprint.
            tracer.begin(len(latency_ns), op[0])
        try:
            reply = workload.call(system, op)
        except Exception:  # a failed operation is counted, not fatal
            if failed < 3:
                traceback.print_exc(file=sys.stderr)
            reply = None
        finally:
            if traced:
                tracer.end()
        elapsed = time.perf_counter_ns() - started
        digest = None if reply is None else workload.fingerprint(op, reply)
        if digest is None:
            failed += 1
            digest = "failed"
        if keep_digests:
            digests.append(digest)
        return elapsed

    for op in itertools.islice(ops, workload.warmup):
        perform(op)

    if spec["mode"] == "traced":
        from bench.trace import Tracer, instrument, layer_metrics

        tracer = Tracer(count_cells)
        instrument(tracer)
        before = workload.probe(system)

    limit = workload.trace_ops if spec.get("fixed") else None
    deadline = None if limit is not None else time.perf_counter() + spec["seconds"]
    try:
        for op in ops:
            if limit is not None and len(latency_ns) >= limit:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
            # A counting trial traces every operation. A timing trial
            # alternates blocks of plain operations, which pass straight
            # through the wrappers, with blocks of traced ones, so the
            # tracing overhead is measured against neighbours the host
            # ran at the same speed.
            traced = tracer is not None and (
                count_cells or (len(latency_ns) // TRACE_BLOCK) % 2 == 1
            )
            latency_ns.append(perform(op, traced))
            kinds.append(op[0])
            traced_flags.append(traced)
    finally:
        if tracer is not None:
            tracer.restore()

    result = {
        "params": workload.sizes,
        "latency_ns": latency_ns,
        "kinds": kinds,
        "attempted": attempted,
        "requests_per_op": workload.requests_per_op,
        "failed": failed,
    }
    if keep_digests:
        result["digests"] = digests
    if tracer is not None:
        after = workload.probe(system)
        delta = {key: after[key] - before[key] for key in after}
        traced_kinds = [kind for kind, traced in zip(kinds, traced_flags) if traced]
        result["layers"] = layer_metrics(
            tracer, len(traced_kinds), traced_kinds.count("edit"), delta
        )
        if not count_cells:
            result["layers"]["trace.overhead_pct"] = _overhead_pct(latency_ns)
        if spec.get("trace_file"):
            tracer.write(Path(spec["trace_file"]))
    return result


def _overhead_pct(latency_ns: list[int]) -> float:
    """Median slowdown of each traced block against the plain block before it."""
    ratios = [
        statistics.median(latency_ns[start : start + TRACE_BLOCK])
        / statistics.median(latency_ns[start - TRACE_BLOCK : start])
        for start in range(TRACE_BLOCK, len(latency_ns), 2 * TRACE_BLOCK)
    ]
    return 100.0 * (statistics.median(ratios) - 1.0) if ratios else 0.0


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"bench: imported repro from {repro.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_trial(json.load(sys.stdin))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
