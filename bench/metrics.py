"""Metric declarations and the summary statistics every report uses.

``BENCHMARK.json`` at the repository root is the single declaration of
the metrics: names, units, direction and, for end-to-end metrics, the
bound by which a change may worsen them. Per-layer metrics whose unit
is a count, a ratio or a byte size are exact: for a fixed seed the
program does the same work, so they must repeat exactly.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

#: Units of per-layer metrics that are deterministic for a fixed seed.
EXACT_UNITS = frozenset({"count", "ratio", "bytes"})


def load_spec() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(section: str) -> dict[str, dict]:
    """``{name: declaration}`` for ``end_to_end`` or ``per_layer``."""
    return {entry["name"]: entry for entry in load_spec()[section]}


def is_exact(declaration: dict) -> bool:
    """Whether a per-layer metric must repeat exactly for a fixed seed."""
    return declaration["unit"] in EXACT_UNITS


#: Operations per block of a trial: a block's p95 has ten samples beyond it.
BLOCK_OPS = 200


def percentiles_ms(latencies_ns: list[int]) -> tuple[float, float]:
    """p50 and p95 of some latencies, in milliseconds."""
    p50, p95 = np.percentile(np.asarray(latencies_ns, dtype=float), [50, 95])
    return float(p50) / 1e6, float(p95) / 1e6


def block_stats(latencies_ns: list[int], requests_per_op: int) -> dict[str, list[float]]:
    """Per-block p50 and p95 latency (ms) and throughput (requests/s).

    The timed operations of a trial are cut into consecutive blocks of
    at least :data:`BLOCK_OPS`, in the order they ran; a shorter trial
    is one block.
    """
    values = np.asarray(latencies_ns, dtype=float)
    blocks = np.array_split(values, max(1, len(values) // BLOCK_OPS))
    return {
        "latency_p50_ms": [float(np.percentile(block, 50)) / 1e6 for block in blocks],
        "latency_p95_ms": [float(np.percentile(block, 95)) / 1e6 for block in blocks],
        "throughput_ops": [requests_per_op * len(block) * 1e9 / float(block.sum())
                           for block in blocks],
    }


def best_quartile(values: list[float], better: str) -> float:
    """The quartile of ``values`` on the better side of the median.

    Shared hosts alternate between a normal speed and a slower one for
    seconds at a time; the better quartile of many short blocks reads
    the program at the normal speed, while a change in the program
    moves every block alike.
    """
    summary = spread(values)
    return summary["q1"] if better == "lower" else summary["q3"]


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles and extremes of some values (blocks, trials or runs).

    Quartiles are ``statistics.quantiles(values, n=4)``, so a report's
    spread matches the rule the benchmark is accepted by.
    """
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "min": values[0],
        "q1": q1,
        "q3": q3,
        "max": values[-1],
    }


def relative_iqr(summary: dict[str, float]) -> float:
    """Distance between the quartiles as a share of the median."""
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / abs(median) if median else 0.0
