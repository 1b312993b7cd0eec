"""Cost of the observability layer on the ranking hot path.

Runs the ``BENCH_rank.json`` indexed+batched workload with the metrics
registry disabled and enabled (median of paired rounds) and bounds the
layer's cost: enabled must stay within 5% of disabled, and within 5%
of the checked-in baseline's ``indexed_seconds`` (recorded before the
layer existed). Measured numbers are written to ``BENCH_obs.json`` at
the repository root.

Under ``--smoke`` the workload shrinks to CI scale: the identical-output
check still runs, but the two overhead assertions and the
``BENCH_rank.json`` comparison are skipped and the checked-in report is
left untouched.
"""

import json
from pathlib import Path

from repro.eval import format_table, run_obs_overhead

RANK_BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_rank.json"
OBS_REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def test_obs_overhead(benchmark, once, smoke):
    baseline = None
    if smoke:
        report = once(benchmark, run_obs_overhead, num_rows=2000, repeats=3)
    else:
        if RANK_BASELINE_PATH.exists():
            baseline = json.loads(RANK_BASELINE_PATH.read_text())["indexed_seconds"]
        report = once(benchmark, run_obs_overhead, baseline_indexed_seconds=baseline)
        OBS_REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    rows = [
        ["disabled (s)", f"{report['disabled_seconds']:.4f}"],
        ["enabled (s)", f"{report['enabled_seconds']:.4f}"],
        ["enabled vs disabled", f"{report['overhead_pct']:+.2f}%"],
    ]
    if baseline is not None:
        rows += [
            ["baseline indexed (s)", f"{baseline:.4f}"],
            ["disabled vs baseline", f"{report['disabled_vs_baseline_pct']:+.2f}%"],
            ["enabled vs baseline", f"{report['enabled_vs_baseline_pct']:+.2f}%"],
        ]
    print()
    print(
        format_table(
            ["metric", "value"],
            rows,
            title="Observability overhead on the Rank_CS hot path",
        )
    )
    assert report["identical_output"], "metrics layer changed the ranking"
    if smoke:
        return
    assert report["overhead_pct"] < 5.0, (
        f"enabled metrics cost {report['overhead_pct']:.2f}% > 5% over disabled"
    )
    if baseline is not None:
        assert report["enabled_vs_baseline_pct"] < 5.0, (
            f"enabled metrics cost {report['enabled_vs_baseline_pct']:.2f}% > 5% "
            "over the checked-in BENCH_rank.json baseline"
        )
