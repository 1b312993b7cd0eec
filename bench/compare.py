"""Compare two sets of benchmark reports, metric by metric.

Usage::

    python3 bench/compare.py --before A1.json A2.json ... --after B1.json B2.json ...

Each file is a report written by ``bench/run.py``. For every workload
and end-to-end metric the comparison prints each side's median and
quartiles, the share of (before, after) pairs the after side wins
(ties count for neither) and a verdict:

* ``WORSE`` - the after median is worse than the before median by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` - the before side's own spread (distance between its
  quartiles, as a share of its median) is wider than the bound, unless
  every after run is better than every before run;
* ``better`` - the after side wins at least nine tenths of the pairs and
  the medians differ by more than the before side's quartile distance;
* ``same`` otherwise.

A side of one report uses the spread recorded in it: per block for
timings, per trial for set-up and memory. Exact per-layer counts are
compared by equality between reports of the same seed (``DIFFERENT``
when they differ); per-layer times have no bound and are printed for
reference. The exit status is 1 when any metric is ``WORSE`` or any
exact count ``DIFFERENT``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if sys.path and Path(sys.path[0]).resolve() == ROOT / "bench":
    sys.path[0] = str(ROOT)

from bench.metrics import declared, is_exact, relative_iqr, spread  # noqa: E402


def _entries(reports: list[dict], workload: str, section: str, metric: str) -> list[tuple]:
    """``(seed, reported entry)`` of one metric in each report that has it."""
    return [
        (report["seed"], report["workloads"][workload][section][metric])
        for report in reports
        if metric in report["workloads"].get(workload, {}).get(section, {})
    ]


def side(entries: list[dict]) -> dict:
    """Median, quartiles and values of one side."""
    values = [entry["value"] for entry in entries]
    summary = spread(values)
    if len(values) == 1 and "spread" in entries[0]:
        summary.update(q1=entries[0]["spread"]["q1"], q3=entries[0]["spread"]["q3"])
    summary["values"] = values
    return summary


def pairs_won(before: list[float], after: list[float], better: str) -> float:
    """Share of (before, after) pairs in which after is better."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a in before for b in after if sign * (b - a) > 0)
    return wins / (len(before) * len(after))


def verdict(before: dict, after: dict, better: str, bound: float) -> str:
    """The comparison rule of the module docstring for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (after["median"] - before["median"])
    all_better = all(
        sign * (b - a) > 0 for a in before["values"] for b in after["values"]
    )
    if -change > bound * abs(before["median"]):
        return "WORSE"
    if relative_iqr(before) > bound and not all_better:
        return "unresolved"
    won = pairs_won(before["values"], after["values"], better)
    if won >= 0.9 and abs(change) > before["q3"] - before["q1"] and change > 0:
        return "better"
    return "same"


def compare(before: list[dict], after: list[dict]) -> tuple[list[list[str]], bool]:
    """Rows of the comparison table and whether it found a regression."""
    workloads = [name for name in before[0]["workloads"] if name in after[0]["workloads"]]
    rows: list[list[str]] = []
    regressed = False
    for workload in workloads:
        for section, key in (("end_to_end", "metrics"), ("per_layer", "layers")):
            for metric, declaration in declared(section).items():
                old = _entries(before, workload, key, metric)
                new = _entries(after, workload, key, metric)
                if not old or not new:
                    continue
                old_side = side([entry for _, entry in old])
                new_side = side([entry for _, entry in new])
                same_seed = [a["value"] == b["value"]
                             for seed_a, a in old for seed_b, b in new if seed_a == seed_b]
                if "bound" in declaration:
                    result = verdict(old_side, new_side, declaration["better"],
                                     declaration["bound"])
                elif is_exact(declaration) and same_seed:
                    result = "same" if all(same_seed) else "DIFFERENT"
                else:
                    result = "-"
                regressed |= result in ("WORSE", "DIFFERENT")
                won = pairs_won(old_side["values"], new_side["values"], declaration["better"])
                rows.append(_row(workload, metric, declaration["unit"], old_side, new_side,
                                 won, result))
    return rows, regressed


def _row(workload, metric, unit, old, new, won, result) -> list[str]:
    change = (new["median"] / old["median"] - 1.0) * 100.0 if old["median"] else 0.0
    return [
        workload,
        metric,
        unit,
        f"{old['median']:.6g} [{old['q1']:.4g}, {old['q3']:.4g}]",
        f"{new['median']:.6g} [{new['q1']:.4g}, {new['q3']:.4g}]",
        f"{change:+.1f}%",
        f"{won:.2f}",
        result,
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", nargs="+", required=True, help="reports of the base")
    parser.add_argument("--after", nargs="+", required=True, help="reports of the change")
    args = parser.parse_args(argv)
    before = [json.loads(Path(path).read_text(encoding="utf-8")) for path in args.before]
    after = [json.loads(Path(path).read_text(encoding="utf-8")) for path in args.after]
    rows, regressed = compare(before, after)
    header = ["workload", "metric", "unit", "before median [q1, q3]",
              "after median [q1, q3]", "change", "won", "verdict"]
    widths = [max(len(str(row[i])) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
