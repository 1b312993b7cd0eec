"""Distributed chaos: the sharded tier under seeded network faults.

Replays the seeded round schedule of
``repro.eval.chaos_sharded.run_chaos_sharded`` - wire corruption,
duplicated and dropped frames, a partition-then-heal window, a real
worker kill mixed with wire faults, and a drain-during-load round -
through the shard router, and asserts the acceptance bar: the run
answers >= 99% of requests with rankings byte-identical to a
never-faulted twin, no reply is lost or double-served in any round, and
at least one edit falls back to the WAL during the partition. Measured
numbers are written to ``BENCH_chaos_sharded.json`` at the repository
root (full runs only).
"""

import json
from pathlib import Path

from repro.eval import format_table, run_chaos_sharded

REPORT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_chaos_sharded.json"
)


def test_chaos_sharded_availability(benchmark, once, smoke):
    kwargs = (
        dict(num_users=6, num_rows=150, queries_per_round=12,
             edits_per_round=3)
        if smoke
        else dict(num_users=8, num_rows=300, queries_per_round=24,
                  edits_per_round=4)
    )
    report = once(
        benchmark, run_chaos_sharded, num_workers=2, seed=11, **kwargs
    )
    hardened = report["hardened"]
    rows = [
        ["requests (queries + edits)", hardened["requests"]],
        ["availability", f"{hardened['availability']:.2%}"],
        ["identical rankings", "yes" if hardened["identical_output"] else "NO"],
        ["lost replies", hardened["lost_replies"]],
        ["double-served replies", hardened["duplicate_replies"]],
        [
            "edits via forward/wal/resync",
            " / ".join(
                str(hardened["applied_via"].get(key, 0))
                for key in ("forward", "wal", "resync")
            ),
        ],
        ["conn failures / reconnects",
         f"{hardened['router']['conn_failures']} / "
         f"{hardened['router']['reconnects']}"],
        ["hedged requests", hardened["router"]["hedged_requests"]],
        ["worker deaths / drains",
         f"{hardened['router']['worker_deaths']} / "
         f"{hardened['router']['drains']}"],
    ]
    print()
    print(
        format_table(
            ["metric", "value"],
            rows,
            title="Sharded chaos: network faults vs the shard router",
        )
    )

    round_names = [row["name"] for row in hardened["rounds"]]
    assert "partition_heal" in round_names and "drain" in round_names
    for row in hardened["rounds"]:
        assert row["lost_replies"] == 0, f"lost replies in {row['name']}"
        assert row["double_served"] == 0, (
            f"double-served replies in {row['name']}"
        )
        assert row["identical"], (
            f"round {row['name']} diverged from the never-faulted twin"
        )
    assert hardened["identical_output"], (
        "a faulted round returned rankings different from the twin"
    )
    assert hardened["availability"] >= 0.99, (
        f"availability {hardened['availability']:.2%} < 99%"
    )
    assert hardened["applied_via"].get("wal", 0) >= 1, (
        "no edit exercised the WAL fallback during the partition window"
    )
    if not smoke:
        REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
