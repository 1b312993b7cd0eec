"""Durability and paging at scale (the persistence run).

Two measurements back this PR's acceptance bar:

* **Kill/restart recovery** (``repro.eval.persistence.run_kill_restart``)
  - a durable service is crashed and restarted between rounds of a
  seeded edit/query workload (with torn WAL tails and injected
  ``storage.append`` failures); after every restart, 100% of profiles
  must be recovered and every user's rankings must equal a reference
  service that never crashed.
* **Million-user paging** (``repro.eval.persistence.run_paging_bench``)
  - >= 1,000,000 users are bulk-registered cold through the WAL, then
  a zipf workload whose working set far exceeds ``hydrated_budget``
  drives hydration/eviction; the peak hydrated-account count must stay
  within the budget, and a timed cold recovery must find every user.

Measured numbers are written to ``BENCH_persistence.json`` at the
repository root (full runs only; ``--smoke`` shrinks the population to
CI scale and skips the baseline write).
"""

import json
from pathlib import Path

from repro.eval import format_table, run_kill_restart, run_paging_bench

PERSISTENCE_REPORT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_persistence.json"
)


def test_kill_restart_recovery(benchmark, once, smoke):
    kwargs = (
        dict(num_users=5, num_rows=120, rounds=3, edits_per_round=4,
             queries_per_round=8)
        if smoke
        else dict(num_users=8, num_rows=300, rounds=5, edits_per_round=6,
                  queries_per_round=24)
    )

    report = once(benchmark, run_kill_restart, seed=29, **kwargs)
    rows = [
        ["restarts", report["restarts"]],
        ["torn tails repaired", report["torn_tails_repaired"]],
        [
            "edits applied / rejected",
            f"{report['edits_applied']} / {report['edits_rejected']}",
        ],
        ["recovery rate", f"{report['recovery_rate']:.2%}"],
        [
            "ranking audit",
            f"{report['ranking_mismatches']} mismatches / "
            f"{report['ranking_checks']} checked",
        ],
    ]
    print()
    print(
        format_table(
            ["metric", "value"],
            rows,
            title="Persistence: kill/restart recovery vs never-crashed reference",
        )
    )
    assert report["restarts"] >= 1, "schedule never crashed"
    assert report["recovery_rate"] == 1.0, (
        f"lost profiles across restarts (rate {report['recovery_rate']:.2%})"
    )
    assert report["ranking_mismatches"] == 0, (
        f"{report['ranking_mismatches']} recovered rankings diverged from "
        "the never-crashed reference"
    )
    assert report["identical_after_recovery"]
    global _KILL_RESTART_REPORT
    _KILL_RESTART_REPORT = report


_KILL_RESTART_REPORT: dict | None = None


def test_million_user_paging(benchmark, once, smoke):
    kwargs = (
        dict(num_users=20_000, hydrated_budget=32, num_queries=200,
             register_batch=5_000)
        if smoke
        else dict(num_users=1_000_000, hydrated_budget=256, num_queries=2_000,
                  register_batch=20_000)
    )
    report = once(benchmark, run_paging_bench, seed=31, **kwargs)
    paging = report["paging"]
    recovery = report["recovery"]
    rows = [
        ["registered users", report["registration"]["users"]],
        [
            "registration",
            f"{report['registration']['seconds']:.1f} s "
            f"({report['registration']['users_per_second']:.0f} users/s)",
        ],
        ["queries", f"{report['queries']['count']} "
                    f"({report['queries']['qps']:.0f} q/s)"],
        ["profiles edited", report["queries"]["edits"]],
        [
            "peak hydrated / budget",
            f"{paging['peak_hydrated']} / {paging['hydrated_budget']}",
        ],
        ["hydrations / evictions",
         f"{paging['hydrations']} / {paging['evictions']}"],
        ["snapshot", f"{report['snapshot']['seconds']:.1f} s "
                     f"(lsn {report['snapshot']['covered_lsn']})"],
        [
            "cold recovery",
            f"{recovery['seconds']:.1f} s, {recovery['users']} users, "
            f"{recovery['overrides']} overrides",
        ],
    ]
    print()
    print(
        format_table(
            ["metric", "value"],
            rows,
            title="Persistence: paged users under an LRU hydration budget",
        )
    )
    assert paging["within_budget"], (
        f"peak hydrated {paging['peak_hydrated']} exceeded the budget "
        f"{paging['hydrated_budget']}"
    )
    assert paging["evictions"] > 0, (
        "the workload never evicted - the working set must exceed the budget"
    )
    assert recovery["complete"], (
        f"cold recovery found {recovery['users']} of "
        f"{report['workload']['num_users']} users"
    )
    if not smoke:
        assert report["workload"]["num_users"] >= 1_000_000
        combined = {
            "kill_restart": _KILL_RESTART_REPORT,
            "paging": report,
        }
        PERSISTENCE_REPORT_PATH.write_text(
            json.dumps(combined, indent=2) + "\n"
        )
