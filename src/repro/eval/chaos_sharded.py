"""Distributed chaos driver: seeded network faults vs. the shard router.

The single-process chaos harness (:mod:`repro.eval.chaos`) asks whether
the *service* survives injected faults; this one asks whether the
*sharded tier* does when the failures live on the wire. A seeded
schedule of rounds mixes the transport fault sites of
:mod:`repro.faults` (``conn.send``, ``conn.recv``, ``conn.connect``,
``net.partition``) with real worker kills and planned drains, and after
every round three audits must hold:

* **Exactly-once.** Every request gets exactly one reply - no rid is
  answered twice, none is lost - even though frames were duplicated,
  dropped and retried; the workers' rid-dedup LRU plus the router's
  rid-echo discipline carry the proof.
* **Identical rankings.** Every ``ok`` reply's ranking equals
  :func:`repro.eval.oracle.reference_service` after the same edits
  (compared by :func:`repro.eval.oracle.mismatches`), so chaos changes
  *when and where* a query ran, never *what* it returned.
* **Durability through partitions.** Edits applied while the owner was
  unreachable land in the WAL (``applied_via: "wal"``) and are visible
  once the link heals.

Round schedule (all fault draws seeded, so runs are reproducible):

1. ``warmup`` - no faults; establishes the clean path.
2. ``wire_chaos`` - corrupted + duplicated sends, one dropped reply.
3. ``truncate_reset`` - mid-frame EOF on send, connection reset on
   receive.
4. ``partition_heal`` - the link blackholes (``net.partition``) while
   reconnects are refused (``conn.connect``); edits routed during the
   window must fall back to the WAL, queries hedge or wait for the
   heal.
5. ``kill_wire`` - a real worker kill in the middle of wire faults
   (the crash-vs-partition classifier has to get both right at once).
6. ``drain`` - ``drain_worker`` mid-batch: planned hand-off under
   load, no faults, no lost or duplicated replies allowed.

CLI front-end: ``python -m repro chaos --sharded``; regression
benchmark: ``benchmarks/bench_chaos_sharded.py`` writing
``BENCH_chaos_sharded.json``.
"""

from __future__ import annotations

import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.context.state import ContextState
from repro.eval.oracle import (
    mismatches,
    population,
    reference_service,
    state_pool,
)
from repro.exceptions import ShardError
from repro.faults.registry import FaultSpec, fault_plan
from repro.io.serialize import preference_to_dict
from repro.service.personalization import PersonalizationService
from repro.sharding.router import ShardRouter
from repro.sharding.worker import ranking_pairs
from repro.workloads.users import study_environment

__all__ = ["chaos_sharded_schedule", "run_chaos_sharded"]

_TOP_K = 10


@dataclass
class _Round:
    """One scheduled chaos round: a name, its faults, optional drain."""

    name: str
    faults: list[FaultSpec] = field(default_factory=list)
    drain: bool = False


def chaos_sharded_schedule() -> list[_Round]:
    """The fixed round schedule (fault *draws* are seeded separately)."""
    return [
        _Round("warmup"),
        _Round(
            "wire_chaos",
            faults=[
                FaultSpec(site="conn.send", kind="corrupt", max_fires=2),
                FaultSpec(site="conn.send", kind="duplicate", max_fires=2),
                FaultSpec(site="conn.recv", kind="drop", max_fires=1),
            ],
        ),
        _Round(
            "truncate_reset",
            faults=[
                FaultSpec(site="conn.send", kind="truncate", max_fires=1),
                FaultSpec(site="conn.recv", kind="reset", max_fires=1),
            ],
        ),
        _Round(
            "partition_heal",
            faults=[
                FaultSpec(site="net.partition", kind="reset", max_fires=6),
                FaultSpec(site="conn.connect", kind="reset", max_fires=4),
            ],
        ),
        _Round(
            "kill_wire",
            faults=[
                FaultSpec(site="worker.kill", kind="error", max_fires=1),
                FaultSpec(site="conn.send", kind="corrupt", max_fires=1),
            ],
        ),
        _Round("drain", drain=True),
    ]


def _round_requests(
    rng: random.Random, pool, num_users: int, count: int
) -> list[tuple[str, ContextState, int]]:
    return [
        (f"user{rng.randrange(num_users)}", rng.choice(pool), _TOP_K)
        for _ in range(count)
    ]


def _round_edits(
    twin: PersonalizationService,
    rng: random.Random,
    num_users: int,
    count: int,
) -> list[dict]:
    """Build ``count`` score-update records and apply them to the twin.

    The twin is mutated here, *before* the router sees the records, so
    the reference rankings computed afterwards already include every
    edit of the round - the router must converge to the same state no
    matter which path (direct, WAL fallback, resync) applied them.
    """
    records: list[dict] = []
    for _ in range(count):
        user_id = f"user{rng.randrange(num_users)}"
        preferences = sorted(
            twin.account(user_id).repository, key=repr
        )
        preference = preferences[rng.randrange(len(preferences))]
        score = round(rng.random(), 4)
        twin.update_preference(user_id, preference, score)
        records.append(
            {
                "op": "update",
                "user": user_id,
                "preference": preference_to_dict(preference),
                "score": score,
            }
        )
    return records


def _repair_ring(router: ShardRouter, num_workers: int) -> list[str]:
    """Respawn every worker missing from the ring (between rounds)."""
    respawned = []
    for index in range(num_workers):
        name = f"w{index}"
        if name not in router.workers:
            router.respawn_worker(name)
            respawned.append(name)
    return respawned


def _router_counters(router: ShardRouter) -> dict[str, int]:
    return {
        "worker_deaths": router.worker_deaths,
        "rebalances": router.rebalances,
        "retried_requests": router.retried_requests,
        "hedged_requests": router.hedged_requests,
        "conn_failures": router.conn_failures,
        "reconnects": router.reconnects,
        "drains": router.drains,
    }


def _run_schedule(
    num_users: int,
    num_rows: int,
    num_workers: int,
    queries_per_round: int,
    edits_per_round: int,
    cache_capacity: int | None,
    seed: int,
    wal_root: str | Path | None,
) -> dict[str, object]:
    """Play the full schedule through one router and audit every round.

    Requests, edit records (derived from the never-faulted reference
    twin) and fault draws are all seeded, so a rerun replays the same
    schedule.
    """
    pool = state_pool(study_environment(), wide=True)
    twin = reference_service(num_users, num_rows, seed)
    rounds_report: list[dict[str, object]] = []
    total_requests = total_ok = 0
    total_lost = total_double = total_dedup = 0
    identical = True
    applied_via: dict[str, int] = {}

    with tempfile.TemporaryDirectory(dir=wal_root) as shard_wal:
        router = ShardRouter(
            num_workers,
            wal_root=shard_wal,
            num_rows=num_rows,
            data_seed=seed,
            cache_capacity=cache_capacity,
            worker_threads=1,
            max_retries=8,
            reconnect_attempts=2,
            reconnect_backoff=0.01,
            retry_backoff=0.01,
        )
        try:
            router.start()
            router.register_many(population(num_users))
            before = _router_counters(router)
            for number, round_spec in enumerate(chaos_sharded_schedule()):
                rng = random.Random(f"{seed}:{number}:{round_spec.name}")
                requests = _round_requests(
                    rng, pool, num_users, queries_per_round
                )
                edits = _round_edits(twin, rng, num_users, edits_per_round)
                reference = [
                    ranking_pairs(twin.query_at(user_id, state, top_k=top_k))
                    for user_id, state, top_k in requests
                ]
                row = _play_round(
                    router, round_spec, requests, edits, reference, seed
                )
                for via, count in row.pop("applied_via").items():
                    applied_via[via] = applied_via.get(via, 0) + count
                after = _router_counters(router)
                row["router"] = {
                    key: after[key] - before[key] for key in after
                }
                before = after
                row["respawned"] = _repair_ring(router, num_workers)
                rounds_report.append(row)
                total_requests += row["requests"] + row["edits"]
                total_ok += row["ok_replies"] + row["ok_edits"]
                total_lost += row["lost_replies"]
                total_double += row["double_served"]
                total_dedup += row["dedup_replies"]
                identical = identical and row["identical"]
            stats = router.stats()
        finally:
            router.close()
    twin.close()

    availability = total_ok / total_requests if total_requests else 1.0
    return {
        "rounds": rounds_report,
        "requests": total_requests,
        "ok": total_ok,
        "availability": availability,
        "identical_output": identical,
        "lost_replies": total_lost,
        "duplicate_replies": total_double,
        "dedup_replies": total_dedup,
        "applied_via": applied_via,
        "router": {
            key: stats[key]
            for key in (
                "worker_deaths",
                "rebalances",
                "retried_requests",
                "hedged_requests",
                "conn_failures",
                "reconnects",
                "drains",
            )
        },
    }


def _play_round(
    router: ShardRouter,
    round_spec: _Round,
    requests: list[tuple[str, ContextState, int]],
    edits: list[dict],
    reference: list[list],
    seed: int,
) -> dict[str, object]:
    """Run one round under its fault plan and audit the replies."""
    ok_edits = failed_edits = 0
    applied_via: dict[str, int] = {}
    replies: list[dict] = []
    aborted = None
    started = time.perf_counter()
    with fault_plan(round_spec.faults, seed=seed):
        try:
            for record in edits:
                reply = router.apply_edit(record)
                if reply.get("ok"):
                    ok_edits += 1
                    via = reply.get("applied_via", "direct")
                    applied_via[via] = applied_via.get(via, 0) + 1
                else:
                    failed_edits += 1
            if round_spec.drain:
                half = len(requests) // 2
                replies = list(router.query_many(requests[:half]))
                drained = router.workers[0]
                router.drain_worker(drained)
                replies += router.query_many(requests[half:])
            else:
                replies = list(router.query_many(requests))
        except ShardError as error:
            # Only a dead ring (or a rejected edit) raises out of the
            # round; every request without a reply counts against
            # availability.
            aborted = str(error)
    elapsed = time.perf_counter() - started

    rids = [reply.get("rid") for reply in replies]
    ok_replies = sum(1 for reply in replies if reply.get("ok"))
    answered: dict[object, int] = {}
    for rid in rids:
        answered[rid] = answered.get(rid, 0) + 1
    double_served = sum(count - 1 for count in answered.values())
    identical = mismatches(
        reference,
        [reply.get("ranking") if reply.get("ok") else None for reply in replies],
    ) == 0
    return {
        "name": round_spec.name,
        "faults": [
            {"site": spec.site, "kind": spec.kind, "fires": spec.fires}
            for spec in round_spec.faults
        ],
        "seconds": elapsed,
        "requests": len(requests),
        "edits": len(edits),
        "ok_replies": ok_replies,
        "ok_edits": ok_edits,
        "failed_edits": failed_edits,
        "lost_replies": len(requests) - len(replies),
        "double_served": double_served,
        "dedup_replies": sum(
            1 for reply in replies if reply.get("duplicate")
        ),
        "identical": identical,
        "applied_via": applied_via,
        "aborted": aborted,
    }


def run_chaos_sharded(
    num_users: int = 8,
    num_rows: int = 300,
    num_workers: int = 2,
    queries_per_round: int = 24,
    edits_per_round: int = 4,
    cache_capacity: int | None = 64,
    seed: int = 11,
    wal_root: str | Path | None = None,
) -> dict[str, object]:
    """Play the chaos schedule through the shard router.

    Returns a JSON-ready report: the workload, and under ``hardened``
    the per-round audits, availability and router counters of the run
    (the key name is kept for the layout of
    ``BENCH_chaos_sharded.json``). The run is expected to hold
    ``availability >= 0.99``, ``identical_output`` and zero
    lost/double-served replies.
    """
    run = _run_schedule(
        num_users,
        num_rows,
        num_workers,
        queries_per_round,
        edits_per_round,
        cache_capacity,
        seed,
        wal_root,
    )
    return {
        "workload": {
            "num_users": num_users,
            "num_rows": num_rows,
            "num_workers": num_workers,
            "rounds": [
                round_spec.name for round_spec in chaos_sharded_schedule()
            ],
            "queries_per_round": queries_per_round,
            "edits_per_round": edits_per_round,
            "cache_capacity": cache_capacity,
            "seed": seed,
            "top_k": _TOP_K,
        },
        "hardened": run,
    }
