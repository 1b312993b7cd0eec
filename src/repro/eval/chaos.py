"""Chaos driver: availability and latency under injected faults.

Two experiment drivers back the ``repro chaos`` CLI subcommand and
``benchmarks/bench_chaos.py``:

* :func:`run_chaos` - the headline experiment. A multi-user serving
  workload (the concurrent stress-test shape: shared POI relation,
  persona profiles, a skewed 12-state query pool, profile churn) is
  replayed for several rounds, each under a distinct **seeded fault
  schedule** (:func:`chaos_schedule`): injected errors, latency and
  cache corruption at the sites planted through the stack. The run is
  performed twice with identical schedules - once with
  :class:`~repro.resilience.ResiliencePolicies` configured (requests
  degrade down the ladder) and once without (requests fail) - so the
  report shows both what the resilience layer *delivers* (availability
  per degradation level, latency percentiles) and what the same faults
  *cost* without it. Completed requests are audited after every round
  against :func:`repro.eval.oracle.reference_service`, which receives
  the round's landed edits once the faults are cleared (the service
  under test is never re-queried): ``full``/``cache_bypass``/``scan``
  answers must equal the reference exactly, ``generalized`` answers
  must equal the reference at the generalized state, ``unranked``
  answers must hold the same rows with every score zero.
* :func:`run_chaos_overhead` - the cost of the machinery when *unused*:
  the same serving workload with no fault plan installed, timed with
  resilience policies absent vs. configured as **paired rounds**
  (median of paired ratios, the ``BENCH_obs.json`` technique), bounding
  the healthy-path cost of the ladder + hooks. The two modes' rankings
  must agree exactly (:func:`repro.eval.oracle.mismatches`).
"""

from __future__ import annotations

import random
import statistics
import time

from repro.db.poi import generate_poi_relation
from repro.eval.oracle import (
    mismatches,
    population,
    ranking,
    reference_service,
    state_pool,
)
from repro.exceptions import (
    ReproError,
    RequestTimeout,
    ServiceUnavailable,
)
from repro.faults.registry import FaultSpec, fault_plan
from repro.obs.metrics import get_registry
from repro.preferences.preference import ContextualPreference
from repro.query.contextual_query import ContextualQuery
from repro.query.resilient import generalize_state
from repro.resilience import ResiliencePolicies
from repro.service.personalization import PersonalizationService
from repro.workloads.users import study_environment

__all__ = ["chaos_schedule", "run_chaos", "run_chaos_overhead"]

#: Sites the default schedule draws from, with the fault kinds that
#: make sense there. ``executor.submit`` error faults are excluded on
#: purpose: they fail a request *before* it reaches the degradation
#: ladder, so they measure the executor, not the resilience layer (the
#: shed/timeout paths have their own typed-outcome coverage).
_SCHEDULE_SITES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("cache.get", ("error", "corrupt", "latency")),
    ("cache.put", ("error",)),
    ("relation.select", ("error", "latency")),
    ("relation.index_build", ("error",)),
    ("resolution.search_cs", ("error", "latency")),
    ("executor.request", ("latency",)),
    ("service.edit", ("error",)),
)


def chaos_schedule(seed: int = 23, rounds: int = 5) -> list[list[FaultSpec]]:
    """A seeded, randomized fault schedule: one spec list per round.

    Each round draws 2-4 sites from :data:`_SCHEDULE_SITES`, one spec
    per site with a random kind, a firing probability in [0.08, 0.35]
    and (for latency faults) a 1-4 ms delay. The schedule is a pure
    function of ``seed``: building it twice yields *fresh but
    identical* :class:`FaultSpec` objects, which is how the resilient
    and resilience-disabled runs replay the same failures.
    """
    rng = random.Random(f"chaos-schedule:{seed}")
    schedule: list[list[FaultSpec]] = []
    for _ in range(rounds):
        chosen = rng.sample(list(_SCHEDULE_SITES), k=rng.randint(2, 4))
        specs = []
        for site, kinds in chosen:
            kind = rng.choice(kinds)
            specs.append(
                FaultSpec(
                    site=site,
                    kind=kind,
                    probability=round(rng.uniform(0.08, 0.35), 3),
                    delay=round(rng.uniform(0.001, 0.004), 4)
                    if kind == "latency"
                    else 0.0,
                )
            )
        schedule.append(specs)
    return schedule


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _build_service(
    num_users: int,
    num_rows: int,
    seed: int,
    resilient: bool,
) -> tuple[PersonalizationService, list[str]]:
    environment = study_environment()
    relation = generate_poi_relation(num_rows, seed=seed)
    service = PersonalizationService(
        environment,
        relation,
        cache_capacity=32,
        resilience=ResiliencePolicies() if resilient else None,
    )
    users = population(num_users)
    for user_id, persona in users:
        service.register(user_id, persona)
    return service, [user_id for user_id, _ in users]


def _merge_fired(total: dict[str, dict[str, int]], fired: dict) -> None:
    for site, kinds in fired.items():
        bucket = total.setdefault(site, {})
        for kind, count in kinds.items():
            bucket[kind] = bucket.get(kind, 0) + count


def _classify_failure(error: BaseException, failures: dict[str, int]) -> None:
    # Order matters: RequestTimeout subclasses ServiceUnavailable.
    if isinstance(error, RequestTimeout):
        failures["request_timeout"] += 1
    elif isinstance(error, ServiceUnavailable):
        failures["service_unavailable"] += 1
    else:
        failures["fault"] += 1


def _run_mode(
    resilient: bool,
    num_users: int,
    num_rows: int,
    rounds: int,
    queries_per_round: int,
    edits_per_round: int,
    concurrent_batch: int,
    max_workers: int,
    seed: int,
) -> dict[str, object]:
    """Replay the seeded chaos workload in one mode; gather the tallies.

    The request stream (which user queries which state, which profiles
    are edited) and the fault schedule are both pure functions of
    ``seed``, so the resilient and baseline runs face identical
    workloads and identical per-site fault sequences.
    """
    service, user_ids = _build_service(num_users, num_rows, seed, resilient)
    reference = reference_service(num_users, num_rows, seed)
    pool = [
        ContextualQuery.at_state(state, top_k=10)
        for state in state_pool(service.environment)
    ]
    rng = random.Random(f"chaos-requests:{seed}")
    schedule = chaos_schedule(seed=seed, rounds=rounds)

    total = 0
    completed = 0
    served: dict[str, int] = {}
    failures = {"service_unavailable": 0, "request_timeout": 0, "fault": 0}
    edit_failures = 0
    edits_applied = 0
    latencies: list[float] = []
    fired_total: dict[str, dict[str, int]] = {}
    checked = 0
    mismatched = 0

    for round_index, specs in enumerate(schedule):
        landed: list[tuple[str, ContextualPreference, float]] = []
        verifiable: list[tuple[str, ContextualQuery, str, list]] = []
        with fault_plan(specs, seed=seed * 1000 + round_index) as faults:
            # Profile churn first: edits either land atomically or are
            # rejected fail-fast by an injected ``service.edit`` fault.
            for edit in range(edits_per_round):
                user_id = user_ids[
                    (round_index * edits_per_round + edit) % len(user_ids)
                ]
                repository = service.account(user_id).repository
                preference = next(iter(repository))
                new_score = round(
                    0.1 + ((preference.score * 100 + 7 * (round_index + 1)) % 90) / 100,
                    2,
                )
                try:
                    service.update_preference(user_id, preference, new_score)
                    edits_applied += 1
                    landed.append((user_id, preference, new_score))
                except ReproError:
                    edit_failures += 1

            # Sequential phase: per-request latency is measured here.
            for _ in range(queries_per_round):
                user_id = rng.choice(user_ids)
                query = rng.choice(pool)
                total += 1
                start = time.perf_counter()
                try:
                    result = service.query(user_id, query)
                except ReproError as error:
                    _classify_failure(error, failures)
                else:
                    latencies.append(time.perf_counter() - start)
                    completed += 1
                    level = result.degradation
                    served[level] = served.get(level, 0) + 1
                    verifiable.append(
                        (user_id, query, level, ranking(result.results))
                    )

            # Concurrent phase: the same faults under a thread pool
            # (exercises the executor.request site and batch outcomes).
            batch = [
                (rng.choice(user_ids), rng.choice(pool))
                for _ in range(concurrent_batch)
            ]
            total += len(batch)
            outcomes = service.query_many(batch, max_workers=max_workers)
            for outcome in outcomes:
                if outcome.status == "ok":
                    completed += 1
                    level = outcome.result.degradation
                    served[level] = served.get(level, 0) + 1
                elif outcome.error is not None:
                    _classify_failure(outcome.error, failures)
                else:
                    failures["fault"] += 1
            _merge_fired(fired_total, faults.counts())

        # Faults are cleared, so the reference can take the round's
        # landed edits (inside the plan a ``service.edit`` fault would
        # fire on it too) and audit every completed sequential answer.
        for user_id, preference, new_score in landed:
            reference.update_preference(user_id, preference, new_score)
        expected = []
        for user_id, query, level, answer in verifiable:
            if level == "unranked":
                # The same rows, every score dropped to zero.
                expected.append([(pid, 0.0) for pid, _ in answer])
                continue
            state = query.current_state
            if level == "generalized":
                state = generalize_state(state)
            expected.append(
                ranking(reference.query_at(user_id, state, query.top_k).results)
            )
        checked += len(verifiable)
        mismatched += mismatches(
            expected, [answer for _, _, _, answer in verifiable]
        )
    reference.close()

    return {
        "requests": total,
        "completed": completed,
        "availability": completed / total if total else 0.0,
        "served_by_level": dict(sorted(served.items())),
        "failures": failures,
        "edits_applied": edits_applied,
        "edit_failures": edit_failures,
        "latency_ms": {
            "p50": _percentile(latencies, 0.50) * 1000.0,
            "p99": _percentile(latencies, 0.99) * 1000.0,
            "max": max(latencies, default=0.0) * 1000.0,
        },
        "faults_fired": dict(sorted(fired_total.items())),
        "correctness": {"checked": checked, "mismatches": mismatched},
    }


def run_chaos(
    num_users: int = 6,
    num_rows: int = 400,
    rounds: int = 5,
    queries_per_round: int = 40,
    edits_per_round: int = 4,
    concurrent_batch: int = 16,
    max_workers: int = 4,
    seed: int = 23,
    with_baseline: bool = True,
) -> dict[str, object]:
    """The chaos experiment: same fault schedule, with and without
    the resilience layer.

    Returns ``{"workload": ..., "schedule": ..., "resilient": ...,
    "baseline": ..., "baseline_demonstrably_fails": ...}`` where the
    two mode reports carry availability, per-degradation-level serve
    counts, latency percentiles, fault accounting and the post-round
    correctness audit. ``baseline_demonstrably_fails`` is True when the
    unprotected run failed requests the resilient run served.
    """
    registry = get_registry()
    was_enabled = registry.enabled
    registry.reset()
    registry.enable()
    try:
        resilient = _run_mode(
            True,
            num_users,
            num_rows,
            rounds,
            queries_per_round,
            edits_per_round,
            concurrent_batch,
            max_workers,
            seed,
        )
        baseline: dict[str, object] | None = None
        if with_baseline:
            baseline = _run_mode(
                False,
                num_users,
                num_rows,
                rounds,
                queries_per_round,
                edits_per_round,
                concurrent_batch,
                max_workers,
                seed,
            )
        snapshot = registry.snapshot()
    finally:
        if not was_enabled:
            registry.disable()

    schedule = chaos_schedule(seed=seed, rounds=rounds)
    report: dict[str, object] = {
        "workload": {
            "num_users": num_users,
            "num_rows": num_rows,
            "rounds": rounds,
            "queries_per_round": queries_per_round,
            "edits_per_round": edits_per_round,
            "concurrent_batch": concurrent_batch,
            "max_workers": max_workers,
            "seed": seed,
        },
        "schedule": [
            [
                {
                    "site": spec.site,
                    "kind": spec.kind,
                    "probability": spec.probability,
                    "delay": spec.delay,
                }
                for spec in specs
            ]
            for specs in schedule
        ],
        "resilient": resilient,
        "resilience_counters": {
            name: series
            for name, series in snapshot.get("counters", {}).items()
            if name.startswith(("resilience.", "faults.", "service.shed",
                                "service.timeouts"))
        },
    }
    if baseline is not None:
        report["baseline"] = baseline
        baseline_failed = sum(baseline["failures"].values())
        report["baseline_demonstrably_fails"] = bool(
            baseline_failed > 0
            and resilient["availability"] > baseline["availability"]
        )
    return report


def run_chaos_overhead(
    num_users: int = 4,
    num_rows: int = 1500,
    num_queries: int = 40,
    seed: int = 13,
    repeats: int = 9,
) -> dict[str, object]:
    """Healthy-path cost of the fault hooks + resilience layer.

    No fault plan is installed and the metrics registry is left
    disabled, so both timed modes pay the hooks' single
    ``enabled``-check branch. The paired comparison is resilience
    policies *absent* (the plain executor path) vs. *configured* (every
    query walks through the degradation ladder's ``full`` level): each
    of ``repeats`` rounds times both modes back to back and contributes
    one ratio; the reported overhead is the **median of paired
    ratios**, which cancels machine-phase noise the way the
    ``BENCH_obs.json`` methodology does. The two modes' rankings must
    agree exactly (``identical_output``). Caching is disabled so every
    query pays full resolution + ranking - the worst case for relative
    overhead.
    """
    environment = study_environment()
    relation = generate_poi_relation(num_rows, seed=seed)
    users = population(num_users)
    services = {}
    for mode, policies in (
        ("plain", None),
        ("resilient", ResiliencePolicies()),
    ):
        service = PersonalizationService(
            environment, relation, cache_capacity=None, resilience=policies
        )
        for user_id, persona in users:
            service.register(user_id, persona)
        services[mode] = service

    pool = [
        ContextualQuery.at_state(state, top_k=10)
        for state in state_pool(environment)
    ]
    requests = [
        (users[index % len(users)][0], pool[index % len(pool)])
        for index in range(num_queries)
    ]

    def run_once(service: PersonalizationService) -> list[list]:
        return [
            ranking(service.query(user_id, query).results)
            for user_id, query in requests
        ]

    # Warm-up outside the timed rounds (lazy executors, auto-indexes).
    for service in services.values():
        run_once(service)

    times: dict[str, list[float]] = {"plain": [], "resilient": []}
    outputs: dict[str, list[list]] = {"plain": [], "resilient": []}
    for _ in range(repeats):
        for mode, service in services.items():
            start = time.perf_counter()
            outputs[mode] = run_once(service)
            times[mode].append(time.perf_counter() - start)

    ratios = [
        resilient_time / plain_time
        for plain_time, resilient_time in zip(times["plain"], times["resilient"])
        if plain_time > 0
    ]
    overhead_ratio = statistics.median(ratios) if ratios else float("inf")
    return {
        "workload": {
            "num_users": num_users,
            "num_rows": num_rows,
            "num_queries": num_queries,
            "seed": seed,
            "repeats": repeats,
        },
        "plain_seconds": _percentile(times["plain"], 0.5),
        "resilient_seconds": _percentile(times["resilient"], 0.5),
        "overhead_ratio": overhead_ratio,
        "overhead_pct": (overhead_ratio - 1.0) * 100.0,
        "identical_output": (
            mismatches(outputs["plain"], outputs["resilient"]) == 0
        ),
    }
