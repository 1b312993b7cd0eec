"""Observability drivers: scripted serving workload + overhead bound.

Two experiment drivers back the ``repro stats`` CLI subcommand and
``benchmarks/bench_obs_overhead.py``:

* :func:`run_scripted_workload` - a deterministic multi-user
  personalization session (registrations, cached queries over a skewed
  state pool, edits, an export/import round-trip, an
  unregister) executed with metrics enabled; returns the registry
  snapshot plus a flat summary of the numbers the paper's Sec. 5
  reports (hit rates, evictions, indexed vs. scanned selections) and
  per-stage latency percentiles.
* :func:`run_obs_overhead` - the cost of the metrics layer itself on
  the ranking hot path: the ``BENCH_rank.json`` workload run with the
  registry disabled and enabled, median-of-``repeats`` wall-clock each,
  proving the layer is ~free when off and <5% when on; the two modes'
  rankings must agree exactly (:func:`repro.eval.oracle.mismatches`).
"""

from __future__ import annotations

import random
import statistics
import time

from repro.db.poi import generate_poi_relation
from repro.db.relation import Relation
from repro.eval.oracle import mismatches, population, ranking, state_pool
from repro.eval.rank_costs import (
    _bench_profile_and_pool,
    _bench_rows,
    _bench_schema,
)
from repro.obs.metrics import get_registry
from repro.query.contextual_query import ContextualQuery
from repro.query.rank import rank_cs_batch
from repro.resolution.resolver import ContextResolver
from repro.service.personalization import PersonalizationService
from repro.tree.profile_tree import ProfileTree
from repro.workloads.users import all_personas, study_environment

__all__ = ["run_obs_overhead", "run_scripted_workload", "summarize_snapshot"]


def summarize_snapshot(snapshot: dict) -> dict[str, object]:
    """Flatten a registry snapshot into the headline serving numbers.

    Counter label series are summed; histograms are reduced to
    ``{stage: {count, mean, p50, p95}}`` keyed by the stage name
    (``latency.`` prefix stripped).
    """
    counters = {
        name: sum(series.values())
        for name, series in snapshot.get("counters", {}).items()
    }
    hits = counters.get("cache.hits", 0.0)
    misses = counters.get("cache.misses", 0.0)
    lookups = hits + misses
    stages = {
        name.removeprefix("latency."): {
            "count": sum(series["count"] for series in by_label.values()),
            "mean": max((series["mean"] for series in by_label.values()), default=0.0),
            "p50": max((series["p50"] for series in by_label.values()), default=0.0),
            "p95": max((series["p95"] for series in by_label.values()), default=0.0),
        }
        for name, by_label in snapshot.get("histograms", {}).items()
        if name.startswith("latency.")
    }
    return {
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": hits / lookups if lookups else 0.0,
        "cache_evictions": counters.get("cache.evictions", 0.0),
        "cache_invalidations": counters.get("cache.invalidations", 0.0),
        "selections_indexed": counters.get("relation.select.indexed", 0.0),
        "selections_scan": counters.get("relation.select.scan", 0.0),
        "queries": counters.get("executor.queries", 0.0),
        "plain_fallbacks": counters.get("executor.plain_fallbacks", 0.0),
        "states_resolved": counters.get("resolver.states_resolved", 0.0),
        "stages": stages,
    }


def run_scripted_workload(
    num_users: int = 4,
    num_queries: int = 60,
    num_rows: int = 2000,
    cache_capacity: int = 8,
    seed: int = 11,
) -> dict[str, object]:
    """One deterministic serving session, measured end to end.

    Builds a POI relation and a :class:`PersonalizationService`,
    registers ``num_users`` users (cycling the 12 study personas), runs
    ``num_queries`` contextual queries over a Zipf-ish pool of repeated
    context states (so the per-user caches both hit and evict), applies
    a few profile edits, round-trips one profile through
    export/import, and performs one register -> query -> unregister
    lifecycle. The process registry is enabled (and reset) for the
    duration; its prior state is restored before returning.

    Returns ``{"workload": ..., "summary": ..., "snapshot": ...,
    "prometheus": ..., "service_statistics": ...}``.
    """
    registry = get_registry()
    was_enabled = registry.enabled
    registry.reset()
    registry.enable()
    try:
        rng = random.Random(seed)
        environment = study_environment()
        relation = generate_poi_relation(num_rows, seed=seed)
        service = PersonalizationService(
            environment, relation, cache_capacity=cache_capacity
        )
        users = population(num_users)
        for user_id, persona in users:
            service.register(user_id, persona)
        user_ids = [user_id for user_id, _ in users]

        # A skewed pool of context states: repetition is what makes the
        # per-user caches hit; the pool exceeding the cache capacity is
        # what makes them evict.
        pool = [
            ContextualQuery.at_state(state, top_k=10)
            for state in state_pool(environment, wide=True)
        ]
        for index in range(num_queries):
            user_id = user_ids[index % len(user_ids)]
            # Zipf-ish skew: half the traffic goes to the head states.
            position = min(
                rng.randrange(len(pool)), rng.randrange(len(pool))
            )
            service.query(user_id, pool[position])

        # Profile edits: bump the score of each user's first preference.
        for user_id in user_ids[: max(1, num_users // 2)]:
            repository = service.account(user_id).repository
            preference = next(iter(repository))
            service.update_preference(
                user_id, preference, round(min(1.0, preference.score + 0.05), 2)
            )

        # Export/import round-trip (same environment: accepted).
        service.import_profile(user_ids[0], service.export_profile(user_ids[0]))
        service.query(user_ids[0], pool[0])

        # One full lifecycle: the transient user's cache listener must
        # not outlive the account.
        service.register("transient", all_personas()[-1])
        service.query("transient", pool[1])
        service.unregister("transient")

        snapshot = registry.snapshot()
        prometheus = registry.to_prometheus()
        return {
            "workload": {
                "num_users": num_users,
                "num_queries": num_queries,
                "num_rows": num_rows,
                "cache_capacity": cache_capacity,
                "seed": seed,
                "pool_states": len(pool),
            },
            "summary": summarize_snapshot(snapshot),
            "snapshot": snapshot,
            "prometheus": prometheus,
            "service_statistics": service.statistics(),
            "relation_listeners": relation.mutation_listener_count,
        }
    finally:
        if not was_enabled:
            registry.disable()


def run_obs_overhead(
    num_rows: int = 100_000,
    num_queries: int = 30,
    pool_size: int = 15,
    clauses_per_state: int = 2,
    num_buckets: int = 200,
    seed: int = 11,
    repeats: int = 15,
    baseline_indexed_seconds: float | None = None,
) -> dict[str, object]:
    """Measure the metrics layer's cost on the ranking hot path.

    Runs the exact indexed+batched workload of
    :func:`repro.eval.rank_costs.run_rank_hotpath` (the one behind the
    checked-in ``BENCH_rank.json``) with the process registry disabled
    and enabled. Machine noise on shared hardware is bimodal and
    dwarfs the layer's real cost, so the overhead statistic is the
    **median of paired ratios**: each of ``repeats`` rounds times both
    modes back-to-back (same machine phase) and contributes one
    enabled/disabled ratio; the median of those ratios cancels the
    phase noise that corrupts any min- or mean-of-mode comparison.
    The two modes' rankings must agree exactly (``identical_output``).

    Args:
        baseline_indexed_seconds: The ``indexed_seconds`` recorded in
            ``BENCH_rank.json``, for the enabled-vs-baseline
            comparison; omit to skip it.

    Returns a dict with per-mode seconds, the enabled-vs-disabled
    overhead (ratio and percent) and, when a baseline was given, the
    enabled-vs-baseline percent.
    """
    rows = _bench_rows(num_rows, num_buckets, seed)
    relation = Relation("bench_obs", _bench_schema(), rows, auto_index=True)
    relation.create_index("bucket")
    profile, pool = _bench_profile_and_pool(pool_size, clauses_per_state, num_buckets)
    resolver = ContextResolver(ProfileTree.from_profile(profile))
    descriptors = [pool[index % len(pool)] for index in range(num_queries)]

    registry = get_registry()
    was_enabled = registry.enabled
    times: dict[bool, list[float]] = {False: [], True: []}
    outputs: dict[bool, list] = {False: [], True: []}
    try:
        # Warm-up outside the timed runs (index caches, code paths).
        registry.disable()
        rank_cs_batch(resolver, relation, descriptors)
        for _ in range(repeats):
            for enabled in (False, True):
                if enabled:
                    registry.enable()
                else:
                    registry.disable()
                start = time.perf_counter()
                run_outputs, _stats = rank_cs_batch(resolver, relation, descriptors)
                times[enabled].append(time.perf_counter() - start)
                outputs[enabled] = [ranking(ranked) for ranked, _ in run_outputs]
    finally:
        if was_enabled:
            registry.enable()
        else:
            registry.disable()
    disabled_seconds = statistics.median(times[False])
    enabled_seconds = statistics.median(times[True])
    ratios = [
        enabled_time / disabled_time
        for disabled_time, enabled_time in zip(times[False], times[True])
        if disabled_time > 0
    ]
    overhead_ratio = statistics.median(ratios) if ratios else float("inf")
    report: dict[str, object] = {
        "workload": {
            "num_rows": num_rows,
            "num_queries": num_queries,
            "pool_size": pool_size,
            "clauses_per_state": clauses_per_state,
            "num_buckets": num_buckets,
            "seed": seed,
            "repeats": repeats,
        },
        "disabled_seconds": disabled_seconds,
        "enabled_seconds": enabled_seconds,
        "disabled_min_seconds": min(times[False]),
        "enabled_min_seconds": min(times[True]),
        "overhead_ratio": overhead_ratio,
        "overhead_pct": (overhead_ratio - 1.0) * 100.0,
        "identical_output": mismatches(outputs[False], outputs[True]) == 0,
    }
    if baseline_indexed_seconds is not None:
        report["baseline_indexed_seconds"] = baseline_indexed_seconds
        report["enabled_vs_baseline_pct"] = (
            (enabled_seconds / baseline_indexed_seconds) - 1.0
        ) * 100.0
        report["disabled_vs_baseline_pct"] = (
            (disabled_seconds / baseline_indexed_seconds) - 1.0
        ) * 100.0
    return report
