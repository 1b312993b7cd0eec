"""Indexed vs. sequential cost of the ranking hot path.

``Rank_CS`` evaluates every winning attribute clause as a selection
over the relation; the paper's cost model counts the *cells* an
algorithm touches (Sec. 5.2). This module extends that accounting to
the relation side: a sequential selection touches one cell per row,
an indexed selection touches hash-bucket / ``bisect`` / posting cells
(:mod:`repro.db.index`). Two experiment drivers report the comparison:

* :func:`measure_select_costs` - cell accesses of one clause workload
  over the same rows, sequential vs. indexed;
* :func:`rank_access_sweep` - the paper-style sweep: mean cells per
  ranking selection as the relation grows;
* :func:`run_rank_hotpath` - the end-to-end wall-clock benchmark
  behind ``benchmarks/bench_rank_hotpath.py``: per-descriptor
  ``rank_cs`` with sequential scans against batched
  ``rank_cs_batch`` over an indexed relation, whose rankings must
  agree exactly (:func:`repro.eval.oracle.mismatches`).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.context.descriptor import ContextDescriptor
from repro.db.poi import POI_TYPES, generate_poi_relation
from repro.db.relation import Relation
from repro.db.schema import Attribute, Schema
from repro.eval.oracle import mismatches, ranking
from repro.preferences.preference import AttributeClause, ContextualPreference
from repro.preferences.profile import Profile
from repro.query.rank import rank_cs, rank_cs_batch
from repro.resolution.resolver import ContextResolver
from repro.tree.counters import AccessCounter
from repro.tree.profile_tree import ProfileTree
from repro.workloads.users import study_environment

__all__ = [
    "SelectCost",
    "measure_select_costs",
    "rank_access_sweep",
    "run_rank_hotpath",
]


@dataclass(frozen=True)
class SelectCost:
    """Cell accesses of one selection workload over one access path."""

    label: str
    total_cells: int
    scan_cells: int
    index_cells: int
    num_selects: int

    @property
    def mean_cells(self) -> float:
        """Mean cells per selection (0.0 for an empty workload)."""
        return self.total_cells / self.num_selects if self.num_selects else 0.0


def measure_select_costs(
    relation: Relation, clauses: Sequence[AttributeClause]
) -> dict[str, SelectCost]:
    """Cell accesses of ``clauses`` over ``relation``, both paths.

    The relation is cloned twice (same rows): once without indexes so
    every selection scans, once with ``auto_index`` so every indexable
    selection probes. Returns measurements keyed ``sequential`` and
    ``indexed``.
    """
    clauses = list(clauses)
    sequential = Relation(relation.name, relation.schema, relation)
    indexed = Relation(relation.name, relation.schema, relation, auto_index=True)
    results: dict[str, SelectCost] = {}
    for label, variant in (("sequential", sequential), ("indexed", indexed)):
        counter = AccessCounter()
        for clause in clauses:
            variant.select_ids(clause, counter)
        results[label] = SelectCost(
            label=label,
            total_cells=counter.cells,
            scan_cells=counter.scan_cells,
            index_cells=counter.index_cells,
            num_selects=len(clauses),
        )
    return results


def _poi_clause_workload(relation: Relation) -> list[AttributeClause]:
    """A ranking-shaped clause workload over the POI relation: one
    equality per type and location plus a few admission-cost ranges."""
    clauses = [AttributeClause("type", poi_type) for poi_type in POI_TYPES]
    clauses += [
        AttributeClause("location", location)
        for location in relation.distinct_values("location")
    ]
    clauses += [
        AttributeClause("admission_cost", 5.0, "<="),
        AttributeClause("admission_cost", 20.0, ">="),
        AttributeClause("admission_cost", 10.0, "<"),
    ]
    return clauses


def rank_access_sweep(
    relation_sizes: Sequence[int] = (1000, 5000, 10000),
    seed: int = 7,
) -> dict[str, list[float]]:
    """Mean cells per ranking selection vs. relation size.

    The paper's Fig. 7 shape, transposed to the relation side of
    ``Rank_CS``: the sequential series grows linearly with ``|R|``
    while the indexed series tracks result sizes only.

    Returns ``{series: [mean cells per relation size]}`` with series
    ``sequential`` and ``indexed``.
    """
    series: dict[str, list[float]] = {"sequential": [], "indexed": []}
    for size in relation_sizes:
        relation = generate_poi_relation(size, seed=seed)
        costs = measure_select_costs(relation, _poi_clause_workload(relation))
        for label in series:
            series[label].append(costs[label].mean_cells)
    return series


# ----------------------------------------------------------------------
# End-to-end hot-path benchmark driver
# ----------------------------------------------------------------------
_BENCH_TYPES = tuple(POI_TYPES)


def _bench_schema() -> Schema:
    return Schema(
        [
            Attribute("pid", "int"),
            Attribute("bucket", "int"),
            Attribute("type", "str"),
            Attribute("cost", "float"),
        ]
    )


def _bench_rows(num_rows: int, num_buckets: int, seed: int) -> list[dict[str, object]]:
    """Deterministic synthetic rows; ``bucket`` is the selective attribute
    (~``num_rows / num_buckets`` rows each), scattered so no index can
    exploit physical clustering."""
    rows = []
    for pid in range(num_rows):
        scattered = (pid * 7919 + seed) % num_buckets
        rows.append(
            {
                "pid": pid,
                "bucket": scattered,
                "type": _BENCH_TYPES[(pid * 31 + seed) % len(_BENCH_TYPES)],
                "cost": round(((pid * 131 + seed) % 2500) / 100.0, 2),
            }
        )
    return rows


def _bench_profile_and_pool(
    num_states: int, clauses_per_state: int, num_buckets: int
) -> tuple[Profile, list[ContextDescriptor]]:
    """A profile of ``num_states`` detailed context states, each carrying
    ``clauses_per_state`` selective ``bucket =`` clauses, plus the
    matching descriptor pool."""
    environment = study_environment()
    people = ("friends", "family", "alone")
    temperatures = ("freezing", "cold", "mild", "warm", "hot")
    locations = ("Plaka", "Kifisia", "Syntagma", "Perama", "Ladadika", "Kastra", "Ledra")
    profile = Profile(environment)
    pool: list[ContextDescriptor] = []
    for index in range(num_states):
        mapping = {
            "accompanying_people": people[index % len(people)],
            "temperature": temperatures[(index // len(people)) % len(temperatures)],
            "location": locations[index % len(locations)],
        }
        descriptor = ContextDescriptor.from_mapping(mapping)
        for offset in range(clauses_per_state):
            bucket = (index * clauses_per_state + offset) % num_buckets
            score = round(0.95 - 0.9 * ((index + offset) % 10) / 10.0, 2)
            profile.add(
                ContextualPreference(
                    descriptor, AttributeClause("bucket", bucket), score
                )
            )
        pool.append(descriptor)
    return profile, pool


def run_rank_hotpath(
    num_rows: int = 100_000,
    num_queries: int = 30,
    pool_size: int = 15,
    clauses_per_state: int = 2,
    num_buckets: int = 200,
    seed: int = 11,
) -> dict[str, object]:
    """Sequential per-descriptor ranking vs. indexed batched ranking.

    Builds a ``num_rows`` synthetic relation, a profile whose winning
    clauses each select ~``num_rows / num_buckets`` rows, and a query
    workload of ``num_queries`` descriptors cycling through a pool of
    ``pool_size`` context states (real context workloads repeat
    states). Then:

    * **sequential** - the pre-index code path: one ``rank_cs`` per
      descriptor over an unindexed relation (every clause is a full
      scan, re-run per descriptor);
    * **indexed** - one ``rank_cs_batch`` over an indexed relation
      (each distinct state resolved once, each distinct clause probed
      once).

    Both paths must produce identical scores and order for every
    descriptor; the returned dict carries timings, the speedup, the
    cell-access comparison and the batch memo statistics, and is what
    ``benchmarks/bench_rank_hotpath.py`` serialises to
    ``BENCH_rank.json``.
    """
    rows = _bench_rows(num_rows, num_buckets, seed)
    schema = _bench_schema()
    sequential_relation = Relation("bench_hotpath", schema, rows)
    indexed_relation = Relation("bench_hotpath", schema, rows, auto_index=True)
    # Index construction is one-time setup amortised over the
    # relation's lifetime; build it eagerly and report its cost
    # separately instead of charging it to the first query.
    start = time.perf_counter()
    indexed_relation.create_index("bucket")
    index_build_seconds = time.perf_counter() - start

    profile, pool = _bench_profile_and_pool(pool_size, clauses_per_state, num_buckets)
    tree = ProfileTree.from_profile(profile)
    resolver = ContextResolver(tree)
    descriptors = [pool[index % len(pool)] for index in range(num_queries)]

    sequential_counter = AccessCounter()
    start = time.perf_counter()
    sequential_outputs = [
        rank_cs(resolver, sequential_relation, descriptor, counter=sequential_counter)
        for descriptor in descriptors
    ]
    sequential_seconds = time.perf_counter() - start

    indexed_counter = AccessCounter()
    start = time.perf_counter()
    batched_outputs, stats = rank_cs_batch(
        resolver, indexed_relation, descriptors, counter=indexed_counter
    )
    indexed_seconds = time.perf_counter() - start

    identical = mismatches(
        [ranking(ranked) for ranked, _ in sequential_outputs],
        [ranking(ranked) for ranked, _ in batched_outputs],
    ) == 0
    mean_result_size = (
        sum(len(ranked) for ranked, _ in batched_outputs) / len(batched_outputs)
        if batched_outputs
        else 0.0
    )
    return {
        "workload": {
            "num_rows": num_rows,
            "num_queries": num_queries,
            "pool_size": pool_size,
            "clauses_per_state": clauses_per_state,
            "num_buckets": num_buckets,
            "seed": seed,
            "mean_result_size": mean_result_size,
        },
        "index_build_seconds": index_build_seconds,
        "sequential_seconds": sequential_seconds,
        "indexed_seconds": indexed_seconds,
        "speedup": (
            sequential_seconds / indexed_seconds if indexed_seconds > 0 else float("inf")
        ),
        "identical_output": identical,
        "cells": {
            "sequential": {
                "total": sequential_counter.cells,
                "scan": sequential_counter.scan_cells,
                "indexed": sequential_counter.index_cells,
            },
            "indexed": {
                "total": indexed_counter.cells,
                "scan": indexed_counter.scan_cells,
                "indexed": indexed_counter.index_cells,
            },
            "scan_to_index_ratio": (
                sequential_counter.scan_cells / indexed_counter.index_cells
                if indexed_counter.index_cells
                else float("inf")
            ),
        },
        "batch_stats": {
            "descriptors": stats.descriptors,
            "state_lookups": stats.state_lookups,
            "unique_states": stats.unique_states,
            "state_memo_hits": stats.state_memo_hits,
            "clause_lookups": stats.clause_lookups,
            "unique_clauses": stats.unique_clauses,
            "clause_memo_hits": stats.clause_memo_hits,
        },
    }
