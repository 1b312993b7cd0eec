"""Concurrent-serving drivers: thread scaling and correctness under churn.

Two questions the locking layer must answer with numbers, not
assertions:

* **Does read throughput scale?** :func:`run_serve_bench` replays one
  deterministic request set through the
  :class:`~repro.concurrency.ConcurrentQueryExecutor` at several
  worker counts and reports queries/second per count plus the speedup
  over one worker. Each request models a serving-shaped unit of work:
  a short I/O wait (the row-store fetch / client round-trip, simulated
  with a GIL-releasing sleep) followed by the CPU-bound contextual
  query. Under CPython's GIL only the I/O portion can overlap, so the
  measured scaling is exactly what the lock layer controls: a
  coarse-grained design would serialise the waits too and scale at
  1.0x. The ``io_wait_ms`` knob is recorded in the report; set it to 0
  to see the (GIL-bound) pure-CPU curve.
* **Is it correct under churn?** The driver re-runs the workload at
  the highest worker count while writer threads edit disjoint user
  profiles through the same service, then verifies zero failed
  requests and that every ranked result of the *quiescent* scaling
  runs equals :func:`repro.eval.oracle.reference_service`'s exactly
  (:func:`repro.eval.oracle.mismatches`).

The CLI front-end is ``python -m repro serve-bench``; the regression
benchmark (``benchmarks/bench_concurrency.py``) serialises the report
to ``BENCH_concurrency.json``.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence

from repro.concurrency.executor import ConcurrentQueryExecutor
from repro.concurrency.locks import Mutex
from repro.db.poi import generate_poi_relation
from repro.eval.oracle import (
    mismatches,
    population,
    ranking,
    reference_service,
    state_pool,
)
from repro.query.contextual_query import ContextualQuery
from repro.service.personalization import PersonalizationService
from repro.workloads.streams import query_stream
from repro.workloads.users import study_environment

__all__ = ["run_serve_bench"]


def run_serve_bench(
    num_users: int = 8,
    num_rows: int = 1500,
    num_queries: int = 160,
    thread_counts: Sequence[int] = (1, 2, 4),
    io_wait_ms: float = 6.0,
    num_writers: int = 4,
    edits_per_writer: int = 10,
    cache_capacity: int | None = 64,
    locality: float = 0.5,
    zipf_a: float = 1.1,
    seed: int = 17,
) -> dict[str, object]:
    """Measure concurrent read-query throughput and verify correctness.

    Builds a POI relation and a :class:`PersonalizationService` with
    ``num_users`` registered personas, derives a deterministic request
    set from :func:`repro.workloads.streams.query_stream` (popularity
    skew ``zipf_a``, temporal ``locality``), then:

    1. executes the set sequentially (in-thread) to warm the per-user
       caches;
    2. for each entry of ``thread_counts``, replays the identical set
       through a :class:`ConcurrentQueryExecutor` with that many
       workers, timing the batch and checking every ranking against
       :func:`repro.eval.oracle.reference_service`;
    3. re-runs at the highest count while ``num_writers`` threads
       apply ``edits_per_writer`` profile edits each (to their own
       users) through the same service - the churn phase must finish
       with zero failed requests and every writer's modification count
       intact.

    Returns a JSON-ready report; see ``BENCH_concurrency.json``.
    """
    thread_counts = sorted({int(count) for count in thread_counts})
    if not thread_counts or thread_counts[0] < 1:
        raise ValueError("thread_counts must be positive integers")
    io_wait = max(0.0, io_wait_ms) / 1000.0

    environment = study_environment()
    relation = generate_poi_relation(num_rows, seed=seed)
    service = PersonalizationService(
        environment, relation, cache_capacity=cache_capacity
    )
    for user_id, persona in population(num_users):
        service.register(user_id, persona)

    pool = state_pool(environment, wide=True)
    states = list(
        query_stream(pool, num_queries, seed=seed, zipf_a=zipf_a, locality=locality)
    )
    requests = [
        (f"user{index % num_users}", ContextualQuery.at_state(state, top_k=10))
        for index, state in enumerate(states)
    ]
    reference = reference_service(num_users, num_rows, seed)
    expected = [
        ranking(reference.query(user_id, query).results)
        for user_id, query in requests
    ]
    reference.close()

    # 1. Sequential warm-up pass.
    warm_started = time.perf_counter()
    for user_id, query in requests:
        service.query(user_id, query)
    warm_seconds = time.perf_counter() - warm_started

    def request_callable(user_id: str, query: ContextualQuery):
        def call():
            if io_wait:
                time.sleep(io_wait)
            return service.query(user_id, query)

        return call

    # 2. Quiescent scaling runs (no writers) over the warmed caches.
    series: dict[str, dict[str, float]] = {}
    identical = True
    base_qps: float | None = None
    for count in thread_counts:
        callables = [request_callable(*request) for request in requests]
        with ConcurrentQueryExecutor(max_workers=count) as executor:
            started = time.perf_counter()
            outcomes = executor.run(callables)
            elapsed = time.perf_counter() - started
        answers = [
            ranking(outcome.result.results) if outcome.ok else None
            for outcome in outcomes
        ]
        identical = identical and mismatches(expected, answers) == 0
        qps = len(requests) / elapsed if elapsed > 0 else float("inf")
        if base_qps is None:
            base_qps = qps
        series[str(count)] = {
            "seconds": elapsed,
            "qps": qps,
            "speedup": qps / base_qps if base_qps else 0.0,
        }

    # 3. Churn phase: readers at max width, writers editing profiles.
    churn = _run_churn_phase(
        service,
        requests,
        request_callable,
        max(thread_counts),
        num_writers,
        edits_per_writer,
    )

    top = str(thread_counts[-1])
    return {
        "workload": {
            "num_users": num_users,
            "num_rows": num_rows,
            "num_queries": num_queries,
            "thread_counts": thread_counts,
            "io_wait_ms": io_wait_ms,
            "cache_capacity": cache_capacity,
            "locality": locality,
            "zipf_a": zipf_a,
            "seed": seed,
            "pool_states": len(pool),
        },
        "warm_seconds": warm_seconds,
        "series": series,
        "speedup_at_max": series[top]["speedup"],
        "identical_output": identical,
        "churn": churn,
    }


def _run_churn_phase(
    service: PersonalizationService,
    requests,
    request_callable,
    max_workers: int,
    num_writers: int,
    edits_per_writer: int,
) -> dict[str, object]:
    """Readers and writers interleaved over one shared service."""
    errors: list[str] = []
    errors_lock = Mutex(name="serving.errors")
    modifications_before = {
        row["user_id"]: row["modifications"] for row in service.statistics()
    }

    def writer(user_id: str) -> None:
        try:
            for _ in range(edits_per_writer):
                repository = service.account(user_id).repository
                preference = next(iter(repository))
                service.update_preference(
                    user_id,
                    preference,
                    round(min(0.95, max(0.05, preference.score + 0.01)), 2),
                )
        except Exception as error:  # pragma: no cover - failure reporting
            with errors_lock:
                errors.append(f"writer {user_id}: {error!r}")

    writer_ids = [
        row["user_id"] for row in service.statistics()[: max(0, num_writers)]
    ]
    threads = [
        threading.Thread(target=writer, args=(user_id,), daemon=True)
        for user_id in writer_ids
    ]
    callables = [request_callable(*request) for request in requests]
    with ConcurrentQueryExecutor(max_workers=max_workers) as executor:
        for thread in threads:
            thread.start()
        outcomes = executor.run(callables)
        for thread in threads:
            thread.join()
    failed = [outcome for outcome in outcomes if not outcome.ok]
    modifications_after = {
        row["user_id"]: row["modifications"] for row in service.statistics()
    }
    lost_updates = sum(
        1
        for user_id in writer_ids
        if modifications_after[user_id] - modifications_before[user_id]
        != edits_per_writer
    )
    return {
        "num_writers": len(writer_ids),
        "edits_per_writer": edits_per_writer,
        "queries": len(outcomes),
        "failed_requests": len(failed) + len(errors),
        "lost_updates": lost_updates,
        "errors": errors[:5],
    }
