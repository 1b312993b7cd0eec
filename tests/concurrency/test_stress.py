"""Stress tests: N writers x M readers over one shared service.

The acceptance bar for the locking layer: under 8 writer threads
editing profiles while 8 reader workers execute queries through the
same :class:`PersonalizationService`,

* every read request succeeds (no torn state, no exceptions),
* no writer edit is lost (per-user modification counts are exact),
* no query is ever answered from a stale cache entry, and
* the process metrics counters account for every event exactly.
"""

import threading

import pytest

from repro import ContextQueryTree, ContextState, ContextualQuery, generate_poi_relation
from repro.concurrency import ConcurrentQueryExecutor, lock_sanitizer
from repro.eval.oracle import ranking
from repro.obs.metrics import get_registry
from repro.service import PersonalizationService
from repro.workloads import all_personas, study_environment
from tests.conftest import state

NUM_USERS = 8
NUM_WRITERS = 8
NUM_READERS = 8
EDITS_PER_WRITER = 12
QUERIES_PER_READER = 10


@pytest.fixture(autouse=True)
def sanitizer():
    # Every stress scenario runs with the runtime lock-order sanitizer
    # on: any hierarchy inversion or read->write upgrade the static
    # checker's approximations miss fails loudly at the first acquire.
    with lock_sanitizer():
        yield


@pytest.fixture
def registry():
    registry = get_registry()
    was_enabled = registry.enabled
    registry.reset()
    registry.enable()
    yield registry
    registry.reset()
    if not was_enabled:
        registry.disable()


@pytest.fixture(scope="module")
def relation():
    return generate_poi_relation(300, seed=7)


@pytest.fixture
def service(relation):
    environment = study_environment()
    service = PersonalizationService(environment, relation, cache_capacity=32)
    personas = all_personas()
    for index in range(NUM_USERS):
        service.register(f"user{index}", personas[index % len(personas)])
    return service


def states_for(environment):
    return [
        ContextState.from_mapping(
            environment,
            {
                "accompanying_people": people,
                "temperature": temperature,
                "location": location,
            },
        )
        for people in ("friends", "family", "alone")
        for temperature in ("warm", "cold")
        for location in ("Plaka", "Kifisia")
    ]


class TestWritersVersusReaders:
    def test_no_lost_updates_no_failed_reads(self, service, registry):
        environment = service.environment
        pool_states = states_for(environment)
        requests = [
            (
                f"user{index % NUM_USERS}",
                ContextualQuery.at_state(
                    pool_states[index % len(pool_states)], top_k=5
                ),
            )
            for index in range(NUM_READERS * QUERIES_PER_READER)
        ]

        errors: list[str] = []
        errors_lock = threading.Lock()

        def writer(user_id: str) -> None:
            try:
                for _ in range(EDITS_PER_WRITER):
                    repository = service.account(user_id).repository
                    preference = next(iter(repository))
                    new_score = round(
                        min(0.95, max(0.05, preference.score + 0.01)), 2
                    )
                    service.update_preference(user_id, preference, new_score)
            except Exception as error:  # pragma: no cover - failure reporting
                with errors_lock:
                    errors.append(f"{user_id}: {error!r}")

        writers = [
            threading.Thread(target=writer, args=(f"user{index}",), daemon=True)
            for index in range(NUM_WRITERS)
        ]
        with ConcurrentQueryExecutor(max_workers=NUM_READERS) as executor:
            for thread in writers:
                thread.start()
            outcomes = service.query_many(requests, executor=executor)
            for thread in writers:
                thread.join(timeout=60)
            stats = executor.stats()

        assert not errors, errors
        assert not any(thread.is_alive() for thread in writers)
        failed = [outcome for outcome in outcomes if not outcome.ok]
        assert not failed, [outcome.error for outcome in failed]

        # No lost updates: every writer's edits landed exactly.
        rows = {row["user_id"]: row for row in service.statistics()}
        for index in range(NUM_WRITERS):
            assert rows[f"user{index}"]["modifications"] == EDITS_PER_WRITER

        # Executor stats and the mirrored metrics counters both account
        # for every request exactly.
        assert stats["submitted"] == len(requests)
        assert stats["completed"] == len(requests)
        assert stats["errors"] == stats["timeouts"] == stats["rejected"] == 0
        assert registry.counter("concurrency.submitted").total() == len(requests)
        assert registry.counter("concurrency.completed").total() == len(requests)
        assert registry.counter("service.queries").total() == len(requests)
        assert registry.counter("service.edits").total() == (
            NUM_WRITERS * EDITS_PER_WRITER
        )

    def test_no_stale_reads_after_churn(self, service):
        """Post-churn, cached answers equal freshly computed answers."""
        environment = service.environment
        pool_states = states_for(environment)
        query = ContextualQuery.at_state(pool_states[0], top_k=5)
        user_ids = [f"user{index}" for index in range(NUM_USERS)]

        def writer(user_id: str) -> None:
            for _ in range(EDITS_PER_WRITER):
                repository = service.account(user_id).repository
                preference = next(iter(repository))
                service.update_preference(
                    user_id,
                    preference,
                    round(min(0.95, max(0.05, preference.score + 0.01)), 2),
                )

        requests = [
            (user_ids[index % NUM_USERS], query)
            for index in range(NUM_READERS * QUERIES_PER_READER)
        ]
        writers = [
            threading.Thread(target=writer, args=(user_id,), daemon=True)
            for user_id in user_ids
        ]
        with ConcurrentQueryExecutor(max_workers=NUM_READERS) as executor:
            for thread in writers:
                thread.start()
            service.query_many(requests, executor=executor)
            for thread in writers:
                thread.join(timeout=60)

        for user_id in user_ids:
            cached = ranking(service.query(user_id, query).results)
            service.account(user_id).cache.clear()
            fresh = ranking(service.query(user_id, query).results)
            assert cached == fresh, f"stale cache entry served for {user_id}"

    def test_read_your_writes(self, service):
        """An edit is visible to the very next query, every time."""
        environment = service.environment
        query = ContextualQuery.at_state(states_for(environment)[0], top_k=5)
        user_id = "user0"
        stop = threading.Event()

        def background_reader():
            while not stop.is_set():
                service.query(user_id, query)

        readers = [
            threading.Thread(target=background_reader, daemon=True)
            for _ in range(4)
        ]
        for thread in readers:
            thread.start()
        try:
            for _ in range(10):
                repository = service.account(user_id).repository
                preference = next(iter(repository))
                new_score = round(
                    min(0.95, max(0.05, preference.score + 0.01)), 2
                )
                replacement = service.update_preference(
                    user_id, preference, new_score
                )
                assert replacement.score == new_score
                # The caches that could have held the old score were
                # invalidated before update_preference returned, so a
                # fresh compute must agree with a cache-cleared one.
                after = ranking(service.query(user_id, query).results)
                service.account(user_id).cache.clear()
                assert ranking(service.query(user_id, query).results) == after
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=10)


class TestGenerationGuard:
    def test_put_from_before_invalidation_is_discarded(self, env):
        cache = ContextQueryTree(env, capacity=8)
        key = state(env, location="Plaka")
        generation = cache.generation
        # An invalidation lands between compute and put...
        cache.clear()
        cache.put(key, "stale", generation=generation)
        # ...so the stale result must not be pinned.
        assert cache.get(key) is None

    def test_put_with_current_generation_lands(self, env):
        cache = ContextQueryTree(env, capacity=8)
        key = state(env, location="Plaka")
        cache.put(key, "fresh", generation=cache.generation)
        assert cache.get(key) == "fresh"

    def test_invalidate_bumps_generation(self, env):
        cache = ContextQueryTree(env, capacity=8)
        key = state(env, location="Plaka")
        cache.put(key, 1)
        before = cache.generation
        assert cache.invalidate(key)
        assert cache.generation > before

    def test_metric_counters_sum_under_concurrent_increments(self):
        registry = get_registry()
        was_enabled = registry.enabled
        registry.reset()
        registry.enable()
        try:
            per_thread, num_threads = 2000, 8

            def bump():
                for _ in range(per_thread):
                    registry.inc("stress.counter")

            threads = [
                threading.Thread(target=bump, daemon=True)
                for _ in range(num_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert registry.counter("stress.counter").total() == (
                per_thread * num_threads
            )
        finally:
            registry.reset()
            if not was_enabled:
                registry.disable()
