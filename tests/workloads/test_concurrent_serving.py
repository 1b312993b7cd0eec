"""Workload generators driving the concurrent executor.

The workload modules (personas, query streams) are the deterministic
request sources for serving benchmarks; these tests pin down that the
same seeded stream produces *identical ranked output* whether it is
replayed sequentially or fanned out over the
:class:`ConcurrentQueryExecutor` - the whole point of the per-user
read locking.
"""

import pytest

from repro import ContextState, ContextualQuery, generate_poi_relation
from repro.concurrency import ConcurrentQueryExecutor
from repro.eval.oracle import mismatches, population, ranking, reference_service
from repro.service import PersonalizationService
from repro.workloads import study_environment
from repro.workloads.streams import query_stream

NUM_USERS = 4
NUM_QUERIES = 48
SEED = 23


@pytest.fixture(scope="module")
def service():
    """A cached, indexed twin of ``reference_service(NUM_USERS, 200, SEED)``."""
    environment = study_environment()
    relation = generate_poi_relation(200, seed=SEED)
    service = PersonalizationService(environment, relation, cache_capacity=16)
    for user_id, persona in population(NUM_USERS):
        service.register(user_id, persona)
    return service


@pytest.fixture(scope="module")
def requests(service):
    environment = service.environment
    pool = [
        ContextState.from_mapping(
            environment,
            {
                "accompanying_people": people,
                "temperature": temperature,
                "location": location,
            },
        )
        for people in ("friends", "family")
        for temperature in ("warm", "cold")
        for location in ("Plaka", "Kifisia", "Syntagma")
    ]
    states = list(query_stream(pool, NUM_QUERIES, seed=SEED, zipf_a=1.2, locality=0.4))
    return [
        (f"user{index % NUM_USERS}", ContextualQuery.at_state(state, top_k=8))
        for index, state in enumerate(states)
    ]


class TestConcurrentEqualsSequential:
    def test_query_many_matches_sequential_loop(self, service, requests):
        sequential = [
            ranking(service.query(user_id, query).results)
            for user_id, query in requests
        ]
        outcomes = service.query_many(requests, max_workers=4)
        assert all(outcome.ok for outcome in outcomes)
        concurrent = [ranking(outcome.result.results) for outcome in outcomes]
        assert concurrent == sequential

    def test_every_width_matches_the_reference(self, service, requests):
        reference = reference_service(NUM_USERS, 200, SEED)
        expected = [
            ranking(reference.query(user_id, query).results)
            for user_id, query in requests
        ]
        reference.close()
        for workers in (1, 2, 4):
            outcomes = service.query_many(requests, max_workers=workers)
            answers = [
                ranking(outcome.result.results) if outcome.ok else None
                for outcome in outcomes
            ]
            assert mismatches(expected, answers) == 0, workers

    def test_shared_executor_reused_across_batches(self, service, requests):
        sequential = [
            ranking(service.query(user_id, query).results)
            for user_id, query in requests
        ]
        with ConcurrentQueryExecutor(max_workers=4) as executor:
            first = service.query_many(requests, executor=executor)
            second = service.query_many(requests, executor=executor)
            assert executor.stats()["submitted"] == 2 * len(requests)
        for outcomes in (first, second):
            assert [ranking(o.result.results) for o in outcomes] == sequential
