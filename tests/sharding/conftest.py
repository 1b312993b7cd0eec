"""Shared fixtures: a tiny sharded deployment and its reference twin.

The twin is :func:`repro.eval.oracle.reference_service` over the
*same* deterministic dataset and population as the routed workers;
rankings served through the router must equal the twin's, before and
after crashes.
"""

import pytest

from repro.concurrency import blocking_sanitizer
from repro.context.state import ContextState
from repro.eval.oracle import population, reference_service
from repro.sharding import ShardRouter

NUM_ROWS = 120
NUM_USERS = 8
SEED = 7
TOP_K = 10
USERS = [user_id for user_id, _ in population(NUM_USERS)]


@pytest.fixture(autouse=True)
def _blocking_sanitizer():
    """BLOCK001's runtime twin guards the whole sharding suite."""
    with blocking_sanitizer():
        yield


def make_states(environment):
    return [
        ContextState.from_mapping(
            environment,
            {
                "accompanying_people": people,
                "temperature": temperature,
                "location": "Plaka",
            },
        )
        for people in ("friends", "family")
        for temperature in ("warm", "cold")
    ]


def start_router(wal_root, num_workers=2, **kwargs):
    kwargs.setdefault("num_rows", NUM_ROWS)
    kwargs.setdefault("data_seed", SEED)
    router = ShardRouter(num_workers, wal_root=wal_root, **kwargs)
    router.start()
    router.register_many(population(NUM_USERS))
    return router


@pytest.fixture(scope="module")
def twin():
    service = reference_service(NUM_USERS, NUM_ROWS, SEED)
    yield service
    service.close()


@pytest.fixture(scope="module")
def states(twin):
    return make_states(twin.environment)


@pytest.fixture
def router(tmp_path):
    router = start_router(tmp_path / "wal")
    yield router
    router.close()
