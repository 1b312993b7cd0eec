"""The benchmark's four workloads.

Each workload makes its inputs from the seed (input generation is never
timed), builds the program under test from them (timed as set-up),
yields a deterministic stream of operations and performs one operation
per call. Every reply is reduced to a fingerprint of its row ids,
scores and tie order, so a sequential twin - a fresh relation without
indexes, no result cache, no paging and no WAL - can replay the same
operations and check each reply.

Operations are tuples whose first item is their kind: ``"query"``,
``"edit"`` or ``"batch"``. A trial draws its operations from stream
``k``; streams are independent draws from the same inputs, so the
timed trials of a run sample different operation sequences.

Sizes live in each workload's ``SIZES`` (``SMOKE`` overrides them for
the tests); every report records them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from repro.context.state import ContextState
from repro.db.poi import generate_poi_relation, points_of_interest_schema
from repro.db.relation import Relation
from repro.db.schema import Attribute, Schema
from repro.preferences.preference import ContextualPreference
from repro.query.contextual_query import ContextualQuery
from repro.query.executor import ContextualQueryExecutor
from repro.service.personalization import PersonalizationService
from repro.sharding.router import ShardRouter
from repro.sharding.worker import ranking_pairs
from repro.storage.jsonl import JsonlProfileStore
from repro.tree.ordering import optimal_ordering
from repro.tree.profile_tree import ProfileTree
from repro.tree.query_tree import ContextQueryTree
from repro.workloads.streams import query_stream
from repro.workloads.synthetic import ProfileSpec, generate_profile, synthetic_environment
from repro.workloads.users import all_personas, default_profile, study_environment
from repro.workloads.zipf import ZipfSampler

#: Streams are generators; this bounds them far beyond any trial.
_ENDLESS = 1 << 40

_POOL_PEOPLE = ("friends", "family", "alone")
_POOL_TEMPERATURES = ("warm", "hot", "cold")
_POOL_LOCATIONS = ("Plaka", "Kifisia", "Syntagma")


def stream_seed(seed: int, stream: int) -> int:
    """The generator seed of operation stream ``stream`` under ``seed``."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def fingerprint(value: object) -> str:
    """A short stable digest of a JSON-ready reply."""
    return hashlib.blake2b(
        json.dumps(value).encode("utf-8"), digest_size=8
    ).hexdigest()


def study_pool(environment) -> list[ContextState]:
    """The 27 query states (3 x 3 x 3) of the sharded-serving study."""
    return [
        ContextState.from_mapping(
            environment,
            {
                "accompanying_people": people,
                "temperature": temperature,
                "location": location,
            },
        )
        for people in _POOL_PEOPLE
        for temperature in _POOL_TEMPERATURES
        for location in _POOL_LOCATIONS
    ]


def wide_pool(environment) -> list[ContextState]:
    """The 12 study states in company ("friends", "family") on a hot or
    cold day.

    Their default profiles match the most preferences, so they rank the
    widest; the warm and solitary states rank about half as much, and
    mixing both in would put the median between two clusters of
    operation cost.
    """
    return [
        state
        for state in study_pool(environment)
        if state.values[0] != "alone" and state.values[1] != "warm"
    ]


class Workload:
    """One set of inputs and the operations the benchmark runs on them."""

    name = ""
    SIZES: dict[str, object] = {}
    SMOKE: dict[str, object] = {}
    #: Untimed operations before the timed phase of every trial.
    warmup = 40
    #: Requests carried by one operation.
    requests_per_op = 1

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.sizes = {**self.SIZES, **(self.SMOKE if smoke else {})}
        #: Operations in a traced trial (fixed, so exact counts repeat).
        self.trace_ops = int(self.sizes["trace_ops"])

    def setup(self, workdir: Path) -> object:
        """Build the program under test (timed as set-up)."""
        raise NotImplementedError

    def ops(self, stream: int) -> Iterator[tuple]:
        """The deterministic operation stream ``stream``."""
        raise NotImplementedError

    def call(self, system: object, op: tuple) -> object:
        """Perform one operation (the timed call)."""
        raise NotImplementedError

    def fingerprint(self, op: tuple, reply: object) -> str | None:
        """The reply's fingerprint, or ``None`` for a failed reply."""
        raise NotImplementedError

    def reference(self, stream: int, count: int) -> list[str]:
        """Fingerprints of the first ``count`` operations of ``stream``
        as the sequential twin answers them."""
        raise NotImplementedError

    def probe(self, system: object) -> dict[str, int]:
        """Cumulative program counters the per-layer metrics read."""
        return {}

    def close(self, system: object) -> None:
        """Release what :meth:`setup` built."""


class _ServiceWorkload(Workload):
    """Queries (and edits) through ``PersonalizationService``."""

    def _relation(self) -> Relation:
        return Relation("points_of_interest", points_of_interest_schema(), self.rows)

    def reference(self, stream: int, count: int) -> list[str]:
        twin = PersonalizationService(
            self.environment, self._relation(), cache_capacity=None, auto_index=False
        )
        twin.register_many(self.users)
        return [
            self.fingerprint(op, self.call(twin, op))
            for op in itertools.islice(self.ops(stream), count)
        ]

    def call(self, service: PersonalizationService, op: tuple) -> object:
        if op[0] == "edit":
            return service.update_preference(op[1], op[2], op[3])
        return service.query(op[1], op[2])

    def fingerprint(self, op: tuple, reply: object) -> str | None:
        if op[0] == "edit":
            return fingerprint(["edit", reply.score])
        return fingerprint(ranking_pairs(reply))

    def probe(self, service: PersonalizationService) -> dict[str, int]:
        return {"hydrations": int(service.paging_statistics()["hydrations"])}


class RankWide(_ServiceWorkload):
    """Wide rankings: scoring inside ``rank_rows`` dominates.

    Queries draw the :func:`wide_pool` states uniformly, users in turn.
    Every state is cached after warm-up, so resolution does almost
    nothing.
    """

    name = "rank_wide"
    SIZES = {"rows": 5000, "users": 8, "cache_capacity": 64, "top_k": 10,
             "trace_ops": 320}
    SMOKE = {"rows": 800, "trace_ops": 40}

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.environment = study_environment()
        self.rows = [dict(row) for row in generate_poi_relation(self.sizes["rows"], seed=seed)]
        personas = all_personas()
        self.users = [(f"user{index}", personas[index]) for index in range(self.sizes["users"])]
        self.pool = wide_pool(self.environment)

    def setup(self, workdir: Path) -> PersonalizationService:
        service = PersonalizationService(
            self.environment, self._relation(), cache_capacity=self.sizes["cache_capacity"]
        )
        for user_id, persona in self.users:
            service.register(user_id, persona)
        return service

    def ops(self, stream: int) -> Iterator[tuple]:
        states = query_stream(self.pool, _ENDLESS, seed=stream_seed(self.seed, stream), zipf_a=0.0)
        for index, state in enumerate(states):
            user_id = self.users[index % len(self.users)][0]
            yield "query", user_id, ContextualQuery.at_state(state, top_k=self.sizes["top_k"])


class EditMix(_ServiceWorkload):
    """Queries and profile edits over a paged, WAL-backed population."""

    name = "edit_mix"
    SIZES = {"users": 2000, "hydrated_budget": 256, "rows": 1500, "user_zipf_a": 1.1,
             "edit_share": 0.2, "top_k": 10, "trace_ops": 1600}
    SMOKE = {"users": 200, "hydrated_budget": 32, "rows": 300, "trace_ops": 160}

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.environment = study_environment()
        self.rows = [dict(row) for row in generate_poi_relation(self.sizes["rows"], seed=seed)]
        rng = np.random.default_rng(seed)
        personas = all_personas()
        self.users = [
            (f"u{index:05d}", personas[int(rng.integers(len(personas)))])
            for index in range(self.sizes["users"])
        ]
        # Popularity rank -> user, so the hot users are spread over the
        # id space rather than being the first ones registered.
        self.hot_order = rng.permutation(self.sizes["users"])
        self.defaults = {
            persona: list(default_profile(persona, self.environment)) for persona in personas
        }
        self.pool = study_pool(self.environment)

    def setup(self, workdir: Path) -> PersonalizationService:
        service = PersonalizationService(
            self.environment,
            self._relation(),
            store=JsonlProfileStore(workdir / "wal"),
            hydrated_budget=self.sizes["hydrated_budget"],
        )
        service.register_many(self.users)
        return service

    def ops(self, stream: int) -> Iterator[tuple]:
        rng = np.random.default_rng(stream_seed(self.seed, stream))
        sampler = ZipfSampler(len(self.users), self.sizes["user_zipf_a"], rng)
        # The client remembers the scores it set, so each edit names
        # the preference exactly as the profile now stores it.
        scores: dict[tuple[int, int], float] = {}
        while True:
            user = int(self.hot_order[sampler.sample()])
            user_id, persona = self.users[user]
            if rng.random() >= self.sizes["edit_share"]:
                state = self.pool[int(rng.integers(len(self.pool)))]
                yield "query", user_id, ContextualQuery.at_state(state, top_k=self.sizes["top_k"])
                continue
            preferences = self.defaults[persona]
            index = int(rng.integers(len(preferences)))
            original = preferences[index]
            current = scores.get((user, index), original.score)
            new_score = current
            while new_score == current:
                new_score = round(float(rng.integers(5, 96)) / 100.0, 2)
            scores[(user, index)] = new_score
            preference = ContextualPreference(original.descriptor, original.clause, current)
            yield "edit", user_id, preference, new_score

    def probe(self, service: PersonalizationService) -> dict[str, int]:
        counters = super().probe(service)
        counters["wal_bytes"] = (service.store.root / "wal.jsonl").stat().st_size
        return counters

    def close(self, service: PersonalizationService) -> None:
        service.close()


class ResolveDeep(Workload):
    """The paper's Search_CS setting: a deep synthetic profile tree.

    Every query state is a random leaf descendant of a profile state,
    so each query is covered and none falls back to a plain query. The
    pool and skew put the cache hit rate near 26%, well below one half,
    so the median query is a miss that resolves over the tree.
    """

    name = "resolve_deep"
    SIZES = {"preferences": 10_000, "level_weights": (0.7, 0.2, 0.1), "rows": 500,
             "attributes": 5, "values": 50, "cache_capacity": 256, "pool_states": 4000,
             "zipf_a": 0.6, "locality": 0.1, "trace_ops": 10_000}
    SMOKE = {"preferences": 1000, "rows": 100, "pool_states": 400, "trace_ops": 320}

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        sizes = self.sizes
        self.environment = synthetic_environment()
        self.profile = generate_profile(
            self.environment,
            ProfileSpec(
                num_preferences=sizes["preferences"],
                level_weights=sizes["level_weights"],
                num_attributes=sizes["attributes"],
                num_attribute_values=sizes["values"],
                seed=seed,
            ),
        )
        rng = np.random.default_rng(seed)
        self.schema = Schema(
            [Attribute("pid", "int")]
            + [Attribute(f"attr{i}", "str") for i in range(sizes["attributes"])]
        )
        self.rows = [
            {"pid": row_id}
            | {f"attr{i}": f"v{int(rng.integers(sizes['values']))}" for i in range(sizes["attributes"])}
            for row_id in range(sizes["rows"])
        ]
        profile_states = self.profile.states()
        leaves: dict[tuple[str, object], list] = {}
        self.pool = []
        for _ in range(sizes["pool_states"]):
            state = profile_states[int(rng.integers(len(profile_states)))]
            values = []
            for parameter, value in zip(self.environment, state.values):
                key = (parameter.name, value)
                if key not in leaves:
                    leaves[key] = sorted(parameter.hierarchy.leaves(value), key=str)
                values.append(leaves[key][int(rng.integers(len(leaves[key])))])
            self.pool.append(ContextState(self.environment, values))

    def _executor(self, cache: ContextQueryTree | None, auto_index: bool):
        relation = Relation("synthetic", self.schema, self.rows, auto_index=auto_index)
        tree = ProfileTree.from_profile(self.profile, optimal_ordering(self.environment))
        return ContextualQueryExecutor(tree, relation, cache=cache)

    def setup(self, workdir: Path) -> ContextualQueryExecutor:
        cache = ContextQueryTree(self.environment, capacity=self.sizes["cache_capacity"])
        return self._executor(cache, auto_index=True)

    def ops(self, stream: int) -> Iterator[tuple]:
        states = query_stream(
            self.pool,
            _ENDLESS,
            seed=stream_seed(self.seed, stream),
            zipf_a=self.sizes["zipf_a"],
            locality=self.sizes["locality"],
        )
        for state in states:
            yield "query", ContextualQuery.at_state(state)

    def call(self, executor: ContextualQueryExecutor, op: tuple) -> object:
        return executor.execute(op[1])

    def fingerprint(self, op: tuple, reply: object) -> str | None:
        return fingerprint(ranking_pairs(reply))

    def reference(self, stream: int, count: int) -> list[str]:
        twin = self._executor(None, auto_index=False)
        return [
            fingerprint(ranking_pairs(twin.execute(op[1], use_cache=False, use_index=False)))
            for op in itertools.islice(self.ops(stream), count)
        ]


class ShardedWire(Workload):
    """Batches through the router, frame codec, sockets and one worker.

    One worker with one thread and no simulated I/O: router plus worker
    are two busy processes on two cores, so this is the CPU-bound wire
    number. Requests draw the :func:`wide_pool` states and the users
    uniformly, so every batch carries about the same work.
    """

    name = "sharded_wire"
    SIZES = {"users": 64, "rows": 750, "batch": 8, "top_k": 10, "trace_ops": 240}
    SMOKE = {"users": 8, "rows": 300, "trace_ops": 40}
    warmup = 1

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.requests_per_op = self.sizes["batch"]
        self.environment = study_environment()
        personas = all_personas()
        self.users = [
            (f"user{index}", personas[index % len(personas)])
            for index in range(self.sizes["users"])
        ]
        self.pool = wide_pool(self.environment)

    def setup(self, workdir: Path) -> ShardRouter:
        router = ShardRouter(
            1,
            wal_root=str(workdir / "wal"),
            num_rows=self.sizes["rows"],
            data_seed=self.seed,
            io_wait_ms=0,
            worker_threads=1,
        ).start()
        try:
            router.register_many(self.users)
        except BaseException:
            router.close()
            raise
        return router

    def ops(self, stream: int) -> Iterator[tuple]:
        seed = stream_seed(self.seed, stream)
        states = query_stream(self.pool, _ENDLESS, seed=seed, zipf_a=0.0)
        rng = np.random.default_rng(seed + 1)
        top_k = self.sizes["top_k"]
        while True:
            yield "batch", [
                (self.users[int(rng.integers(len(self.users)))][0], next(states), top_k)
                for _ in range(self.requests_per_op)
            ]

    def call(self, router: ShardRouter, op: tuple) -> object:
        return router.query_many(op[1])

    def fingerprint(self, op: tuple, reply: object) -> str | None:
        if not all(row.get("ok") for row in reply):
            return None
        return fingerprint([row["ranking"] for row in reply])

    def reference(self, stream: int, count: int) -> list[str]:
        twin = PersonalizationService(
            self.environment,
            generate_poi_relation(self.sizes["rows"], seed=self.seed),
            cache_capacity=None,
            auto_index=False,
        )
        twin.register_many(self.users)
        return [
            fingerprint(
                [
                    ranking_pairs(twin.query_at(user_id, state, top_k=top_k))
                    for user_id, state, top_k in op[1]
                ]
            )
            for op in itertools.islice(self.ops(stream), count)
        ]

    def probe(self, router: ShardRouter) -> dict[str, int]:
        return {"retries": router.retried_requests + router.hedged_requests}

    def close(self, router: ShardRouter) -> None:
        router.close()


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (RankWide, ResolveDeep, EditMix, ShardedWire)
}
