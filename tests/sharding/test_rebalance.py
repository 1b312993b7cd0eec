"""Rebalancing: worker death re-homes its shard, recovered users serve
rankings identical to a never-crashed twin, and no request is served
twice (idempotent frame ids)."""

import pytest

from repro.eval.oracle import population
from repro.exceptions import ShardError
from repro.faults.registry import FaultSpec, fault_plan
from repro.io.serialize import preference_to_dict
from repro.sharding import ShardRouter
from repro.sharding.worker import ranking_pairs

from tests.sharding.conftest import (
    NUM_ROWS,
    NUM_USERS,
    SEED,
    TOP_K,
    USERS,
    start_router,
)


def reference(twin, requests):
    return [
        ranking_pairs(twin.query_at(user_id, state, top_k=top_k))
        for user_id, state, top_k in requests
    ]


def full_batch(states):
    return [
        (user_id, state, TOP_K) for user_id in USERS for state in states[:2]
    ]


class TestWorkerDeath:
    def test_dead_shard_is_rehomed_with_identical_rankings(
        self, router, twin, states
    ):
        requests = full_batch(states)
        expected = reference(twin, requests)
        victim = router.route(USERS[0])
        router.kill_worker(victim)
        replies = router.query_many(requests)
        assert all(reply["ok"] for reply in replies)
        assert [reply["ranking"] for reply in replies] == expected
        assert victim not in router.workers
        assert all(reply["worker"] != victim for reply in replies)
        stats = router.stats()
        assert stats["worker_deaths"] == 1
        assert stats["rebalances"] == 1
        # The router declares the known death *before* the
        # first dispatch round, so the whole batch is served in one
        # round and no retry is burned on discovering the crash.
        assert stats["retried_requests"] == 0

    def test_no_request_is_double_served(self, router, states):
        requests = full_batch(states)
        router.kill_worker(router.route(USERS[0]))
        replies = router.query_many(requests)
        # One reply per request, every retry re-used its original frame
        # id on a fresh owner, so nothing was served from a dedup hit.
        assert len(replies) == len(requests)
        assert not any(reply.get("duplicate") for reply in replies)

    def test_chaos_kill_mid_dispatch(self, router, twin, states):
        requests = full_batch(states)
        expected = reference(twin, requests)
        with fault_plan(
            [FaultSpec(site="worker.kill", kind="error", max_fires=1)],
            seed=SEED,
        ):
            replies = router.query_many(requests)
        assert router.worker_deaths == 1
        assert len(router.workers) == 1
        assert all(reply["ok"] for reply in replies)
        assert not any(reply.get("duplicate") for reply in replies)
        assert [reply["ranking"] for reply in replies] == expected

    def test_all_workers_dead_is_an_error(self, router, states):
        for name in list(router.workers):
            router.kill_worker(name)
        with pytest.raises(ShardError, match="all workers are dead"):
            router.query_many([(USERS[0], states[0], TOP_K)])

    def test_health_check_discovers_a_silent_death(self, router):
        victim = router.route(USERS[0])
        router.kill_worker(victim)
        report = router.check_health()
        assert report[victim]["alive"] is False
        assert report[victim]["on_ring"] is False
        assert report[victim]["breaker"] == "open"
        assert router.rebalances == 1


class TestEditsDuringDeath:
    def test_edit_to_a_dead_shard_survives_via_the_wal(
        self, router, twin, states
    ):
        user_id = USERS[0]
        preference = next(iter(twin.account(user_id).repository))
        victim = router.route(user_id)
        router.kill_worker(victim)
        reply = router.apply_edit(
            {
                "op": "remove",
                "user": user_id,
                "preference": preference_to_dict(preference),
            }
        )
        # The WAL already held the record when the forward failed; the
        # rebalance resync applied it on the new owner.
        assert reply["ok"] and reply["applied_via"] == "resync"
        twin.delete_preference(user_id, preference)
        for state in states:
            expected = ranking_pairs(
                twin.query_at(user_id, state, top_k=TOP_K)
            )
            [routed] = router.query_many([(user_id, state, TOP_K)])
            assert routed["ok"] and routed["ranking"] == expected


class TestRespawn:
    def test_respawned_worker_rejoins_current(self, router, twin, states):
        requests = full_batch(states)
        expected = reference(twin, requests)
        victim = router.route(USERS[0])
        router.kill_worker(victim)
        router.query_many(requests)  # discover + rebalance
        router.respawn_worker(victim)
        assert victim in router.workers
        replies = router.query_many(requests)
        assert [reply["ranking"] for reply in replies] == expected
        report = router.check_health()
        assert report[victim]["alive"] and report[victim]["on_ring"]

    def test_respawning_a_live_worker_is_rejected(self, router):
        with pytest.raises(ShardError, match="alive"):
            router.respawn_worker(router.workers[0])


class TestWithoutDurability:
    def test_rerouted_users_degrade_without_a_wal(self, tmp_path, states):
        router = ShardRouter(2, num_rows=NUM_ROWS, data_seed=SEED)
        try:
            router.start()
            router.register_many(population(NUM_USERS))
            victim = router.route(USERS[0])
            rerouted = [
                user_id for user_id in USERS if router.route(user_id) == victim
            ]
            router.kill_worker(victim)
            replies = router.query_many(
                [(user_id, states[0], TOP_K) for user_id in USERS]
            )
            # Survivor shards still serve; re-routed users are unknown
            # on their new owner because there is no WAL to resync from.
            for (user_id, _, _), reply in zip(
                [(u, None, None) for u in USERS], replies
            ):
                if user_id in rerouted:
                    assert not reply["ok"]
                    assert "unknown user" in reply["error"]
                else:
                    assert reply["ok"]
        finally:
            router.close()
