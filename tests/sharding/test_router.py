"""Router end-to-end: routing, queries vs the twin, edits, health."""

import pytest

from repro.exceptions import ShardError
from repro.sharding import ShardRouter
from repro.sharding.worker import ranking_pairs

from tests.sharding.conftest import TOP_K, USERS, start_router


class TestLifecycle:
    def test_rejects_zero_workers(self):
        with pytest.raises(ShardError, match="num_workers"):
            ShardRouter(0)

    def test_unknown_worker_field_fails_before_spawning(self):
        with pytest.raises(TypeError, match="bogus"):
            ShardRouter(1, bogus=1)

    def test_double_start_rejected(self, router):
        with pytest.raises(ShardError, match="already started"):
            router.start()

    def test_workers_are_reaped_on_close(self, tmp_path):
        router = start_router(tmp_path / "wal")
        processes = [handle.process for handle in router._workers.values()]
        router.close()
        assert processes and not any(
            process.is_alive() for process in processes
        )


class TestRouting:
    def test_route_is_stable_and_on_ring(self, router):
        for user_id in USERS:
            owner = router.route(user_id)
            assert owner in router.workers
            assert router.route(user_id) == owner

    def test_population_spans_both_workers(self, router):
        owners = {router.route(user_id) for user_id in USERS}
        assert owners == set(router.workers)

    def test_router_is_the_single_wal_writer(self, router):
        assert router.store is not None
        assert not router.store.read_only
        # Every registration was WAL-appended before forwarding.
        assert router.store.last_lsn() == len(USERS)


class TestQueries:
    def test_rankings_identical_to_twin(self, router, twin, states):
        requests = [
            (user_id, state, TOP_K)
            for user_id in USERS
            for state in states
        ]
        replies = router.query_many(requests)
        assert len(replies) == len(requests)
        for (user_id, state, _), reply in zip(requests, replies):
            assert reply["ok"], reply
            assert not reply["duplicate"]
            expected = ranking_pairs(twin.query_at(user_id, state, top_k=TOP_K))
            assert reply["ranking"] == expected

    def test_unknown_user_fails_without_poisoning_the_batch(
        self, router, states
    ):
        replies = router.query_many(
            [("ghost", states[0], TOP_K), (USERS[0], states[0], TOP_K)]
        )
        assert not replies[0]["ok"]
        assert "ghost" in replies[0]["error"]
        assert replies[1]["ok"]

    def test_worker_stats_cover_the_population(self, router, states):
        router.query_many([(user_id, states[0], TOP_K) for user_id in USERS])
        stats = router.stats()
        assert set(stats["workers"]) == set(router.workers)
        assert all(row["ok"] for row in stats["workers"].values())
        # Each user lives on exactly one shard and was queried once.
        assert (
            sum(row["users"] for row in stats["workers"].values())
            == len(USERS)
        )
        assert (
            sum(row["queries_served"] for row in stats["workers"].values())
            == len(USERS)
        )


class TestEdits:
    def test_update_is_visible_and_matches_twin(self, router, twin, states):
        user_id = USERS[0]
        # Take an existing preference from the twin (identical default
        # profiles) and re-score it through the router.
        from repro.io.serialize import preference_to_dict

        preference = next(iter(twin.account(user_id).repository))
        new_score = round(min(0.95, preference.score + 0.07), 2)
        record = {
            "op": "update",
            "user": user_id,
            "preference": preference_to_dict(preference),
            "score": new_score,
        }
        reply = router.apply_edit(record)
        assert reply["ok"] and reply["applied_via"] == "forward"
        twin.update_preference(user_id, preference, new_score)
        for state in states:
            expected = ranking_pairs(twin.query_at(user_id, state, top_k=TOP_K))
            [routed] = router.query_many([(user_id, state, TOP_K)])
            assert routed["ranking"] == expected

    def test_edit_is_wal_logged_before_forwarding(self, router, twin):
        from repro.io.serialize import preference_to_dict

        user_id = USERS[1]
        preference = next(iter(twin.account(user_id).repository))
        before = router.store.last_lsn()
        router.apply_edit(
            {
                "op": "remove",
                "user": user_id,
                "preference": preference_to_dict(preference),
            }
        )
        assert router.store.last_lsn() == before + 1

    def test_malformed_record_rejected_before_the_wal(self, router):
        before = router.store.last_lsn()
        with pytest.raises(Exception, match="unknown WAL op"):
            router.apply_edit({"op": "explode", "user": "user0"})
        assert router.store.last_lsn() == before

    def test_repeated_rid_is_deduplicated(self, router, twin):
        from tests.sharding.conftest import population

        user_id = USERS[2]
        owner = router.route(user_id)
        handle = router._workers[owner]
        record = {
            "op": "register",
            "user": "fresh-user",
            "persona": {
                "age_group": population()[0][1].age_group,
                "sex": population()[0][1].sex,
                "taste": population()[0][1].taste,
            },
        }
        payload = {"op": "edit", "rid": "fixed-rid", "record": record}
        first = router._exchange(handle, payload)
        second = router._exchange(handle, payload)
        assert first["ok"] and not first["duplicate"]
        assert second["ok"] and second["duplicate"]


class TestHealth:
    def test_all_healthy(self, router):
        report = router.check_health()
        assert set(report) == set(router.workers)
        for row in report.values():
            assert row["alive"] and row["on_ring"]
            assert row["breaker"] == "closed"
        assert sum(row["users"] for row in report.values()) == len(USERS)
