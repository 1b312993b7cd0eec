"""Exactly-once under duplication, retries and dedup-LRU eviction.

At-least-once delivery (duplicated frames, reconnect-and-retry) plus
the workers' rid-dedup LRU must equal exactly-once application: an
edit is never applied twice, a reply is never double-served, and even
under eviction pressure a replayed rid stays state-safe because every
WAL-vocabulary record application is idempotent.
"""

import pytest

from repro.eval.oracle import reference_service
from repro.faults.registry import FaultSpec, fault_plan
from repro.io.serialize import preference_to_dict
from repro.sharding.worker import _Dedup, ranking_pairs

from tests.sharding.conftest import (
    NUM_ROWS,
    NUM_USERS,
    SEED,
    TOP_K,
    USERS,
    start_router,
)


@pytest.fixture
def local_twin():
    service = reference_service(NUM_USERS, NUM_ROWS, SEED)
    yield service
    service.close()


def edits_applied(router):
    stats = router.stats()
    return sum(
        row.get("edits_applied", 0) for row in stats["workers"].values()
    )


def dedup_hits(router):
    stats = router.stats()
    return sum(row.get("dedup_hits", 0) for row in stats["workers"].values())


class TestDedupLRU:
    def test_replay_serves_the_cached_reply(self):
        dedup = _Dedup(capacity=4)
        dedup.put("r1", {"rid": "r1", "ok": True})
        assert dedup.get("r1") == {"rid": "r1", "ok": True}
        assert dedup.hits == 1

    def test_eviction_is_least_recently_used(self):
        dedup = _Dedup(capacity=2)
        dedup.put("r1", {"rid": "r1"})
        dedup.put("r2", {"rid": "r2"})
        dedup.get("r1")  # refresh r1: r2 becomes the eviction victim
        dedup.put("r3", {"rid": "r3"})
        assert dedup.get("r2") is None
        assert dedup.get("r1") is not None
        assert dedup.get("r3") is not None
        assert len(dedup) == 2

    def test_capacity_floor_is_one(self):
        dedup = _Dedup(capacity=0)
        dedup.put("r1", {"rid": "r1"})
        assert len(dedup) == 1


class TestEditExactlyOnce:
    def test_dropped_reply_retry_does_not_reapply(self, tmp_path, local_twin):
        """The reply frame is dropped after the edit applied; the retry
        re-sends the same rid and must be answered from the dedup
        cache, not applied again."""
        router = start_router(tmp_path, retry_backoff=0.005)
        try:
            user_id = USERS[0]
            preference = sorted(
                local_twin.account(user_id).repository, key=repr
            )[0]
            record = {
                "op": "update",
                "user": user_id,
                "preference": preference_to_dict(preference),
                "score": 0.5,
            }
            applied_before = edits_applied(router)
            hits_before = dedup_hits(router)
            with fault_plan(
                [FaultSpec(site="conn.recv", kind="drop", max_fires=1)],
                seed=SEED,
            ):
                reply = router.apply_edit(record)
            assert reply["ok"]
            # Served from the rid-dedup cache on the retry.
            assert reply.get("duplicate") is True
            assert edits_applied(router) - applied_before == 1
            assert dedup_hits(router) - hits_before >= 1
        finally:
            router.close()

    def test_duplicated_edit_frame_applies_once(self, tmp_path, local_twin):
        """conn.send duplicate delivers the edit frame twice back to
        back; the second copy must be a dedup hit and the stale second
        reply must not desynchronise later exchanges."""
        router = start_router(tmp_path)
        try:
            user_id = USERS[1]
            preference = sorted(
                local_twin.account(user_id).repository, key=repr
            )[0]
            record = {
                "op": "update",
                "user": user_id,
                "preference": preference_to_dict(preference),
                "score": 0.25,
            }
            applied_before = edits_applied(router)
            with fault_plan(
                [FaultSpec(site="conn.send", kind="duplicate", max_fires=1)],
                seed=SEED,
            ):
                reply = router.apply_edit(record)
            assert reply["ok"]
            assert edits_applied(router) - applied_before == 1
            # The stream stays usable after the stale duplicate reply.
            local_twin.update_preference(user_id, preference, 0.25)
            state_pool = router.stats()  # a post-fault exchange works
            assert state_pool["workers"]
        finally:
            router.close()


class TestQueryExactlyOnce:
    def test_dropped_replies_never_double_serve(
        self, tmp_path, local_twin, states
    ):
        router = start_router(tmp_path, retry_backoff=0.005)
        try:
            requests = [
                (user_id, state, TOP_K)
                for user_id in USERS
                for state in states[:2]
            ]
            expected = [
                ranking_pairs(
                    local_twin.query_at(user_id, state, top_k=top_k)
                )
                for user_id, state, top_k in requests
            ]
            with fault_plan(
                [
                    FaultSpec(site="conn.recv", kind="drop", max_fires=1),
                    FaultSpec(site="conn.send", kind="duplicate", max_fires=2),
                ],
                seed=SEED,
            ):
                replies = router.query_many(requests)
            assert len(replies) == len(requests)
            rids = [reply["rid"] for reply in replies]
            assert len(set(rids)) == len(rids), "a rid was answered twice"
            assert all(reply["ok"] for reply in replies)
            assert [reply["ranking"] for reply in replies] == expected
        finally:
            router.close()


class TestEvictionPressure:
    def test_idempotent_records_stay_safe_past_eviction(
        self, tmp_path, local_twin, states
    ):
        """With a 1-slot dedup LRU every new request evicts the last
        rid, so retried frames routinely miss the cache and re-apply;
        because the WAL vocabulary is idempotent the final state must
        still match a twin that applied each edit exactly once."""
        router = start_router(
            tmp_path, dedup_capacity=1, retry_backoff=0.005
        )
        try:
            user_id = USERS[2]
            preferences = sorted(
                local_twin.account(user_id).repository, key=repr
            )
            scores = [round(0.1 * step, 1) for step in range(1, 7)]
            with fault_plan(
                [FaultSpec(site="conn.recv", kind="drop", max_fires=2)],
                seed=SEED,
            ):
                for step, score in enumerate(scores):
                    preference = preferences[step % len(preferences)]
                    reply = router.apply_edit(
                        {
                            "op": "update",
                            "user": user_id,
                            "preference": preference_to_dict(preference),
                            "score": score,
                        }
                    )
                    assert reply["ok"]
                    local_twin.update_preference(user_id, preference, score)
            for state in states[:2]:
                expected = ranking_pairs(
                    local_twin.query_at(user_id, state, top_k=TOP_K)
                )
                [routed] = router.query_many([(user_id, state, TOP_K)])
                assert routed["ok"] and routed["ranking"] == expected
        finally:
            router.close()
