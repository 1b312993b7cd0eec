"""Router hardening: wire faults must not look like process deaths.

Every scenario here injects transport faults (corruption, partitions,
resets) against live worker processes and asserts the two invariants
the router promises: a connection failure never declares the
worker dead (no ring change, no data movement - the link is repaired
and the request retried), and whatever path a request takes, its
ranking is byte-identical to the never-faulted twin.
"""

import pytest

from repro.exceptions import ShardError
from repro.faults.registry import FaultSpec, fault_plan
from repro.io.serialize import preference_to_dict
from repro.resilience import Deadline, deadline_scope
from repro.sharding.worker import ranking_pairs

from tests.sharding.conftest import SEED, TOP_K, USERS, make_twin, start_router


@pytest.fixture
def make_local_twin():
    """A function-scoped twin this file may mutate (edit scenarios)."""
    service = make_twin()
    yield service
    service.close()


def reference(twin, requests):
    return [
        ranking_pairs(twin.query_at(user_id, state, top_k=top_k))
        for user_id, state, top_k in requests
    ]


def full_batch(states):
    return [
        (user_id, state, TOP_K) for user_id in USERS for state in states[:2]
    ]


class TestConnectionFailureClassification:
    def test_corrupt_frame_is_retried_without_declaring_death(
        self, tmp_path, twin, states
    ):
        router = start_router(tmp_path, retry_backoff=0.005)
        try:
            requests = full_batch(states)
            expected = reference(twin, requests)
            with fault_plan(
                [FaultSpec(site="conn.send", kind="corrupt", max_fires=1)],
                seed=SEED,
            ):
                replies = router.query_many(requests)
            assert all(reply["ok"] for reply in replies)
            assert [reply["ranking"] for reply in replies] == expected
            rids = [reply["rid"] for reply in replies]
            assert len(rids) == len(set(rids)) == len(requests)
            stats = router.stats()
            assert stats["worker_deaths"] == 0
            assert stats["rebalances"] == 0
            assert stats["conn_failures"] >= 1
            assert stats["reconnects"] >= 1
            assert len(router.workers) == 2
        finally:
            router.close()

    def test_exhausted_retries_yield_per_request_error_rows(
        self, tmp_path, states
    ):
        router = start_router(tmp_path, max_retries=0)
        try:
            requests = full_batch(states)
            with fault_plan(
                [FaultSpec(site="conn.send", kind="corrupt", max_fires=2)],
                seed=SEED,
            ):
                replies = router.query_many(requests)
            assert len(replies) == len(requests)
            failed = [reply for reply in replies if not reply["ok"]]
            assert failed
            assert all("undeliverable" in reply["error"] for reply in failed)
            assert router.stats()["worker_deaths"] == 0
        finally:
            router.close()

    def test_reset_storm_heals_without_data_movement(
        self, tmp_path, twin, states
    ):
        router = start_router(tmp_path, retry_backoff=0.005)
        try:
            requests = full_batch(states)
            expected = reference(twin, requests)
            with fault_plan(
                [FaultSpec(site="conn.recv", kind="reset", max_fires=2)],
                seed=SEED,
            ):
                replies = router.query_many(requests)
            assert [reply["ranking"] for reply in replies] == expected
            assert router.stats()["worker_deaths"] == 0
        finally:
            router.close()


class TestPartition:
    def test_partitioned_edit_lands_in_the_wal_and_heals(
        self, tmp_path, make_local_twin, states
    ):
        twin = make_local_twin
        router = start_router(
            tmp_path,
            reconnect_attempts=1,
            reconnect_backoff=0.005,
            retry_backoff=0.005,
        )
        try:
            user_id = USERS[0]
            preference = sorted(
                twin.account(user_id).repository, key=repr
            )[0]
            record = {
                "op": "update",
                "user": user_id,
                "preference": preference_to_dict(preference),
                "score": 0.123,
            }
            with fault_plan(
                [FaultSpec(site="net.partition", kind="reset", max_fires=4)],
                seed=SEED,
            ):
                reply = router.apply_edit(record)
            # The owner was alive behind the partition: the edit is
            # durable via the WAL, the worker is NOT declared dead and
            # its shard does not move.
            assert reply["ok"] and reply["applied_via"] == "wal"
            stats = router.stats()
            assert stats["worker_deaths"] == 0
            assert stats["rebalances"] == 0
            assert stats["conn_failures"] >= 1
            assert len(router.workers) == 2
            # Post-heal, the edit is visible: rankings match a twin
            # that applied the same update directly.
            twin.update_preference(user_id, preference, 0.123)
            for state in states[:2]:
                expected = ranking_pairs(
                    twin.query_at(user_id, state, top_k=TOP_K)
                )
                [routed] = router.query_many([(user_id, state, TOP_K)])
                assert routed["ok"] and routed["ranking"] == expected
        finally:
            router.close()

    def test_partition_charges_the_breaker_without_killing(self, tmp_path):
        router = start_router(
            tmp_path, reconnect_attempts=1, reconnect_backoff=0.005
        )
        try:
            with fault_plan(
                [FaultSpec(site="net.partition", kind="reset", max_fires=1)],
                seed=SEED,
            ):
                report = router.check_health()
            assert any(
                row.get("unreachable") for row in report.values()
            ), "the partitioned probe was not classified unreachable"
            for row in report.values():
                assert row["alive"] is True
                assert row["on_ring"] is True
            assert router.worker_deaths == 0
            assert router.rebalances == 0
        finally:
            router.close()


class TestDrain:
    def test_drain_hands_the_shard_off_under_load(
        self, tmp_path, twin, states
    ):
        router = start_router(tmp_path)
        try:
            requests = full_batch(states)
            expected = reference(twin, requests)
            target = router.workers[0]
            report = router.drain_worker(target)
            assert report["drained"] == target
            assert target not in router.workers
            assert report["survivors"] == list(router.workers)
            replies = router.query_many(requests)
            assert [reply["ranking"] for reply in replies] == expected
            stats = router.stats()
            assert stats["drains"] == 1
            # A drain is planned maintenance, not a death.
            assert stats["worker_deaths"] == 0
            router.respawn_worker(target)
            assert target in router.workers
        finally:
            router.close()

    def test_drain_unknown_worker_is_rejected(self, tmp_path):
        router = start_router(tmp_path)
        try:
            with pytest.raises(ShardError, match="unknown"):
                router.drain_worker("w99")
        finally:
            router.close()

    def test_drain_dead_worker_is_rejected(self, tmp_path):
        router = start_router(tmp_path)
        try:
            victim = router.workers[0]
            router.kill_worker(victim)
            with pytest.raises(ShardError, match="dead"):
                router.drain_worker(victim)
        finally:
            router.close()

    def test_draining_the_last_worker_is_rejected(self, tmp_path):
        router = start_router(tmp_path)
        try:
            router.drain_worker(router.workers[0])
            with pytest.raises(ShardError, match="last worker"):
                router.drain_worker(router.workers[0])
        finally:
            router.close()


class TestDeadlinePropagation:
    def test_ambient_deadline_rides_the_wire(self, tmp_path, states):
        router = start_router(tmp_path, io_wait_ms=30.0)
        try:
            with deadline_scope(Deadline.after(0.001)):
                [reply] = router.query_many([(USERS[0], states[0], TOP_K)])
            assert not reply["ok"]
            assert reply.get("timed_out") is True
        finally:
            router.close()

    def test_roomy_budget_serves_normally(self, tmp_path, twin, states):
        router = start_router(tmp_path)
        try:
            with deadline_scope(Deadline.after(30.0)):
                [reply] = router.query_many([(USERS[0], states[0], TOP_K)])
            assert reply["ok"]
            assert reply["ranking"] == ranking_pairs(
                twin.query_at(USERS[0], states[0], top_k=TOP_K)
            )
        finally:
            router.close()


class TestHealthProbes:
    def test_probe_latency_is_measured_and_surfaced(self, tmp_path):
        router = start_router(tmp_path)
        try:
            report = router.check_health()
            for row in report.values():
                assert row["probe_ms"] is not None
                assert 0.0 <= row["probe_ms"] < 2000.0
            stats = router.stats()
            for name in router.workers:
                assert stats["workers"][name]["probe_latency_ms"] is not None
        finally:
            router.close()

    def test_probe_latency_is_none_before_any_probe(self, tmp_path):
        router = start_router(tmp_path)
        try:
            stats = router.stats()
            for name in router.workers:
                assert stats["workers"][name]["probe_latency_ms"] is None
        finally:
            router.close()

