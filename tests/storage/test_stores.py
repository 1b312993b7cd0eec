"""Store contract tests: ``JsonlProfileStore`` behind ``ProfileStore``
(append/replay/snapshot/compaction, damage handling, fault sites,
metrics)."""

import pytest

from repro.exceptions import StorageError
from repro.faults import FaultSpec, InjectedFault, fault_plan
from repro.obs import get_registry
from repro.storage import JsonlProfileStore

PERSONA = {"age": "below30", "sex": "female", "taste": "offbeat"}


def register(user):
    return {"op": "register", "user": user, "persona": dict(PERSONA)}


@pytest.fixture(params=["jsonl"])
def opener(tmp_path):
    """A factory reopening the *same* store (crash/restart simulation)."""
    return lambda: JsonlProfileStore(tmp_path / "store")


@pytest.fixture
def store(opener):
    store = opener()
    yield store
    store.close()


class TestWal:
    def test_lsns_are_monotonic_from_one(self, store):
        assert store.last_lsn() == 0
        assert store.append(register("u1")) == 1
        assert store.append(register("u2")) == 2
        assert store.last_lsn() == 2

    def test_replay_returns_records_in_order(self, store):
        records = [register(f"u{index}") for index in range(5)]
        for record in records:
            store.append(record)
        replay = store.replay()
        assert [(lsn, data) for lsn, data in replay] == list(
            enumerate(records, start=1)
        )
        assert replay.records_read == 5
        assert not replay.torn_tail

    def test_replay_after_skips_the_prefix(self, store):
        for index in range(4):
            store.append(register(f"u{index}"))
        assert [lsn for lsn, _ in store.replay(after=2)] == [3, 4]

    def test_append_many_is_one_batch(self, store):
        last = store.append_many([register("u1"), register("u2"), register("u3")])
        assert last == 3
        assert store.last_lsn() == 3

    def test_malformed_record_rejected_without_logging(self, store):
        with pytest.raises(StorageError, match="unknown WAL op"):
            store.append({"op": "upsert", "user": "u1"})
        assert store.last_lsn() == 0
        assert list(store.replay()) == []

    def test_wal_survives_reopen(self, opener, store):
        store.append(register("u1"))
        store.append(register("u2"))
        store.close()
        reopened = opener()
        try:
            assert reopened.last_lsn() == 2
            assert [lsn for lsn, _ in reopened.replay()] == [1, 2]
            # Appends continue the LSN sequence, no reuse.
            assert reopened.append(register("u3")) == 3
        finally:
            reopened.close()


class TestSnapshots:
    def test_no_snapshot_initially(self, store):
        assert store.load_snapshot() is None

    def test_round_trip(self, store):
        records = [register("u1"), register("u2")]
        store.append_many(records)
        store.write_snapshot(iter(records), lsn=2)
        covered, replayed = store.load_snapshot()
        assert covered == 2
        assert list(replayed) == records

    def test_rewrite_replaces_previous_snapshot(self, store):
        store.write_snapshot(iter([register("u1")]), lsn=1)
        store.write_snapshot(iter([register("u2"), register("u3")]), lsn=3)
        covered, replayed = store.load_snapshot()
        assert covered == 3
        assert [record["user"] for record in replayed] == ["u2", "u3"]

    def test_snapshot_survives_reopen(self, opener, store):
        store.write_snapshot(iter([register("u1")]), lsn=1)
        store.close()
        reopened = opener()
        try:
            covered, replayed = reopened.load_snapshot()
            assert covered == 1
            assert [record["user"] for record in replayed] == ["u1"]
        finally:
            reopened.close()

    def test_compaction_drops_only_the_covered_prefix(self, store):
        for index in range(6):
            store.append(register(f"u{index}"))
        store.write_snapshot(iter([]), lsn=4)
        assert store.compact_wal(4) == 4
        assert [lsn for lsn, _ in store.replay()] == [5, 6]
        assert store.last_lsn() == 6
        assert store.append(register("u7")) == 7


class TestDamage:
    def test_jsonl_torn_tail_repaired_on_open(self, tmp_path):
        store = JsonlProfileStore(tmp_path / "store")
        store.append(register("u1"))
        store.append(register("u2"))
        store.close()
        with open(tmp_path / "store" / "wal.jsonl", "a", encoding="utf-8") as wal:
            wal.write('{"lsn": 3, "crc": 99, "data": {"op": "regis')
        reopened = JsonlProfileStore(tmp_path / "store")
        try:
            assert reopened.torn_bytes > 0
            assert reopened.last_lsn() == 2
            assert [lsn for lsn, _ in reopened.replay()] == [1, 2]
            # The truncated log accepts clean appends again.
            assert reopened.append(register("u3")) == 3
        finally:
            reopened.close()

    def test_jsonl_corrupt_record_stops_replay(self, tmp_path):
        # Damage appearing *after* open (open-time damage is repaired
        # by the tail scan) must stop a replay at the damaged record.
        store = JsonlProfileStore(tmp_path / "store")
        store.append(register("u1"))
        store.append(register("u2"))
        store.flush()
        wal_path = tmp_path / "store" / "wal.jsonl"
        first, second = wal_path.read_text().splitlines()
        wal_path.write_text(first + "\n" + second.replace('"u2"', '"uX"') + "\n")
        try:
            replay = store.replay()
            assert [lsn for lsn, _ in replay] == [1]
            assert replay.torn_tail
            assert "checksum" in str(replay.error)
        finally:
            store.close()

    def test_jsonl_open_time_damage_is_repaired_not_replayed(self, tmp_path):
        store = JsonlProfileStore(tmp_path / "store")
        store.append(register("u1"))
        store.append(register("u2"))
        store.close()
        wal_path = tmp_path / "store" / "wal.jsonl"
        first, second = wal_path.read_text().splitlines()
        wal_path.write_text(first + "\n" + second.replace('"u2"', '"uX"') + "\n")
        reopened = JsonlProfileStore(tmp_path / "store")
        try:
            # The scan truncated the damaged record; replay is clean.
            assert reopened.torn_bytes > 0
            replay = reopened.replay()
            assert [lsn for lsn, _ in replay] == [1]
            assert not replay.torn_tail
        finally:
            reopened.close()


class TestFaultSites:
    def test_append_fault_leaves_the_log_untouched(self, store):
        with fault_plan([FaultSpec(site="storage.append", kind="error")]):
            with pytest.raises(InjectedFault):
                store.append(register("u1"))
        assert store.last_lsn() == 0
        assert list(store.replay()) == []

    def test_replay_and_snapshot_faults_fire(self, store):
        store.append(register("u1"))
        with fault_plan([FaultSpec(site="storage.replay", kind="error")]):
            with pytest.raises(InjectedFault):
                store.replay()
        with fault_plan([FaultSpec(site="storage.snapshot", kind="error")]):
            with pytest.raises(InjectedFault):
                store.write_snapshot(iter([]), lsn=1)
        assert store.load_snapshot() is None


class TestMetrics:
    @pytest.fixture
    def registry(self):
        registry = get_registry()
        was_enabled = registry.enabled
        registry.reset()
        registry.enable()
        yield registry
        registry.reset()
        if not was_enabled:
            registry.disable()

    def test_storage_counters(self, store, registry):
        store.append(register("u1"))
        store.append_many([register("u2"), register("u3")])
        list(store.replay())
        store.write_snapshot(iter([register("u1")]), lsn=1)
        counters = registry.snapshot()["counters"]
        assert counters["storage.appends"][""] == 3.0
        assert counters["storage.replays"][""] == 1.0
        assert counters["storage.snapshots"][""] == 1.0

    def test_torn_tail_counted(self, tmp_path, registry):
        store = JsonlProfileStore(tmp_path / "store")
        store.append(register("u1"))
        store.flush()
        wal_path = tmp_path / "store" / "wal.jsonl"
        wal_path.write_text(
            wal_path.read_text().replace('"u1"', '"uX"')
        )
        try:
            list(store.replay())
            counters = registry.snapshot()["counters"]
            assert counters["storage.torn_tails"][""] == 1.0
        finally:
            store.close()


def test_context_manager_closes(tmp_path):
    with JsonlProfileStore(tmp_path / "store") as store:
        store.append(register("u1"))
    with JsonlProfileStore(tmp_path / "store") as store:
        assert store.last_lsn() == 1
