"""Durability tests: every mutation is WAL-appended before the call
returns, failed appends roll back atomically, and a fresh service
recovers exactly the persisted population."""

import pytest

from repro import ContextState, ContextualQuery, generate_poi_relation
from repro.exceptions import ReproError
from repro.faults import FaultSpec, InjectedFault, fault_plan
from repro.service import PersonalizationService
from repro.storage import JsonlProfileStore
from repro.workloads import Persona, study_environment


@pytest.fixture(params=["jsonl"])
def open_store(tmp_path):
    return lambda: JsonlProfileStore(tmp_path / "store")


@pytest.fixture
def relation():
    return generate_poi_relation(40, seed=21)


@pytest.fixture
def make_service(open_store, relation):
    services = []

    def build(**kwargs):
        service = PersonalizationService(
            study_environment(),
            relation,
            cache_capacity=4,
            store=open_store(),
            **kwargs,
        )
        services.append(service)
        return service

    yield build
    for service in services:
        service.close()


@pytest.fixture
def query():
    environment = study_environment()
    state = ContextState.from_mapping(
        environment,
        {"accompanying_people": "friends", "temperature": "warm",
         "location": "Plaka"},
    )
    return ContextualQuery.at_state(state, top_k=5)


def persona():
    return Persona("below30", "female", "offbeat")


def canonical(payload: str):
    """Profile JSON, order-insensitively (a rolled-back delete re-adds
    the preference at the end of the list; content is what matters)."""
    import json

    data = json.loads(payload)
    data["preferences"] = sorted(
        data["preferences"], key=lambda entry: json.dumps(entry, sort_keys=True)
    )
    return data


class TestRecovery:
    def test_registrations_and_edits_recover(self, make_service, query):
        service = make_service()
        service.register("alice", persona())
        service.register("bob", Persona("above50", "male", "mainstream"))
        preference = next(iter(service.account("alice").repository))
        service.delete_preference("alice", preference)
        expected = {
            user: service.export_profile(user) for user in ("alice", "bob")
        }
        rankings = {
            user: [
                (item.row["pid"], item.score)
                for item in service.query(user, query).results
            ]
            for user in ("alice", "bob")
        }
        service.close()

        recovered = make_service()
        assert len(recovered) == 2
        assert recovered.last_recovery.users == 2
        for user in ("alice", "bob"):
            assert recovered.export_profile(user) == expected[user]
            assert [
                (item.row["pid"], item.score)
                for item in recovered.query(user, query).results
            ] == rankings[user]

    def test_unregister_is_durable(self, make_service):
        service = make_service()
        service.register("alice", persona())
        service.register("bob", persona())
        service.unregister("alice")
        service.close()
        recovered = make_service()
        assert "alice" not in recovered and "bob" in recovered

    def test_import_is_durable(self, make_service):
        service = make_service()
        service.register("alice", persona())
        payload = service.export_profile("alice")
        preference = next(iter(service.account("alice").repository))
        service.delete_preference("alice", preference)
        service.import_profile("alice", payload)
        service.close()
        recovered = make_service()
        assert recovered.export_profile("alice") == payload

    def test_recovery_after_snapshot_and_compaction(self, make_service):
        service = make_service()
        service.register("alice", persona())
        preference = next(iter(service.account("alice").repository))
        service.delete_preference("alice", preference)
        expected = service.export_profile("alice")
        covered = service.snapshot(compact=True)
        assert covered == service.store.last_lsn()
        service.close()
        recovered = make_service()
        # Everything came from the snapshot; the WAL tail was empty.
        assert recovered.last_recovery.snapshot_lsn == covered
        assert recovered.last_recovery.replayed == 0
        assert recovered.export_profile("alice") == expected

    def test_recover_false_starts_empty(self, make_service):
        service = make_service(recover=False)
        assert len(service) == 0 and service.last_recovery is None


class TestFailedAppendAtomicity:
    def test_failed_register_leaves_no_trace(self, make_service):
        service = make_service()
        with fault_plan([FaultSpec(site="storage.append", kind="error")]):
            with pytest.raises(InjectedFault):
                service.register("alice", persona())
        assert "alice" not in service
        assert service.store.last_lsn() == 0
        service.close()
        assert len(make_service()) == 0

    def test_failed_edit_rolls_back_repository_and_override(self, make_service):
        service = make_service()
        service.register("alice", persona())
        before = service.export_profile("alice")
        preference = next(iter(service.account("alice").repository))
        with fault_plan([FaultSpec(site="storage.append", kind="error")]):
            with pytest.raises(InjectedFault):
                service.delete_preference("alice", preference)
            with pytest.raises(InjectedFault):
                service.add_preference("alice", preference)
            with pytest.raises(InjectedFault):
                service.update_preference("alice", preference, 0.99)
        assert canonical(service.export_profile("alice")) == canonical(before)
        assert service.paging_statistics()["overrides"] == 0
        service.close()
        assert canonical(make_service().export_profile("alice")) == canonical(
            before
        )

    def test_failed_import_keeps_the_old_profile(self, make_service):
        service = make_service()
        service.register("alice", persona())
        before = service.export_profile("alice")
        cache_before = service.account("alice").cache
        with fault_plan([FaultSpec(site="storage.append", kind="error")]):
            with pytest.raises(InjectedFault):
                service.import_profile("alice", before)
        assert service.export_profile("alice") == before
        # The live account was never touched: same cache, still watched.
        assert service.account("alice").cache is cache_before

    def test_failed_unregister_restores_the_user(self, make_service, query):
        service = make_service()
        service.register("alice", persona())
        with fault_plan([FaultSpec(site="storage.append", kind="error")]):
            with pytest.raises(InjectedFault):
                service.unregister("alice")
        assert "alice" in service
        assert service.query("alice", query).results
        service.close()
        assert "alice" in make_service()


class TestSnapshotCadence:
    def test_snapshot_every_triggers_and_compacts(self, make_service):
        service = make_service(snapshot_every=4)
        assert service.store.load_snapshot() is None
        for index in range(4):
            service.register(f"u{index}", persona())
        snapshot = service.store.load_snapshot()
        assert snapshot is not None
        covered, records = snapshot
        assert covered == 4
        assert sum(1 for _ in records) == 4
        # The covered prefix was compacted away.
        assert list(service.store.replay()) == []

    def test_invalid_cadence_rejected(self, relation, open_store):
        with pytest.raises(ReproError, match="snapshot_every"):
            PersonalizationService(
                study_environment(), relation, store=open_store(),
                snapshot_every=0,
            )

    def test_register_many_advances_the_cadence(self, make_service):
        service = make_service(snapshot_every=10)
        service.register_many((f"u{index}", persona()) for index in range(25))
        snapshot = service.store.load_snapshot()
        assert snapshot is not None
        assert snapshot[0] >= 20  # at least two cadence snapshots fired
