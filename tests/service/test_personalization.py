"""Tests for the multi-user personalization service."""

import pytest

from repro import (
    AttributeClause,
    ConflictError,
    ContextDescriptor,
    ContextState,
    ContextualPreference,
    ContextualQuery,
    generate_poi_relation,
)
from repro.eval.oracle import ranking
from repro.exceptions import QueryError, ReproError
from repro.service import PersonalizationService
from repro.workloads import Persona, study_environment


@pytest.fixture(scope="module")
def relation():
    return generate_poi_relation(60, seed=21)


@pytest.fixture
def service(relation):
    return PersonalizationService(study_environment(), relation)


@pytest.fixture
def alice(service):
    return service.register("alice", Persona("below30", "female", "offbeat"))


def preference(score=0.9):
    return ContextualPreference(
        ContextDescriptor.from_mapping(
            {"accompanying_people": "alone", "location": "Perama"}
        ),
        AttributeClause("name", "Acropolis"),
        score,
    )


class TestRegistration:
    def test_register_assigns_default_profile(self, service, alice):
        assert len(alice.repository) > 30
        assert "alice" in service
        assert len(service) == 1

    def test_personas_get_different_defaults(self, service):
        first = service.register("a", Persona("below30", "male", "mainstream"))
        second = service.register("b", Persona("above50", "male", "mainstream"))
        assert [p.score for p in first.repository] != [
            p.score for p in second.repository
        ]

    def test_duplicate_registration_rejected(self, service, alice):
        with pytest.raises(ReproError):
            service.register("alice", alice.persona)

    def test_empty_user_id_rejected(self, service):
        with pytest.raises(ReproError):
            service.register("", Persona("below30", "male", "mainstream"))

    def test_unregister(self, service, alice):
        service.unregister("alice")
        assert "alice" not in service
        with pytest.raises(ReproError):
            service.account("alice")

    def test_unknown_user(self, service):
        with pytest.raises(ReproError):
            service.account("nobody")


class TestProfileEditing:
    def test_add_counts_modification(self, service, alice):
        service.add_preference("alice", preference())
        assert alice.modifications == 1
        assert preference() in alice.repository

    def test_delete(self, service, alice):
        target = preference()
        service.add_preference("alice", target)
        service.delete_preference("alice", target)
        assert target not in alice.repository
        assert alice.modifications == 2

    def test_update(self, service, alice):
        target = preference()
        service.add_preference("alice", target)
        replacement = service.update_preference("alice", target, 0.3)
        assert replacement.score == 0.3
        assert target not in alice.repository

    def test_conflicting_add_rejected(self, service, alice):
        service.add_preference("alice", preference(0.9))
        with pytest.raises(ConflictError):
            service.add_preference("alice", preference(0.1))
        assert alice.modifications == 1  # the failed edit does not count

    def test_delete_keeps_what_an_overlapping_preference_produces(self):
        def brewery(location):
            return ContextualPreference(
                ContextDescriptor.from_mapping({"location": location}),
                AttributeClause("type", "brewery"),
                0.97,
            )

        environment = study_environment()
        relation = generate_poi_relation(300, seed=3)
        persona = Persona("below30", "female", "offbeat")
        plaka = brewery("Plaka")
        service = PersonalizationService(environment, relation)
        service.register("alice", persona)
        service.add_preference("alice", plaka)
        service.add_preference("alice", brewery(["Plaka", "Kifisia"]))
        service.delete_preference("alice", plaka)
        twin = PersonalizationService(environment, relation)
        twin.register("alice", persona)
        twin.import_profile("alice", service.export_profile("alice"))

        at_plaka = ContextState.from_mapping(environment, {"location": "Plaka"})
        served = service.query_at("alice", at_plaka, top_k=10).results
        imported = twin.query_at("alice", at_plaka, top_k=10).results
        assert ranking(served) == ranking(imported)
        assert served[0].score == 0.97

    def test_edit_invalidates_covered_cache_entries(self, service, alice):
        env = service.environment
        state = ContextState.from_mapping(env, {"accompanying_people": "friends",
                                                "temperature": "warm",
                                                "location": "Plaka"})
        service.query_at("alice", state)
        service.query_at("alice", state)
        assert alice.cache.hits == 1
        # A preference whose context covers the cached query state
        # drops exactly that entry.
        covering = ContextualPreference(
            ContextDescriptor.from_mapping({"location": "Athens"}),
            AttributeClause("name", "Odeon"),
            0.7,
        )
        service.add_preference("alice", covering)
        assert len(alice.cache) == 0

    def test_unrelated_edit_keeps_cache_entries(self, service, alice):
        env = service.environment
        state = ContextState.from_mapping(env, {"accompanying_people": "friends",
                                                "temperature": "warm",
                                                "location": "Plaka"})
        service.query_at("alice", state)
        # The edited preference's context (alone @ Perama) covers none
        # of the cached states: the cache survives.
        service.add_preference("alice", preference())
        assert len(alice.cache) == 1
        service.query_at("alice", state)
        assert alice.cache.hits == 1


class TestQuerying:
    def test_query_uses_own_profile(self, service, relation):
        env = service.environment
        service.register("classic", Persona("below30", "male", "mainstream"))
        service.register("edgy", Persona("below30", "male", "offbeat"))
        state = ContextState.from_mapping(
            env,
            {"accompanying_people": "friends", "temperature": "warm",
             "location": "Plaka"},
        )
        def type_scores(result):
            return {
                contribution.clause.value: contribution.score
                for item in result.results
                for contribution in item.contributions
            }
        classic = type_scores(service.query_at("classic", state, top_k=None))
        edgy = type_scores(service.query_at("edgy", state, top_k=None))
        assert classic != edgy
        # Tastes show through: the mainstream persona scores the
        # archaeological site higher than the offbeat one does.
        assert classic["archaeological_site"] > edgy["archaeological_site"]

    def test_query_counts(self, service, alice):
        env = service.environment
        state = ContextState.from_mapping(env, {"location": "Plaka"})
        service.query_at("alice", state)
        assert alice.queries_executed == 1

    def test_wrong_environment_rejected(self, service, alice):
        from repro import ContextEnvironment

        foreign_env = ContextEnvironment([service.environment.parameters[0]])
        with pytest.raises(QueryError):
            service.query("alice", ContextualQuery(foreign_env))

    def test_cacheless_service(self, relation):
        service = PersonalizationService(
            study_environment(), relation, cache_capacity=None
        )
        account = service.register("bob", Persona("30to50", "male", "offbeat"))
        assert account.cache is None
        env = service.environment
        state = ContextState.from_mapping(env, {"location": "Plaka"})
        result = service.query_at("bob", state)
        assert result.cache_hits == 0


class TestPersistenceAndStats:
    def test_profile_export_import(self, service, alice):
        service.add_preference("alice", preference())
        payload = service.export_profile("alice")
        service.import_profile("alice", payload)
        assert preference() in alice.repository

    def test_statistics(self, service, alice):
        env = service.environment
        state = ContextState.from_mapping(env, {"location": "Plaka"})
        service.query_at("alice", state)
        (row,) = service.statistics()
        assert row["user_id"] == "alice"
        assert row["queries"] == 1
        assert row["preferences"] == len(alice.repository)
        assert row["cache_hit_rate"] is not None


class TestRankMany:
    def test_batched_results_match_individual_rank_cs(self, service, alice):
        from repro import rank_cs

        descriptors = [
            ContextDescriptor.from_mapping({"accompanying_people": "friends"}),
            ContextDescriptor.from_mapping({"location": "Plaka"}),
            ContextDescriptor.from_mapping({"accompanying_people": "friends"}),
        ]
        results, stats = service.rank_many("alice", descriptors)
        assert len(results) == 3
        assert stats.descriptors == 3
        assert stats.state_memo_hits >= 1  # the repeated descriptor
        resolver = service.account("alice")._executor.resolver
        for descriptor, result in zip(descriptors, results):
            expected, _ = rank_cs(resolver, service.relation, descriptor)
            assert [(item.row["pid"], item.score) for item in result.results] == [
                (item.row["pid"], item.score) for item in expected
            ]
        assert alice.queries_executed == 3

    def test_rank_many_unknown_user(self, service):
        with pytest.raises(ReproError):
            service.rank_many("nobody", [])

    def test_service_enables_auto_index(self, relation):
        relation.auto_index = False
        PersonalizationService(study_environment(), relation)
        assert relation.auto_index
        service = PersonalizationService(
            study_environment(),
            generate_poi_relation(10, seed=3),
            auto_index=False,
        )
        assert not service.relation.auto_index
