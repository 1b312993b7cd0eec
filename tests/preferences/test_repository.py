"""Tests for the preference repository (profile + index consistency)."""

import pytest

from repro import (
    AttributeClause,
    ConflictError,
    ContextDescriptor,
    ContextualPreference,
    ProfileTree,
)
from repro.exceptions import PreferenceError
from repro.preferences.repository import PreferenceRepository
from tests.conftest import state


def make(mapping, clause_value, score):
    return ContextualPreference(
        ContextDescriptor.from_mapping(mapping),
        AttributeClause("type", clause_value),
        score,
    )


def assert_consistent(repo):
    """Profile and tree must hold exactly the same records."""
    assert set(repo.tree.items()) == set(repo.profile.entries())
    assert repo.tree.num_states == len(set(repo.profile.states()))


class TestEdits:
    def test_add_updates_both(self, env):
        repo = PreferenceRepository(env)
        repo.add(make({"location": "Plaka"}, "brewery", 0.9))
        assert len(repo) == 1
        assert repo.tree.exact_lookup(state(env, location="Plaka")) is not None
        assert_consistent(repo)

    def test_conflicting_add_leaves_both_untouched(self, env):
        repo = PreferenceRepository(env, [make({"location": "Plaka"}, "brewery", 0.9)])
        with pytest.raises(ConflictError):
            repo.add(make({"location": "Plaka"}, "brewery", 0.1))
        assert len(repo) == 1
        assert_consistent(repo)

    def test_remove(self, env):
        preference = make({"location": "Plaka"}, "brewery", 0.9)
        repo = PreferenceRepository(env, [preference])
        repo.remove(preference)
        assert len(repo) == 0
        assert repo.tree.num_states == 0
        assert_consistent(repo)

    def test_remove_keeps_payloads_an_overlapping_preference_produces(self, env):
        plaka = make({"location": "Plaka"}, "cafeteria", 0.8)
        both = make({"location": ["Plaka", "Kifisia"]}, "cafeteria", 0.8)
        repo = PreferenceRepository(env, [plaka, both])
        repo.remove(plaka)
        rebuilt = ProfileTree.from_profile(repo.profile, repo.ordering)
        assert set(repo.tree.items()) == set(rebuilt.items())
        assert repo.tree.exact_lookup(state(env, location="Plaka")) == {
            AttributeClause("type", "cafeteria"): 0.8
        }

    def test_remove_missing_raises(self, env):
        repo = PreferenceRepository(env)
        with pytest.raises(PreferenceError):
            repo.remove(make({"location": "Plaka"}, "brewery", 0.9))

    def test_update_score(self, env):
        preference = make({"location": "Plaka"}, "brewery", 0.9)
        repo = PreferenceRepository(env, [preference])
        replacement = repo.update_score(preference, 0.3)
        assert replacement.score == 0.3
        assert preference not in repo and replacement in repo
        entries = repo.tree.exact_lookup(state(env, location="Plaka"))
        assert entries == {AttributeClause("type", "brewery"): 0.3}
        assert_consistent(repo)

    def test_update_score_missing_raises(self, env):
        repo = PreferenceRepository(env)
        with pytest.raises(PreferenceError):
            repo.update_score(make({"location": "Plaka"}, "brewery", 0.9), 0.3)

    def test_contains_and_iter(self, env, fig4_preferences):
        repo = PreferenceRepository(env, fig4_preferences)
        assert fig4_preferences[0] in repo
        assert list(repo) == fig4_preferences


class TestReindex:
    def test_default_ordering_is_optimal(self, env):
        repo = PreferenceRepository(env)
        assert repo.ordering == ("accompanying_people", "temperature", "location")

    def test_reindex_new_ordering(self, env, fig4_preferences):
        repo = PreferenceRepository(env, fig4_preferences)
        repo.reindex(("location", "temperature", "accompanying_people"))
        assert repo.ordering[0] == "location"
        assert_consistent(repo)

    def test_reindex_preserves_answers(self, env, fig4_preferences):
        repo = PreferenceRepository(env, fig4_preferences)
        query = state(
            env, accompanying_people="friends", temperature="warm", location="Kifisia"
        )
        before = repo.tree.exact_lookup(query)
        repo.reindex(("temperature", "location", "accompanying_people"))
        assert repo.tree.exact_lookup(query) == before


class TestPersistence:
    def test_json_round_trip(self, env, fig4_preferences):
        repo = PreferenceRepository(env, fig4_preferences)
        rebuilt = PreferenceRepository.from_json(repo.to_json())
        assert len(rebuilt) == len(repo)
        assert [p.score for p in rebuilt] == [p.score for p in repo]
        assert_consistent(rebuilt)

    def test_from_json_rejects_non_profiles(self, env, location):
        from repro.io import dumps

        with pytest.raises(PreferenceError):
            PreferenceRepository.from_json(dumps(location))

    def test_dsl_round_trip(self, env, fig4_preferences):
        repo = PreferenceRepository(env, fig4_preferences)
        script = repo.to_dsl()
        rebuilt = PreferenceRepository.from_dsl(script, env)
        assert list(rebuilt) == list(repo)
        assert_consistent(rebuilt)

    def test_dsl_script_is_readable(self, env, fig4_preferences):
        repo = PreferenceRepository(env, fig4_preferences)
        script = repo.to_dsl()
        assert "PREFER" in script and "WHEN" in script
        assert script.count("\n") == len(repo) + 1  # header + one per pref

    def test_round_trip_preserves_resolution(self, env, fig4_preferences):
        from repro import ContextResolver, ContextState

        repo = PreferenceRepository(env, fig4_preferences)
        rebuilt = PreferenceRepository.from_json(repo.to_json())
        query_values = ("friends", "warm", "Plaka")
        original = ContextResolver(repo.tree).resolve_state(
            ContextState(env, query_values)
        )
        mirrored = ContextResolver(rebuilt.tree).resolve_state(
            ContextState(rebuilt.environment, query_values)
        )
        assert [c.state.values for c in original.best] == [
            c.state.values for c in mirrored.best
        ]
