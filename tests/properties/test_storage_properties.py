"""Property-based persistence tests.

Any randomly generated profile, pushed through the snapshot-record
stream and/or an actual WAL on disk, must come back identical -
environment, preferences and covered states alike.
"""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    AttributeClause,
    ContextDescriptor,
    ContextEnvironment,
    ContextParameter,
    ContextualPreference,
    Profile,
)
from repro.hierarchy import Hierarchy
from repro.io import profile_from_dict, profile_to_dict
from repro.preferences.repository import PreferenceRepository
from repro.storage import (
    JsonlProfileStore,
    apply_record,
    recover_state,
    snapshot_records,
)

_NAMES = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "kappa", "sigma", "omega", "zeta"]
)

_PERSONA = {"age": "below30", "sex": "female", "taste": "offbeat"}


@st.composite
def hierarchies(draw):
    """A random chain hierarchy with 1-3 levels below ALL."""
    num_levels = draw(st.integers(1, 3))
    level_sizes = []
    for depth in range(num_levels):
        upper_bound = 6 if depth == 0 else level_sizes[-1]
        level_sizes.append(draw(st.integers(1, upper_bound)))
    name = draw(_NAMES)
    levels = [f"L{depth}" for depth in range(num_levels)]
    members = {
        level: [f"{name}_{depth}_{rank}" for rank in range(size)]
        for depth, (level, size) in enumerate(zip(levels, level_sizes))
    }
    parent_of = {}
    for depth in range(num_levels - 1):
        lower, upper = members[levels[depth]], members[levels[depth + 1]]
        for rank, value in enumerate(lower):
            index = min(rank * len(upper) // len(lower), len(upper) - 1)
            parent_of[value] = upper[index]
    return Hierarchy(name, levels=levels, members=members, parent_of=parent_of)


@st.composite
def profiles(draw):
    environment = ContextEnvironment(
        [
            ContextParameter(draw(hierarchies()), name=f"p{index}")
            for index in range(draw(st.integers(1, 3)))
        ]
    )
    profile = Profile(environment)
    for _ in range(draw(st.integers(0, 6))):
        conditions = {}
        for parameter in environment:
            if draw(st.booleans()):
                conditions[parameter.name] = draw(
                    st.sampled_from(parameter.edom)
                )
        clause = AttributeClause(
            draw(_NAMES),
            draw(st.integers(0, 5)),
            draw(st.sampled_from(["=", "<", ">="])),
        )
        score = draw(st.integers(0, 100)) / 100
        preference = ContextualPreference(
            ContextDescriptor.from_mapping(conditions), clause, score
        )
        if not profile.would_conflict(preference):
            profile.add(preference)
    return profile


def assert_profiles_equal(rebuilt: Profile, original: Profile) -> None:
    assert rebuilt.environment == original.environment
    assert list(rebuilt) == list(original)
    assert {state.values for state in rebuilt.states()} == {
        state.values for state in original.states()
    }


class TestSnapshotRoundTrip:
    @settings(max_examples=40)
    @given(profiles())
    def test_snapshot_records_reproduce_any_repository(self, profile):
        repository = PreferenceRepository(profile.environment, profile)
        directory = {"u1": dict(_PERSONA)}
        overrides = {"u1": profile_to_dict(repository.profile)}
        rebuilt_directory, rebuilt_overrides = {}, {}
        for record in snapshot_records(directory, overrides):
            apply_record(record, rebuilt_directory, rebuilt_overrides)
        assert rebuilt_directory == directory
        assert_profiles_equal(
            profile_from_dict(rebuilt_overrides["u1"]), profile
        )

    @settings(max_examples=40)
    @given(profiles())
    def test_serialized_profile_survives_record_canonicalisation(self, profile):
        # The WAL stores the canonical JSON of each record; the profile
        # payload inside must survive that second encoding unchanged.
        import json

        payload = profile_to_dict(profile)
        canonical = json.loads(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
        )
        assert_profiles_equal(profile_from_dict(canonical), profile)


class TestWalRoundTrip:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(profiles())
    def test_wal_plus_snapshot_recover_any_repository(self, profile):
        repository = PreferenceRepository(profile.environment, profile)
        payload = profile_to_dict(repository.profile)
        with tempfile.TemporaryDirectory() as tmp:
            store = JsonlProfileStore(Path(tmp) / "store")
            try:
                store.append(
                    {"op": "register", "user": "u1", "persona": dict(_PERSONA)}
                )
                store.append({"op": "import", "user": "u1", "profile": payload})
                # Snapshot half the state, keep the import in the WAL
                # tail: recovery must merge both.
                store.write_snapshot(
                    snapshot_records({"u1": dict(_PERSONA)}, {}), lsn=1
                )
                state = recover_state(store)
            finally:
                store.close()
        assert state.directory == {"u1": _PERSONA}
        assert state.replayed == 1 and not state.torn_tail
        assert_profiles_equal(profile_from_dict(state.overrides["u1"]), profile)
