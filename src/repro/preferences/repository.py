"""A preference repository: profile + index, kept consistent.

The paper's system is a *preference database*: users insert, update and
delete contextual preferences (the usability study counts exactly these
modifications), queries resolve against the profile tree, and the
profile survives across sessions. This facade owns both the
:class:`Profile` (the logical set, Def. 7) and its
:class:`ProfileTree` index (Sec. 3.3), guaranteeing they never diverge,
and round-trips through the :mod:`repro.io` JSON format.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

from repro.exceptions import PreferenceError
from repro.context.environment import ContextEnvironment
from repro.preferences.preference import ContextualPreference
from repro.preferences.profile import Profile

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps layering clean
    from repro.tree.profile_tree import ProfileTree

__all__ = ["PreferenceRepository"]


class PreferenceRepository:
    """Owns a profile and its tree index; edits hit both atomically.

    Args:
        environment: The context environment.
        preferences: Initial preferences (conflicts raise, Def. 6).
        ordering: Parameter-to-level ordering for the index; defaults to
            the size-optimal one (large domains low, Sec. 3.3).

    Example:
        >>> repo = PreferenceRepository(env)
        >>> repo.add(preference)
        >>> repo.tree.exact_lookup(state)
        {...}
    """

    def __init__(
        self,
        environment: ContextEnvironment,
        preferences: Iterable[ContextualPreference] = (),
        ordering: Sequence[str] | None = None,
    ) -> None:
        # Deferred: the tree index lives one layer *above* preferences
        # (tree imports preferences), so the facade resolves it at call
        # time - the same pattern as the io/dsl round-trips below.
        from repro.tree.ordering import optimal_ordering
        from repro.tree.profile_tree import ProfileTree

        self._environment = environment
        self._ordering = tuple(ordering) if ordering else optimal_ordering(environment)
        self._profile = Profile(environment)
        self._tree: ProfileTree = ProfileTree(environment, self._ordering)
        for preference in preferences:
            self.add(preference)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def environment(self) -> ContextEnvironment:
        """The context environment."""
        return self._environment

    @property
    def profile(self) -> Profile:
        """The logical profile (do not mutate it directly)."""
        return self._profile

    @property
    def tree(self) -> ProfileTree:
        """The profile-tree index (rebuilt/updated on every edit)."""
        return self._tree

    @property
    def ordering(self) -> tuple[str, ...]:
        """The index's parameter-to-level ordering."""
        return self._ordering

    def __len__(self) -> int:
        return len(self._profile)

    def __iter__(self) -> Iterator[ContextualPreference]:
        return iter(self._profile)

    def __contains__(self, preference: object) -> bool:
        return preference in self._profile

    # ------------------------------------------------------------------
    # Edits (the usability study's "modifications")
    # ------------------------------------------------------------------
    def add(self, preference: ContextualPreference) -> None:
        """Insert a preference into profile and index.

        Conflicts (Def. 6) raise and leave both untouched.
        """
        self._profile.add(preference)
        try:
            self._tree.insert(preference)
        except Exception:  # pragma: no cover - insert cannot fail after add
            self._profile.remove(preference)
            raise

    def remove(self, preference: ContextualPreference) -> None:
        """Delete a preference from profile and index.

        Raises:
            PreferenceError: If the preference is not stored.
        """
        if preference not in self._profile:
            raise PreferenceError(f"preference not in repository: {preference!r}")
        self._profile.remove(preference)
        self._tree.remove(preference)
        # The tree keeps one payload per (state, clause), so the removal
        # also dropped those an overlapping preference still produces.
        clause = preference.clause
        for state in preference.descriptor.states(self._environment):
            score = self._profile.score(state, clause)
            if score is not None:
                self._tree.insert_payload(state, clause, score)

    def update_score(
        self, preference: ContextualPreference, new_score: float
    ) -> ContextualPreference:
        """Change a stored preference's interest score.

        Returns the replacement preference. Rolls back on conflict.
        """
        if preference not in self._profile:
            raise PreferenceError(f"preference not in repository: {preference!r}")
        replacement = ContextualPreference(
            preference.descriptor, preference.clause, new_score
        )
        self.remove(preference)
        try:
            self.add(replacement)
        except Exception:
            self.add(preference)
            raise
        return replacement

    def reindex(self, ordering: Sequence[str] | None = None) -> None:
        """Rebuild the tree, optionally under a new ordering.

        Useful after bulk edits or to adopt a better ordering once the
        profile's value distribution is known (Sec. 3.3 / Fig. 6 right).
        """
        from repro.tree.ordering import optimal_ordering
        from repro.tree.profile_tree import ProfileTree

        self._ordering = (
            tuple(ordering) if ordering else optimal_ordering(self._environment)
        )
        self._tree = ProfileTree.from_profile(self._profile, self._ordering)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_json(self, **json_kwargs: object) -> str:
        """Serialise the repository's profile to JSON."""
        from repro.io import dumps

        return dumps(self._profile, **json_kwargs)

    @classmethod
    def from_json(
        cls, text: str, ordering: Sequence[str] | None = None
    ) -> "PreferenceRepository":
        """Rebuild a repository from :meth:`to_json` output."""
        from repro.io import loads

        profile = loads(text)
        if not isinstance(profile, Profile):
            raise PreferenceError("JSON payload does not contain a profile")
        return cls(profile.environment, profile, ordering)

    def to_dsl(self) -> str:
        """Render the profile as a DSL script (one ``PREFER`` per line)."""
        from repro.dsl import render_profile

        return render_profile(self._profile)

    @classmethod
    def from_dsl(
        cls,
        text: str,
        environment: ContextEnvironment,
        ordering: Sequence[str] | None = None,
    ) -> "PreferenceRepository":
        """Build a repository from a DSL script (see :mod:`repro.dsl`)."""
        from repro.dsl import parse_profile

        profile = parse_profile(text, environment)
        return cls(environment, profile, ordering)

    def __repr__(self) -> str:
        return (
            f"PreferenceRepository({len(self._profile)} preferences, "
            f"order={list(self._ordering)})"
        )
