"""Profiles: sets of non-conflicting contextual preferences (Def. 7)."""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.exceptions import ConflictError
from repro.context.environment import ContextEnvironment
from repro.context.state import ContextState
from repro.preferences.conflict import conflicts
from repro.preferences.preference import AttributeClause, ContextualPreference

__all__ = ["Profile"]


class Profile:
    """A profile ``P``: non-conflicting contextual preferences (Def. 7).

    Conflicts (Def. 6) are detected on :meth:`add`; the offending
    preference is rejected with :class:`~repro.exceptions.ConflictError`
    and the profile is left unchanged - mirroring the paper's
    "the path is not inserted and the user is notified".

    The profile keeps an index from context states to the preferences
    whose descriptors produce them, which makes conflict detection a
    per-state dictionary lookup rather than a pairwise scan.
    """

    def __init__(
        self,
        environment: ContextEnvironment,
        preferences: Iterable[ContextualPreference] = (),
    ) -> None:
        self._environment = environment
        self._preferences: list[ContextualPreference] = []
        self._seen: set[ContextualPreference] = set()
        # (state, clause) -> score, for O(1) conflict checks.
        self._scores: dict[tuple[ContextState, AttributeClause], float] = {}
        for preference in preferences:
            self.add(preference)

    @property
    def environment(self) -> ContextEnvironment:
        """The context environment the profile is expressed against."""
        return self._environment

    @property
    def preferences(self) -> tuple[ContextualPreference, ...]:
        """The stored preferences, in insertion order."""
        return tuple(self._preferences)

    def __len__(self) -> int:
        return len(self._preferences)

    def __iter__(self) -> Iterator[ContextualPreference]:
        return iter(self._preferences)

    def __contains__(self, preference: object) -> bool:
        return preference in self._seen

    def add(self, preference: ContextualPreference) -> None:
        """Insert a preference, rejecting conflicts (Def. 6).

        Re-adding an identical preference is a no-op. A preference whose
        (state, clause) pair is already present with a *different* score
        raises :class:`ConflictError` and leaves the profile unchanged.
        """
        states = preference.descriptor.states(self._environment)
        for state in states:
            key = (state, preference.clause)
            existing = self._scores.get(key)
            if existing is not None and existing != preference.score:
                raise ConflictError(
                    f"preference {preference!r} conflicts at state {state!r}: "
                    f"score {existing} already recorded for clause "
                    f"{preference.clause!r}"
                )
        if preference in self._seen:
            return
        for state in states:
            self._scores[(state, preference.clause)] = preference.score
        self._preferences.append(preference)
        self._seen.add(preference)

    def remove(self, preference: ContextualPreference) -> None:
        """Remove a preference previously added.

        Raises:
            ValueError: If the preference is not in the profile.
        """
        self._preferences.remove(preference)
        self._seen.discard(preference)
        self._rebuild_scores()

    def replace(
        self, old: ContextualPreference, new: ContextualPreference
    ) -> None:
        """Atomically swap ``old`` for ``new`` (used by profile editing).

        If inserting ``new`` would conflict, the profile is restored and
        the :class:`ConflictError` re-raised.
        """
        self.remove(old)
        try:
            self.add(new)
        except ConflictError:
            self.add(old)
            raise

    def score(self, state: ContextState, clause: AttributeClause) -> float | None:
        """The score a stored preference gives ``clause`` at ``state``,
        or ``None`` if no stored preference produces that pair."""
        return self._scores.get((state, clause))

    def would_conflict(self, preference: ContextualPreference) -> bool:
        """True iff adding ``preference`` would raise a conflict."""
        for state in preference.descriptor.states(self._environment):
            existing = self._scores.get((state, preference.clause))
            if existing is not None and existing != preference.score:
                return True
        return False

    def conflicts_with(
        self, preference: ContextualPreference
    ) -> list[ContextualPreference]:
        """The stored preferences that conflict with ``preference``."""
        return [
            stored
            for stored in self._preferences
            if conflicts(stored, preference, self._environment)
        ]

    def states(self) -> tuple[ContextState, ...]:
        """All distinct context states produced by the profile's
        descriptors, in first-seen order."""
        seen: dict[ContextState, None] = {}
        for preference in self._preferences:
            for state in preference.descriptor.states(self._environment):
                seen.setdefault(state, None)
        return tuple(seen)

    def entries(self) -> Iterator[tuple[ContextState, AttributeClause, float]]:
        """Yield the flattened ``(state, clause, score)`` records.

        This is the sequential-storage view of the profile used by the
        baseline of Sec. 4.4 and by the profile tree's bulk loader.
        """
        for preference in self._preferences:
            for state in preference.descriptor.states(self._environment):
                yield state, preference.clause, preference.score

    def _rebuild_scores(self) -> None:
        self._scores.clear()
        for preference in self._preferences:
            for state in preference.descriptor.states(self._environment):
                self._scores[(state, preference.clause)] = preference.score

    def __repr__(self) -> str:
        return (
            f"Profile({len(self._preferences)} preferences over "
            f"{list(self._environment.names)})"
        )
