"""A hash-index alternative to the profile tree.

The paper compares the profile tree only against a sequential scan. A
natural third design is a hash map from context states to payloads:
exact-match resolution becomes a single probe, and covering resolution
probes every *generalisation* of the query state (the product of the
per-parameter ancestor chains - e.g. 2x3x4 = 24 probes for the running
example). This module implements that index so the trade-off can be
measured (see ``tests/eval/test_ablations.py``):

* exact match: hash O(1) beats the tree's root-to-leaf scan;
* covering: the hash probes ``prod(chain lengths)`` states regardless of
  what is stored, while the tree only walks cells that exist - so the
  tree wins when profiles are sparse in the generalisation lattice, and
  the hash when hierarchies are shallow;
* the hash cannot enumerate by prefix, so it offers no analogue of the
  tree's ordering/size tuning.

Cell accounting: every probe charges one cell (the bucket inspected),
making the numbers comparable with the tree's cell accesses.
"""

from __future__ import annotations

from repro.context.state import ContextState
from repro.exceptions import ConflictError
from repro.preferences.preference import AttributeClause, ContextualPreference
from repro.preferences.profile import Profile
from repro.context.distances import (
    hierarchy_state_distance,
    jaccard_state_distance,
)
from repro.resolution.search import SearchResult
from repro.tree.counters import AccessCounter

__all__ = ["StateHashIndex"]


class StateHashIndex:
    """Hash map from context states to ``{clause: score}`` payloads.

    Example:
        >>> index = StateHashIndex.from_profile(profile)
        >>> index.exact_lookup(state)
        {(type = 'brewery'): 0.9}
    """

    def __init__(self, environment) -> None:
        self._environment = environment
        self._payloads: dict[ContextState, dict[AttributeClause, float]] = {}

    @classmethod
    def from_profile(cls, profile: Profile) -> "StateHashIndex":
        """Index every ``(state, clause, score)`` record of a profile."""
        index = cls(profile.environment)
        for preference in profile:
            index.insert(preference)
        return index

    @property
    def environment(self):
        """The context environment."""
        return self._environment

    def __len__(self) -> int:
        return len(self._payloads)

    def insert(self, preference: ContextualPreference) -> None:
        """Insert a preference, with Def. 6 conflict detection."""
        states = preference.descriptor.states(self._environment)
        for state in states:
            existing = self._payloads.get(state, {}).get(preference.clause)
            if existing is not None and existing != preference.score:
                raise ConflictError(
                    f"conflict at state {state!r}: clause {preference.clause!r} "
                    f"already has score {existing}"
                )
        for state in states:
            self._payloads.setdefault(state, {})[preference.clause] = preference.score

    def exact_lookup(
        self, state: ContextState, counter: AccessCounter | None = None
    ) -> dict[AttributeClause, float] | None:
        """One probe: the payloads at exactly ``state``."""
        if counter is not None:
            counter.add(1)
        payload = self._payloads.get(state)
        return dict(payload) if payload is not None else None

    def cover_lookup(
        self, state: ContextState, counter: AccessCounter | None = None
    ) -> list[SearchResult]:
        """Probe every generalisation of ``state``; return the stored ones.

        The number of probes is the product of the per-parameter
        ancestor-chain lengths, independent of the profile's size.
        Results carry both distances, like ``Search_CS``.
        """
        results = []
        for candidate in state.generalisations():
            if counter is not None:
                counter.add(1)
            payload = self._payloads.get(candidate)
            if payload is None:
                continue
            results.append(
                SearchResult(
                    state=candidate,
                    entries=dict(payload),
                    hierarchy_distance=hierarchy_state_distance(state, candidate),
                    jaccard_distance=jaccard_state_distance(state, candidate),
                )
            )
        results.sort(key=lambda result: result.hierarchy_distance)
        return results
