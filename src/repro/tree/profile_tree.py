"""The profile tree: an index of preferences by context state (Sec. 3.3).

One tree level per context parameter (in a configurable order), one
root-to-leaf path per context state appearing in the profile, and leaf
payloads carrying the applicable ``attribute clause, score`` pairs.
Conflicting preferences (Def. 6) are detected during insertion by a
single root-to-leaf traversal per state, exactly as in the paper.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.exceptions import ConflictError, TreeError
from repro.context.environment import ContextEnvironment, ContextParameter
from repro.context.state import ContextState
from repro.hierarchy import Value
from repro.preferences.preference import AttributeClause, ContextualPreference
from repro.preferences.profile import Profile
from repro.tree.counters import AccessCounter
from repro.tree.node import InternalNode, LeafNode
from repro.tree.ordering import validate_ordering

__all__ = ["ProfileTree"]


class ProfileTree:
    """Index of a profile's contextual preferences by context state.

    Args:
        environment: The context environment.
        ordering: Parameter names from the root level down; defaults to
            the environment's declaration order. The ordering changes
            the tree's size but not its answers.

    Example:
        >>> tree = ProfileTree(env, ordering=("accompanying_people",
        ...                                   "temperature", "location"))
        >>> tree.insert(preference)
        >>> tree.exact_lookup(state)
        {(type = 'cafeteria'): 0.9}
    """

    def __init__(
        self,
        environment: ContextEnvironment,
        ordering: Sequence[str] | None = None,
    ) -> None:
        self._environment = environment
        self._ordering = validate_ordering(environment, ordering)
        self._positions = tuple(
            environment.index_of(name) for name in self._ordering
        )
        self._root = InternalNode()
        self._num_states = 0
        self._num_preferences = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def environment(self) -> ContextEnvironment:
        """The context environment the tree indexes."""
        return self._environment

    @property
    def ordering(self) -> tuple[str, ...]:
        """Parameter names from the root level down."""
        return self._ordering

    @property
    def root(self) -> InternalNode:
        """The root node (level of the first ordered parameter)."""
        return self._root

    @property
    def height(self) -> int:
        """Number of levels including the leaf level (``n + 1``)."""
        return len(self._ordering) + 1

    @property
    def num_states(self) -> int:
        """Number of distinct context states (root-to-leaf paths)."""
        return self._num_states

    @property
    def num_preferences(self) -> int:
        """Number of preferences inserted (idempotent re-inserts excluded)."""
        return self._num_preferences

    def parameter_at_level(self, level: int) -> ContextParameter:
        """The context parameter mapped to tree level ``level`` (0-based)."""
        return self._environment[self._ordering[level]]

    def project(self, state: ContextState) -> tuple[Value, ...]:
        """Reorder a state's values into this tree's level order.

        Raises:
            TreeError: If the state belongs to a different environment
                (silently mis-projecting would corrupt answers).
        """
        if state.environment.names != self._environment.names:
            raise TreeError(
                f"state over {state.environment.names} does not fit a tree "
                f"over {self._environment.names}"
            )
        return tuple(state.values[position] for position in self._positions)

    def unproject(self, path: Sequence[Value]) -> ContextState:
        """Rebuild a :class:`ContextState` from a root-to-leaf key path."""
        values: list[Value] = [None] * len(self._positions)  # type: ignore[list-item]
        for key, position in zip(path, self._positions):
            values[position] = key
        return ContextState(self._environment, values)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_profile(
        cls,
        profile: Profile,
        ordering: Sequence[str] | None = None,
    ) -> "ProfileTree":
        """Build a tree over every preference of ``profile``."""
        tree = cls(profile.environment, ordering)
        for preference in profile:
            tree.insert(preference)
        return tree

    def insert(self, preference: ContextualPreference) -> None:
        """Insert a preference, one path per context state of its
        descriptor, rejecting conflicts (Def. 6).

        The conflict check runs first for *all* states, so a rejected
        preference leaves the tree untouched; an identical re-insert is
        a no-op for the paths that already exist.
        """
        states = preference.descriptor.states(self._environment)
        for state in states:
            self._check_conflict(state, preference.clause, preference.score)
        inserted_new_payload = False
        for state in states:
            if self._insert_state(state, preference.clause, preference.score):
                inserted_new_payload = True
        if inserted_new_payload:
            self._num_preferences += 1

    def insert_payload(
        self, state: ContextState, clause: AttributeClause, score: float
    ) -> None:
        """Insert one ``(state, clause, score)`` payload, rejecting a
        conflict (Def. 6); a no-op if it is already stored."""
        self._check_conflict(state, clause, score)
        self._insert_state(state, clause, score)

    def _check_conflict(
        self, state: ContextState, clause: AttributeClause, score: float
    ) -> None:
        leaf = self._descend(state)
        if leaf is None:
            return
        existing = leaf.entries.get(clause)
        if existing is not None and existing != score:
            raise ConflictError(
                f"conflict at state {state!r}: clause {clause!r} already has "
                f"score {existing}, refusing {score}"
            )

    def _insert_state(
        self, state: ContextState, clause: AttributeClause, score: float
    ) -> bool:
        node: InternalNode = self._root
        path = self.project(state)
        for depth, key in enumerate(path):
            child = node.child(key)
            if child is None:
                child = LeafNode() if depth == len(path) - 1 else InternalNode()
                node.add_cell(key, child)
            if depth == len(path) - 1:
                leaf = child
                break
            node = child  # type: ignore[assignment]
        else:  # pragma: no cover - paths always have >= 1 key
            raise TreeError("cannot insert a state with no values")
        if not isinstance(leaf, LeafNode):
            raise TreeError("malformed tree: internal node at leaf depth")
        if not leaf.entries:
            self._num_states += 1
        if clause in leaf.entries:
            return False
        leaf.entries[clause] = score
        return True

    def remove(self, preference: ContextualPreference) -> bool:
        """Remove a preference's payloads, pruning now-empty paths.

        Returns True if anything was removed. A payload is removed when
        its clause and score match, even if another stored preference
        with an overlapping descriptor still produces it: the tree keeps
        one payload per (state, clause) and does not know which
        preferences produced it. :meth:`PreferenceRepository.remove`
        puts such payloads back from the profile.
        """
        removed_any = False
        for state in preference.descriptor.states(self._environment):
            if self._remove_state(state, preference.clause, preference.score):
                removed_any = True
        return removed_any

    def _remove_state(
        self, state: ContextState, clause: AttributeClause, score: float
    ) -> bool:
        path = self.project(state)
        spine: list[tuple[InternalNode, Value]] = []
        node: InternalNode | LeafNode = self._root
        for key in path:
            if not isinstance(node, InternalNode):
                raise TreeError("malformed tree: leaf reached too early")
            child = node.child(key)
            if child is None:
                return False
            spine.append((node, key))
            node = child
        if not isinstance(node, LeafNode):
            raise TreeError("malformed tree: internal node at leaf depth")
        if node.entries.get(clause) != score:
            return False
        del node.entries[clause]
        if not node.entries:
            self._num_states -= 1
            parent, key = spine.pop()
            del parent.cells[key]
            while spine and parent.num_cells() == 0:
                parent, key = spine.pop()
                del parent.cells[key]
        return True

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _descend(
        self, state: ContextState, counter: AccessCounter | None = None
    ) -> LeafNode | None:
        node: InternalNode | LeafNode | None = self._root
        for key in self.project(state):
            if not isinstance(node, InternalNode):
                raise TreeError("malformed tree: leaf reached too early")
            node = node.find(key, counter)
            if node is None:
                return None
        if node is self._root:  # empty environment cannot happen, but be safe
            return None
        if not isinstance(node, LeafNode):
            raise TreeError("malformed tree: internal node at leaf depth")
        return node

    def exact_lookup(
        self, state: ContextState, counter: AccessCounter | None = None
    ) -> dict[AttributeClause, float] | None:
        """The payloads stored at exactly ``state``, or ``None``.

        This is the paper's exact-match resolution: a single
        root-to-leaf traversal whose cost is charged to ``counter``.
        """
        leaf = self._descend(state, counter)
        if leaf is None:
            return None
        return dict(leaf.entries)

    def contains_state(self, state: ContextState) -> bool:
        """True iff the tree stores a path for ``state``."""
        return self._descend(state) is not None

    # ------------------------------------------------------------------
    # Statistics and iteration
    # ------------------------------------------------------------------
    def num_internal_cells(self) -> int:
        """Total ``[key, pointer]`` cells across internal nodes."""
        total = 0
        stack: list[InternalNode] = [self._root]
        while stack:
            node = stack.pop()
            total += node.num_cells()
            for child in node.cells.values():
                if isinstance(child, InternalNode):
                    stack.append(child)
        return total

    def num_leaf_entries(self) -> int:
        """Total payload entries across leaves."""
        return sum(leaf.num_entries() for leaf in self._leaves())

    def num_nodes(self) -> int:
        """Total node count (internal + leaves), including the root."""
        total = 0
        stack: list[InternalNode | LeafNode] = [self._root]
        while stack:
            node = stack.pop()
            total += 1
            if isinstance(node, InternalNode):
                stack.extend(node.cells.values())
        return total

    def _leaves(self) -> Iterator[LeafNode]:
        stack: list[InternalNode | LeafNode] = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, LeafNode):
                yield node
            else:
                stack.extend(node.cells.values())

    def items(self) -> Iterator[tuple[ContextState, AttributeClause, float]]:
        """Yield every stored ``(state, clause, score)`` record."""
        def walk(
            node: InternalNode | LeafNode, path: list[Value]
        ) -> Iterator[tuple[ContextState, AttributeClause, float]]:
            if isinstance(node, LeafNode):
                state = self.unproject(path)
                for clause, score in node.entries.items():
                    yield state, clause, score
                return
            for key, child in node.cells.items():
                path.append(key)
                yield from walk(child, path)
                path.pop()

        yield from walk(self._root, [])

    def states(self) -> Iterator[ContextState]:
        """Yield every indexed context state (one per leaf)."""
        seen_last: ContextState | None = None
        for state, _clause, _score in self.items():
            if state != seen_last:
                seen_last = state
                yield state

    def __repr__(self) -> str:
        return (
            f"ProfileTree(order={list(self._ordering)}, "
            f"states={self._num_states}, cells={self.num_internal_cells()})"
        )
