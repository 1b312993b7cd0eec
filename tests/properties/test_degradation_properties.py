"""Property-based tests: degradation levels keep their promises.

The ladder's contract (see :mod:`repro.query.resilient`): for any
profile, relation and query state,

* ``cache_bypass`` and ``scan`` are pure *strategy* changes - their
  rankings are identical to the ``full`` level's;
* ``generalized`` is exactly the full evaluation at the one-step-up
  parent state (self-consistency, not equality with ``full``);
* ``unranked`` strips context entirely - every score is 0.0 and the
  row set is the plain selection.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Attribute,
    AttributeClause,
    ContextDescriptor,
    ContextEnvironment,
    ContextParameter,
    ContextQueryTree,
    ContextState,
    ContextualPreference,
    ContextualQuery,
    ContextualQueryExecutor,
    ProfileTree,
    Relation,
    Schema,
)
from repro.eval.oracle import ranking
from repro.exceptions import ConflictError
from repro.hierarchy import balanced_hierarchy
from repro.query import generalize_state

ENV = ContextEnvironment(
    [
        ContextParameter(balanced_hierarchy("a", [3])),
        ContextParameter(balanced_hierarchy("b", [4, 2])),
    ]
)

SCHEMA = Schema([Attribute("pid", "int"), Attribute("kind", "str")])
KINDS = ["x", "y", "z"]
_CLAUSES = [AttributeClause("kind", kind) for kind in KINDS]


@st.composite
def trees(draw):
    """A profile tree from a random non-conflicting preference stream.

    Descriptor values are drawn from the full extended domains, so the
    Def. 5 mix (detailed values, rolled-up values, omitted parameters)
    is covered; conflicting inserts are simply skipped.
    """
    tree = ProfileTree(ENV)
    for _ in range(draw(st.integers(0, 8))):
        values = tuple(
            draw(st.sampled_from(parameter.edom)) for parameter in ENV
        )
        descriptor = ContextDescriptor.from_mapping(
            {
                parameter.name: value
                for parameter, value in zip(ENV, values)
                if value != "all"
            }
        )
        preference = ContextualPreference(
            descriptor,
            draw(st.sampled_from(_CLAUSES)),
            draw(st.sampled_from([0.2, 0.5, 0.8])),
        )
        try:
            tree.insert(preference)
        except ConflictError:
            pass
    return tree


@st.composite
def relations(draw):
    relation = Relation("r", SCHEMA, auto_index=True)
    for pid in range(draw(st.integers(0, 10))):
        relation.insert({"pid": pid, "kind": draw(st.sampled_from(KINDS))})
    return relation


def query_states():
    return st.tuples(
        *[st.sampled_from(parameter.edom) for parameter in ENV]
    ).map(lambda values: ContextState(ENV, values))


def executor_for(tree, relation):
    return ContextualQueryExecutor(
        tree, relation, cache=ContextQueryTree(ENV, capacity=16)
    )


class TestStrategyLevelsAreEquivalent:
    @settings(max_examples=80, deadline=None)
    @given(trees(), relations(), query_states())
    def test_cache_bypass_and_scan_match_full(self, tree, relation, state):
        executor = executor_for(tree, relation)
        query = ContextualQuery.at_state(state)
        full = executor.execute(query)
        warm = executor.execute(query)  # second read: served by cache
        bypass = executor.execute(query, use_cache=False)
        scan = executor.execute(query, use_cache=False, use_index=False)
        assert ranking(warm.results) == ranking(full.results)
        assert ranking(bypass.results) == ranking(full.results)
        assert ranking(scan.results) == ranking(full.results)


class TestGeneralizedIsSelfConsistent:
    @settings(max_examples=80, deadline=None)
    @given(trees(), relations(), query_states())
    def test_generalized_equals_full_at_the_parent_state(
        self, tree, relation, state
    ):
        executor = executor_for(tree, relation)
        parent = generalize_state(state)
        generalized = executor.execute(
            ContextualQuery.at_state(parent), use_cache=False, use_index=False
        )
        reference = executor_for(tree, relation).execute(
            ContextualQuery.at_state(parent)
        )
        assert ranking(generalized.results) == ranking(reference.results)

    @settings(max_examples=40, deadline=None)
    @given(query_states())
    def test_generalization_converges_on_the_all_state(self, state):
        seen = set()
        while state.values not in seen:
            seen.add(state.values)
            state = generalize_state(state)
        assert state == ContextState.all_state(ENV)


class TestUnrankedIsContextFree:
    @settings(max_examples=80, deadline=None)
    @given(trees(), relations(), query_states())
    def test_all_scores_zero_and_rows_complete(self, tree, relation, state):
        executor = executor_for(tree, relation)
        stripped = ContextualQuery(ENV)  # what the unranked level runs
        result = executor.execute(stripped, use_cache=False, use_index=False)
        assert not result.contextual
        assert all(item.score == 0.0 for item in result.results)
        assert {item.row["pid"] for item in result.results} == {
            row["pid"] for row in relation
        }
