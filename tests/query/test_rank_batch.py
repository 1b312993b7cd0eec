"""Tests for the batched ranking path (rank_cs_batch and rank_many)."""

import pytest

from repro import (
    Attribute,
    AttributeClause,
    ContextDescriptor,
    ContextResolver,
    Relation,
    Schema,
    rank_cs,
    rank_cs_batch,
)
from repro.eval.oracle import ranking
from repro.query import ContextualQueryExecutor
from repro.tree import AccessCounter


@pytest.fixture
def relation():
    schema = Schema(
        [Attribute("pid", "int"), Attribute("type", "str"), Attribute("name", "str")]
    )
    return Relation(
        "pois",
        schema,
        [
            {"pid": 1, "type": "brewery", "name": "Craft"},
            {"pid": 2, "type": "cafeteria", "name": "Cafe"},
            {"pid": 3, "type": "brewery", "name": "Hops"},
            {"pid": 4, "type": "museum", "name": "Acropolis"},
        ],
    )


@pytest.fixture
def descriptors():
    friends = ContextDescriptor.from_mapping({"accompanying_people": "friends"})
    plaka = ContextDescriptor.from_mapping(
        {
            "accompanying_people": "friends",
            "temperature": ["warm", "hot"],
            "location": "Plaka",
        }
    )
    # Repeats: the batch should resolve each distinct state once.
    return [friends, plaka, friends, plaka, friends]


class TestRankCsBatch:
    def test_matches_per_descriptor_rank_cs(self, fig4_tree, relation, descriptors):
        resolver = ContextResolver(fig4_tree)
        batched, _ = rank_cs_batch(resolver, relation, descriptors)
        assert len(batched) == len(descriptors)
        for descriptor, (ranked, resolutions) in zip(descriptors, batched):
            expected_ranked, expected_resolutions = rank_cs(
                resolver, relation, descriptor
            )
            assert ranking(ranked) == ranking(expected_ranked)
            assert [r.query_state for r in resolutions] == [
                r.query_state for r in expected_resolutions
            ]

    def test_state_memoization_hits(self, fig4_tree, relation, descriptors):
        resolver = ContextResolver(fig4_tree)
        _, stats = rank_cs_batch(resolver, relation, descriptors)
        # friends -> 1 state, plaka -> 2 states; 5 descriptors -> 3+2+2=...
        assert stats.descriptors == 5
        assert stats.state_lookups == 3 * 1 + 2 * 2
        assert stats.unique_states == 3
        assert stats.state_memo_hits == stats.state_lookups - stats.unique_states > 0

    def test_each_distinct_clause_selected_once(self, fig4_tree, relation, descriptors):
        resolver = ContextResolver(fig4_tree)
        counting = _CountingRelation(relation)
        _, stats = rank_cs_batch(resolver, counting, descriptors)
        assert stats.clause_memo_hits > 0
        assert counting.select_calls == stats.unique_clauses
        assert stats.clause_lookups > stats.unique_clauses

    def test_counter_threading(self, fig4_tree, relation, descriptors):
        resolver = ContextResolver(fig4_tree)
        relation.create_index("type")
        relation.create_index("name")
        counter = AccessCounter()
        rank_cs_batch(resolver, relation, descriptors, counter=counter)
        assert counter.index_cells > 0
        assert counter.scan_cells == 0

    def test_empty_batch(self, fig4_tree, relation):
        resolver = ContextResolver(fig4_tree)
        outputs, stats = rank_cs_batch(resolver, relation, [])
        assert outputs == []
        assert stats.descriptors == 0
        assert stats.state_memo_hits == 0


class _CountingRelation:
    """Relation wrapper counting distinct select_ids invocations."""

    def __init__(self, relation):
        self._relation = relation
        self.select_calls = 0

    def __getattr__(self, name):
        return getattr(self._relation, name)

    def __getitem__(self, index):
        return self._relation[index]

    def select_ids(self, clause, counter=None):
        self.select_calls += 1
        return self._relation.select_ids(clause, counter)


class TestExecutorRankMany:
    def test_rank_many_matches_individual_rank_cs(self, fig4_tree, relation, descriptors):
        executor = ContextualQueryExecutor(fig4_tree, relation)
        results, stats = executor.rank_many(descriptors)
        assert len(results) == len(descriptors)
        assert stats.state_memo_hits > 0
        for descriptor, result in zip(descriptors, results):
            expected_ranked, _ = rank_cs(executor.resolver, relation, descriptor)
            assert ranking(result.results) == ranking(expected_ranked)
            assert result.contextual
