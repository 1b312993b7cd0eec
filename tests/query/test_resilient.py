"""The resilient executor: each ladder rung reached via targeted faults."""

import pytest

from repro import (
    Attribute,
    AttributeClause,
    ContextDescriptor,
    ContextQueryTree,
    ContextState,
    ContextualPreference,
    ContextualQuery,
    ContextualQueryExecutor,
    Profile,
    ProfileTree,
    Relation,
    Schema,
)
from repro.eval.oracle import ranking
from repro.exceptions import ServiceUnavailable
from repro.faults import FaultSpec, fault_plan
from repro.query import ResilientQueryExecutor, generalize_state
from repro.resilience import ResiliencePolicies, RetryPolicy


def rows():
    return [
        {"pid": 1, "type": "brewery", "name": "Craft"},
        {"pid": 2, "type": "cafeteria", "name": "Cafe"},
        {"pid": 3, "type": "brewery", "name": "Hops"},
        {"pid": 4, "type": "museum", "name": "Acropolis"},
    ]


def make_relation(auto_index=True):
    schema = Schema(
        [Attribute("pid", "int"), Attribute("type", "str"), Attribute("name", "str")]
    )
    return Relation("pois", schema, rows(), auto_index=auto_index)


@pytest.fixture
def env_state(env):
    return ContextState(env, ("friends", "warm", "Kifisia"))


@pytest.fixture
def resilient(fig4_tree):
    relation = make_relation()
    executor = ContextualQueryExecutor(
        fig4_tree,
        relation,
        cache=ContextQueryTree(fig4_tree.environment, capacity=8),
    )
    policies = ResiliencePolicies(
        retry=RetryPolicy(max_attempts=1, sleep=lambda _: None)
    )
    return ResilientQueryExecutor(executor, policies, user_id="alice")


class TestGeneralizeState:
    def test_each_value_maps_to_its_parent(self, env):
        state = ContextState(env, ("friends", "warm", "Kifisia"))
        parent = generalize_state(state)
        assert parent.values == ("all", "good", "Athens")

    def test_all_state_is_a_fixed_point(self, env):
        top = ContextState(env, ("all", "all", "all"))
        assert generalize_state(top) == top


class TestLevels:
    def test_healthy_path_serves_full(self, resilient, env_state):
        result = resilient.execute(ContextualQuery.at_state(env_state))
        assert result.degradation == "full"
        assert ranking(result.results) == [(2, 0.9)]

    def test_poisoned_cache_serves_cache_bypass(self, resilient, env_state):
        query = ContextualQuery.at_state(env_state)
        expected = ranking(resilient.execute(query).results)  # primes the cache
        with fault_plan([FaultSpec(site="cache.get", kind="corrupt")]):
            result = resilient.execute(query)
        assert result.degradation == "cache_bypass"
        assert ranking(result.results) == expected

    def test_erroring_cache_serves_cache_bypass(self, resilient, env_state):
        query = ContextualQuery.at_state(env_state)
        expected = ranking(resilient.execute(query).results)
        with fault_plan([FaultSpec(site="cache.get", kind="error")]):
            result = resilient.execute(query)
        assert result.degradation == "cache_bypass"
        assert ranking(result.results) == expected

    def test_failing_index_build_serves_scan(self, fig4_tree, env_state):
        # A fresh relation with no indexes yet: the first selection
        # triggers an on-demand build, which the fault kills at the
        # ``full`` and ``cache_bypass`` levels; ``scan`` never builds.
        executor = ContextualQueryExecutor(
            fig4_tree,
            make_relation(),
            cache=ContextQueryTree(fig4_tree.environment, capacity=8),
        )
        resilient = ResilientQueryExecutor(
            executor,
            ResiliencePolicies(retry=RetryPolicy(max_attempts=1, sleep=lambda _: None)),
        )
        with fault_plan([FaultSpec(site="relation.index_build", kind="error")]):
            result = resilient.execute(ContextualQuery.at_state(env_state))
        assert result.degradation == "scan"
        assert ranking(result.results) == [(2, 0.9)]

    def test_transient_search_failure_serves_generalized(
        self, env, fig4_preferences, env_state
    ):
        # A city-level preference so the parent state (all, good,
        # Athens) still has something to say after generalization.
        athens = ContextualPreference(
            ContextDescriptor.from_mapping({"location": "Athens"}),
            AttributeClause("type", "museum"),
            0.7,
        )
        tree = ProfileTree.from_profile(
            Profile(env, [*fig4_preferences, athens]),
            ordering=("accompanying_people", "temperature", "location"),
        )
        resilient = ResilientQueryExecutor(
            ContextualQueryExecutor(tree, make_relation()),
            ResiliencePolicies(retry=RetryPolicy(max_attempts=1, sleep=lambda _: None)),
        )
        # Three error fires kill full/cache_bypass/scan (one resolution
        # each, no retries); the fourth resolution - at the generalized
        # state - runs fault-free.
        with fault_plan(
            [FaultSpec(site="resolution.search_cs", kind="error", max_fires=3)]
        ):
            result = resilient.execute(ContextualQuery.at_state(env_state))
        assert result.degradation == "generalized"
        # At (friends, warm, Kifisia) the cafeteria preference would
        # dominate; the parent state keeps only the Athens preference.
        assert result.contextual
        assert ranking(result.results) == [(4, 0.7)]

    def test_persistent_search_failure_serves_unranked(
        self, resilient, env_state
    ):
        with fault_plan(
            [FaultSpec(site="resolution.search_cs", kind="error", max_fires=4)]
        ):
            result = resilient.execute(ContextualQuery.at_state(env_state))
        assert result.degradation == "unranked"
        assert not result.contextual
        assert all(item.score == 0.0 for item in result.results)
        assert len(result.results) == 4

    def test_retry_absorbs_a_single_transient_fault(self, fig4_tree, env_state):
        executor = ContextualQueryExecutor(fig4_tree, make_relation())
        resilient = ResilientQueryExecutor(
            executor,
            ResiliencePolicies(retry=RetryPolicy(max_attempts=3, sleep=lambda _: None)),
        )
        with fault_plan(
            [FaultSpec(site="resolution.search_cs", kind="error", max_fires=1)]
        ):
            result = resilient.execute(ContextualQuery.at_state(env_state))
        assert result.degradation == "full"

    def test_explicit_descriptor_skips_generalization(self, fig4_tree, env):
        # Descriptor queries name the exact hypothetical contexts the
        # user asked about; the ladder must not reinterpret them, so a
        # total search outage degrades straight to unranked.
        executor = ContextualQueryExecutor(fig4_tree, make_relation())
        resilient = ResilientQueryExecutor(
            executor,
            ResiliencePolicies(retry=RetryPolicy(max_attempts=1, sleep=lambda _: None)),
        )
        descriptor = ContextDescriptor.from_mapping(
            {"accompanying_people": "friends"}
        )
        query = ContextualQuery(env, descriptor=descriptor)
        with fault_plan([FaultSpec(site="resolution.search_cs", kind="error")]):
            result = resilient.execute(query)
        assert result.degradation == "unranked"


class TestExhaustion:
    def test_every_level_failing_raises_service_unavailable(
        self, resilient, env_state
    ):
        # Killing the relation's select path starves even the unranked
        # level (it still reads rows through select when base clauses
        # exist) - but a bare state query's unranked level scans the
        # relation directly, so kill search AND the relation.
        with fault_plan(
            [
                FaultSpec(site="resolution.search_cs", kind="error"),
                FaultSpec(site="relation.select", kind="error"),
            ]
        ):
            query = ContextualQuery.at_state(
                env_state,
                base_clauses=(AttributeClause("type", "brewery"),),
            )
            with pytest.raises(ServiceUnavailable) as excinfo:
                resilient.execute(query)
        assert excinfo.value.causes  # per-level causes attached

    def test_poisoned_entry_is_evicted_so_the_next_request_heals(
        self, resilient, env_state
    ):
        query = ContextualQuery.at_state(env_state)
        resilient.execute(query)  # prime
        with fault_plan([FaultSpec(site="cache.get", kind="corrupt", max_fires=1)]):
            assert resilient.execute(query).degradation == "cache_bypass"
            # The integrity check dropped the poisoned entry, so the
            # next read misses, recomputes, and re-primes: full again.
            assert resilient.execute(query).degradation == "full"

    def test_cache_breaker_trips_after_repeated_failures(
        self, resilient, env_state
    ):
        # ``error`` faults (unlike ``corrupt``) leave the cached entry
        # in place, so every request re-hits the failing read.
        query = ContextualQuery.at_state(env_state)
        resilient.execute(query)  # prime
        threshold = resilient.policies.breaker("cache").failure_threshold
        with fault_plan([FaultSpec(site="cache.get", kind="error")]):
            for _ in range(threshold):
                result = resilient.execute(query)
                assert result.degradation == "cache_bypass"
            # Breaker now open: the full level is skipped outright, so
            # the (still failing) cache is not even consulted.
            assert resilient.policies.breakers["cache"].state == "open"
            result = resilient.execute(query)
            assert result.degradation == "cache_bypass"
