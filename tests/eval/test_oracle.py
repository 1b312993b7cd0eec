"""The ranking oracle: the reference service and the exact comparison."""

import itertools

import pytest

from repro.eval.oracle import (
    mismatches,
    population,
    ranking,
    reference_service,
    state_pool,
)
from repro.query.rank import RankedTuple
from repro.workloads.users import all_personas, study_environment


def ranked(*pairs):
    return [RankedTuple({"pid": pid}, score, ()) for pid, score in pairs]


class TestRanking:
    def test_fingerprint_keeps_rank_order_and_exact_scores(self):
        answer = ranked((7, 0.25), (3, 0.25), (9, 0.1 + 0.2))
        assert ranking(answer) == [(7, 0.25), (3, 0.25), (9, 0.1 + 0.2)]

    def test_a_row_without_pid_is_an_error_not_a_fallback(self):
        with pytest.raises(KeyError):
            ranking([RankedTuple({"name": "x"}, 0.5, ())])


class TestMismatches:
    def test_equal_answers_do_not_differ(self):
        answers = [[(1, 0.9), (2, 0.5)], [], [(3, 0.4)]]
        assert mismatches(answers, [list(answer) for answer in answers]) == 0

    def test_a_swapped_tie_pair_counts_twice(self):
        expected = [(1, 0.5), (2, 0.5), (3, 0.1)]
        assert mismatches(expected, [(2, 0.5), (1, 0.5), (3, 0.1)]) == 2

    def test_a_missing_tail_entry_counts(self):
        expected = [[(1, 0.9)], [(2, 0.8)], [(3, 0.7)]]
        assert mismatches(expected, expected[:2]) == 1
        assert mismatches(expected[:2], expected) == 1

    def test_a_failed_reply_counts(self):
        expected = [[(1, 0.9)], []]
        assert mismatches(expected, [[(1, 0.9)], None]) == 1
        assert mismatches([None], [None]) == 1

    def test_scores_compare_without_rounding(self):
        assert mismatches([(1, 0.3)], [(1, 0.1 + 0.2)]) == 1


class TestStatePool:
    @pytest.mark.parametrize(
        "wide, temperatures, locations",
        [
            (False, ("warm", "cold"), ("Plaka", "Kifisia")),
            (True, ("warm", "hot", "cold"), ("Plaka", "Kifisia", "Syntagma")),
        ],
    )
    def test_pool_is_the_product_in_driver_order(
        self, wide, temperatures, locations
    ):
        pool = state_pool(study_environment(), wide=wide)
        expected = list(
            itertools.product(
                ("friends", "family", "alone"), temperatures, locations
            )
        )
        assert [state.values for state in pool] == expected
        assert len({state.values for state in pool}) == (27 if wide else 12)


class TestPopulation:
    def test_users_cycle_the_study_personas(self):
        personas = all_personas()
        users = population(len(personas) + 2)
        assert [user_id for user_id, _ in users] == [
            f"user{index}" for index in range(len(personas) + 2)
        ]
        assert [persona for _, persona in users] == personas + personas[:2]


class TestReferenceService:
    def test_reference_scans_without_a_cache(self):
        service = reference_service(3, 60, seed=5)
        try:
            assert not service.relation.auto_index
            assert all(
                service.account(user_id).cache is None
                for user_id, _ in population(3)
            )
            for state in state_pool(service.environment):
                service.query_at("user0", state)
            assert service.relation.indexed_attributes == ()
        finally:
            service.close()
