"""Property: a cached, indexed service answers like the reference.

The default :class:`PersonalizationService` (per-user result cache,
auto-indexed relation) and :func:`repro.eval.oracle.reference_service`
(no cache, sequential scan) receive the same drawn queries and the same
drawn ``update_preference`` edits. After every query their rankings
must be identical, so each edit has to invalidate exactly the cached
answers it changes. Each drawn edit rescores a preference behind the
answer just cached, and the same query runs again right after it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.poi import generate_poi_relation
from repro.eval.oracle import (
    mismatches,
    population,
    ranking,
    reference_service,
    state_pool,
)
from repro.service.personalization import PersonalizationService
from repro.workloads.users import study_environment

NUM_USERS = 3
NUM_ROWS = 60
SEED = 5
ENVIRONMENT = study_environment()
POOL = state_pool(ENVIRONMENT, wide=True)

steps = st.lists(
    st.tuples(
        st.integers(0, NUM_USERS - 1),
        st.integers(0, len(POOL) - 1),
        st.sampled_from([None, 1, 3, 10]),
        st.none() | st.tuples(
            st.integers(0, 999), st.integers(1, 19).map(lambda n: n / 20)
        ),
    ),
    min_size=1,
    max_size=25,
)


def default_service() -> PersonalizationService:
    service = PersonalizationService(
        study_environment(), generate_poi_relation(NUM_ROWS, seed=SEED)
    )
    for user_id, persona in population(NUM_USERS):
        service.register(user_id, persona)
    return service


def preferences_behind(service, user_id, result) -> list:
    """The user's preferences that scored a row of ``result`` (all of
    them when the answer is non-contextual)."""
    used = {
        (contribution.state, contribution.clause)
        for item in result.results
        for contribution in item.contributions
    }
    repository = sorted(service.account(user_id).repository, key=repr)
    behind = [
        preference
        for preference in repository
        if any(
            (state, preference.clause) in used
            for state in preference.descriptor.states(ENVIRONMENT)
        )
    ]
    return behind or repository


class TestCachedServiceMatchesTheReference:
    @settings(max_examples=25, deadline=None)
    @given(steps)
    def test_rankings_agree_through_edits(self, steps):
        service = default_service()
        reference = reference_service(NUM_USERS, NUM_ROWS, SEED)

        def agree(user_id, state, top_k):
            expected = reference.query_at(user_id, state, top_k=top_k)
            actual = service.query_at(user_id, state, top_k=top_k)
            assert mismatches(ranking(expected.results), ranking(actual.results)) == 0
            return expected

        try:
            for user, state_index, top_k, edit in steps:
                user_id, state = f"user{user}", POOL[state_index]
                answer = agree(user_id, state, top_k)
                if edit is None:
                    continue
                pick, score = edit
                behind = preferences_behind(reference, user_id, answer)
                preference = behind[pick % len(behind)]
                service.update_preference(user_id, preference, score)
                reference.update_preference(user_id, preference, score)
                agree(user_id, state, top_k)
        finally:
            service.close()
            reference.close()
