"""The ranking oracle: one reference, one comparison for every audit.

The paper fixes what every serving path must return: ``Rank_CS``
(Algorithm 2) over the sequential scan, ties in Table 1's order. The
evaluation drivers and the tests decide "the same ranking" here only:
:func:`reference_service` is the answer every other path must
reproduce, :func:`ranking` fingerprints one answer exactly and
:func:`mismatches` counts how many answers of two lists differ.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.context.environment import ContextEnvironment
from repro.context.state import ContextState
from repro.db.poi import generate_poi_relation
from repro.query.rank import RankedTuple
from repro.service.personalization import PersonalizationService
from repro.workloads.users import Persona, all_personas, study_environment

__all__ = ["mismatches", "population", "ranking", "reference_service", "state_pool"]


def state_pool(
    environment: ContextEnvironment, wide: bool = False
) -> list[ContextState]:
    """``friends/family/alone`` x ``warm/cold`` x ``Plaka/Kifisia`` (12
    states); ``wide`` adds ``hot`` and ``Syntagma`` (27). The order is
    fixed, so a seeded request stream drawn from the pool is too."""
    temperatures = ("warm", "hot", "cold") if wide else ("warm", "cold")
    locations = ("Plaka", "Kifisia", "Syntagma") if wide else ("Plaka", "Kifisia")
    return [
        ContextState.from_mapping(
            environment,
            {
                "accompanying_people": people,
                "temperature": temperature,
                "location": location,
            },
        )
        for people in ("friends", "family", "alone")
        for temperature in temperatures
        for location in locations
    ]


def population(num_users: int) -> list[tuple[str, Persona]]:
    """``[("user0", persona0), ...]``, cycling the study personas."""
    personas = all_personas()
    return [
        (f"user{index}", personas[index % len(personas)])
        for index in range(num_users)
    ]


def reference_service(
    num_users: int, num_rows: int, seed: int
) -> PersonalizationService:
    """:func:`population` over the seeded POI relation, served with no
    result cache and no indexes (every selection scans)."""
    service = PersonalizationService(
        study_environment(),
        generate_poi_relation(num_rows, seed=seed),
        cache_capacity=None,
        auto_index=False,
    )
    for user_id, persona in population(num_users):
        service.register(user_id, persona)
    return service


def ranking(ranked: Iterable[RankedTuple]) -> list[tuple[object, float]]:
    """``[(pid, score), ...]`` in rank order: exact scores, and list
    position carries the tie order."""
    return [(item.row["pid"], item.score) for item in ranked]


def mismatches(expected: Sequence, actual: Sequence) -> int:
    """Positions whose answers differ, plus every missing or extra one.
    A ``None`` answer (a failed reply) always counts as differing."""
    differing = sum(
        1
        for want, got in zip(expected, actual)
        if want is None or got is None or want != got
    )
    return differing + abs(len(expected) - len(actual))
