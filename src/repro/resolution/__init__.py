"""Context resolution: distances, Search_CS, baselines, resolver (Sec. 4)."""

from repro.context.distances import (
    METRICS,
    hierarchy_state_distance,
    hierarchy_value_distance,
    jaccard_state_distance,
    jaccard_value_distance,
    level_distance,
    state_distance,
)
from repro.resolution.hash_index import StateHashIndex
from repro.resolution.resolver import ContextResolver, Resolution, minimal_covering
from repro.resolution.search import SearchResult, exact_search, search_cs
from repro.resolution.sequential import SequentialStore

__all__ = [
    "METRICS",
    "ContextResolver",
    "Resolution",
    "SearchResult",
    "SequentialStore",
    "StateHashIndex",
    "exact_search",
    "hierarchy_state_distance",
    "hierarchy_value_distance",
    "jaccard_state_distance",
    "jaccard_value_distance",
    "level_distance",
    "minimal_covering",
    "search_cs",
    "state_distance",
]
