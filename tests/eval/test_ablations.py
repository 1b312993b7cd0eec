"""Ablations on the design choices DESIGN.md calls out, pinned exactly.

Not figures from the paper, but quantified justifications of its
design decisions; each test pins the values of EXPERIMENTS.md's
ablation table and keeps the shape that justifies the choice:

* **ordering** - the paper argues for mapping large domains low in the
  tree for *size*; the ordering also changes the *query cost*, and the
  analytic worst-case bound of Sec. 3.3 really bounds the measured
  cells.
* **metric ties** - the paper prefers Jaccard because the hierarchy
  distance "produces rankings with many ties"; count how often each
  metric leaves more than one best candidate.
* **index design space** - tree vs. state-hash index vs. scan.
* **Sec. 4.4 bounds** - the analytic access bounds hold.
* **traceability feedback** - Sec. 5.1's remark that fixing disputed
  preferences helps.
* **query-tree capacity** - the result cache trades memory for hit
  rate under a zipf-popular query stream.
"""

import itertools

import numpy as np

from repro import (
    AccessCounter,
    ContextResolver,
    ContextState,
    ProfileTree,
    worst_case_cells,
)
from repro.eval.feedback import run_feedback_loop
from repro.resolution import SequentialStore, StateHashIndex, search_cs
from repro.tree import ContextQueryTree, StorageCostModel, optimal_ordering
from repro.workloads import (
    Persona,
    ProfileSpec,
    ZipfSampler,
    default_profile,
    exact_match_states,
    generate_profile,
    generate_real_profile,
    random_states,
    study_environment,
    synthetic_environment,
)


def test_ordering_affects_query_cost():
    environment, profile = generate_real_profile()
    queries = random_states(environment, 100, seed=3)
    best = optimal_ordering(environment)
    rows = {}
    for label, ordering in (("optimal", best), ("reversed", tuple(reversed(best)))):
        tree = ProfileTree.from_profile(profile, ordering)
        counter = AccessCounter()
        for state in queries:
            search_cs(tree, state, counter)
        cells = StorageCostModel().tree_size(tree).cells
        bound = worst_case_cells([len(environment[name].edom) for name in ordering])
        rows[label] = (cells, bound, round(counter.cells / len(queries), 1))

    assert rows == {"optimal": (884, 14265, 25.7), "reversed": (1101, 17097, 72.4)}
    optimal, reverse = rows["optimal"], rows["reversed"]
    assert optimal[0] <= optimal[1]  # measured <= analytic bound
    assert reverse[0] <= reverse[1]
    assert optimal[2] < reverse[2]  # the optimal ordering also queries cheaper
    assert optimal[0] < reverse[0]


def test_metric_tie_rates():
    # The study's default profiles mix context levels (company-only,
    # weather-only, city-level ...), so detailed query states often
    # have several incomparable covers - exactly where the metrics
    # differ. Resolve every detailed state of the environment.
    environment = study_environment()
    profile = default_profile(Persona("below30", "male", "mainstream"), environment)
    tree = ProfileTree.from_profile(profile, optimal_ordering(environment))
    queries = [
        ContextState(environment, values)
        for values in itertools.product(*[parameter.dom for parameter in environment])
    ]
    counts = {}
    for metric in ("hierarchy", "jaccard"):
        resolver = ContextResolver(tree, metric)
        matched = ties = 0
        for state in queries:
            resolution = resolver.resolve_state(state)
            if resolution.matched:
                matched += 1
                if len(resolution.best) > 1:
                    ties += 1
        counts[metric] = (matched, ties)

    assert counts == {"hierarchy": (93, 16), "jaccard": (93, 0)}
    # The paper's rationale for Jaccard: far fewer ties.
    assert counts["jaccard"][1] <= counts["hierarchy"][1]


def test_index_design_space():
    """Profile tree vs. hash index vs. sequential scan.

    The paper only compares tree and scan; the hash index completes the
    design space: O(1) exact probes, but covering resolution must probe
    every generalisation of the query regardless of what is stored.
    """
    environment, profile = generate_real_profile()
    tree = ProfileTree.from_profile(profile, optimal_ordering(environment))
    index = StateHashIndex.from_profile(profile)
    store = SequentialStore.from_profile(profile)
    exact = exact_match_states(profile, 50, seed=1)
    cover = random_states(environment, 50, seed=2)

    def measure(operation, states):
        counter = AccessCounter()
        for state in states:
            operation(state, counter)
        return round(counter.cells / len(states), 1)

    tree_row = (
        measure(tree.exact_lookup, exact),
        measure(lambda state, counter: search_cs(tree, state, counter), cover),
    )
    hash_row = (measure(index.exact_lookup, exact), measure(index.cover_lookup, cover))
    scan_row = (measure(store.exact_scan, exact), measure(store.cover_scan, cover))

    assert (tree_row, hash_row, scan_row) == ((16.2, 25.4), (1.0, 19.2), (343.8, 664.5))
    assert hash_row[0] <= tree_row[0] <= scan_row[0]  # exact: hash wins
    assert tree_row[1] < scan_row[1]  # covering: tree << scan
    assert hash_row[1] < scan_row[1]


def test_complexity_bounds():
    """Sec. 4.4's analytic access bounds really bound the measurements.

    Exact match: at most ``sum |edom(Ci)|`` cells. Covering search: at
    most ``|edom(C1)| + |edom(C2)|*h1 + |edom(C3)|*h2*h1`` cells, where
    ``hi`` is the number of hierarchy levels of the parameter at tree
    level ``i``.
    """
    environment = synthetic_environment()
    spec = ProfileSpec(num_preferences=3000, level_weights=(0.7, 0.2, 0.1), seed=5)
    profile = generate_profile(environment, spec)
    ordering = optimal_ordering(environment)
    tree = ProfileTree.from_profile(profile, ordering)

    edoms = [len(environment[name].edom) for name in ordering]
    levels = [environment[name].hierarchy.num_levels for name in ordering]
    exact_bound = sum(edoms)
    cover_bound = edoms[0]
    factor = 1
    for index in range(1, len(edoms)):
        factor *= levels[index - 1]
        cover_bound += edoms[index] * factor

    worst_exact = 0
    for state in exact_match_states(profile, 100, seed=6):
        counter = AccessCounter()
        tree.exact_lookup(state, counter)
        worst_exact = max(worst_exact, counter.cells)
    worst_cover = 0
    for state in random_states(environment, 100, seed=7, level_weights=(1.0,)):
        counter = AccessCounter()
        search_cs(tree, state, counter)
        worst_cover = max(worst_cover, counter.cells)

    assert (worst_exact, exact_bound, worst_cover, cover_bound) == (94, 1263, 107, 6879)
    assert worst_exact <= exact_bound
    assert worst_cover <= cover_bound


def test_traceability_feedback():
    """Sec. 5.1's remark, quantified: fixing the preferences that
    produced disputed results makes agreement climb round over round."""
    history = run_feedback_loop(rounds=6)

    assert [entry.agreement_pct for entry in history] == [
        89.7, 72.3, 75.0, 75.0, 100.0, 100.0,
    ]
    assert [entry.fixes_applied for entry in history] == [3, 3, 3, 3, 3, 0]
    assert history[-1].agreement_pct >= history[0].agreement_pct
    assert history[-1].agreement_pct >= 95.0


def test_query_tree_capacity():
    environment, _profile = generate_real_profile(num_preferences=100)
    states = random_states(environment, 80, seed=9)
    rows = []
    for capacity in (None, 40, 10):
        cache = ContextQueryTree(environment, capacity=capacity)
        sampler = ZipfSampler(len(states), 1.2, np.random.default_rng(2))
        for _ in range(600):
            state = states[sampler.sample()]
            if cache.get(state) is None:
                cache.put(state, object())
        rows.append((cache.hits, cache.hit_rate(), cache.evictions))

    assert [(hits, evictions) for hits, _rate, evictions in rows] == [
        (535, 0), (505, 55), (318, 272),
    ]
    assert [f"{rate:.0%}" for _hits, rate, _evictions in rows] == ["89%", "84%", "53%"]
    unbounded, mid, small = rows
    assert unbounded[1] >= mid[1] >= small[1]
    assert small[2] > 0  # the bounded cache actually evicted
