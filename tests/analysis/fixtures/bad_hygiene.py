"""Fixture: hot-path hygiene violations (HYG001, HYG004, HYG005).

Fed to the analyzer under a pretend ``repro.*`` module name by
``tests/analysis/test_hygiene.py``; never imported by shipped code.
"""

import threading


def make_bare_lock() -> object:
    # HYG001: a raw threading lock is invisible to the sanitizer.
    return threading.Lock()


def rank_rows(relation, contributions, registry) -> list:
    # HYG004: metrics recorded un-gated inside a hot-path function...
    registry.inc("fixture.ungated")
    if registry.enabled:
        # ...while this one is properly gated - NOT flagged.
        registry.observe("fixture.gated", 1.0)
    return []


def swallow(run) -> object:
    # HYG005: a broad catch that eats the failure outside a sanctioned
    # boundary (the degradation ladder owns this pattern).
    try:
        return run()
    except Exception:
        return None


def observe_and_reraise(run, log) -> object:
    # A broad catch whose last statement re-raises observes failures
    # without swallowing them - NOT flagged.
    try:
        return run()
    except Exception as error:
        log.append(error)
        raise
