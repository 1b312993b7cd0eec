"""The paper's numbers: one JSON-ready record of the evaluation.

Each entry of :data:`SECTIONS` runs one part of the evaluation (Table 1
and Figs. 5-7) at its committed defaults and returns plain data.
``python -m repro report`` prints :func:`paper_numbers` as JSON; that
output is checked in as ``tests/eval/paper_numbers.json``, the golden
record the tests and CI compare against exactly.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.eval.accesses import fig7_real_profile, fig7_synthetic
from repro.eval.sizes import fig5_real_profile, fig6_size_sweep, fig6_skew_sweep
from repro.eval.usability import run_usability_study

__all__ = ["SECTIONS", "paper_numbers"]


def _table1() -> list[dict]:
    return [asdict(row) for row in run_usability_study().rows]


def _fig5() -> dict:
    experiment = fig5_real_profile()
    return {"cells": experiment.cells_by_label(), "bytes": experiment.bytes_by_label()}


def _fig6() -> dict:
    return {
        "uniform": fig6_size_sweep("uniform"),
        "zipf": fig6_size_sweep("zipf"),
        "skew": fig6_skew_sweep(),
    }


def _fig7_real() -> dict:
    return {label: m.mean_cells for label, m in fig7_real_profile().items()}


def _fig7_synthetic() -> dict:
    return {name: fig7_synthetic(name) for name in ("uniform", "zipf")}


#: Section name -> zero-argument function returning its JSON-ready numbers.
SECTIONS = {
    "table1": _table1,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7_real": _fig7_real,
    "fig7_synthetic": _fig7_synthetic,
}


def paper_numbers() -> dict:
    """Every section's numbers, keyed by section name."""
    return {name: build() for name, build in SECTIONS.items()}
