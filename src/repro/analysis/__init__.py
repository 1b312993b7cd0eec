"""Project-native static analysis: invariants ruff/mypy cannot see.

The serving stack's correctness rests on conventions that no generic
linter checks: the documented lock hierarchy (user > registry >
account > relation > cache > metrics), the package layering DAG
(context/hierarchy below preferences below tree below db below query
below service), and hot-path hygiene rules (no bare ``threading``
locks outside :mod:`repro.concurrency`, no ``print`` in library code,
no un-gated metrics work inside the ``search_cs``/``rank_rows`` hot
paths). One refactor can silently
break any of them - and a broken lock order is a deadlock waiting for
production traffic, while a stale-cache write corrupts the Def. 10-12
context-resolution results the paper's Theorem 1 depends on.

This package walks the source tree's ASTs and machine-checks five
families:

* :mod:`repro.analysis.lockorder` - extracts lock acquisitions per
  function, propagates them over an intra-package call graph, and
  flags hierarchy inversions and read->write upgrades;
* :mod:`repro.analysis.layering` - enforces the package DAG on
  module-level imports (deferred imports are exempt, except that
  nothing below the service layer may import it, ever);
* :mod:`repro.analysis.hygiene` - the hot-path rules above;
* :mod:`repro.analysis.effects` - fixed-point *may-block* effect
  inference (``BLOCK001``: socket/fsync/sleep/join reachable while a
  non-sanctioned ranked lock is held);
* :mod:`repro.analysis.contracts` - fault-site drift
  (``FAULT001/002``), non-degradable exception flow (``EXC001``) and
  WAL/frame op-vocabulary drift (``SCHEMA001``).

Run it as ``python -m repro analyze`` (text, ``--format json`` or
``--format sarif``; non-zero exit on unbaselined findings; sanctioned
violations carry an in-source ``# analysis: allow RULE reason``
comment or a ``--baseline`` entry). The runtime counterparts - the
held-lock stack in :mod:`repro.concurrency.locks` and the blocking
sanitizer in :mod:`repro.concurrency.blocking` - assert the same
contracts inside the stress suites.
"""

from repro.analysis.contracts import check_contracts
from repro.analysis.effects import check_blocking
from repro.analysis.findings import (
    RULES,
    Finding,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.modules import SourceModule, collect_modules, load_module
from repro.analysis.runner import (
    AnalysisReport,
    analyze,
    analyze_modules,
    load_baseline,
)

__all__ = [
    "RULES",
    "AnalysisReport",
    "Finding",
    "SourceModule",
    "analyze",
    "analyze_modules",
    "check_blocking",
    "check_contracts",
    "collect_modules",
    "load_baseline",
    "load_module",
    "render_json",
    "render_sarif",
    "render_text",
]
