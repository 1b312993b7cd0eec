"""The hygiene checker: bare locks, un-gated hot-path metrics and
broad excepts."""

from pathlib import Path

import pytest

from repro.analysis import load_module
from repro.analysis.hygiene import check_hygiene

FIXTURES = Path(__file__).parent / "fixtures"


def _findings(name: str = "repro.query.fixture"):
    module = load_module(name, FIXTURES / "bad_hygiene.py")
    return check_hygiene([module])


class TestHygieneRules:
    def test_bare_threading_lock_is_flagged(self):
        assert any(f.rule == "HYG001" for f in _findings())

    def test_bare_lock_is_allowed_inside_concurrency(self):
        # The primitives themselves are built from threading locks.
        findings = _findings(name="repro.concurrency.fixture")
        assert not any(f.rule == "HYG001" for f in findings)

    def test_ungated_hot_path_metrics_are_flagged(self):
        flagged = [f for f in _findings() if f.rule == "HYG004"]
        assert len(flagged) == 1
        assert flagged[0].function == "rank_rows"
        assert ".inc()" in flagged[0].message

    def test_gated_hot_path_metrics_pass(self):
        # The registry.observe call under `if registry.enabled:` in the
        # fixture must not appear among the findings.
        assert not any(
            ".observe()" in f.message for f in _findings() if f.rule == "HYG004"
        )

    def test_cold_functions_may_record_metrics_freely(self, tmp_path: Path):
        path = tmp_path / "cold.py"
        path.write_text(
            "def report_totals(registry):\n"
            "    registry.inc('fine.anywhere')\n",
            encoding="utf-8",
        )
        module = load_module("repro.eval.cold", path)
        assert check_hygiene([module]) == []

    @pytest.mark.parametrize("name", ["repro.query.fixture", "repro.eval.fixture"])
    def test_swallowing_broad_except_is_flagged(self, name):
        flagged = [f for f in _findings(name=name) if f.rule == "HYG005"]
        assert len(flagged) == 1
        assert "sanctioned failure boundary" in flagged[0].message

    def test_reraising_broad_except_is_exempt(self):
        # ``observe_and_reraise`` in the fixture ends with a bare
        # ``raise``: exactly one HYG005 finding means it was skipped.
        assert len([f for f in _findings() if f.rule == "HYG005"]) == 1

    def test_broad_except_is_sanctioned_inside_resilience(self):
        findings = _findings(name="repro.resilience.fixture")
        assert not any(f.rule == "HYG005" for f in findings)

    def test_bare_except_is_flagged(self, tmp_path: Path):
        path = tmp_path / "bare.py"
        path.write_text(
            "def quiet(run):\n"
            "    try:\n"
            "        return run()\n"
            "    except:\n"
            "        return None\n",
            encoding="utf-8",
        )
        module = load_module("repro.query.bare", path)
        flagged = [f for f in check_hygiene([module]) if f.rule == "HYG005"]
        assert len(flagged) == 1
        assert "bare except" in flagged[0].message
