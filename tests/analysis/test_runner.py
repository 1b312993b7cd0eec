"""The aggregate runner, report rendering, and the CLI gate."""

import json
from pathlib import Path

import pytest

import repro
from repro.analysis import analyze, analyze_modules, load_module
from repro.analysis.findings import RULES
from repro.cli import main
from repro.exceptions import ReproError

FIXTURES = Path(__file__).parent / "fixtures"
SRC_ROOT = Path(repro.__file__).parent


class TestShippedTreeIsClean:
    def test_analyze_reports_zero_findings(self):
        report = analyze(SRC_ROOT)
        assert report.ok, report.render()

    def test_default_root_is_the_installed_package(self):
        assert analyze().ok


class TestReport:
    @pytest.fixture()
    def dirty_report(self):
        module = load_module(
            "repro.service.fixture", FIXTURES / "bad_lockorder.py"
        )
        return analyze_modules([module])

    def test_findings_are_queryable_by_category_and_rule(self, dirty_report):
        assert not dirty_report.ok
        assert dirty_report.by_category("lock-order")
        assert dirty_report.by_rule("LOCK001")
        assert dirty_report.by_rule("LAYER001") == []

    def test_text_rendering_counts_findings(self, dirty_report):
        text = dirty_report.render("text")
        assert text.endswith(f"analyze: {len(dirty_report.findings)} finding(s)")
        assert "LOCK001" in text

    def test_json_rendering_round_trips(self, dirty_report):
        payload = json.loads(dirty_report.render("json"))
        assert payload["count"] == len(dirty_report.findings)
        first = payload["findings"][0]
        assert {"rule", "category", "module", "path", "line", "message"} <= set(first)

    def test_json_schema_has_the_stable_keys(self, dirty_report):
        payload = json.loads(dirty_report.render("json"))
        assert set(payload) == {"findings", "count", "suppressed", "suppressed_count"}
        for finding in payload["findings"]:
            assert set(finding) == {
                "rule",
                "category",
                "module",
                "path",
                "line",
                "message",
                "function",
                "chain",
            }
            assert isinstance(finding["chain"], list)

    def test_sarif_rendering_is_valid_2_1_0(self, dirty_report):
        log = json.loads(dirty_report.render("sarif"))
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        rules = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"LOCK001", "BLOCK001", "EXC001", "FAULT001", "SCHEMA001"} <= rules
        assert run["results"], "dirty report must produce SARIF results"
        first = run["results"][0]
        assert first["ruleId"] in rules
        location = first["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"]
        assert location["region"]["startLine"] >= 1

    def test_clean_text_report(self):
        assert analyze(SRC_ROOT).render() == "analyze: 0 findings"

    @pytest.mark.parametrize(
        "rule, keyword",
        [
            ("LOCK002", "upgrade"),
            ("LAYER002", "service"),
            ("HYG001", "threading"),
            ("HYG004", "metric"),
        ],
    )
    def test_rule_table_describes_what_the_checker_flags(self, rule, keyword):
        assert keyword in RULES[rule].lower()


class TestBaseline:
    @pytest.fixture()
    def dirty_modules(self):
        return [load_module("repro.service.fixture", FIXTURES / "bad_blocking.py")]

    def test_baseline_entries_suppress_matching_findings(self, dirty_modules):
        from repro.analysis import analyze_modules

        baseline = [{"rule": "BLOCK001", "module": "repro.service.fixture"}]
        report = analyze_modules(dirty_modules, baseline=baseline)
        assert report.ok
        assert report.suppressed
        assert all(f.rule == "BLOCK001" for f in report.suppressed)

    def test_baseline_with_function_scope_only_matches_that_function(
        self, dirty_modules
    ):
        from repro.analysis import analyze_modules

        baseline = [
            {
                "rule": "BLOCK001",
                "module": "repro.service.fixture",
                "function": "SleepyCache.direct_sleep",
            }
        ]
        report = analyze_modules(dirty_modules, baseline=baseline)
        assert not report.ok
        assert {f.function for f in report.suppressed} == {"SleepyCache.direct_sleep"}

    def test_malformed_baseline_raises(self, tmp_path):
        from repro.analysis import load_baseline

        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"findings": [{"rule": "X"}]}), encoding="utf-8")
        with pytest.raises(ReproError, match="needs 'rule' and 'module'"):
            load_baseline(bad)
        bad.write_text(
            json.dumps({"findings": [{"rule": "X", "module": "m", "oops": 1}]}),
            encoding="utf-8",
        )
        with pytest.raises(ReproError, match="unknown keys"):
            load_baseline(bad)


class TestCollection:
    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(ReproError, match="not a directory"):
            analyze(tmp_path / "nowhere")

    def test_unparseable_source_raises(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def (:\n", encoding="utf-8")
        with pytest.raises(ReproError, match="cannot parse"):
            load_module("repro.broken", path)


class TestCli:
    def test_analyze_exits_zero_on_the_shipped_tree(self, capsys):
        assert main(["analyze"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_analyze_exits_nonzero_on_findings(self, capsys):
        assert main(["analyze", "--root", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "finding(s)" in out

    def test_analyze_json_format(self, capsys):
        assert main(["analyze", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "findings": [],
            "count": 0,
            "suppressed": [],
            "suppressed_count": 0,
        }

    def test_analyze_sarif_format(self, capsys):
        assert main(["analyze", "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"] == []

    def test_analyze_output_writes_the_report_to_a_file(self, tmp_path, capsys):
        target = tmp_path / "analyze.sarif"
        assert main(
            ["analyze", "--format", "sarif", "--output", str(target)]
        ) == 0
        capsys.readouterr()
        assert json.loads(target.read_text(encoding="utf-8"))["version"] == "2.1.0"

    def test_analyze_baseline_flag_gates_known_findings(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "findings": [
                        {"rule": rule, "module": f"repro.{stem}"}
                        for stem in (
                            "bad_blocking",
                            "bad_exceptions",
                            "bad_faultsites",
                            "bad_hygiene",
                            "bad_layering",
                            "bad_lockorder",
                            "bad_schema",
                            "bad_transport",
                            "bad_upgrade",
                        )
                        for rule in (
                            "LOCK001",
                            "LOCK002",
                            "LAYER001",
                            "LAYER002",
                            "HYG001",
                            "HYG004",
                            "HYG005",
                            "BLOCK001",
                            "FAULT001",
                            "FAULT002",
                            "EXC001",
                            "SCHEMA001",
                        )
                    ]
                }
            ),
            encoding="utf-8",
        )
        assert (
            main(
                [
                    "analyze",
                    "--root",
                    str(FIXTURES),
                    "--baseline",
                    str(baseline),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "suppressed" in out
