"""The paper's numbers (Sec. 5: Table 1, Figs. 5-7), pinned exactly.

``paper_numbers.json`` is what ``python -m repro report --output
tests/eval/paper_numbers.json`` writes; CI regenerates it and fails on
any diff. Here the cheap sections are recomputed and must equal the
golden file exactly, and the whole file must show the shapes the paper
reports, so that an edit to it cannot quietly break them.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.eval import report

GOLDEN = json.loads(
    Path(__file__).with_name("paper_numbers.json").read_text(encoding="utf-8")
)
CHEAP = ("table1", "fig5", "fig7_real")
TREES = [f"order{i}" for i in range(1, 7)]


def test_golden_covers_every_section():
    assert set(GOLDEN) == set(report.SECTIONS)


@pytest.mark.parametrize("name", CHEAP)
def test_section_reproduces_exactly(name):
    assert json.loads(json.dumps(report.SECTIONS[name]())) == GOLDEN[name]


class TestTable1Shapes:
    rows = GOLDEN["table1"]

    def mean(self, field):
        return sum(row[field] for row in self.rows) / len(self.rows)

    def test_ten_users(self):
        assert len(self.rows) == 10

    def test_jaccard_at_least_hierarchy_on_average(self):
        assert self.mean("multi_cover_jaccard_pct") >= self.mean(
            "multi_cover_hierarchy_pct"
        )

    def test_jaccard_at_least_hierarchy_for_every_user(self):
        for row in self.rows:
            assert row["multi_cover_jaccard_pct"] >= row["multi_cover_hierarchy_pct"]

    def test_exact_match_agreement_at_least_70_percent(self):
        assert self.mean("exact_match_pct") >= 70.0


class TestFig5Shapes:
    cells = GOLDEN["fig5"]["cells"]
    num_bytes = GOLDEN["fig5"]["bytes"]

    def test_every_tree_below_serial_in_cells_and_bytes(self):
        for label in TREES:
            assert self.cells[label] < self.cells["serial"]
            assert self.num_bytes[label] < self.num_bytes["serial"]

    def test_order1_is_smallest(self):
        assert self.cells["order1"] == min(self.cells[label] for label in TREES)

    def test_large_domains_low_beat_large_domains_high(self):
        assert self.cells["order1"] < self.cells["order6"]


class TestFig6Shapes:
    uniform = GOLDEN["fig6"]["uniform"]
    zipf = GOLDEN["fig6"]["zipf"]
    skew = GOLDEN["fig6"]["skew"]

    @pytest.mark.parametrize("distribution", ["uniform", "zipf"])
    def test_trees_never_above_serial(self, distribution):
        series = GOLDEN["fig6"][distribution]
        for label in TREES:
            assert all(v <= s for v, s in zip(series[label], series["serial"]))

    def test_uniform_trees_grow_with_profile_size(self):
        for label in TREES:
            assert self.uniform[label] == sorted(self.uniform[label])

    def test_uniform_order1_at_most_order6(self):
        assert self.uniform["order1"][-1] <= self.uniform["order6"][-1]

    def test_zipf_trees_smaller_than_uniform(self):
        assert self.zipf["order1"][-1] < self.uniform["order1"][-1]

    def test_unskewed_big_domain_low_is_best(self):
        assert self.skew["order1"][0] <= self.skew["order3"][0]

    def test_skew_crossover_big_domain_high_wins(self):
        assert self.skew["order3"][-1] < self.skew["order1"][-1]

    def test_skewed_ordering_shrinks_with_skew(self):
        assert self.skew["order3"][-1] < self.skew["order3"][0]


class TestFig7Shapes:
    real = GOLDEN["fig7_real"]
    uniform = GOLDEN["fig7_synthetic"]["uniform"]
    zipf = GOLDEN["fig7_synthetic"]["zipf"]

    def test_tree_beats_scan_on_the_real_profile(self):
        assert self.real["tree_exact"] < self.real["serial_exact"]
        assert self.real["tree_cover"] < self.real["serial_cover"]

    def test_scan_grows_linearly_tree_nearly_flat(self):
        assert self.uniform["serial_exact"][-1] > 10 * self.uniform["serial_exact"][0]
        assert self.uniform["tree_exact"][-1] < 5 * self.uniform["tree_exact"][0]

    def test_tree_below_scan_for_exact_matches(self):
        pairs = zip(self.uniform["tree_exact"], self.uniform["serial_exact"])
        assert all(tree < scan for tree, scan in pairs)

    def test_zipf_exact_matches_no_dearer_than_uniform(self):
        assert self.zipf["tree_exact"][-1] <= self.uniform["tree_exact"][-1]

    @pytest.mark.parametrize("distribution", ["uniform", "zipf"])
    def test_tree_below_scan_for_covering_matches(self, distribution):
        tree = GOLDEN["fig7_synthetic"][distribution]["tree_cover"]
        assert all(t < s for t, s in zip(tree, self.uniform["serial_cover"]))

    def test_covering_costs_at_least_exact_on_the_tree(self):
        pairs = zip(self.uniform["tree_cover"], self.uniform["tree_exact"])
        assert all(cover >= exact for cover, exact in pairs)


class TestReportCli:
    @pytest.fixture
    def cheap_golden_text(self, monkeypatch):
        """Limit ``report`` to the cheap sections; return the text it
        must then write, in the golden file's exact format."""
        monkeypatch.setattr(
            report, "SECTIONS", {name: report.SECTIONS[name] for name in CHEAP}
        )
        cheap = {name: GOLDEN[name] for name in CHEAP}
        return json.dumps(cheap, indent=2, sort_keys=True) + "\n"

    def test_prints_the_golden_json(self, cheap_golden_text, capsys):
        assert main(["report"]) == 0
        assert capsys.readouterr().out == cheap_golden_text

    def test_output_writes_the_same_json(self, cheap_golden_text, tmp_path):
        target = tmp_path / "paper_numbers.json"
        assert main(["report", "--output", str(target)]) == 0
        assert target.read_text(encoding="utf-8") == cheap_golden_text
