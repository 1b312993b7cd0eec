"""Distributed chaos harness: schedule shape and report invariants."""

import json

import pytest

from repro.eval import chaos_sharded_schedule, run_chaos_sharded
from repro.faults import TRANSPORT_KINDS, TRANSPORT_SITES


class TestSchedule:
    def test_round_names_cover_the_fault_ladder(self):
        names = [round_spec.name for round_spec in chaos_sharded_schedule()]
        assert names[0] == "warmup"
        for required in ("wire_chaos", "partition_heal", "kill_wire", "drain"):
            assert required in names

    def test_warmup_and_drain_inject_nothing(self):
        schedule = chaos_sharded_schedule()
        by_name = {round_spec.name: round_spec for round_spec in schedule}
        assert by_name["warmup"].faults == []
        assert by_name["drain"].faults == []
        assert by_name["drain"].drain is True

    def test_every_fault_spec_is_well_formed(self):
        known_sites = set(TRANSPORT_SITES) | {"worker.kill"}
        for round_spec in chaos_sharded_schedule():
            for spec in round_spec.faults:
                assert spec.site in known_sites
                assert spec.max_fires >= 1
                if spec.site in TRANSPORT_SITES:
                    assert spec.kind in (
                        TRANSPORT_KINDS | {"error", "latency", "corrupt"}
                    )


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        return run_chaos_sharded(
            num_users=4,
            num_rows=120,
            num_workers=2,
            queries_per_round=4,
            edits_per_round=1,
            seed=11,
        )

    def test_report_is_json_ready(self, report):
        parsed = json.loads(json.dumps(report))
        assert parsed["workload"]["num_workers"] == 2

    def test_hardened_run_serves_everything_exactly_once(self, report):
        hardened = report["hardened"]
        assert hardened["availability"] >= 0.99
        assert hardened["lost_replies"] == 0
        assert hardened["duplicate_replies"] == 0
        assert hardened["identical_output"] is True

    def test_rounds_report_router_counter_deltas(self, report):
        rounds = report["hardened"]["rounds"]
        assert [row["name"] for row in rounds] == [
            round_spec.name for round_spec in chaos_sharded_schedule()
        ]
        for row in rounds:
            assert row["lost_replies"] == 0
            assert row["double_served"] == 0
            assert row["identical"] is True
            assert "router" in row

    def test_report_has_no_baseline_run(self, report):
        assert set(report) == {"workload", "hardened"}
