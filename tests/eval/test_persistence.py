"""Tests for the persistence experiment drivers (tiny scale)."""

from repro.eval import kill_restart_schedule, run_kill_restart, run_paging_bench


class TestSchedule:
    def test_deterministic_per_seed(self):
        assert kill_restart_schedule(seed=5) == kill_restart_schedule(seed=5)
        assert kill_restart_schedule(seed=5) != kill_restart_schedule(seed=6)

    def test_always_crashes_at_least_once(self):
        for seed in range(25):
            schedule = kill_restart_schedule(seed=seed, rounds=3)
            assert any(plan["kill"] for plan in schedule)

    def test_plan_shape(self):
        for plan in kill_restart_schedule(seed=3, rounds=6):
            assert set(plan) == {"kill", "snapshot", "append_fault_probability"}
            assert 0.0 <= plan["append_fault_probability"] <= 0.45


class TestKillRestart:
    def test_recovers_identically(self, tmp_path):
        report = run_kill_restart(
            num_users=3,
            num_rows=80,
            rounds=2,
            edits_per_round=3,
            queries_per_round=4,
            hydrated_budget=2,
            seed=29,
            root=tmp_path,
        )
        assert report["restarts"] >= 1
        assert report["recovery_rate"] == 1.0
        assert report["ranking_mismatches"] == 0
        assert report["ranking_checks"] > 0
        assert report["identical_after_recovery"]
        assert len(report["rounds"]) == 2
        # Every kill leaves a torn partial record behind.
        assert report["torn_tails_repaired"] == report["restarts"]


class TestPagingBench:
    def test_tiny_run_stays_within_budget(self, tmp_path):
        report = run_paging_bench(
            num_users=200,
            hydrated_budget=4,
            num_queries=30,
            num_rows=60,
            seed=31,
            root=tmp_path,
            register_batch=64,
            edit_every=5,
        )
        assert report["registration"]["users"] == 200
        paging = report["paging"]
        assert paging["within_budget"]
        assert paging["peak_hydrated"] <= 4
        assert paging["hydrations"] > 0
        assert report["queries"]["edits"] == 6
        recovery = report["recovery"]
        assert recovery["complete"] and recovery["users"] == 200
        assert recovery["overrides"] > 0  # edited profiles survived
        assert report["snapshot"]["covered_lsn"] >= 200
