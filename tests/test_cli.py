"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ["fig9", "serve-bench", "shard-bench"])
    def test_unknown_command_rejected(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])

    def test_fig6_requires_panel(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6"])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.users == 10 and args.seed == 11

    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.format == "table"
        assert args.users == 4 and args.queries == 60
        assert args.rows == 2000 and args.cache_capacity == 8

    def test_stats_rejects_unknown_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--format", "xml"])

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.users == 6 and args.rows == 400
        assert args.rounds == 5 and args.queries_per_round == 40
        assert args.seed == 23
        assert not args.no_baseline and not args.json
        # Distributed chaos is opt-in.
        assert not args.sharded and args.workers == 2

    def test_chaos_sharded_flag(self):
        args = build_parser().parse_args(["chaos", "--sharded",
                                          "--workers", "3"])
        assert args.sharded and args.workers == 3

    def test_persistence_defaults(self):
        args = build_parser().parse_args(["persistence"])
        assert args.users == 8 and args.rows == 300 and args.rounds == 4
        assert args.hydrated_budget == 4
        assert args.seed == 29
        assert args.paging_users == 0  # paging benchmark is opt-in
        assert not args.json and args.output is None


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1", "--users", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "User 1" in out and "User 2" in out
        assert "Jaccard" in out

    def test_fig5(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        assert "order1" in out and "serial" in out

    def test_fig6_left_small(self, capsys):
        assert main(["fig6", "left", "--sizes", "100", "200"]) == 0
        out = capsys.readouterr().out
        assert "uniform" in out
        assert "100" in out and "200" in out

    def test_fig7_real(self, capsys):
        assert main(["fig7", "real", "--queries", "10"]) == 0
        out = capsys.readouterr().out
        assert "tree_exact" in out and "serial_cover" in out

    def test_fig7_synthetic_small(self, capsys):
        assert main(["fig7", "synthetic", "--sizes", "100", "--queries", "5"]) == 0
        out = capsys.readouterr().out
        assert "cover_serial" in out

    def test_stats_table(self, capsys):
        assert main(["stats", "--users", "2", "--queries", "8",
                     "--rows", "120", "--cache-capacity", "4"]) == 0
        out = capsys.readouterr().out
        assert "Serving-path observability" in out
        assert "cache hit rate" in out
        assert "cache evictions" in out
        assert "selections (indexed)" in out
        assert "p50/p95 (ms)" in out

    def test_stats_json(self, capsys):
        import json

        assert main(["stats", "--format", "json", "--users", "2",
                     "--queries", "8", "--rows", "120"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"]["num_queries"] == 8
        assert "cache.misses" in payload["snapshot"]["counters"]
        assert "latency.service_query" in payload["snapshot"]["histograms"]

    def test_stats_prometheus(self, capsys):
        assert main(["stats", "--format", "prometheus", "--users", "2",
                     "--queries", "8", "--rows", "120"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_cache_misses counter" in out
        assert "# TYPE repro_latency_service_query summary" in out
        assert 'quantile="0.95"' in out

    def test_chaos_table(self, capsys):
        assert main(["chaos", "--users", "2", "--rows", "120", "--rounds", "2",
                     "--queries-per-round", "6", "--edits-per-round", "1",
                     "--concurrent-batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "served @ full" in out
        assert "correctness audit" in out
        assert "baseline availability" in out

    def test_chaos_json_and_output(self, capsys, tmp_path):
        import json

        target = tmp_path / "chaos.json"
        assert main(["chaos", "--users", "2", "--rows", "120", "--rounds", "2",
                     "--queries-per-round", "6", "--edits-per-round", "1",
                     "--concurrent-batch", "4", "--no-baseline",
                     "--json", "--output", str(target)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["resilient"]["requests"] > 0
        assert payload.get("baseline") is None
        assert json.loads(target.read_text()) == payload

    def test_chaos_sharded_table(self, capsys):
        assert main(["chaos", "--sharded", "--users", "4", "--rows", "120",
                     "--queries-per-round", "4", "--edits-per-round", "1",
                     "--workers", "2", "--no-baseline"]) == 0
        out = capsys.readouterr().out
        assert "Sharded chaos" in out
        assert "availability" in out
        assert "identical rankings" in out
        assert "edits via (forward/wal/resync)" in out

    def test_chaos_sharded_json_and_output(self, capsys, tmp_path):
        import json

        target = tmp_path / "chaos_sharded.json"
        assert main(["chaos", "--sharded", "--users", "4", "--rows", "120",
                     "--queries-per-round", "4", "--edits-per-round", "1",
                     "--workers", "2", "--no-baseline",
                     "--json", "--output", str(target)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hardened"]["requests"] > 0
        assert payload["hardened"]["lost_replies"] == 0
        assert payload.get("baseline") is None
        assert json.loads(target.read_text()) == payload

    def test_persistence_table(self, capsys):
        assert main(["persistence", "--users", "2", "--rows", "60",
                     "--rounds", "2", "--edits-per-round", "2",
                     "--queries-per-round", "3"]) == 0
        out = capsys.readouterr().out
        assert "Persistence run" in out
        assert "recovery rate" in out and "100.00%" in out
        assert "ranking audit" in out and "0 mismatches" in out
        assert "identical after recovery" in out and "yes" in out

    def test_persistence_json_with_paging(self, capsys, tmp_path):
        import json

        target = tmp_path / "persistence.json"
        assert main(["persistence", "--users", "2", "--rows", "60",
                     "--rounds", "2", "--edits-per-round", "2",
                     "--queries-per-round", "3",
                     "--paging-users", "150", "--paging-queries", "20",
                     "--json", "--output", str(target)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kill_restart"]["recovery_rate"] == 1.0
        assert payload["paging"]["recovery"]["complete"]
        assert json.loads(target.read_text()) == payload

    def test_custom_seed_changes_table1(self, capsys):
        main(["table1", "--users", "2", "--seed", "1"])
        first = capsys.readouterr().out
        main(["table1", "--users", "2", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second
