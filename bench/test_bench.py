"""Checks of the benchmark itself, at smoke sizes.

Run with ``PYTHONPATH=src python -m pytest bench -q`` (the tier-1 suite
does not collect this directory).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from bench import compare
from bench.metrics import ROOT, block_stats, declared, is_exact, load_spec
from bench.trial import run_trial
from repro.faults.registry import FaultSpec, fault_plan

WORKLOADS = [entry["name"] for entry in load_spec()["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke run of every workload, both untraced and traced."""
    out = tmp_path_factory.mktemp("bench")
    process = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke", "--seed", "17",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert process.returncode == 0, process.stderr
    report = json.loads((out / "report-seed17.json").read_text(encoding="utf-8"))
    return report, process.stdout, out


def _traced(name: str, workdir) -> dict:
    return run_trial({"workload": name, "seed": 17, "smoke": True, "mode": "traced",
                      "fixed": True, "count_cells": True, "workdir": str(workdir)})


def test_every_declared_metric_is_printed_with_unit_and_count(smoke):
    report, stdout, _ = smoke
    for name in WORKLOADS:
        entry = report["workloads"][name]
        for section, key in (("end_to_end", "metrics"), ("per_layer", "layers")):
            for metric, declaration in declared(section).items():
                measured = entry[key][metric]
                assert measured["unit"] == declaration["unit"]
                assert measured["n"] >= 1
                assert f"{name:13s} {metric} " in stdout
        for metric in declared("end_to_end"):
            assert entry["metrics"][metric]["value"] > 0


def test_no_operation_fails_and_every_reply_matches_the_twin(smoke):
    report, stdout, _ = smoke
    for name in WORKLOADS:
        assert report["workloads"][name]["failed"] == 0
        assert report["workloads"][name]["correct"]
    assert json.loads(stdout.strip().splitlines()[-1])["correct"] is True


def test_traced_trial_writes_its_trace_file(smoke):
    report, _, out = smoke
    for name in WORKLOADS:
        lines = (out / f"{name}.trace.jsonl").read_text(encoding="utf-8").splitlines()
        spans = [json.loads(line) for line in lines]
        assert spans and {"name", "op", "parent", "start_us", "dur_us", "self_us"} <= set(spans[0])


def test_exact_counts_repeat_across_runs(smoke, tmp_path):
    report, _, _ = smoke
    exact = [metric for metric, declaration in declared("per_layer").items()
             if is_exact(declaration)]
    for name in WORKLOADS:
        again = _traced(name, tmp_path)["layers"]
        for metric in exact:
            assert again[metric] == report["workloads"][name]["layers"][metric]["value"], (
                name, metric)


def test_injected_select_latency_trips_the_gate(tmp_path):
    spec = {"workload": "rank_wide", "seed": 17, "smoke": True, "mode": "timed",
            "fixed": True, "workdir": str(tmp_path)}
    clean = block_stats(run_trial(spec)["latency_ns"], 1)["latency_p50_ms"]
    with fault_plan([FaultSpec(site="relation.select", kind="latency", delay=0.001)]):
        slow = block_stats(run_trial(spec)["latency_ns"], 1)["latency_p50_ms"]
    bound = declared("end_to_end")["latency_p50_ms"]["bound"]
    before = compare.side([{"value": value} for value in clean])
    after = compare.side([{"value": value} for value in slow])
    assert compare.verdict(before, after, "lower", bound) == "WORSE"


def test_compare_passes_a_report_against_itself_and_catches_changed_counts(smoke, tmp_path):
    report, _, out = smoke
    path = out / "report-seed17.json"
    assert compare.main(["--before", str(path), "--after", str(path)]) == 0
    changed = json.loads(json.dumps(report))
    changed["workloads"]["rank_wide"]["layers"]["query.rows_ranked"]["value"] += 1
    other = tmp_path / "changed.json"
    other.write_text(json.dumps(changed), encoding="utf-8")
    assert compare.main(["--before", str(path), "--after", str(other)]) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rank_wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
