"""Benchmark configuration.

Each script runs one extension experiment (ranking hot path,
observability overhead, chaos, distributed chaos, persistence) once
under the benchmark timer, prints its report (run with ``-s`` to see
it) and, on full runs, writes it to a ``BENCH_*.json`` file at the
repository root.
The paper's own numbers (Table 1, Figs. 5-7) are not here: they are
pinned exactly in ``tests/eval/paper_numbers.json``.

``--smoke`` shrinks every workload to CI scale: benchmarks still run
end to end (so the code paths stay covered on every push) but skip the
performance assertions and never overwrite the checked-in ``BENCH_*``
baselines, which are only meaningful on a quiet, known machine.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="tiny workloads; skip perf asserts and baseline writes (CI)",
    )


@pytest.fixture
def smoke(request):
    """True when running under ``--smoke`` (CI-scale workloads)."""
    return request.config.getoption("--smoke")


def run_once(benchmark, function, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once
