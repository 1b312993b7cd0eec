"""Experiment drivers reproducing the paper's evaluation (Sec. 5)."""

from repro.eval.accesses import (
    AccessMeasurement,
    fig7_real_profile,
    fig7_synthetic,
    measure_accesses,
)
from repro.eval.chaos import chaos_schedule, run_chaos, run_chaos_overhead
from repro.eval.chaos_sharded import chaos_sharded_schedule, run_chaos_sharded
from repro.eval.persistence import (
    kill_restart_schedule,
    run_kill_restart,
    run_paging_bench,
)
from repro.eval.observability import (
    run_obs_overhead,
    run_scripted_workload,
    summarize_snapshot,
)
from repro.eval.rank_costs import (
    SelectCost,
    measure_select_costs,
    rank_access_sweep,
    run_rank_hotpath,
)
from repro.eval.reporting import format_series, format_table
from repro.eval.sizes import (
    OrderingSize,
    SizeExperiment,
    fig5_real_profile,
    fig6_size_sweep,
    fig6_skew_sweep,
    measure_orderings,
)
from repro.eval.usability import (
    UsabilityStudy,
    UserStudyRow,
    classify_states,
    run_usability_study,
)

__all__ = [
    "AccessMeasurement",
    "OrderingSize",
    "SelectCost",
    "SizeExperiment",
    "UsabilityStudy",
    "UserStudyRow",
    "chaos_schedule",
    "chaos_sharded_schedule",
    "classify_states",
    "fig5_real_profile",
    "fig6_size_sweep",
    "fig6_skew_sweep",
    "fig7_real_profile",
    "fig7_synthetic",
    "format_series",
    "format_table",
    "kill_restart_schedule",
    "measure_accesses",
    "measure_orderings",
    "measure_select_costs",
    "rank_access_sweep",
    "run_chaos",
    "run_chaos_overhead",
    "run_chaos_sharded",
    "run_kill_restart",
    "run_obs_overhead",
    "run_paging_bench",
    "run_rank_hotpath",
    "run_scripted_workload",
    "run_usability_study",
    "summarize_snapshot",
]
