"""The paper's analytical partitioning framework (Section 3)."""

from repro.partitioning.plan import (
    DECODE_PLAN_540B,
    PREFILL_PLAN_LARGE_BATCH,
    PREFILL_PLAN_SMALL_BATCH,
    AttentionLayoutKind,
    FfnLayoutKind,
    LayoutPlan,
)
from repro.partitioning.degraded import (
    DegradedDeployment,
    SubSlice,
    build_deployment,
    healthy_subslices,
    largest_healthy_subslice,
    migrate_caches,
    plan_batch_group,
    replan_after_failure,
    select_degraded_plan,
)

__all__ = [
    "AttentionLayoutKind",
    "DECODE_PLAN_540B",
    "DegradedDeployment",
    "FfnLayoutKind",
    "LayoutPlan",
    "PREFILL_PLAN_LARGE_BATCH",
    "PREFILL_PLAN_SMALL_BATCH",
    "SubSlice",
    "build_deployment",
    "healthy_subslices",
    "largest_healthy_subslice",
    "migrate_caches",
    "plan_batch_group",
    "replan_after_failure",
    "select_degraded_plan",
]
