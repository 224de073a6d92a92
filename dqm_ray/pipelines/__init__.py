from dqm_ray.pipelines.quality import (
    build_quality_pipeline,
    finalize_batch,
    read_partition_metrics,
    read_stage_timings,
    run_quality_filewise,
)

__all__ = [
    "build_quality_pipeline",
    "finalize_batch",
    "read_partition_metrics",
    "read_stage_timings",
    "run_quality_filewise",
]
