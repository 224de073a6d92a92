"""Per-batch stages of the quality-filter pipeline.

Each stage is either a pure function ``fn(batch: pa.Table, *, cfg) ->
pa.Table`` (stateless) or a callable class (state built once in
``__init__`` and reused per worker process — the reference's
ChannelMapFiller gate analog, include/dqm/ChannelMapFiller.hpp:38-75).
"""

from dqm_ray.stages.rules import heuristic_rules_batch
from dqm_ray.stages.scrub import scrub_batch
from dqm_ray.stages.lineage import LineageError, lineage_batch
from dqm_ray.stages.scorer import ScorerStage

__all__ = [
    "heuristic_rules_batch",
    "scrub_batch",
    "lineage_batch",
    "LineageError",
    "ScorerStage",
]
