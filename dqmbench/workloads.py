"""The benchmark's workloads: one pass each, its output check, and the
per-layer metrics of the traced run.

A pass drives dqm_ray only through its public entry points:

- ``filter_code`` / ``filter_unicode``: one ``run_quality_filewise``
  over the input shards into an emptied output dir, result consumed.
- ``dedup_docs``: read the shards → ``exact_dedup`` → materialize →
  ``remove_boilerplate_lines(min_len=10, min_docs=10)`` → consumed.

The traced run adds spans around the calls into each layer (and, for
the filter workloads, an in-process pass that calls each stage
function in chain order on the 8192-row slices the filewise runner
uses) and reduces them to :data:`LAYER_METRICS`. A metric of a layer
that a workload's pass never calls reads 0 on that workload.
"""

from __future__ import annotations

import functools
import glob
import os
import shutil
import statistics

import pyarrow as pa
import pyarrow.parquet as pq

from dqmbench.checks import check_dedup, check_filter
from dqmbench.trace import ray_counters

STAGES = ("stages.normalize", "stages.partition", "stages.lineage",
          "stages.rules", "stages.scorer", "pipelines.quality.finalize",
          "stages.scrub")

LAYER_METRICS: dict[str, str] = {
    "sources.read_ms": "ms",
    "pipelines.quality.write_ms": "ms",
    **{f"{s}.{m}": u for s in STAGES
       for m, u in (("self_ms", "ms"), ("mb_per_s", "MB/s"))},
    "stages.rules.ascii_batch_frac": "ratio",
    "pipelines.quality.runner_overhead_ms": "ms",
    "functions.dedup.exact_call_ms": "ms",
    "functions.dedup.exact_consume_ms": "ms",
    "functions.dedup.rows_in": "rows",
    "functions.dedup.rows_out": "rows",
    "functions.boilerplate.call_ms": "ms",
    "functions.boilerplate.consume_ms": "ms",
    "functions.boilerplate.lines_removed": "count",
    "ray.alltoall_ms": "ms",
    "ray.alltoall_rows": "rows",
    "ray.map_tasks": "count",
    "trace.pass_s": "s",
    "trace.inprocess_pass_ms": "ms",
    "trace.unaccounted_ms": "ms",
}

RUNNER_SPAN = "pipelines.quality.run_quality_filewise"
INPROCESS_SPAN = "pass.inprocess"
DEDUP_SPAN = "pass.dedup_docs"


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _content_bytes(batch: pa.Table) -> int:
    return pa.compute.sum(pa.compute.binary_length(
        batch.column("content"))).as_py() or 0


class FilterWorkload:
    """``filter_code`` and ``filter_unicode``: the quality filter."""

    def __init__(self, inputs, work_dir: str):
        from dqm_ray.config import QualityConfig

        self.paths = inputs.paths
        self.facts = inputs.facts
        self.expected = inputs.expected()
        self.out_dir = os.path.join(work_dir, "out")
        # 8192-row batches, as bench.py runs the flagship
        self.cfg = QualityConfig(rule_batch_size=8192)
        self.scorer = None
        self.rows_done: int | None = None

    def prepare(self) -> None:
        """Untimed: empty the output dir."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.rows_done = None

    def run(self, tracer) -> None:
        """The timed pass: one filewise-runner run, consumed."""
        from dqm_ray.pipelines.quality import run_quality_filewise

        with tracer.span(RUNNER_SPAN) as sp:
            stats = run_quality_filewise(self.paths, self.out_dir,
                                         self.cfg).to_pandas()
        self.rows_done = int(stats["rows"].sum())
        if sp is not None:
            from dqm_ray.pipelines.quality import read_stage_timings

            sp.attrs["stage_ms"] = float(
                read_stage_timings(self.out_dir)["ms"].sum())
            sp.attrs.update(ray_counters(tracer.ray_summaries))
            tracer.ray_summaries.clear()

    def check(self) -> list[str]:
        files = sorted(glob.glob(os.path.join(self.out_dir, "data",
                                              "*.parquet")))
        out = pa.concat_tables(
            pq.read_table(f, columns=["repo", "path", "commit", "keep",
                                      "content", "sha256"]) for f in files)
        problems = check_filter(self.expected, out)
        if self.rows_done != self.facts["rows"]:
            problems.append(f"pass reported {self.rows_done} rows, "
                            f"input has {self.facts['rows']}")
        return problems

    # -- traced run only ---------------------------------------------------

    def traced_passes(self) -> list:
        """One traced round: the in-process pass, then the runner."""
        return [self.run_inprocess, self.run]

    def _chain(self):
        from dqm_ray.pipelines.quality import finalize_batch
        from dqm_ray.stages.lineage import lineage_batch
        from dqm_ray.stages.normalize import normalize_batch
        from dqm_ray.stages.rules import add_partition_id, heuristic_rules_batch
        from dqm_ray.stages.scorer import ScorerStage
        from dqm_ray.stages.scrub import scrub_batch

        cfg = self.cfg
        if self.scorer is None:
            self.scorer = ScorerStage(cfg)
        return tuple(zip(STAGES, (
            functools.partial(normalize_batch, cfg=cfg),
            functools.partial(add_partition_id,
                              num_partitions=cfg.num_partitions),
            functools.partial(lineage_batch, ref_column=None,
                              alert_dir=None,
                              fail_fast=cfg.fail_fast_on_lineage),
            functools.partial(heuristic_rules_batch, cfg=cfg),
            self.scorer,
            finalize_batch,
            functools.partial(scrub_batch, cfg=cfg),
        )))

    def run_inprocess(self, tracer) -> None:
        """The filewise runner's per-shard work in this process: read,
        each stage function in chain order per 8192-row slice, write."""
        from dqm_ray.stages.rules import is_ascii_batch

        chain = self._chain()
        size = self.cfg.rule_batch_size
        data_dir = os.path.join(self.out_dir, "data")
        os.makedirs(data_dir, exist_ok=True)
        rules_inputs = []
        rows = 0
        with tracer.span(INPROCESS_SPAN) as pass_span:
            for path in self.paths:
                with tracer.span("sources.read"):
                    table = pq.read_table(path)
                outs = []
                for off in range(0, table.num_rows, size):
                    b = table.slice(off, size)
                    nbytes = _content_bytes(b)
                    for name, fn in chain:
                        if name == "stages.rules":
                            rules_inputs.append(b.column("content"))
                        with tracer.span(name, bytes=nbytes):
                            b = fn(b)
                    outs.append(b)
                result = pa.concat_tables(outs).drop_columns(
                    ["is_empty", "has_autogen"])
                rows += result.num_rows
                shard = os.path.basename(path).rsplit(".", 1)[0]
                with tracer.span("pipelines.quality.write"):
                    per_row = max(1, result.nbytes // max(1, result.num_rows))
                    pq.write_table(result,
                                   os.path.join(data_dir, f"{shard}.parquet"),
                                   row_group_size=max(
                                       1, self.cfg.max_row_group_bytes
                                       // per_row))
        self.rows_done = rows
        if pass_span is not None:  # outside the span: not part of the pass
            pass_span.attrs["ascii"] = [is_ascii_batch(c.combine_chunks())
                                        for c in rules_inputs]

    def layer_metrics(self, tracer) -> dict[str, float]:
        out = {}
        # a pass that raised has no ascii flags: it is counted as failed
        passes = [s for s in tracer.spans
                  if s.name == INPROCESS_SPAN and "ascii" in s.attrs]
        per_pass = []
        for p in passes:
            desc = tracer.descendants(p)
            row = {"pass_ms": p.duration * 1e3,
                   "self_ms": tracer.self_time(p) * 1e3}
            for name in ("sources.read", "pipelines.quality.write", *STAGES):
                spans = [s for s in desc if s.name == name]
                row[name] = sum(tracer.self_time(s) for s in spans) * 1e3
                row[name + ".bytes"] = sum(s.attrs.get("bytes", 0)
                                           for s in spans)
            per_pass.append(row)
        out["sources.read_ms"] = _median(r["sources.read"] for r in per_pass)
        out["pipelines.quality.write_ms"] = _median(
            r["pipelines.quality.write"] for r in per_pass)
        for s in STAGES:
            out[f"{s}.self_ms"] = _median(r[s] for r in per_pass)
            out[f"{s}.mb_per_s"] = _median(
                r[s + ".bytes"] / 1e6 / (r[s] / 1e3)
                for r in per_pass if r[s] > 0)
        ascii_flags = [f for p in passes for f in p.attrs["ascii"]]
        out["stages.rules.ascii_batch_frac"] = (
            sum(ascii_flags) / len(ascii_flags) if ascii_flags else 0.0)
        out["trace.inprocess_pass_ms"] = _median(r["pass_ms"]
                                                 for r in per_pass)
        out["trace.unaccounted_ms"] = _median(r["self_ms"] for r in per_pass)
        runs = [s for s in tracer.spans
                if s.name == RUNNER_SPAN and "stage_ms" in s.attrs]
        out["pipelines.quality.runner_overhead_ms"] = _median(
            s.duration * 1e3 - s.attrs["stage_ms"] for s in runs)
        out["trace.pass_s"] = _median(s.duration for s in runs)
        for k in ("alltoall_ms", "alltoall_rows", "map_tasks"):
            out[f"ray.{k}"] = _median(s.attrs[k] for s in runs)
        return out


class DedupWorkload:
    """``dedup_docs``: exact dedup, then boilerplate-line removal."""

    def __init__(self, inputs, work_dir: str):
        self.paths = inputs.paths
        self.facts = inputs.facts
        self.expected = inputs.expected()
        self.output = None

    def prepare(self) -> None:
        self.output = None

    def run(self, tracer) -> None:
        import ray.data as rd

        from dqm_ray.functions.boilerplate import remove_boilerplate_lines
        from dqm_ray.functions.dedup import exact_dedup

        with tracer.span(DEDUP_SPAN) as sp:
            with tracer.span("sources.read"):
                ds = rd.read_parquet(
                    self.paths,
                    override_num_blocks=len(self.paths)).materialize()
            with tracer.span("functions.dedup.exact_call"):
                dd = exact_dedup(ds, text_col="text", id_col="doc_id")
            with tracer.span("functions.dedup.exact_consume"):
                dm = dd.materialize()
            with tracer.span("functions.boilerplate.call"):
                bp = remove_boilerplate_lines(dm, text_col="text",
                                              id_col="doc_id", min_len=10,
                                              min_docs=10)
            with tracer.span("functions.boilerplate.consume"):
                blocks = list(bp.iter_batches(batch_format="pyarrow",
                                              batch_size=None))
        self.output = pa.concat_tables(blocks) if blocks else None
        if sp is not None:
            sp.attrs["rows_in"] = ds.count()
            sp.attrs["rows_out"] = dm.count()
            sp.attrs["lines_removed"] = (
                pa.compute.sum(self.output.column("n_removed")).as_py()
                if self.output is not None else 0)
            sp.attrs.update(ray_counters(
                tracer.ray_summaries + [d._get_stats_summary()
                                        for d in (ds, dm, bp)]))
            tracer.ray_summaries.clear()

    def traced_passes(self) -> list:
        return [self.run]

    def check(self) -> list[str]:
        if self.output is None:
            return ["no output rows"]
        return check_dedup(self.expected, self.output)

    def layer_metrics(self, tracer) -> dict[str, float]:
        passes = [s for s in tracer.spans
                  if s.name == DEDUP_SPAN and "rows_in" in s.attrs]
        out = {}

        def child_ms(p, name):
            return sum(s.duration for s in tracer.children(p)
                       if s.name == name) * 1e3

        for key, name in (
                ("sources.read_ms", "sources.read"),
                ("functions.dedup.exact_call_ms",
                 "functions.dedup.exact_call"),
                ("functions.dedup.exact_consume_ms",
                 "functions.dedup.exact_consume"),
                ("functions.boilerplate.call_ms",
                 "functions.boilerplate.call"),
                ("functions.boilerplate.consume_ms",
                 "functions.boilerplate.consume")):
            out[key] = _median(child_ms(p, name) for p in passes)
        for key, attr in (("functions.dedup.rows_in", "rows_in"),
                          ("functions.dedup.rows_out", "rows_out"),
                          ("functions.boilerplate.lines_removed",
                           "lines_removed"),
                          ("ray.alltoall_ms", "alltoall_ms"),
                          ("ray.alltoall_rows", "alltoall_rows"),
                          ("ray.map_tasks", "map_tasks")):
            out[key] = _median(p.attrs[attr] for p in passes)
        out["trace.pass_s"] = _median(p.duration for p in passes)
        out["trace.unaccounted_ms"] = _median(tracer.self_time(p) * 1e3
                                              for p in passes)
        return out


WORKLOADS = {"filter_code": FilterWorkload,
             "filter_unicode": FilterWorkload,
             "dedup_docs": DedupWorkload}



def full_layer_metrics(workload, tracer) -> dict[str, float]:
    """Every metric of :data:`LAYER_METRICS`; 0 where the workload's
    pass does not call the layer."""
    with_values = workload.layer_metrics(tracer)
    return {name: float(with_values.get(name, 0.0))
            for name in LAYER_METRICS}

