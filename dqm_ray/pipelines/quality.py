"""The flagship quality-filter pipeline — the DFModule-composite analog
(reference include/dqm/modules/DFModule.hpp:58-134: assemble enabled
stages from config and run them over the same window), fused into one
per-batch chain (``QualityStage``):

    normalize → partition_id                    # hash64(repo) % P
      → lineage sha256 (+ invariant check)      # P3/P5 analog, fail-fast
      → heuristic_rules_batch                   # P2-P4 analogs, stateless
      → ScorerStage                             # T1/T2 analogs
      → finalize (reasons → keep)               # Pipeline-runner analog
      → scrub                                   # PII rewrite

``run_quality_filewise`` is the runner: one plain Ray task per pending
input shard reads the shard, runs the chain and writes

    metrics/<shard>.parquet          # K3 opmon analog, per partition_id
    metrics/timing/<shard>.parquet   # per-stage ms / rows / calls
    data/<shard>.parquet             # K1 sink, atomic rename, written last

and returns only that shard's stats row. The call is eager: it waits
for every task and returns the stats as a ``pa.Table``. The data file is
the completion marker: a rerun skips every shard whose data file exists.
``build_quality_pipeline`` puts the same chain on any ``Dataset`` for
composition.
"""

from __future__ import annotations

import functools
import os
import time
import uuid

import numpy as np
import pyarrow as pa
import ray

from dqm_ray.config import QualityConfig
from dqm_ray.stages.lineage import lineage_batch
from dqm_ray.stages.rules import add_partition_id, heuristic_rules_batch
from dqm_ray.stages.scorer import ScorerStage
from dqm_ray.stages.scrub import scrub_batch
from dqm_ray.state.tasks import wait_all


def _multirange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate arange(starts[i], starts[i]+counts[i]) — vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, np.int64)
    cum = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) + np.repeat(
        starts.astype(np.int64) - np.concatenate(([0], cum[:-1])), counts)


def concat_list_columns(a: pa.ListArray, b: pa.ListArray) -> pa.ListArray:
    """Row-wise concat of two list<string> arrays, vectorized."""
    ao = np.asarray(a.offsets, dtype=np.int64)
    bo = np.asarray(b.offsets, dtype=np.int64)
    ca, cb = np.diff(ao), np.diff(bo)
    new_off = np.zeros(len(ca) + 1, dtype=np.int64)
    np.cumsum(ca + cb, out=new_off[1:])
    take = np.empty(new_off[-1], dtype=np.int64)
    take[_multirange(new_off[:-1], ca)] = _multirange(ao[:-1], ca)
    take[_multirange(new_off[:-1] + ca, cb)] = len(a.values) + _multirange(bo[:-1], cb)
    values = pa.concat_arrays([a.values.cast(pa.string()),
                               b.values.cast(pa.string())]).take(take)
    return pa.ListArray.from_arrays(pa.array(new_off, pa.int32()), values)


def finalize_batch(batch: pa.Table) -> pa.Table:
    """Merge rule_reasons + scorer_reasons → `reasons`; keep = empty."""
    reasons = concat_list_columns(
        batch.column("rule_reasons").combine_chunks(),
        batch.column("scorer_reasons").combine_chunks())
    batch = batch.drop_columns(["rule_reasons", "scorer_reasons"])
    keep = np.diff(np.asarray(reasons.offsets, dtype=np.int64)) == 0
    batch = batch.append_column("reasons", reasons)
    return batch.append_column("keep", pa.array(keep))


class QualityStage:
    """The whole per-row chain manually fused into one callable:
    normalize → partition_id → lineage → rules → scorer → finalize →
    scrub, applied in-process per batch.

    Why fused: six separate ``map_batches`` stages would hand every
    block (≈ corpus size) through the object store at each hop; fused,
    the filewise runner moves no content through it at all.
    """

    def __init__(self, cfg: QualityConfig | None = None, *,
                 ref_sha_column: str | None = None,
                 alert_dir: str | None = None):
        self.cfg = cfg or QualityConfig()
        self.ref_sha_column = ref_sha_column
        self.alert_dir = alert_dir
        self.scorer = ScorerStage(self.cfg)
        # per-stage (wall_ms, rows, calls) accumulators — the opmon
        # times_run/time_taken analog (reference
        # schema/dqm/dqmprocessorinfo.jsonnet:18-31, measured at
        # include/dqm/ChannelStream.hpp:106-116); drained per shard by
        # the filewise runner into metrics/timing/*.parquet
        self._timing: dict[str, tuple[float, int, int]] = {}

    def _timed(self, name: str, fn, batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        out = fn(batch)
        dt = (time.perf_counter() - t0) * 1000.0
        ms, rows, calls = self._timing.get(name, (0.0, 0, 0))
        self._timing[name] = (ms + dt, rows + batch.num_rows, calls + 1)
        return out

    def drain_timings(self) -> pa.Table:
        """Return accumulated (stage, ms, rows, calls) partials and reset."""
        items = sorted(self._timing.items())
        self._timing = {}
        return pa.table({
            "stage": pa.array([k for k, _ in items], pa.string()),
            "ms": pa.array([v[0] for _, v in items], pa.float64()),
            "rows": pa.array([v[1] for _, v in items], pa.int64()),
            "calls": pa.array([v[2] for _, v in items], pa.int64()),
        })

    def __call__(self, batch: pa.Table) -> pa.Table:
        from dqm_ray.stages.normalize import normalize_batch

        cfg = self.cfg
        b = self._timed("normalize",
                        lambda t: normalize_batch(t, cfg=cfg), batch)
        b = self._timed("partition", lambda t: add_partition_id(
            t, num_partitions=cfg.num_partitions), b)
        b = self._timed("lineage", lambda t: lineage_batch(
            t, ref_column=self.ref_sha_column, alert_dir=self.alert_dir,
            fail_fast=cfg.fail_fast_on_lineage), b)
        b = self._timed("rules",
                        lambda t: heuristic_rules_batch(t, cfg=cfg), b)
        b = self._timed("scorer", self.scorer, b)
        b = self._timed("finalize", finalize_batch, b)
        return self._timed("scrub", lambda t: scrub_batch(t, cfg=cfg), b)


# per-worker-process cache: stateful stage built once per worker and
# reused by every task that lands there — actor-like amortization with
# task-pool elasticity (workers are shared, so no pool spin-up cost and
# the stage fuses with the read and write into single tasks)
_STAGE_CACHE: dict = {}


def _get_stage(cfg, ref_sha_column, alert_dir) -> QualityStage:
    key = (cfg, ref_sha_column, alert_dir)
    stage = _STAGE_CACHE.get(key)
    if stage is None:
        stage = QualityStage(cfg, ref_sha_column=ref_sha_column,
                             alert_dir=alert_dir)
        _STAGE_CACHE[key] = stage
    return stage


def _fused_quality_fn(batch: pa.Table, *, cfg, ref_sha_column,
                      alert_dir) -> pa.Table:
    return _get_stage(cfg, ref_sha_column, alert_dir)(batch)


def build_quality_pipeline(ds, cfg: QualityConfig | None = None, *,
                           ref_sha_column: str | None = None,
                           alert_dir: str | None = None):
    """Put the fused chain on an input Dataset with columns
    (repo, path, commit, lang, content [, <ref_sha_column>]), as ONE
    elastic task stage (stage and model cached per worker process)."""
    cfg = cfg or QualityConfig()
    return ds.map_batches(
        functools.partial(_fused_quality_fn, cfg=cfg,
                          ref_sha_column=ref_sha_column,
                          alert_dir=alert_dir),
        batch_format="pyarrow", batch_size=cfg.rule_batch_size)


# the per-shard stats row of a filewise run
STATS_SCHEMA = pa.schema([("shard", pa.string()), ("rows", pa.int64()),
                          ("kept", pa.int64()), ("bytes", pa.int64())])


def _shard_name(path: str) -> str:
    """Output key of an input shard: its file name without extension."""
    return os.path.basename(path).rsplit(".", 1)[0]


def _write_parquet_atomic(table: pa.Table, path: str, **kw) -> None:
    """Write ``table`` to ``path`` through a temp file of this writer's
    own (pid + uuid4) and one ``os.replace``. Two writers of one path (a
    rerun beside a killed driver's live task, two runs into one out_dir)
    never write into the same file nor rename each other's temp file
    away, and a reader sees one writer's whole file. A failed write or
    rename removes its temp file; a crash between the two can still
    leave a hidden ``.<name>.<pid>.<uuid>.tmp`` behind."""
    import pyarrow.parquet as pq

    d, name = os.path.split(path)
    tmp = os.path.join(d, f".{name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    try:
        pq.write_table(table, tmp, **kw)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _process_shard_batch(batch: pa.Table, *, out_dir: str, metrics_dir,
                         cfg, ref_sha_column, alert_dir) -> pa.Table:
    """Filewise worker: for each input shard path row, read the shard,
    run the full fused chain batch-wise, and write this shard's output
    parquet directly — zero object-store traffic for content. Emits one
    ``STATS_SCHEMA`` row per shard, plus a partition-keyed metrics
    parquet and a per-stage timing parquet per shard."""
    import pyarrow.parquet as pq

    paths = batch.column("path").to_pylist()
    stage = _get_stage(cfg, ref_sha_column, alert_dir)
    out_rows = {"shard": [], "rows": [], "kept": [], "bytes": []}
    for path in paths:
        stage.drain_timings()  # zero counters a crashed task may have left
        table = pq.read_table(path)
        outs = []
        # a 0-row shard still runs one empty slice: its output keeps the
        # normal schema and its data file marks it finished
        for off in range(0, max(table.num_rows, 1), cfg.rule_batch_size):
            outs.append(stage(table.slice(off, cfg.rule_batch_size)))
        result = pa.concat_tables(outs).drop_columns(
            ["is_empty", "has_autogen"])
        timing = stage.drain_timings()
        total_ms = float(pa.compute.sum(timing.column("ms")).as_py() or 0.0)
        shard = _shard_name(path)
        os.makedirs(out_dir, exist_ok=True)
        if metrics_dir is not None:
            # metrics BEFORE the data rename (the completion marker): a
            # crash in between reruns the shard and overwrites them
            os.makedirs(metrics_dir, exist_ok=True)
            _write_parquet_atomic(
                _with_stage_ms(metrics_partial_batch(result), total_ms),
                os.path.join(metrics_dir, f"{shard}.parquet"))
            # exact per-stage breakdown (opmon time_taken parity)
            tdir = os.path.join(metrics_dir, "timing")
            os.makedirs(tdir, exist_ok=True)
            _write_parquet_atomic(
                timing.append_column("shard", pa.array(
                    [shard] * timing.num_rows, pa.string())),
                os.path.join(tdir, f"{shard}.parquet"))
        # K2 message-split analog: cap row-group bytes so no output read
        # unit exceeds cfg.max_row_group_bytes (ChannelStream.hpp:170-221)
        per_row = max(1, result.nbytes // max(1, result.num_rows))
        _write_parquet_atomic(
            result, os.path.join(out_dir, f"{shard}.parquet"),
            row_group_size=max(1, cfg.max_row_group_bytes // per_row))
        out_rows["shard"].append(shard)
        out_rows["rows"].append(result.num_rows)
        keep = result.column("keep").to_numpy(zero_copy_only=False)
        out_rows["kept"].append(int(keep.sum()))
        out_rows["bytes"].append(
            int(pa.compute.sum(result.column("n_chars")).as_py() or 0))
    return pa.table(out_rows, schema=STATS_SCHEMA)


# one shard per task, one CPU each, as the reference gives each window
# to one worker thread (plugins/DQMProcessor.cpp:541-556)
_shard_task = ray.remote(num_cpus=1)(_process_shard_batch)


def run_quality_filewise(input_paths: list[str], out_dir: str,
                         cfg: QualityConfig | None = None, *,
                         ref_sha_column: str | None = None,
                         write_metrics: bool = True) -> pa.Table:
    """Shard-parallel runner: one plain Ray task per pending input file
    reads, processes and writes that shard end-to-end (the reference's
    one-window-per-thread shape, plugins/DQMProcessor.cpp:541-556, made
    cluster-wide). No content ever enters the object store, so it scales
    with cores/nodes until disk bandwidth.

    Eager: returns once every task has finished, with the per-shard
    stats (``STATS_SCHEMA``: shard, rows, kept, bytes) of the shards
    this call ran, in input order; 0 rows when every shard had already
    finished. The first failed shard cancels the call's unfinished
    tasks, waits until they have ended and re-raises the shard's error
    (a ``RayTaskError`` that is also an instance of the original class,
    e.g. ``LineageError``).

    Outputs are keyed by shard name (file name without extension), so
    two inputs with the same name raise ``ValueError``. Resume: a rerun
    into the same ``out_dir`` skips every shard whose
    ``data/<shard>.parquet`` exists."""
    cfg = cfg or QualityConfig()
    by_name: dict[str, list[str]] = {}
    for p in input_paths:
        by_name.setdefault(_shard_name(p), []).append(p)
    clashes = {n: ps for n, ps in by_name.items() if len(ps) > 1}
    if clashes:
        raise ValueError(
            f"input shards share an output name, so one would overwrite "
            f"the other: {clashes}")
    data_dir = os.path.join(out_dir, "data")
    # a shard's data file exists only if it completed (atomic rename) —
    # the anti-join of pending inputs against finished outputs
    pending = [p for p in input_paths if not os.path.exists(
        os.path.join(data_dir, _shard_name(p) + ".parquet"))]
    if not pending:
        return STATS_SCHEMA.empty_table()
    return pa.concat_tables(wait_all([_shard_task.remote(
        pa.table({"path": [p]}), out_dir=data_dir,
        metrics_dir=(os.path.join(out_dir, "metrics")
                     if write_metrics else None),
        cfg=cfg, ref_sha_column=ref_sha_column,
        alert_dir=os.path.join(out_dir, "alerts")) for p in pending]))


def _with_stage_ms(partial: pa.Table, total_ms: float) -> pa.Table:
    """Apportion a unit of chain wall-ms over the partial's partitions
    by row share — per-partition cost attribution whose sum over all
    partials is exactly the measured total."""
    rows = partial.column("rows").to_numpy(zero_copy_only=False) \
        .astype(np.float64)
    share = rows / rows.sum() if rows.sum() else rows
    return partial.append_column(
        "stage_ms", pa.array(total_ms * share, pa.float64()))


def read_partition_metrics(out_dir: str):
    """The per-partition opmon table of a finished filewise run: sum the
    per-shard partial counters under ``out_dir/metrics`` by
    partition_id. ``stage_ms`` is the chain wall-ms attributed to the
    partition (by row share within each shard)."""
    import pyarrow.parquet as pq

    mdir = os.path.join(out_dir, "metrics")
    files = sorted(os.path.join(mdir, f) for f in os.listdir(mdir)
                   if f.endswith(".parquet"))
    t = pa.concat_tables([pq.read_table(f) for f in files])
    df = t.to_pandas().groupby("partition_id", as_index=False)[
        ["rows", "kept", "scrubbed", "bytes", "stage_ms"]].sum()
    return df.sort_values("partition_id").reset_index(drop=True)


def read_stage_timings(out_dir: str):
    """Per-stage wall-time totals of a filewise run (opmon
    times_run/time_taken parity, schema/dqm/dqmprocessorinfo.jsonnet:18-31):
    sum the per-shard (stage, ms, rows, calls) partials under
    ``out_dir/metrics/timing``."""
    import pyarrow.parquet as pq

    tdir = os.path.join(out_dir, "metrics", "timing")
    files = sorted(os.path.join(tdir, f) for f in os.listdir(tdir)
                   if f.endswith(".parquet"))
    t = pa.concat_tables([pq.read_table(f) for f in files])
    df = t.to_pandas().groupby("stage", as_index=False)[
        ["ms", "rows", "calls"]].sum()
    return df.sort_values("stage").reset_index(drop=True)


# ---------------------------------------------------------------------------
# metrics (opmon-counters analog, plugins/DQMProcessor.cpp:80-109):
# per-shard partial counts keyed by partition_id, summed at read time.
# ---------------------------------------------------------------------------

def metrics_partial_batch(batch: pa.Table) -> pa.Table:
    pid = batch.column("partition_id").to_numpy(zero_copy_only=False).astype(np.int64)
    keep = batch.column("keep").to_numpy(zero_copy_only=False)
    scrubbed = batch.column("scrubbed").to_numpy(zero_copy_only=False)
    nbytes = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
    uniq = np.unique(pid)
    dense = np.searchsorted(uniq, pid)
    return pa.table({
        "partition_id": pa.array(uniq, pa.int32()),
        "rows": pa.array(np.bincount(dense), pa.int64()),
        "kept": pa.array(np.bincount(dense, weights=keep).astype(np.int64), pa.int64()),
        "scrubbed": pa.array(np.bincount(dense, weights=scrubbed).astype(np.int64),
                             pa.int64()),
        "bytes": pa.array(np.bincount(dense, weights=nbytes).astype(np.int64),
                          pa.int64()),
    })
