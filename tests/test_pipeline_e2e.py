"""End-to-end flagship pipeline on the synthetic corpus via Ray Data:
keep/drop F1 vs the naive oracle labels, scrubbed-text equality, and
the filewise runner's per-shard outputs, metrics and resume (rerun
after a partial run, a SIGKILLed driver, or a crash before the data
rename)."""

import os
import signal
import subprocess
import sys
import time

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from dqm_ray.config import QualityConfig
from dqm_ray.corpus import generate_corpus, write_corpus
from dqm_ray.oracle import label_table
from dqm_ray.pipelines.quality import (build_quality_pipeline,
                                       read_partition_metrics,
                                       read_stage_timings,
                                       run_quality_filewise)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEY = ["repo", "path", "commit"]
COUNTERS = ["partition_id", "rows", "kept", "scrubbed", "bytes"]


@pytest.fixture(scope="module")
def small_cfg():
    return QualityConfig(rule_batch_size=256)


def _read_output(out_dir: str) -> pd.DataFrame:
    """All data/*.parquet rows of a filewise run, in key order."""
    data = os.path.join(out_dir, "data")
    files = sorted(f for f in os.listdir(data) if f.endswith(".parquet"))
    t = pa.concat_tables(pq.read_table(os.path.join(data, f))
                         for f in files)
    return t.to_pandas().sort_values(KEY).reset_index(drop=True)


def test_e2e_f1_vs_oracle(ray_session, small_cfg, tmp_path_factory):
    import ray.data as rd

    n = 600
    table = generate_corpus(n, seed=23)
    inp = table.drop_columns(["pattern"])
    ds = rd.from_arrow(inp)
    out = build_quality_pipeline(ds, small_cfg).to_pandas()

    oracle = label_table(inp, small_cfg)
    odf = {(r["repo"], r["path"], r["commit"]): r for r in oracle}
    assert len(out) == n

    tp = fp = fn = 0
    scrub_match = 0
    for _, row in out.iterrows():
        ref = odf[(row["repo"], row["path"], row["commit"])]
        if row["keep"] and ref["keep"]:
            tp += 1
        elif row["keep"] and not ref["keep"]:
            fp += 1
        elif not row["keep"] and ref["keep"]:
            fn += 1
        scrub_match += row["content"] == ref["scrubbed_content"]
        assert row["sha256"] == ref["sha256"]
    f1 = 2 * tp / (2 * tp + fp + fn)
    assert f1 >= 0.99, (tp, fp, fn)
    assert scrub_match == n


def test_metrics_sum_to_totals(ray_session, small_cfg, tmp_path):
    """The per-partition metrics of a filewise run account for every
    input row and every content char."""
    paths = write_corpus(str(tmp_path / "src"), n_rows=300, seed=5,
                         n_shards=3)
    run_quality_filewise(paths, str(tmp_path / "out"), small_cfg)
    m = read_partition_metrics(str(tmp_path / "out"))
    table = pa.concat_tables(pq.read_table(p) for p in paths)
    assert m["rows"].sum() == 300
    assert 0 < m["kept"].sum() < 300
    assert (m["partition_id"] >= 0).all()
    assert m["bytes"].sum() == sum(len(c) for c in
                                   table["content"].to_pylist())


def test_resume_from_manifest(ray_session, small_cfg, tmp_path_factory):
    """Resume: the finished data/<shard>.parquet files are the manifest.
    A rerun after a partial run computes only the missing shards, and
    the output holds every input row."""
    import ray.data as rd

    src = str(tmp_path_factory.mktemp("corpus_src"))
    out = str(tmp_path_factory.mktemp("out"))
    paths = write_corpus(src, n_rows=400, seed=31, n_shards=4)

    # run only the first half (simulates a killed run that completed
    # 2 of 4 shards before dying)
    st1 = run_quality_filewise(paths[:2], out, small_cfg,
                               write_metrics=False).to_pandas()
    assert len(st1) == 2

    # rerun over the full input: completed shards must be skipped
    st2 = run_quality_filewise(paths, out, small_cfg,
                               write_metrics=False).to_pandas()
    assert len(st2) == 2 and st2["rows"].sum() == 200

    # total output rows == input rows
    assert rd.read_parquet(os.path.join(out, "data")).count() == 400


def test_filewise_runner_and_resume(ray_session, small_cfg, tmp_path_factory):
    """Filewise runner: per-shard atomic outputs; rerun skips finished
    shards; a third run recomputes nothing; results match the
    Dataset-chain pipeline."""
    import ray.data as rd

    src = str(tmp_path_factory.mktemp("fw_src"))
    out = str(tmp_path_factory.mktemp("fw_out"))
    paths = write_corpus(src, n_rows=300, seed=19, n_shards=3)

    st1 = run_quality_filewise(paths[:2], out, small_cfg).to_pandas()
    assert st1["rows"].sum() == 200 and len(st1) == 2
    # rerun over all 3: only the missing shard runs
    st2 = run_quality_filewise(paths, out, small_cfg).to_pandas()
    assert len(st2) == 1 and st2["rows"].sum() == 100
    # third run: everything finished, nothing recomputed or rewritten
    data = os.path.join(out, "data")
    mtimes = {f: os.stat(os.path.join(data, f)).st_mtime_ns
              for f in os.listdir(data)}
    st3 = run_quality_filewise(paths, out, small_cfg).to_pandas()
    assert len(st3) == 0
    assert mtimes == {f: os.stat(os.path.join(data, f)).st_mtime_ns
                      for f in os.listdir(data)}

    assert rd.read_parquet(data).count() == 300
    # equivalence with the Dataset-chain pipeline
    chain = build_quality_pipeline(
        rd.read_parquet(paths), small_cfg).to_pandas() \
        .sort_values(KEY).reset_index(drop=True)
    fw = _read_output(out)
    for col in ("keep", "content", "sha256"):
        assert chain[col].tolist() == fw[col].tolist(), col


def test_sink_row_group_cap(ray_session, small_cfg, tmp_path_factory):
    """K2 message-split analog: every output row group's in-memory byte
    size stays under cfg.max_row_group_bytes (one-row groups excepted —
    a single row can exceed any cap, exactly like the reference's
    oversized-single-fragment case)."""
    import dataclasses

    src = str(tmp_path_factory.mktemp("cap_src"))
    out = str(tmp_path_factory.mktemp("cap_out"))
    paths = write_corpus(src, n_rows=200, seed=23, n_shards=2)
    cfg = dataclasses.replace(small_cfg, max_row_group_bytes=64 << 10)

    run_quality_filewise(paths, out, cfg).to_pandas()
    data = os.path.join(out, "data")
    seen_groups = 0
    for f in os.listdir(data):
        pf = pq.ParquetFile(os.path.join(data, f))
        t = pf.read()
        per_row = max(1, t.nbytes // max(1, t.num_rows))
        for g in range(pf.num_row_groups):
            n = pf.metadata.row_group(g).num_rows
            assert n == 1 or n * per_row <= cfg.max_row_group_bytes
            seen_groups += 1
    assert seen_groups > 2  # the cap actually split groups


def test_filewise_tamper_fails_fast(ray_session, small_cfg,
                                    tmp_path_factory):
    """sha256 invariant violation inside the filewise runner raises and
    leaves the shard unrecorded (rerunnable)."""
    import glob

    from dqm_ray.stages.lineage import sha256_column

    src = str(tmp_path_factory.mktemp("tamper_src"))
    out = str(tmp_path_factory.mktemp("tamper_out"))
    t = generate_corpus(100, seed=13).drop_columns(["pattern"])
    t = t.append_column("sha256_ref",
                        sha256_column(t["content"].combine_chunks()))
    c = t["content"].to_pylist()
    c[7] += "TAMPER"
    t = t.set_column(t.column_names.index("content"), "content",
                     pa.array(c, pa.large_string()))
    path = os.path.join(src, "shard0.parquet")
    pq.write_table(t, path)
    with pytest.raises(Exception, match="lineage|Lineage"):
        run_quality_filewise([path], out, small_cfg,
                             ref_sha_column="sha256_ref").to_pandas()
    assert not glob.glob(os.path.join(out, "data", "shard0.parquet"))
    assert glob.glob(os.path.join(out, "alerts", "alert-*.parquet"))


def test_filewise_fails_fast_on_first_failed_shard(ray_session, small_cfg,
                                                  tmp_path):
    """One tampered shard among four: the call re-raises the shard's
    LineageError once the other tasks of the call have ended, and the
    tampered shard has no data file."""
    from dqm_ray.stages.lineage import LineageError, sha256_column

    paths = write_corpus(str(tmp_path / "src"), n_rows=800, seed=37,
                         n_shards=4)
    t = pq.read_table(paths[1])
    t = t.append_column("sha256_ref",
                        sha256_column(t["content"].combine_chunks()))
    c = t["content"].to_pylist()
    c[3] += "TAMPER"
    t = t.set_column(t.column_names.index("content"), "content",
                     pa.array(c, t.schema.field("content").type))
    pq.write_table(t, paths[1])
    out = str(tmp_path / "out")
    data = os.path.join(out, "data")

    with pytest.raises(LineageError):
        run_quality_filewise(paths, out, small_cfg,
                             ref_sha_column="sha256_ref")
    assert not os.path.exists(os.path.join(data, "code_files_0001.parquet"))
    # every task of the call has ended: no file appears or is half
    # written after the raise
    listing = sorted(os.listdir(data)) if os.path.isdir(data) else []
    assert not [f for f in listing if f.endswith(".tmp")]
    time.sleep(0.5)
    assert listing == (sorted(os.listdir(data)) if os.path.isdir(data)
                       else [])


def test_filewise_stats_schema_on_every_rerun(ray_session, small_cfg,
                                              tmp_path):
    """The first run, a partial rerun and an all-finished rerun all
    return a Table with the same stats schema; the last has 0 rows."""
    paths = write_corpus(str(tmp_path / "src"), n_rows=300, seed=43,
                         n_shards=3)
    out = str(tmp_path / "out")
    want = pa.schema([("shard", pa.string()), ("rows", pa.int64()),
                      ("kept", pa.int64()), ("bytes", pa.int64())])
    runs = [run_quality_filewise(paths[:2], out, small_cfg),
            run_quality_filewise(paths, out, small_cfg),
            run_quality_filewise(paths, out, small_cfg)]
    assert [t.num_rows for t in runs] == [2, 1, 0]
    for t in runs:
        assert isinstance(t, pa.Table) and t.schema.equals(want)
    assert runs[1].column("shard").to_pylist() == ["code_files_0002"]
    assert runs[2].to_pandas()["rows"].sum() == 0


def test_filewise_builds_no_dataset(ray_session, small_cfg, tmp_path,
                                    monkeypatch):
    """The product path starts no Ray Data execution: with
    ``Dataset.__init__`` made to raise on the driver the run completes,
    and its output matches the naive oracle."""
    import ray.data

    def no_dataset(self, *args, **kwargs):
        raise AssertionError("run_quality_filewise built a Dataset")

    paths = write_corpus(str(tmp_path / "src"), n_rows=200, seed=47,
                         n_shards=2)
    out = str(tmp_path / "out")
    monkeypatch.setattr(ray.data.Dataset, "__init__", no_dataset)
    st = run_quality_filewise(paths, out, small_cfg)
    monkeypatch.undo()

    assert st.column("shard").to_pylist() == ["code_files_0000",
                                              "code_files_0001"]
    assert st.column("rows").to_pylist() == [100, 100]
    got = _read_output(out)
    inp = pa.concat_tables(pq.read_table(p) for p in paths)
    ref = {(r["repo"], r["path"], r["commit"]): r
           for r in label_table(inp, small_cfg)}
    assert len(got) == 200 == len(ref)
    assert sum(st.column("kept").to_pylist()) == int(got["keep"].sum())
    for row in got.itertuples():
        r = ref[(row.repo, row.path, row.commit)]
        assert (row.keep, row.sha256, row.content) == \
            (r["keep"], r["sha256"], r["scrubbed_content"]), row.path


def test_filewise_metrics_match_pipeline_runner(ray_session, small_cfg,
                                                tmp_path):
    """K3 opmon parity: the per-partition metrics the runner writes
    equal counts taken from its own output parquet, and the per-stage
    timings cover every row of every stage."""
    paths = write_corpus(str(tmp_path / "src"), n_rows=400, seed=11,
                         n_shards=4)
    run_quality_filewise(paths, str(tmp_path / "fw"), small_cfg)
    a = read_partition_metrics(str(tmp_path / "fw"))
    out = _read_output(str(tmp_path / "fw"))
    b = out.groupby("partition_id").agg(
        rows=("keep", "size"), kept=("keep", "sum"),
        scrubbed=("scrubbed", "sum"), bytes=("n_chars", "sum")) \
        .reset_index()
    assert a[COUNTERS].astype("int64").to_dict("records") == \
        b[COUNTERS].astype("int64").to_dict("records")
    assert a["rows"].sum() == 400

    # per-stage opmon breakdown: every stage saw every row, partials sum
    # to totals, and the attributed per-partition stage_ms equals the
    # summed chain time
    t = read_stage_timings(str(tmp_path / "fw"))
    assert set(t["stage"]) == {"normalize", "partition", "lineage",
                               "rules", "scorer", "finalize", "scrub"}
    assert (t["rows"] == 400).all()
    assert (t["ms"] > 0).all()
    assert abs(a["stage_ms"].sum() - t["ms"].sum()) < 1e-6


def test_filewise_empty_shard(ray_session, small_cfg, tmp_path):
    """A 0-row input shard among normal shards: the run completes, the
    empty shard gets a 0-row output with the normal schema and a
    rows=0 stats row, and a rerun skips it."""
    paths = write_corpus(str(tmp_path / "src"), n_rows=200, seed=3,
                         n_shards=2)
    empty = str(tmp_path / "src" / "empty_0000.parquet")
    pq.write_table(pq.read_table(paths[0]).slice(0, 0), empty)
    out = str(tmp_path / "out")

    st = run_quality_filewise([paths[0], empty, paths[1]], out,
                              small_cfg).to_pandas()
    st = st.set_index("shard")
    assert st.loc["empty_0000", ["rows", "kept", "bytes"]].tolist() == \
        [0, 0, 0]
    assert st["rows"].sum() == 200
    e = pq.read_table(os.path.join(out, "data", "empty_0000.parquet"))
    full = pq.read_table(os.path.join(out, "data",
                                      "code_files_0000.parquet"))
    assert e.num_rows == 0 and e.schema.equals(full.schema)
    assert read_partition_metrics(out)["rows"].sum() == 200
    assert len(run_quality_filewise([paths[0], empty, paths[1]], out,
                                    small_cfg).to_pandas()) == 0


def test_filewise_duplicate_shard_names_raise(ray_session, small_cfg,
                                              tmp_path):
    """Outputs are keyed by file name: two inputs with the same name
    from different directories are refused before any task runs."""
    a = write_corpus(str(tmp_path / "a"), n_rows=100, seed=1, n_shards=1)
    b = write_corpus(str(tmp_path / "b"), n_rows=100, seed=2, n_shards=1)
    out = str(tmp_path / "out")
    with pytest.raises(ValueError, match="code_files_0000") as e:
        run_quality_filewise(a + b, out, small_cfg)
    assert a[0] in str(e.value) and b[0] in str(e.value)
    assert not os.path.exists(out)


def test_shard_writers_use_their_own_temp_file(ray_session, small_cfg,
                                               tmp_path, monkeypatch):
    """Two writers of one shard (a rerun beside a killed driver's still
    running task) both finish. A patched ``os.replace`` holds each
    writer at every rename until both have written their temp file —
    the interleaving in which a shared temp name made the second rename
    fail with FileNotFoundError. Every final file (data, metrics,
    timing) appears only by a rename, so no writer ever writes into a
    file another one is writing or a reader sees. The data file equals
    a clean run's, the metrics equal it up to wall times, and no temp
    file is left behind."""
    import threading

    from dqm_ray.pipelines.quality import _process_shard_batch

    paths = write_corpus(str(tmp_path / "src"), n_rows=200, seed=5,
                         n_shards=1)
    batch = pa.table({"path": paths})
    kw = dict(cfg=small_cfg, ref_sha_column=None, alert_dir=None)
    clean, race = tmp_path / "clean", tmp_path / "race"
    _process_shard_batch(batch, out_dir=str(clean / "data"),
                         metrics_dir=str(clean / "metrics"), **kw)

    name = "code_files_0000.parquet"
    finals = [os.path.join("data", name), os.path.join("metrics", name),
              os.path.join("metrics", "timing", name)]
    barrier = threading.Barrier(2, timeout=60)
    real_replace = os.replace
    renamed, written_in_place = set(), []

    def replace_when_both_wrote(src, dst):
        for f in finals:
            if os.path.exists(race / f) and str(race / f) not in renamed:
                written_in_place.append(f)
        barrier.wait()
        real_replace(src, dst)
        renamed.add(str(dst))

    errors = []

    def write():
        try:
            _process_shard_batch(batch, out_dir=str(race / "data"),
                                 metrics_dir=str(race / "metrics"), **kw)
        except Exception as e:
            errors.append(e)

    monkeypatch.setattr(os, "replace", replace_when_both_wrote)
    writers = [threading.Thread(target=write) for _ in range(2)]
    for w in writers:
        w.start()
    for w in writers:
        w.join(timeout=120)
    monkeypatch.undo()
    assert not any(w.is_alive() for w in writers)
    assert errors == []
    assert written_in_place == []
    assert sorted(str(race / f) for f in finals) == sorted(renamed)
    assert os.listdir(race / "data") == [name]
    assert sorted(os.listdir(race / "metrics")) == [name, "timing"]
    assert os.listdir(race / "metrics" / "timing") == [name]
    assert pq.read_table(race / finals[0]).equals(
        pq.read_table(clean / finals[0]))
    # wall times differ between writers; everything else is equal
    got, want = pq.read_table(race / finals[1]), pq.read_table(
        clean / finals[1])
    assert got.drop_columns(["stage_ms"]).equals(
        want.drop_columns(["stage_ms"]))
    # the two threads share one cached stage and split its per-stage
    # counters between them, so only the timing file's shape is checked
    got, want = pq.read_table(race / finals[2]), pq.read_table(
        clean / finals[2])
    assert got.schema == want.schema
    assert set(got.column("shard").to_pylist()) == {name[:-len(".parquet")]}


def test_failed_shard_write_removes_its_temp_file(ray_session, small_cfg,
                                                  tmp_path, monkeypatch):
    """A rename that fails raises and removes the writer's temp file, so
    failed writes do not pile up hidden temp files across reruns."""
    from dqm_ray.pipelines.quality import _process_shard_batch

    paths = write_corpus(str(tmp_path / "src"), n_rows=50, seed=5,
                         n_shards=1)

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        _process_shard_batch(pa.table({"path": paths}),
                             out_dir=str(tmp_path / "data"),
                             metrics_dir=str(tmp_path / "metrics"),
                             cfg=small_cfg, ref_sha_column=None,
                             alert_dir=None)
    monkeypatch.undo()
    assert os.listdir(tmp_path / "data") == []
    assert os.listdir(tmp_path / "metrics") == []


@pytest.fixture(scope="module")
def crash_case(ray_session, small_cfg, tmp_path_factory):
    """Eight shards and a clean filewise run over them: the reference
    for the crash tests."""
    paths = write_corpus(str(tmp_path_factory.mktemp("crash_src")),
                         n_rows=4000, seed=29, n_shards=8)
    clean = str(tmp_path_factory.mktemp("crash_clean"))
    run_quality_filewise(paths, clean, small_cfg)
    return paths, clean


_KILLED_DRIVER = """
import sys
import ray
import ray.data
from dqm_ray.config import QualityConfig
from dqm_ray.pipelines.quality import run_quality_filewise

address, out, *paths = sys.argv[1:]
ray.init(address=address, logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
run_quality_filewise(paths, out, QualityConfig(rule_batch_size=256))
"""


def test_filewise_resume_after_driver_sigkill(ray_session, small_cfg,
                                              crash_case, tmp_path):
    """A second driver joins this session's cluster and runs the filewise
    runner; it is SIGKILLed once its first shard is written. The rerun
    finishes the rest: every input shard appears exactly once, and the
    output and metrics equal a clean run's."""
    import ray

    paths, clean = crash_case
    out = str(tmp_path / "out")
    data = os.path.join(out, "data")
    env = dict(os.environ, PYTHONPATH=ROOT)
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILLED_DRIVER,
         ray.get_runtime_context().gcs_address, out, *paths],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while not (os.path.isdir(data) and any(
                f.endswith(".parquet") for f in os.listdir(data))):
            assert proc.poll() is None, "driver exited before any shard"
            assert time.monotonic() < deadline, "no shard was written"
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait(timeout=30)
    # the dead driver's workers are torn down by the cluster; wait until
    # its job is dead and its in-flight files have settled
    deadline = time.monotonic() + 60
    while not any(j["IsDead"] and int(j["DriverPid"]) == proc.pid
                  for j in ray._private.state.jobs()):
        assert time.monotonic() < deadline, "killed job never died"
        time.sleep(0.1)
    listing = None
    while listing != sorted(os.listdir(data)):
        listing = sorted(os.listdir(data))
        time.sleep(1.0)

    st = run_quality_filewise(paths, out, small_cfg).to_pandas()
    done = [f for f in listing if f.endswith(".parquet")]
    assert len(done) < len(paths), "the kill came after the run ended"
    assert len(st) == len(paths) - len(done)
    assert sorted(f for f in os.listdir(data) if f.endswith(".parquet")) \
        == sorted(os.path.basename(p) for p in paths)
    got, want = _read_output(out), _read_output(clean)
    assert len(got) == 4000 and not got.duplicated(KEY).any()
    pd.testing.assert_frame_equal(got, want)
    assert read_partition_metrics(out)[COUNTERS].equals(
        read_partition_metrics(clean)[COUNTERS])


def test_filewise_crash_before_data_rename(ray_session, small_cfg,
                                           crash_case, tmp_path):
    """A crash after a shard's metrics are written but before its data
    rename leaves metrics without data. The rerun redoes only that
    shard and overwrites its metrics: no double count."""
    import shutil

    paths, clean = crash_case
    out = str(tmp_path / "out")
    shutil.copytree(clean, out)
    os.remove(os.path.join(out, "data", "code_files_0005.parquet"))

    st = run_quality_filewise(paths, out, small_cfg).to_pandas()
    assert st["shard"].tolist() == ["code_files_0005"]
    assert read_partition_metrics(out)[COUNTERS].equals(
        read_partition_metrics(clean)[COUNTERS])
    pd.testing.assert_frame_equal(_read_output(out), _read_output(clean))


def test_unicode_rows_match_oracle(ray_session, small_cfg):
    """The corpus is all-ASCII, so the fused chain's ASCII fast paths
    carry the F1 test; this pins the utf8 FALLBACK path (one non-ASCII
    row disables the fast paths for its whole batch) against the naive
    oracle — labels, sha256 and scrubbed content must all agree."""
    import ray.data as rd

    rows = [
        "def f():\n    return 'café'\n" * 12,          # non-ascii, kept?
        "χαίρετε κόσμε\n" * 20,                         # fully greek
        "line one\nline two\nline three\n" * 8,         # plain ascii
        "☃" * 2000,                                      # symbol wall
        "email me at büro@exämple.com\n" + "text\n" * 15,
        "x" * 1500 + "\n" + "ünïcödé\n" * 10,           # long line + uni
        "",                                              # empty
    ]
    n = len(rows)
    t = pa.table({
        "repo": pa.array([f"r{i % 2}" for i in range(n)]),
        "path": pa.array([f"p{i}" for i in range(n)]),
        "commit": pa.array(["c"] * n),
        "lang": pa.array(["python", "markdown", "c", "go",
                          "javascript", "python", "c"]),
        "content": pa.array(rows, pa.large_string()),
    })
    out = build_quality_pipeline(rd.from_arrow(t), small_cfg).to_pandas()
    oracle = {(r["repo"], r["path"]): r for r in label_table(t, small_cfg)}
    assert len(out) == n
    for _, row in out.iterrows():
        ref = oracle[(row["repo"], row["path"])]
        assert row["keep"] == ref["keep"], (row["path"], row["reasons"])
        assert sorted(row["reasons"]) == sorted(ref["reasons"]), row["path"]
        assert row["sha256"] == ref["sha256"], row["path"]
        assert row["content"] == ref["scrubbed_content"], row["path"]
