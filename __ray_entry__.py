"""Driver contract for the dqm_ray engine.

``entry()`` runs the flagship quality-filter pipeline on a deterministic
synthetic code corpus scaled to sf0.001. ``queries()`` exposes every
implemented operator (SURVEY.md §2 + training-data ops); ``oracle_sql()``
gives DuckDB equivalents where SQL can express the semantics — float
expressions are written with the exact same IEEE operation order as the
Ray side so values match bitwise (ints/sums are kept exact; only
accumulation-order-sensitive float sums are rounded, identically, on
both sides).

Ray is initialised by the caller; nothing here calls ray.init/shutdown.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa

# make dqm_ray importable regardless of the caller's cwd/sys.path
_REPO_DIR = os.path.dirname(os.path.abspath(__file__))
if _REPO_DIR not in sys.path:
    sys.path.insert(0, _REPO_DIR)
# workers inherit PYTHONPATH only if set before ray.init; harmless later
os.environ["PYTHONPATH"] = (
    _REPO_DIR + os.pathsep + os.environ.get("PYTHONPATH", "")).rstrip(os.pathsep)


def _pkg_stamp(pkg_dir: str) -> str:
    """Content hash of the package's .py files — detects a stale copy."""
    import hashlib

    h = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(pkg_dir)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                h.update(f.encode())
                with open(os.path.join(root, f), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


_IMPORT_CHECKED = False


def _ensure_workers_can_import() -> None:
    """If the driver's Ray session was started from a cwd where workers
    cannot ``import dqm_ray`` (repo not on their path), copy the package
    into the session cwd — workers resolve imports from their cwd, so
    this makes shipped functions deserializable without touching the Ray
    session. (Single-node sandbox equivalent of installing the package
    on every node; a multi-node deployment would use ``ray job submit
    --runtime-env`` with ``py_modules`` instead.)

    Called from entry()/queries() — NOT at import time — and any
    pre-existing cwd copy is content-hash-checked and refreshed, so a
    code change never leaves workers importing a stale copy."""
    global _IMPORT_CHECKED
    if _IMPORT_CHECKED:
        return
    try:
        import ray

        if not ray.is_initialized():
            return
        import shutil

        src = os.path.join(_REPO_DIR, "dqm_ray")
        target = os.path.join(os.getcwd(), "dqm_ray")
        stamp_file = os.path.join(target, ".copy_stamp")
        # refresh a stale earlier copy BEFORE probing (the probe would
        # find the stale copy and report success)
        if (os.path.realpath(target) != os.path.realpath(src)
                and os.path.isdir(target)):
            old = ""
            if os.path.exists(stamp_file):
                with open(stamp_file) as fh:
                    old = fh.read().strip()
            if old != _pkg_stamp(src):  # missing stamp counts as stale
                shutil.rmtree(target)
        # lambda pickles by value — works even when workers lack dqm_ray
        probe = ray.remote(num_cpus=0)(
            lambda: __import__("importlib").util.find_spec("dqm_ray")
            is not None)
        if ray.get(probe.remote(), timeout=60):
            _IMPORT_CHECKED = True
            return
        if not os.path.exists(target) and os.access(os.getcwd(), os.W_OK):
            shutil.copytree(src, target,
                            ignore=shutil.ignore_patterns("__pycache__"))
            with open(os.path.join(target, ".copy_stamp"), "w") as fh:
                fh.write(_pkg_stamp(src))
        _IMPORT_CHECKED = True
    except Exception:  # noqa: BLE001 — best-effort safeguard only
        pass

_CACHE = "/tmp/dqm_ray_cache"

# synthetic-corpus scale per sf dir (FIXTURES.md F1 row counts)
_SF_ROWS = {"sf0.001": 2_000, "sf0.01": 20_000, "sf0.1": 200_000}


def _corpus_paths(sf_dir: str) -> list[str]:
    """Deterministic synthetic code corpus sized to the sf level, cached
    under /tmp (input_hint schema; no external data)."""
    from dqm_ray.corpus import write_corpus

    sf = os.path.basename(os.path.normpath(sf_dir))
    n = _SF_ROWS.get(sf, 2_000)
    # enough shards that read parallelism never caps the pipeline
    return write_corpus(os.path.join(_CACHE, sf), n_rows=n, seed=42,
                        n_shards=32 if n >= 100_000 else 8)


_SF_BYTES: dict[str, int] = {}


def _read_sf(sf_dir: str, table: str, columns=None, **kwargs):
    """``read_parquet`` with data-sized blocks. Ray's small-file
    heuristic splits a 1.6 MB sf0.1 table into ~64 blocks (~100 rows
    each), and every downstream stage and shuffle then schedules 64
    near-empty tasks — 2–5 s of pure fixed overhead per query. Size
    blocks at ~32 MB with a floor of 8 so tiny tables stay 8-way
    parallel; inputs past 256 MB keep Ray's own heuristic, so the
    sizing holds at scale (a 100 TB table is many files anyway)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    path = os.path.join(sf_dir, f"{table}.parquet")
    b = _SF_BYTES.get(path)
    if b is None:
        md = pq.read_metadata(path)
        b = sum(md.row_group(i).total_byte_size
                for i in range(md.num_row_groups))
        _SF_BYTES[path] = b
    nb = max(8, b >> 25) if b < (1 << 28) else None
    return rd.read_parquet(path, columns=columns, override_num_blocks=nb,
                           **kwargs)


def _docs(sf_dir: str, columns=None):
    return _read_sf(sf_dir, "documents", columns=columns)


# ---------------------------------------------------------------------------
# flagship
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship pipeline over the sf0.001-scale synthetic code corpus."""
    _ensure_workers_can_import()
    import ray.data as rd

    from dqm_ray.config import QualityConfig
    from dqm_ray.pipelines.quality import build_quality_pipeline

    paths = _corpus_paths("/root/testdata/sf0.001")
    cfg = QualityConfig()
    ds = build_quality_pipeline(rd.read_parquet(paths), cfg)
    return ds.drop_columns(["is_empty", "has_autogen"])


def _q_flagship(sf_dir: str):
    import ray.data as rd

    from dqm_ray.config import QualityConfig
    from dqm_ray.pipelines.quality import build_quality_pipeline

    paths = _corpus_paths(sf_dir)
    cfg = QualityConfig()
    ds = build_quality_pipeline(rd.read_parquet(paths), cfg)
    return ds.select_columns(["repo", "path", "commit", "lang", "keep",
                              "detected_lang", "sha256", "scrubbed"])


def _q_resume_semantics(sf_dir: str):
    """C5 graceful-drain/resume as a driver-gateable contract: run the
    filewise flagship over the FIRST TWO shards only (a job that died
    early), then rerun over the full input — the second run's per-shard
    stats must list exactly the not-yet-finished shards with their full
    row counts (completed shards skip via the atomic per-shard output
    markers, nothing recomputes). Oracle = per-file counts of the
    remaining shards from the corpus parquet itself."""
    import shutil

    from dqm_ray.config import QualityConfig
    from dqm_ray.pipelines.quality import run_quality_filewise

    paths = sorted(_corpus_paths(sf_dir))
    out = os.path.join("/tmp", f"resume_probe_{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    cfg = QualityConfig()
    try:
        run_quality_filewise(paths[:2], out, cfg,
                             write_metrics=False).to_pandas()
        st2 = run_quality_filewise(paths, out, cfg,
                                   write_metrics=False).to_pandas()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return st2[["shard", "rows"]].sort_values("shard") \
        .reset_index(drop=True)


# ---------------------------------------------------------------------------
# documents-table operators (DuckDB-oracled)
# ---------------------------------------------------------------------------

def _q_doc_line_stats(sf_dir: str):
    from dqm_ray.functions.text import line_stats_batch

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    ds = ds.map_batches(line_stats_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "n_lines", "max_line_len",
                              "mean_line_len", "dup_line_ratio",
                              "alnum_frac"])


def _q_pii_scrub(sf_dir: str):
    from dqm_ray.config import QualityConfig
    from dqm_ray.stages.scrub import scrub_batch

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    ds = ds.map_batches(
        functools.partial(scrub_batch, cfg=QualityConfig(), text_col="text"),
        batch_format="pyarrow")
    return ds.select_columns(["doc_id", "text", "scrubbed"])


def _q_lineage_sha256(sf_dir: str):
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def add_sha(batch: pa.Table) -> pa.Table:
        from dqm_ray.stages.lineage import sha256_column

        return pa.table({
            "doc_id": batch.column("doc_id"),
            "sha256": sha256_column(batch.column("text").combine_chunks()),
        })

    return ds.map_batches(add_sha, batch_format="pyarrow")


def _q_grouped_stats(sf_dir: str):
    """Mean / sample-std (n<=1 → -1 sentinel) / RMS (n==0 → -1) of
    n_chars by lang — the reference's Mean/STD/RMS accumulator algebra
    (src/algs/STD.cpp:21-48, src/algs/RMS.cpp:21-42) as AggregateFnV2."""
    from ray.data.aggregate import Count, Sum

    from dqm_ray.aggregates import RMS, StdSentinel

    ds = _docs(sf_dir, columns=["lang", "n_chars"])
    out = ds.groupby("lang").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_chars", alias_name="sum_chars"),
        StdSentinel("n_chars", alias_name="std_chars"),
        RMS("n_chars", alias_name="rms_chars"),
    )
    a = out.to_pandas()
    # mean from exact integer sums so SQL reproduces it bitwise; std is
    # Chan-merged (accumulation-order-sensitive) so both sides round(6)
    a["mean_chars"] = a["sum_chars"] / a["n_docs"]
    a["std_chars"] = a["std_chars"].round(6)
    return a[["lang", "n_docs", "mean_chars", "std_chars", "rms_chars"]]


def _q_hist_n_chars(sf_dir: str):
    """Global uniform-bin histogram through the custom Hist AggregateFn
    (include/dqm/algs/Hist.hpp:69-86 semantics: under/overflow dropped)."""
    import pandas as pd

    from dqm_ray.aggregates import Hist

    ds = _docs(sf_dir, columns=["n_chars"])
    res = ds.aggregate(Hist("n_chars", lo=0.0, hi=1000.0, nbins=20,
                            alias_name="hist"))
    counts = res["hist"]
    return pd.DataFrame({"bin": np.arange(20, dtype=np.int64),
                         "cnt": np.asarray(counts, dtype=np.int64)})


def _q_exact_dedup(sf_dir: str):
    from dqm_ray.functions.dedup import exact_dedup

    ds = _docs(sf_dir, columns=["doc_id", "text", "n_chars"])
    out = exact_dedup(ds, text_col="text", id_col="doc_id")
    return out.select_columns(["doc_id", "n_chars"])


def _q_top_k_per_lang(sf_dir: str):
    """Top-5 doc_ids per lang: per-batch partial top-5 → tiny driver
    merge (the partial-top-k pattern; no full-language group ever
    materializes — a single lang can be ~30% of a real corpus)."""
    import pandas as pd

    ds = _docs(sf_dir, columns=["lang", "doc_id"])

    def partial_top5(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values("doc_id").groupby("lang").head(5)

    partials = ds.map_batches(partial_top5, batch_format="pandas")
    # ≤ 5 x n_langs x n_blocks rows reach the driver
    top = partial_top5(partials.to_pandas()).copy()
    top["rn"] = top.groupby("lang").cumcount().astype(np.int64) + 1
    return top.reset_index(drop=True)


def _q_token_counts(sf_dir: str):
    from dqm_ray.functions.text import token_count_batch

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    ds = ds.map_batches(token_count_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "n_tokens", "n_ws_tokens"])


def _q_quality_score(sf_dir: str):
    from dqm_ray.functions.text import quality_score_batch

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    ds = ds.map_batches(quality_score_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "quality_score"])


# ---------------------------------------------------------------------------
# TPC-H-ish relational operators (DuckDB-oracled)
# ---------------------------------------------------------------------------

def _q_q1_pricing(sf_dir: str):
    """Grouped pricing summary with exact integer-cents arithmetic and
    per-batch partial aggregation before the (tiny) groupby shuffle."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    path = os.path.join(sf_dir, "lineitem.parquet")
    import pyarrow.compute as pc  # noqa: F401
    import pyarrow.dataset as pads

    ds = _read_sf(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pads.field("l_shipdate") < pa.scalar(
            np.datetime64("1998-09-01", "us"))))

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        ep = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        base_c = np.round(ep * 100).astype(np.int64)
        disc_c = np.round(disc * 100).astype(np.int64)
        df = pd.DataFrame({
            "l_returnflag": batch.column("l_returnflag").to_pylist(),
            "l_linestatus": batch.column("l_linestatus").to_pylist(),
            "sum_qty": qty.astype(np.int64),
            "sum_base_cents": base_c,
            "sum_disc_c4": base_c * (100 - disc_c),
            "count_order": np.ones(len(batch), dtype=np.int64),
        })
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("sum_base_cents", alias_name="sum_base_cents"),
        Sum("sum_disc_c4", alias_name="sum_disc_c4"),
        Sum("count_order", alias_name="count_order"),
    )


def _q_events_hourly(sf_dir: str):
    """Tumbling 1-hour window per event_type: count + sum(value)
    (streaming-window analog over the ordered log; SQL-oracled via
    date_trunc). Float sums rounded identically on both sides."""
    import ray.data as rd
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    ds = _read_sf(sf_dir, "events",
                         columns=["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        hour = pc.floor_temporal(batch.column("ts"), unit="hour")
        df = pd.DataFrame({
            "event_type": batch.column("event_type").to_pylist(),
            "hour": hour.to_pandas(),
            "n": np.ones(len(batch), dtype=np.int64),
            "sum_value": batch.column("value").to_numpy(zero_copy_only=False),
        })
        g = df.groupby(["event_type", "hour"], as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["event_type", "hour"]).aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_value", alias_name="sum_value"))
    df = agg.to_pandas()
    df["sum_value"] = np.round(df["sum_value"].to_numpy(), 6)
    df["hour"] = df["hour"].astype("datetime64[us]")
    return df


def _q_seg_revenue(sf_dir: str):
    """Broadcast hash join (ChannelMap-lookup analog): orders (big,
    streamed) against customer segment lookup (small, ray.put once),
    then partial-agg → tiny groupby."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd
    from ray.data.aggregate import Sum

    from dqm_ray.functions.joins import broadcast_join

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_mktsegment"]).to_pandas()
    cust = cust.rename(columns={"c_custkey": "o_custkey"})
    orders = _read_sf(sf_dir, "orders",
                             columns=["o_custkey", "o_totalprice"])
    joined = broadcast_join(orders, cust, on="o_custkey")

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["revenue_cents"] = np.round(
            df["o_totalprice"].to_numpy() * 100).astype(np.int64)
        df["n_orders"] = np.int64(1)
        g = df.groupby("c_mktsegment", as_index=False)[
            ["n_orders", "revenue_cents"]].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    return joined.map_batches(partial, batch_format="pyarrow") \
        .groupby("c_mktsegment").aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("revenue_cents", alias_name="revenue_cents"))


def _q_join_order_lines(sf_dir: str):
    """Partitioned hash join (both sides large): lineitem ⋈ orders on
    orderkey via explicit hash-bucket co-location, then grouped agg."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from dqm_ray.functions.joins import partitioned_hash_join

    li = _read_sf(sf_dir, "lineitem",
                         columns=["l_orderkey", "l_quantity"])
    li = li.map_batches(lambda t: t.rename_columns(["orderkey", "l_quantity"]),
                        batch_format="pyarrow")
    orders = _read_sf(sf_dir, "orders",
                             columns=["o_orderkey", "o_orderpriority"])
    orders = orders.map_batches(
        lambda t: t.rename_columns(["orderkey", "o_orderpriority"]),
        batch_format="pyarrow")
    joined = partitioned_hash_join(li, orders, on="orderkey", num_buckets=32)

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = batch.to_pandas()
        df["n_lines"] = np.int64(1)
        df["sum_qty"] = df["l_quantity"].astype(np.int64)
        g = df.groupby("o_orderpriority", as_index=False)[
            ["n_lines", "sum_qty"]].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    return joined.map_batches(partial, batch_format="pyarrow") \
        .groupby("o_orderpriority").aggregate(
            Sum("n_lines", alias_name="n_lines"),
            Sum("sum_qty", alias_name="sum_qty"))


def _q_join_native(sf_dir: str):
    """Same join as join_order_lines but through Ray Data's built-in
    hash-partitioned ``Dataset.join`` (available in this Ray version) —
    both the explicit bucketed pattern and the native operator are
    supported."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    li = _read_sf(sf_dir, "lineitem",
                         columns=["l_orderkey", "l_quantity"])
    orders = _read_sf(sf_dir, "orders",
                             columns=["o_orderkey", "o_orderpriority"])
    joined = li.join(orders, "inner", num_partitions=16,
                     on=("l_orderkey",), right_on=("o_orderkey",))

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = batch.to_pandas()
        df["n_lines"] = np.int64(1)
        df["sum_qty"] = df["l_quantity"].astype(np.int64)
        g = df.groupby("o_orderpriority", as_index=False)[
            ["n_lines", "sum_qty"]].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    return joined.map_batches(partial, batch_format="pyarrow") \
        .groupby("o_orderpriority").aggregate(
            Sum("n_lines", alias_name="n_lines"),
            Sum("sum_qty", alias_name="sum_qty"))


def _q_top_orders(sf_dir: str):
    """Global distributed sort (O1 analog) + limit: top 20 orders by
    totalprice, deterministic tie-break on orderkey."""
    import pandas as pd
    import ray.data as rd

    ds = _read_sf(sf_dir, "orders",
                         columns=["o_orderkey", "o_totalprice"])
    top = ds.sort(["o_totalprice", "o_orderkey"],
                  descending=[True, False]).limit(20).to_pandas()
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return top


def _q_union_counts(sf_dir: str):
    """Set op: union of two filtered subsets, then grouped count."""
    import pyarrow.dataset as pads
    import ray.data as rd
    from ray.data.aggregate import Sum

    path = os.path.join(sf_dir, "documents.parquet")
    # ONE pruned read with an isin row filter (a union of two separate
    # filtered reads of the same file would scan matching row groups
    # twice); Dataset.union itself is exercised by the join operators
    both = _read_sf(sf_dir, "documents", columns=["lang", "source"],
                    filter=(pads.field("lang").isin(["de", "zh"])))

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = batch.to_pandas()
        df["n"] = np.int64(1)
        g = df.groupby(["lang", "source"], as_index=False)["n"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    return both.map_batches(partial, batch_format="pyarrow") \
        .groupby(["lang", "source"]).aggregate(Sum("n", alias_name="n"))


def _q_user_sessions(sf_dir: str):
    """Sessionization (streaming-window shape): per user, count sessions
    separated by >30 min gaps. Uses the hash-part windowing runner
    (dqm_ray/functions/windows.py): 64 co-location parts, ONE lexsorted
    numpy pass per part — not one pandas group per user (the
    many-tiny-groups pathology the naive groupby(user).map_groups
    shape has at web scale)."""
    import ray.data as rd
    from dqm_ray.functions.windows import sessionize

    ds = _read_sf(sf_dir, "events",
                         columns=["user_id", "ts"])
    return sessionize(ds, key_col="user_id", ts_col="ts", gap_minutes=30)


def _q_key_deltas(sf_dir: str):
    """Per-user inter-event gap stats (lag/delta window): n_events plus
    mean/max gap seconds with the reference's n<=1 -> -1 sentinel
    contract (src/algs/STD.cpp:21-48). Exact integer-microsecond
    accumulation -> bitwise-equal to the SQL oracle, no round()."""
    import ray.data as rd
    from dqm_ray.functions.windows import key_deltas

    ds = _read_sf(sf_dir, "events",
                         columns=["user_id", "ts"])
    return key_deltas(ds, key_col="user_id", ts_col="ts")


def _q_repetition_stats(sf_dir: str):
    """Gopher-style repetition filters (Rae et al. 2021): per-doc
    dup-line / dup-word fractions and top-2/3-gram char coverage —
    one shuffle-free map_batches pass, exact token identity via
    dictionary_encode + hierarchical np.unique (no hash collisions)."""
    import ray.data as rd
    from dqm_ray.functions.repetition import repetition_stats

    ds = _read_sf(sf_dir, "documents",
                         columns=["doc_id", "text"])
    return repetition_stats(ds)


def _q_pack_sequences(sf_dir: str):
    """Training-sequence packing: global exclusive token-offset scan
    (range-binned two-phase prefix sum — shuffle moves only 256
    (bin, sum) integer rows, never documents) then seq_id =
    offset // budget. Distributed restatement of the reference's
    sequential record numbering (src/DQMModule.cxx run loop)."""
    from dqm_ray.functions.scan import pack_sequences
    from dqm_ray.functions.text import token_count_batch

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    ds = ds.map_batches(token_count_batch, batch_format="pyarrow") \
        .select_columns(["doc_id", "n_tokens"])
    return pack_sequences(ds, order_col="doc_id", tokens_col="n_tokens",
                          budget=2048)


# language-mixture weights for the mixture_epochs query: en upsampled
# 2.5x (2 full epochs + hash-gated half), zh downsampled to 0.25
_MIX_WEIGHTS = {"en": 2.5, "de": 1.0, "fr": 0.4, "es": 1.75, "zh": 0.25}
_MIX_SEED = 11


def _q_mixture_epochs(sf_dir: str):
    """Deterministic domain-mixture epoch upsampling (Pile/LLaMA-style
    data mixing): floor(w) full copies per doc plus a hash-gated
    fractional copy — pure per-row function, zero shuffle."""
    from dqm_ray.functions.sampling import mixture_resample

    ds = _docs(sf_dir, columns=["doc_id", "lang"])
    ds = mixture_resample(ds, key_col="doc_id", stratum_col="lang",
                          weights=_MIX_WEIGHTS, seed=_MIX_SEED)
    return ds.select_columns(["doc_id", "lang", "epoch"])


def _q_tfidf_keywords(sf_dir: str):
    """Per-doc top-3 TF-IDF keywords: vocabulary-bounded df shuffle +
    broadcast df table; integer-quantized IDF for exact SQL parity."""
    from dqm_ray.functions.text import tfidf_keywords

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return tfidf_keywords(ds, k=3)


def _q_dedup_paragraphs(sf_dir: str):
    """Cross-doc paragraph dedup, first occurrence wins: 24 B/paragraph
    signature shuffle -> broadcast winner positions -> vectorized
    clean; content never shuffles."""
    from dqm_ray.functions.paragraphs import dedup_paragraphs

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return dedup_paragraphs(ds)


def _q_normalize_text(sf_dir: str):
    """Unicode canonicalization (NFC + control strip + blank collapse
    + edge trim): pure Arrow kernels, zero shuffle."""
    from dqm_ray.functions.text import normalize_text_batch

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return ds.map_batches(normalize_text_batch, batch_format="pyarrow")


def _q_sketch_quantiles(sf_dir: str):
    """Per-lang doc-length quantiles via the mergeable log-histogram
    sketch: bounded 64*S counters per group, bitwise-deterministic
    (unlike sampling sketches) and hence SQL-oracled."""
    from dqm_ray.functions.sketch import grouped_quantile_sketch

    ds = _docs(sf_dir, columns=["lang", "n_chars"])
    return grouped_quantile_sketch(ds, group_col="lang",
                                   value_col="n_chars")


def _q_quantize_embeddings(sf_dir: str):
    """Per-vector symmetric int8 quantization (unpivoted output;
    float64-exact scale + half-away rounding for SQL parity)."""
    import ray.data as rd

    from dqm_ray.functions.similarity import quantize_embeddings

    ds = _read_sf(sf_dir, "embeddings",
                         columns=["vec_id", "embedding"])
    return quantize_embeddings(ds)


def _q_train_bigram_lm(sf_dir: str):
    """Distributed char-bigram LM training (the scorer's model as a
    counting job): bounded |langs|x128x128 counter shuffle, top-20
    bigrams per lang."""
    from dqm_ray.functions.lm import train_bigram_lm

    ds = _docs(sf_dir, columns=["lang", "text"])
    return train_bigram_lm(ds, top_k=20)


_BUDGETS = {"en": 120_000, "de": 40_000, "fr": 25_000,
            "es": 1_000_000_000, "zh": 15_000}
_BUDGET_SEED = 13


def _q_budget_sample(sf_dir: str):
    """Char-budget downsampling per lang: rate = budget/total chars,
    hash-gated membership; es budget exceeds its total -> kept whole."""
    from dqm_ray.functions.sampling import budget_sample

    ds = _docs(sf_dir, columns=["doc_id", "lang", "n_chars"])
    return budget_sample(ds, key_col="doc_id", stratum_col="lang",
                         size_col="n_chars", budgets=_BUDGETS,
                         seed=_BUDGET_SEED)


def _q_table_profile(sf_dir: str):
    """Ingest data-quality report over documents: per-column nulls,
    exact distincts (low-cardinality), min/max — one streaming pass of
    fixed-size per-batch partials."""
    from dqm_ray.functions.profile import profile_table

    ds = _docs(sf_dir, columns=["doc_id", "lang", "source", "n_chars"])
    return profile_table(ds, distinct_cols=("lang", "source"),
                         minmax_cols=("doc_id", "n_chars"))


def _q_value_outliers(sf_dir: str):
    """Percentile-based anomaly detection (the DQM alarm case): flag
    events whose integer-cent value falls outside its type's exact
    discrete [p1, p99] — integer thresholds from the bounded
    value-count histogram, so flagging is bitwise engine-stable
    (a mean/3-sigma float rule would flip on last-ulp boundaries)."""
    import pandas as pd
    import ray.data as rd

    from dqm_ray.functions.quantiles import grouped_discrete_quantiles

    ds = _read_sf(sf_dir, "events",
                         columns=["event_id", "event_type", "value"])

    def cents(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        return pa.table({"event_id": batch.column("event_id"),
                         "event_type": batch.column("event_type"),
                         "vc": pa.array(np.round(v * 100)
                                        .astype(np.int64), pa.int64())})

    dsc = ds.map_batches(cents, batch_format="pyarrow")
    qdf = grouped_discrete_quantiles(dsc, group_col="event_type",
                                     value_col="vc", qs=(0.01, 0.99),
                                     names=("p1", "p99")).to_pandas()
    lo = dict(zip(qdf["event_type"], qdf["p1"].astype(np.int64)))
    hi = dict(zip(qdf["event_type"], qdf["p99"].astype(np.int64)))

    def flag(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        vc = batch.column("vc").to_numpy(zero_copy_only=False)
        p1 = pd.Series(et).map(lo).to_numpy(dtype=np.int64)
        p99 = pd.Series(et).map(hi).to_numpy(dtype=np.int64)
        low, high = vc < p1, vc > p99
        keep = low | high
        side = np.where(low, "low", "high")[keep]
        out = batch.filter(pa.array(keep))
        return out.append_column("side", pa.array(side, pa.string()))

    return dsc.map_batches(flag, batch_format="pyarrow")


def _q_prep_report(sf_dir: str):
    """Stage-retention observability for the corpus-prep chain (the
    K3 opmon analog): docs surviving each stage plus the final
    sequence count — each number re-derived from the live operators,
    verified against the same chain's SQL CTEs."""
    import pandas as pd

    from dqm_ray.functions.dedup import exact_dedup
    from dqm_ray.functions.paragraphs import dedup_paragraphs
    from dqm_ray.functions.text import (normalize_text_batch,
                                        token_count_batch)
    from dqm_ray.pipelines.corpus_prep import corpus_prep

    ds = _docs(sf_dir, columns=["doc_id", "lang", "text"])
    n_input = ds.count()
    nds = ds.map_batches(normalize_text_batch, batch_format="pyarrow") \
        .drop_columns(["n_chars_norm"])
    pds = dedup_paragraphs(nds).drop_columns(["n_kept", "n_dropped"])

    def gate(batch: pa.Table) -> pa.Table:
        batch = token_count_batch(batch)
        n = batch.column("n_tokens").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(n >= 5)) \
            .drop_columns(["n_ws_tokens"])

    gds = pds.map_batches(gate, batch_format="pyarrow")
    n_gated = gds.count()
    n_ded = exact_dedup(gds).count()
    final = corpus_prep(_docs(sf_dir, columns=["doc_id", "lang", "text"]),
                        weights=_MIX_WEIGHTS, mix_seed=_MIX_SEED) \
        .to_pandas()
    return pd.DataFrame({
        "stage_idx": np.arange(5, dtype=np.int64),
        "stage": ["input", "token_gate", "exact_dedup", "epoch_rows",
                  "sequences"],
        "n": np.array([n_input, n_gated, n_ded, len(final),
                       final["seq_id"].nunique()], dtype=np.int64),
    })


def _q_props_stats(sf_dir: str):
    """Semi-structured column handling: parse the JSON props payload
    per event (stdlib json — per-record parsing is inherent to the
    format, the same justified-per-row class as sha256; everything
    after extraction is vectorized partial aggregation) and aggregate
    the extracted field per event_type."""
    import json

    import ray.data as rd
    from ray.data.aggregate import Count, Max, Min, Sum

    ds = _read_sf(sf_dir, "events",
                         columns=["event_type", "props"])

    def extract(batch: pa.Table) -> pa.Table:
        ks = np.fromiter(
            (json.loads(p)["k"] for p in
             batch.column("props").to_pylist()),
            dtype=np.int64, count=len(batch))
        return pa.table({"event_type": batch.column("event_type"),
                         "k": pa.array(ks, pa.int64())})

    return ds.map_batches(extract, batch_format="pyarrow",
                          num_cpus=1) \
        .groupby("event_type") \
        .aggregate(Count(alias_name="n"),
                   Sum("k", alias_name="sum_k"),
                   Min("k", alias_name="min_k"),
                   Max("k", alias_name="max_k"))


def _q_grouped_split(sf_dir: str):
    """Leakage-safe 90/5/5 split: all docs of a source share a split
    (group key = min doc_id per source, hashed like dataset_split)."""
    from dqm_ray.functions.sampling import grouped_split

    ds = _docs(sf_dir, columns=["doc_id", "source"])
    return grouped_split(ds, group_col="source", id_col="doc_id",
                         fractions=_SPLIT_FRACS, seed=_SPLIT_SEED)


_EXACTK_SEED = 17


def _q_sample_exact_k(sf_dir: str):
    """Exactly 10 docs per lang, chosen by smallest keyed hash —
    uniform yet deterministic (unlike reservoir sampling); partial
    top-k per batch, tiny merge."""
    from dqm_ray.functions.sampling import sample_exact_k

    ds = _docs(sf_dir, columns=["doc_id", "lang"])
    return sample_exact_k(ds, key_col="doc_id", stratum_col="lang",
                          k=10, seed=_EXACTK_SEED)


_SPLIT_FRACS = {"train": 0.9, "val": 0.05, "test": 0.05}
_SPLIT_SEED = 21


def _q_dataset_split(sf_dir: str):
    """Deterministic 90/5/5 train/val/test assignment — pure function
    of (doc_id, seed); disjoint and rerun-stable by construction."""
    from dqm_ray.functions.sampling import dataset_split

    ds = _docs(sf_dir, columns=["doc_id", "lang"])
    return dataset_split(ds, key_col="doc_id", fractions=_SPLIT_FRACS,
                         seed=_SPLIT_SEED)


def _ingest_parity(sf_dir: str, fmt: str):
    """Shared wire-format parity harness: documents exported once to
    ``fmt`` (cached, atomic publish), re-read through the matching
    ray.data reader, reduced to per-lang counts + char sums — must
    equal the DuckDB result computed from the PARQUET table, proving
    the format loses nothing. S1/S3 source analog."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    cdir = os.path.join(_CACHE, f"docs_{fmt}_" +
                        hashlib.sha256(sf_dir.encode()).hexdigest()[:12])
    if not os.path.isdir(cdir):
        tmp = cdir + f".tmp{os.getpid()}"
        src = _docs(sf_dir, columns=["doc_id", "lang", "n_chars"])
        getattr(src, f"write_{fmt}")(tmp)
        os.replace(tmp, cdir)
    reader = {"json": rd.read_json, "csv": rd.read_csv}[fmt]
    ds = reader(cdir)
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "lang": batch.column("lang"),
            "n_chars": pc.cast(batch.column("n_chars"), pa.int64()),
        })

    return ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("lang") \
        .aggregate(Count(alias_name="n_docs"),
                   Sum("n_chars", alias_name="sum_chars"))


def _q_jsonl_ingest(sf_dir: str):
    """Second wire format: JSONL round-trip parity (_ingest_parity)."""
    return _ingest_parity(sf_dir, "json")


def _q_csv_ingest(sf_dir: str):
    """Third wire format: CSV round-trip parity (_ingest_parity)."""
    return _ingest_parity(sf_dir, "csv")


def _q_wire_formats(sf_dir: str):
    """Source parity for BOTH non-parquet wire formats in one driver
    row: the JSONL and CSV ingests' per-lang aggregates, tagged by
    format and unioned — each must equal the parquet-derived truth, so
    a hash match certifies both readers lose nothing."""
    def tag(ds, fmt):
        return ds.map_batches(
            lambda t, fmt=fmt: t.append_column(
                "fmt", pa.array([fmt] * len(t), pa.string())),
            batch_format="pyarrow")

    return tag(_ingest_parity(sf_dir, "json"), "json") \
        .union(tag(_ingest_parity(sf_dir, "csv"), "csv"))


def _q_custom_rule_filter(sf_dir: str):
    """P6/T3 user-extension surface driven END-TO-END through Ray
    workers: cfg names the contrib rule "brace_heavy" (registered via
    module import — registry.get_rule lazy-imports contrib_rules inside
    the worker), the rules stage applies it after the built-ins are
    disabled, and the output carries the drop verdict per file. The
    predicate is all-integer (braces*100 > chars), so the SQL twin is
    exact."""
    import dataclasses

    import ray.data as rd

    from dqm_ray.config import QualityConfig
    from dqm_ray.stages.rules import heuristic_rules_batch

    cfg = dataclasses.replace(QualityConfig(), enabled_rules=(),
                              custom_rules=("brace_heavy",))
    paths = _corpus_paths(sf_dir)
    ds = rd.read_parquet(paths, columns=["path", "content"],
                         override_num_blocks=len(paths))

    def run(batch: pa.Table) -> pa.Table:
        out = heuristic_rules_batch(batch, cfg=cfg)
        import pyarrow.compute as pc

        dropped = pc.greater(pc.list_value_length(
            out.column("rule_reasons")), 0)
        return pa.table({
            "path": out.column("path"),
            "n_chars": out.column("n_chars"),
            "dropped": dropped,
        })

    return ds.map_batches(run, batch_format="pyarrow")


def _q_knn_lsh(sf_dir: str):
    """LSH-bucketed ANN (random-hyperplane alternative to IVF, no
    training pass): ±1-plane projections of the int8-quantized vectors
    give exact-integer bucket bits; queries multi-probe their bucket
    plus the least-confident single-bit flips; survivors rank by
    quantized MIPS. Every step is integer-exact, so probe set,
    candidate set and ranks are bitwise SQL-reproducible. Recall vs
    the cosine baseline ~5-7/10 at ~8% of the corpus scanned (query 1's
    neighborhood straddles boundaries — documented LSH variance)."""
    import ray.data as rd

    from dqm_ray.functions.similarity import knn_lsh

    path = os.path.join(sf_dir, "embeddings.parquet")
    import pyarrow.parquet as pq

    head = pq.read_table(path, columns=["vec_id", "embedding"])
    mask = np.asarray(head["vec_id"]) < 4
    q_ids = np.asarray(head["vec_id"])[mask]
    q_mat = np.stack(head["embedding"].to_numpy(zero_copy_only=False)[mask])
    ds = _read_sf(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    df = knn_lsh(ds, q_ids, q_mat, k=10, n_planes=6, n_probe_bits=4,
                 cache_dir=_CACHE)
    df["score"] = np.round(df["score"].to_numpy(), 6)
    return df[["query_id", "vec_id", "rank", "score"]]


def _q_knn_quantized(sf_dir: str):
    """Quantized max-inner-product top-10 (int8 dots, two-multiply
    rescale — the 4x-bandwidth ANN path) for query vectors vec_id < 4;
    ranking key bitwise-reproducible in SQL."""
    import ray.data as rd

    from dqm_ray.functions.similarity import knn_quantized

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = _read_sf(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    import pyarrow.parquet as pq

    head = pq.read_table(path, columns=["vec_id", "embedding"])
    mask = np.asarray(head["vec_id"]) < 4
    q_ids = np.asarray(head["vec_id"])[mask]
    q_mat = np.stack(head["embedding"].to_numpy(zero_copy_only=False)[mask])
    df = knn_quantized(ds, q_ids, q_mat, k=10, concurrency=2)
    df["score"] = np.round(df["score"].to_numpy(), 6)
    return df[["query_id", "vec_id", "rank", "score"]]


def _q_rate_limit(sf_dir: str):
    """Keep the first 3 events per user per hour (tumbling): hash-part
    co-location, one lexsort pass per part, (ts, event_id) tie
    contract."""
    import ray.data as rd

    from dqm_ray.functions.windows import rate_limit

    ds = _read_sf(sf_dir, "events",
                         columns=["event_id", "ts", "user_id"])
    return rate_limit(ds, window_minutes=60, k=3)


def _q_corpus_prep(sf_dir: str):
    """The composed end-to-end LLM corpus-prep chain (see
    pipelines/corpus_prep.py) — normalize, paragraph dedup, token
    gate, exact dedup, mixture epochs, sequence packing — oracled as
    ONE SQL program."""
    from dqm_ray.pipelines.corpus_prep import corpus_prep

    ds = _docs(sf_dir, columns=["doc_id", "lang", "text"])
    return corpus_prep(ds, weights=_MIX_WEIGHTS, mix_seed=_MIX_SEED)


def _q_incremental_dedup(sf_dir: str):
    """Incremental ingest dedup: evens = prior corpus -> persisted
    bucketed signature index; odds = new crawl deduped against it
    (absent from index AND first occurrence within the ingest)."""
    import pyarrow.compute as pc

    from dqm_ray.functions.incremental import (build_dedup_index,
                                               incremental_dedup)

    base = os.path.join(_CACHE, "incdx_" +
                        hashlib.sha256(sf_dir.encode()).hexdigest()[:12])

    def parity(ds, rem):
        return ds.map_batches(
            lambda b, r=rem: b.filter(pc.equal(
                pc.bit_wise_and(b.column("doc_id"), 1), r)),
            batch_format="pyarrow")

    prior = parity(_docs(sf_dir, columns=["doc_id", "text"]), 0)
    build_dedup_index(prior, base)
    new = parity(_docs(sf_dir, columns=["doc_id", "text", "n_chars"]), 1)
    out = incremental_dedup(new, base)
    return out.select_columns(["doc_id", "n_chars"])


def _q_incremental_neardup(sf_dir: str):
    """Incremental NEAR-dup ingest: evens = prior corpus -> persisted
    MinHash band+signature index; odds = new crawl, dropping docs with
    a verified (sig-Jaccard >= 0.8) near-duplicate in the index. Same
    minhash constants as minhash_dedup, so the oracle reuses its
    bitwise signature CTEs with an evens-vs-odds candidate join."""
    import pyarrow.compute as pc

    from dqm_ray.functions.incremental import (build_neardup_index,
                                               incremental_neardup)

    base = os.path.join(_CACHE, "neardx_" +
                        hashlib.sha256(sf_dir.encode()).hexdigest()[:12])

    def parity(ds, rem):
        return ds.map_batches(
            lambda b, r=rem: b.filter(pc.equal(
                pc.bit_wise_and(b.column("doc_id"), 1), r)),
            batch_format="pyarrow")

    prior = parity(_docs(sf_dir, columns=["doc_id", "text"]), 0)
    build_neardup_index(prior, base)
    new = parity(_docs(sf_dir, columns=["doc_id", "text", "lang",
                                        "n_chars"]), 1)
    out = incremental_neardup(new, base)
    return out.select_columns(["doc_id", "lang", "n_chars"])


_SHUF_SEED = 3


def _q_shuffle_order(sf_dir: str):
    """Deterministic global training-order permutation: bijective
    multiplicative hash of doc_id ranked by the range-binned prefix
    scan — reproducible per-epoch shuffle, no random_shuffle."""
    from dqm_ray.functions.scan import shuffle_rank

    ds = _docs(sf_dir, columns=["doc_id"])
    return shuffle_rank(ds, key_col="doc_id", seed=_SHUF_SEED)


def _q_events_sliding(sf_dir: str):
    """Sliding window (1 h wide, 30 min hop): each event lands in exactly
    two windows — emit both window keys per row inside map_batches, then
    partial-agg → tiny groupby (no per-window shuffle of raw events)."""
    import pandas as pd
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = _read_sf(sf_dir, "events",
                         columns=["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        w1 = pc.floor_temporal(batch.column("ts"), multiple=30, unit="minute")
        w1 = w1.to_pandas()
        w0 = w1 - pd.Timedelta(minutes=30)
        et = batch.column("event_type").to_pylist()
        df = pd.DataFrame({"event_type": et + et,
                           "window_start": pd.concat([w1, w0],
                                                     ignore_index=True),
                           "n": np.int64(1)})
        g = df.groupby(["event_type", "window_start"], as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["event_type", "window_start"]) \
        .aggregate(Sum("n", alias_name="n")).to_pandas()
    out["window_start"] = out["window_start"].astype("datetime64[us]")
    return out


def _q_ngram_jaccard_pairs(sf_dir: str):
    """Exact character-5-gram Jaccard for all doc pairs with doc_id < 10
    — distributed shingling (map_batches emits per-doc distinct shingle
    sets), tiny driver-side pair combine. DuckDB list-comprehension
    oracle."""
    import itertools

    import pandas as pd

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def shingles(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        mask = ids < 10
        sub = batch.filter(pa.array(mask))
        sets = []
        for t in sub.column("text").to_pylist():
            k = 5
            sh = {t[i:i + k] for i in range(max(1, len(t) - k + 1))} \
                if len(t) >= k else {t}
            sets.append(sorted(sh))
        return pa.table({"doc_id": sub.column("doc_id"),
                         "shingles": pa.array(sets,
                                              pa.list_(pa.string()))})

    rows = ds.map_batches(shingles, batch_format="pyarrow").to_pandas()
    rows = rows.sort_values("doc_id").reset_index(drop=True)
    out = {"id_a": [], "id_b": [], "jaccard": []}
    sets = {r.doc_id: set(r.shingles) for r in rows.itertuples()}
    for a, b in itertools.combinations(sorted(sets), 2):
        inter = len(sets[a] & sets[b])
        union = len(sets[a] | sets[b])
        out["id_a"].append(a)
        out["id_b"].append(b)
        out["jaccard"].append(inter / union if union else 1.0)
    return pd.DataFrame(out)


def _q_approx_distinct(sf_dir: str):
    """HyperLogLog approximate distinct users per event_type (mergeable
    sketch — registers shuffle, never values). The estimate is
    approximate vs truth (±1.6% @ p=12; accuracy asserted in
    tests/test_aggregates.py) but DETERMINISTIC and oracle-exact: the
    register algebra + finalize have a bitwise DuckDB twin
    (bloom.hll_oracle_sql), the same way bloom_probe's bit contract
    does."""
    import ray.data as rd

    from dqm_ray.aggregates import ApproxDistinct

    ds = _read_sf(sf_dir, "events",
                         columns=["event_type", "user_id"])
    return ds.groupby("event_type").aggregate(
        ApproxDistinct("user_id", alias_name="approx_users"))


def _q_asof_prior_view(sf_dir: str):
    """As-of join: for each 'click' event, the most recent prior 'view'
    event of the same user (hash-part co-location + one merge_asof(by=)
    pass per part; DuckDB ASOF JOIN oracle).

    Contract is ALL-INTEGER by design: event ids plus the prior view's
    timestamp as exact int64 epoch-microseconds (events.ts is
    timestamp[us] in the fixture, so no rounding exists on either
    engine). The float `value` column was removed from the contract in
    r4 — `floor(|v|*1e6+0.5)` vs SQL `round(v*1e6)` disagree on
    last-ulp inputs, which kept this row hash-red in the r2/r3 driver
    gates even though selfcheck was multiset-identical."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from dqm_ray.functions.joins import asof_join

    path = os.path.join(sf_dir, "events.parquet")
    clicks = _read_sf(sf_dir, "events", columns=["event_id", "user_id", "ts"],
                      filter=(pads.field("event_type") == "click"))
    views = _read_sf(sf_dir, "events", columns=["event_id", "user_id", "ts"],
                     filter=(pads.field("event_type") == "view"))

    def dup_ts(t: pa.Table) -> pa.Table:
        # merge_asof keeps only the LEFT `on` column; carry the right
        # side's ts as a value column so the match's timestamp survives
        return t.append_column("view_ts", t.column("ts"))

    views = views.map_batches(dup_ts, batch_format="pyarrow")
    out = asof_join(clicks, views, by="user_id", on="ts",
                    tiebreak="event_id").to_pandas()
    res = out[["event_id"]].copy()
    # belt + suspenders vs the r2-r4 driver red: asof_join now emits a
    # full typed union schema so event_id arrives int64, but the driver
    # hashes STRINGIFIED values ('58.0' != '58') — keep the explicit cast
    res["event_id"] = out["event_id"].astype(np.int64)
    res["prior_event_id"] = out["event_id_r"].fillna(-1).astype(np.int64)
    vt = out["view_ts"].to_numpy(dtype="datetime64[us]")
    us = vt.astype(np.int64)
    us[np.isnat(vt)] = -1
    res["prior_ts_us"] = us
    return res[["event_id", "prior_event_id", "prior_ts_us"]]


def _q_salted_group_stats(sf_dir: str):
    """Salted two-level aggregation (explicit skew handling): count +
    sum(n_chars) per lang, hot keys spread over 8 salted reducers then
    merged — values identical to a plain GROUP BY."""
    from dqm_ray.functions.skew import salted_count_sum

    ds = _docs(sf_dir, columns=["lang", "n_chars"])
    return salted_count_sum(ds, key="lang", sum_cols=("n_chars",), salt=8)


def _q_raw_sample(sf_dir: str):
    """Counter/raw-display analog (A5): deterministic passthrough sample
    of raw rows."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def sample(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 100 == 0))

    return ds.map_batches(sample, batch_format="pyarrow")


def _q_fourier_events(sf_dir: str):
    """Per-key magnitude spectrum (Fourier-per-channel analog) over the
    events stream: first 256 samples of `value` per event_type ordered
    by event_id. SQL oracle = O(n^2) DFT, magnitudes round(6) both
    sides; numpy golden tests cover the FFT kernel itself."""
    import ray.data as rd

    from dqm_ray.functions.spectral import fourier_by_key

    ds = _read_sf(sf_dir, "events",
                         columns=["event_type", "ts", "value", "event_id"])
    out = fourier_by_key(ds, key="event_type", value_col="value",
                         order_col="event_id", n_points=256)
    df = out.to_pandas()
    if "magnitude" not in df.columns:
        # all keys < n_points -> empty Dataset loses its schema (the
        # 0-column empty-frame gotcha); rebuild the typed empty frame
        import pandas as pd

        df = pd.DataFrame({"event_type": pd.Series(dtype=object),
                           "freq_idx": pd.Series(dtype="int64"),
                           "magnitude": pd.Series(dtype="float64")})
    df["magnitude"] = np.round(df["magnitude"].to_numpy(), 6)
    return df


def _q_fourier_total(sf_dir: str):
    """Global summed-series spectrum (FourierContainer global/per-plane
    mode, A7 — include/dqm/modules/FourierContainer.hpp:136-183: sum of
    member series, transform by FFT linearity). Same qualifying-key
    rule as fourier_events (first 256 samples per event_type, keys with
    fewer skipped); SQL oracle = O(n^2) DFT of the per-position value
    sum, magnitudes round(6) both sides."""
    import ray.data as rd

    from dqm_ray.functions.spectral import fourier_total

    ds = _read_sf(sf_dir, "events",
                         columns=["event_type", "value", "event_id"])
    df = fourier_total(ds, key="event_type", value_col="value",
                       order_col="event_id", n_points=256)
    df["magnitude"] = np.round(df["magnitude"].to_numpy(), 6)
    return df


# ---------------------------------------------------------------------------
# similarity / dedup / langid (partly SQL-oracled)
# ---------------------------------------------------------------------------

def _q_knn_cosine(sf_dir: str):
    """Brute-force cosine top-10 for query vectors vec_id < 4 — partial
    top-k per batch against a broadcast query matrix."""
    import ray.data as rd

    from dqm_ray.functions.similarity import knn_brute_force

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = _read_sf(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    import pyarrow.parquet as pq

    head = pq.read_table(path, columns=["vec_id", "embedding"])
    mask = np.asarray(head["vec_id"]) < 4
    q_ids = np.asarray(head["vec_id"])[mask]
    q_mat = np.stack(head["embedding"].to_numpy(zero_copy_only=False)[mask])
    df = knn_brute_force(ds, q_ids, q_mat, k=10, concurrency=2)
    df["cosine"] = np.round(df["cosine"].to_numpy(), 6)
    return df[["query_id", "vec_id", "rank", "cosine"]]


def _ivf_index_dir(sf_dir: str) -> str:
    sf = os.path.basename(os.path.normpath(sf_dir))
    return os.path.join(_CACHE, f"ivf_index_{sf}")


def _ensure_ivf_index(sf_dir: str) -> str:
    """Build (once) the persisted IVF index for this sf's embeddings:
    hive-partitioned parquet by nearest-centroid list + centroids table."""
    import ray.data as rd

    from dqm_ray.functions.similarity import build_ivf_index

    idx = _ivf_index_dir(sf_dir)
    marker = os.path.join(idx, ".done-v1")
    if not os.path.exists(marker):
        import shutil

        shutil.rmtree(idx, ignore_errors=True)
        ds = _read_sf(sf_dir, "embeddings",
                             columns=["vec_id", "embedding"])
        build_ivf_index(ds, idx, n_centroids=8)
        with open(marker, "w") as f:
            f.write("ok")
    return idx


def _q_knn_ivf(sf_dir: str):
    """ANN through the PERSISTED IVF index: hive-partitioned by coarse
    list, the query reads only its n_probe closest lists' files (the
    100-TB I/O-pruning layout), exact cosine within."""
    from dqm_ray.functions.similarity import knn_ivf_index

    idx = _ensure_ivf_index(sf_dir)
    import pyarrow.parquet as pq

    head = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                         columns=["vec_id", "embedding"])
    mask = np.asarray(head["vec_id"]) < 4
    q_ids = np.asarray(head["vec_id"])[mask]
    q_mat = np.stack(head["embedding"].to_numpy(zero_copy_only=False)[mask])
    df = knn_ivf_index(idx, q_ids, q_mat, k=10, n_probe=4)
    df["cosine"] = np.round(df["cosine"].to_numpy(), 6)
    return df[["query_id", "vec_id", "rank", "cosine"]]


def _q_knn_ivf_quantized(sf_dir: str):
    """IVF I/O pruning x int8 compute: probed lists only leave
    storage, quantized MIPS within — rank-exact SQL oracle."""
    from dqm_ray.functions.similarity import knn_ivf_quantized

    idx = _ensure_ivf_index(sf_dir)
    import pyarrow.parquet as pq

    head = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                         columns=["vec_id", "embedding"])
    mask = np.asarray(head["vec_id"]) < 4
    q_ids = np.asarray(head["vec_id"])[mask]
    q_mat = np.stack(head["embedding"].to_numpy(zero_copy_only=False)[mask])
    df = knn_ivf_quantized(idx, q_ids, q_mat, k=10, n_probe=4)
    df["score"] = np.round(df["score"].to_numpy(), 6)
    return df[["query_id", "vec_id", "rank", "score"]]


_QUANT_CTES = """
        dq AS (SELECT vec_id,
                      list_transform(embedding,
                          x -> CAST(x AS DOUBLE)) AS v
               FROM embeddings),
        sq_ AS (SELECT vec_id, v,
                       list_max(list_transform(v, x -> abs(x))) / 127.0
                           AS scale
                FROM dq),
        eq AS (SELECT vec_id, scale, u.dim AS dim,
                      CAST(CASE WHEN scale = 0 THEN 0
                                WHEN u.x < 0
                                THEN -floor(abs(u.x) / scale + 0.5)
                                ELSE floor(abs(u.x) / scale + 0.5)
                           END AS BIGINT) AS q
               FROM (SELECT vec_id, scale,
                            unnest(list_transform(range(1, len(v) + 1),
                              i -> struct_pack(dim := i - 1,
                                               x := v[i]))) AS u
                     FROM sq_) t)"""


def _knn_ivf_quantized_oracle_sql(sf: str = "sf0.01") -> str:
    """Probe/assign from the SAME persisted centroids as knn_ivf;
    scoring = the knn_quantized integer-dot/two-multiply key
    restricted to each query's probed lists."""
    cent = os.path.join(_CACHE, f"ivf_index_{sf}", "centroids.parquet")
    return f"""
        WITH cent AS (SELECT list_id, centroid
                      FROM read_parquet('{cent}')),
        q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
              FROM embeddings WHERE vec_id < 4),
        probe AS (
          SELECT qid, list_id FROM (
            SELECT q.qid, c.list_id,
                   row_number() OVER (
                     PARTITION BY q.qid
                     ORDER BY list_dot_product(q.qe, c.centroid) DESC,
                              c.list_id) AS pr
            FROM q, cent c) WHERE pr <= 4
        ),
        assign AS (
          SELECT vec_id, list_id FROM (
            SELECT e.vec_id, c.list_id,
                   row_number() OVER (
                     PARTITION BY e.vec_id
                     ORDER BY list_dot_product(CAST(e.embedding AS DOUBLE[]),
                                               c.centroid) DESC,
                              c.list_id) AS rn
            FROM embeddings e, cent c) WHERE rn = 1
        ),{_QUANT_CTES},
        cand AS (SELECT p.qid, a.vec_id
                 FROM probe p JOIN assign a USING (list_id)),
        dots AS (SELECT c.qid, c.vec_id,
                        CAST(SUM(e.q * qq.q) AS BIGINT) AS di,
                        any_value(e.scale) AS se,
                        any_value(qq.scale) AS sq
                 FROM cand c
                 JOIN eq e ON e.vec_id = c.vec_id
                 JOIN eq qq ON qq.vec_id = c.qid AND qq.dim = e.dim
                 GROUP BY c.qid, c.vec_id)
        SELECT qid AS query_id, vec_id, CAST(rn AS BIGINT) AS rank,
               round(CAST(di AS DOUBLE) * se * sq, 6) AS score
        FROM (SELECT *, row_number() OVER (PARTITION BY qid
                   ORDER BY CAST(di AS DOUBLE) * se * sq DESC,
                            vec_id) AS rn
              FROM dots) WHERE rn <= 10"""


def _knn_ivf_oracle_sql(sf: str = "sf0.01") -> str:
    """knn_ivf in SQL against the SAME persisted centroids: assignment =
    argmax centroid dot (first-max tie), probe = each query's top-4
    centroids, exact cosine top-10 within the query's probed lists.
    Normalization cancels inside argmax/argsort, so raw dots order
    identically to the Ray side's normalized ones."""
    cent = os.path.join(_CACHE, f"ivf_index_{sf}", "centroids.parquet")
    return f"""
        WITH cent AS (SELECT list_id, centroid
                      FROM read_parquet('{cent}')),
        q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
              FROM embeddings WHERE vec_id < 4),
        probe AS (
          SELECT qid, list_id FROM (
            SELECT q.qid, c.list_id,
                   row_number() OVER (
                     PARTITION BY q.qid
                     ORDER BY list_dot_product(q.qe, c.centroid) DESC,
                              c.list_id) AS pr
            FROM q, cent c) WHERE pr <= 4
        ),
        assign AS (
          SELECT vec_id, list_id FROM (
            SELECT e.vec_id, c.list_id,
                   row_number() OVER (
                     PARTITION BY e.vec_id
                     ORDER BY list_dot_product(CAST(e.embedding AS DOUBLE[]),
                                               c.centroid) DESC,
                              c.list_id) AS rn
            FROM embeddings e, cent c) WHERE rn = 1
        )
        SELECT qid AS query_id, vec_id, rn AS rank,
               round(CAST(cos AS DOUBLE), 6) AS cosine
        FROM (
          SELECT p.qid, a.vec_id,
                 list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                        q.qe) AS cos,
                 row_number() OVER (
                   PARTITION BY p.qid
                   ORDER BY list_cosine_similarity(
                              CAST(e.embedding AS DOUBLE[]), q.qe) DESC,
                            a.vec_id) AS rn
          FROM probe p
          JOIN assign a ON a.list_id = p.list_id
          JOIN embeddings e ON e.vec_id = a.vec_id
          JOIN q ON q.qid = p.qid)
        WHERE rn <= 10"""


def _q_nl_langid(sf_dir: str):
    from dqm_ray.functions.text import nl_langid_batch

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    ds = ds.map_batches(nl_langid_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "detected_lang"])


def _q_fingerprint(sf_dir: str):
    from dqm_ray.functions.text import fingerprint_batch

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    ds = ds.map_batches(fingerprint_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "fingerprint"])


def _q_minhash_dedup(sf_dir: str):
    from dqm_ray.functions.dedup import minhash_lsh_dedup

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    dup_table, _pairs = minhash_lsh_dedup(ds, threshold=0.8)
    return dup_table


def _q_canonical_docs(sf_dir: str):
    """Cluster canonicalization: minhash near-dup clusters -> keep the
    best-quality member (quality_score DESC, doc_id ASC) per cluster —
    best-copy curation instead of first-wins (dedup.py canonical_docs)."""
    from dqm_ray.functions.dedup import canonical_docs, minhash_lsh_dedup

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    dup_table, _pairs = minhash_lsh_dedup(ds, threshold=0.8)
    return canonical_docs(ds, dup_table)


def _q_project_embeddings(sf_dir: str):
    """Random-projection dimensionality reduction (J-L shape): fixed
    seeded Gaussian matrix, one matmul per batch, unpivoted output
    (similarity.py::project_embeddings); the oracle reads the same
    exported matrix."""
    import ray.data as rd

    from dqm_ray.functions.similarity import project_embeddings

    ds = _read_sf(sf_dir, "embeddings",
                         columns=["vec_id", "embedding"])
    return project_embeddings(ds, out_dim=16, seed=17)


def _q_corpus_diff(sf_dir: str):
    """Snapshot diff between two corpus generations (the audit step
    between ingests): gen1 derives deterministically from documents —
    doc_id%13==0 removed, %7==0 text+'!', %11==0 re-added under
    id+10M with text+'+' — and the diff reports
    added/removed/changed/same per id (incremental.py::corpus_diff)."""
    import pyarrow.compute as pc

    from dqm_ray.functions.incremental import corpus_diff

    old = _docs(sf_dir, columns=["doc_id", "text"])

    def derive(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        text = batch.column("text").combine_chunks()
        keep = ids % 13 != 0
        bumped = pc.binary_join_element_wise(
            text, pa.array(np.where(ids % 7 == 0, "!", "")
                           .astype(object), pa.string()), "")
        g1 = pa.table({"doc_id": pa.array(ids, pa.int64()),
                       "text": bumped.cast(pa.string())}) \
            .filter(pa.array(keep))
        addm = ids % 11 == 0
        added = pa.table({
            "doc_id": pa.array(ids[addm] + 10_000_000, pa.int64()),
            "text": pc.binary_join_element_wise(
                text.filter(pa.array(addm)), "+", "").cast(pa.string()),
        })
        return pa.concat_tables([g1, added])

    new = old.map_batches(derive, batch_format="pyarrow")
    return corpus_diff(old, new)


def _q_train_trigram_lm(sf_dir: str):
    """Distributed char-trigram LM counting per lang (sparse composite
    -code compaction; functions/lm.py::train_trigram_lm)."""
    from dqm_ray.functions.lm import train_trigram_lm

    ds = _docs(sf_dir, columns=["lang", "text"])
    return train_trigram_lm(ds, top_k=20)


def _q_zscore_chars(sf_dir: str):
    """Per-lang z-score normalization of n_chars — exact int64 group
    moments + pinned-IEEE float steps + half-away micro-units, so the
    oracle matches bitwise (functions/skew.py::grouped_zscore)."""
    from dqm_ray.functions.skew import grouped_zscore

    ds = _docs(sf_dir, columns=["doc_id", "lang", "n_chars"])
    return grouped_zscore(ds, key_col="lang", val_col="n_chars")


_SEM_THRESHOLD = 0.25


def _q_semantic_decontam(sf_dir: str):
    """Embedding-level decontamination: corpus vectors (odd ids) whose
    cosine against ANY benchmark vector (even ids) reaches the
    threshold — catches paraphrased eval leakage that exact n-gram
    probes miss (decontam.py::semantic_decontam)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from dqm_ray.functions.decontam import semantic_decontam

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = _read_sf(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def parity(d, rem):
        return d.map_batches(
            lambda b, r=rem: b.filter(pc.equal(
                pc.bit_wise_and(b.column("vec_id"), 1), r)),
            batch_format="pyarrow")

    bench = parity(ds, 0).to_pandas()  # benchmark side: small by contract
    bmat = np.stack(bench["embedding"].to_numpy())
    return semantic_decontam(parity(ds, 1), bench["vec_id"].to_numpy(),
                             bmat, threshold=_SEM_THRESHOLD)


def _q_trending(sf_dir: str):
    """Top-3 event types per hour by count (windowed top-k): bounded
    (window x key) counter merge + hash-part lexsort reduce
    (windows.py::trending)."""
    import ray.data as rd

    from dqm_ray.functions.windows import trending

    ds = _read_sf(sf_dir, "events",
                         columns=["ts", "event_type"])
    return trending(ds, window_minutes=60, k=3)


_SPAN_K = 20


def _q_dedup_spans(sf_dir: str):
    """Cross-doc exact substring dedup (Lee et al. 2021 shape): spans
    covered by a k-gram whose stride-anchored first occurrence is
    strictly earlier are cut; the winner occurrence survives
    (functions/spans.py)."""
    from dqm_ray.functions.spans import dedup_spans

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return dedup_spans(ds, k=_SPAN_K)


def _q_dup_report(sf_dir: str):
    """Per-lang duplication observability: doc count, distinct-text
    count (by sha256 — hash-equal ≡ text-equal at 2^-128, the
    exact_dedup contract) and excess-copy count. Two tiny counter
    shuffles; content never moves."""
    import ray.data as rd  # noqa: F401
    from ray.data.aggregate import Count, Sum

    from dqm_ray.stages.lineage import sha256_column

    ds = _docs(sf_dir, columns=["lang", "text"])

    def key(batch: pa.Table) -> pa.Table:
        return pa.table({
            "lang": batch.column("lang"),
            "__sha": sha256_column(batch.column("text")
                                   .combine_chunks()),
        })

    per_text = ds.map_batches(key, batch_format="pyarrow") \
        .groupby(["lang", "__sha"]).aggregate(Count(alias_name="n"))
    out = per_text.groupby("lang").aggregate(
        Count(alias_name="n_unique"), Sum("n", alias_name="n_docs"))

    def finish(batch: pa.Table) -> pa.Table:
        nd = batch.column("n_docs").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nu = batch.column("n_unique").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "lang": batch.column("lang"),
            "n_docs": pa.array(nd, pa.int64()),
            "n_unique": pa.array(nu, pa.int64()),
            "n_dup_docs": pa.array(nd - nu, pa.int64()),
        })

    return out.map_batches(finish, batch_format="pyarrow")


def _q_funnel(sf_dir: str):
    """View→click conversion funnel per user (10-minute window):
    hash-part co-location + segmented running-max last-view lookup —
    no self-join (windows.py::funnel)."""
    import ray.data as rd

    from dqm_ray.functions.windows import funnel

    ds = _read_sf(sf_dir, "events",
                         columns=["user_id", "ts", "event_type"])
    return funnel(ds, window_minutes=10)


def _q_webprep(sf_dir: str):
    """Composed web-corpus prep (pipelines/webprep.py): exact span
    dedup -> CCNet per-lang perplexity gate over the CLEANED text,
    keeping head+middle — verified against ONE SQL program chaining
    the span-cut and ntile CTEs."""
    from dqm_ray.corpus import training_text
    from dqm_ray.functions.ccnet import quantize_logp
    from dqm_ray.pipelines.webprep import webprep
    from dqm_ray.stages.scorer import VectorBigramModel

    logq = quantize_logp(VectorBigramModel(training_text()).log_p)
    ds = _docs(sf_dir, columns=["doc_id", "lang", "text"])
    return webprep(ds, logq, span_k=_SPAN_K)


_BLOOM_M, _BLOOM_K, _BLOOM_SEED = 1 << 16, 4, 5


def _q_bloom_probe(sf_dir: str):
    """Approximate-membership probe: a Bloom filter built over the
    English docs' ids (one aggregate pass, OR-mergeable bitset) probed
    by every doc — deterministic bit contract, so the oracle rebuilds
    the identical filter in SQL (functions/bloom.py)."""
    import pyarrow.compute as pc

    from dqm_ray.functions.bloom import build_bloom, probe_bloom

    ds = _docs(sf_dir, columns=["doc_id", "lang"])
    en = ds.map_batches(
        lambda b: b.filter(pc.equal(b.column("lang"), "en")),
        batch_format="pyarrow")
    words = build_bloom(en, key_col="doc_id", m_bits=_BLOOM_M,
                        k_hashes=_BLOOM_K, seed=_BLOOM_SEED)
    return probe_bloom(ds, words, key_col="doc_id",
                       k_hashes=_BLOOM_K, seed=_BLOOM_SEED)


def _q_simhash_pairs(sf_dir: str):
    from dqm_ray.functions.dedup import simhash_candidates

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return simhash_candidates(ds, max_hamming=3)


def _q_embedding_near_dup(sf_dir: str):
    import ray.data as rd

    from dqm_ray.functions.dedup import embedding_near_dup

    import pandas as pd

    ds = _read_sf(sf_dir, "embeddings",
                         columns=["vec_id", "embedding"])
    # random test embeddings have no 0.95-cosine near-dups; a loose
    # threshold + few planes exercises the bucket→verify path end-to-end
    out = embedding_near_dup(ds, threshold=0.25, planes=4).to_pandas()
    if "cosine" not in out.columns:  # no candidate pairs at all
        out = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                            "id_b": pd.Series(dtype="int64"),
                            "cosine": pd.Series(dtype="float64")})
    out["cosine"] = np.round(out["cosine"].to_numpy(), 6)
    return out


def _q_media_decode(sf_dir: str):
    """Multimodal plumbing smoke: synthesized binary payload table through
    the actor-pool decode stage (deterministic fake features)."""
    import ray.data as rd

    from dqm_ray.functions.multimodal import (decode_media,
                                              synthesize_media_table)

    ds = rd.from_arrow(synthesize_media_table(n_rows=64, seed=21))
    return decode_media(ds, strict=False, concurrency=2, batch_size=16) \
        .select_columns(["media_id", "kind", "n_bytes", "checksum"])


def _q_media_features(sf_dir: str):
    """Decode + feature-extract (resize / energy — the MFCC-shaped
    step): images nearest-neighbor-resize to 16x16 and sum; audio
    reduces to an exact int64 energy sum. Oracle = pre-encode
    expectations computed with the SAME kernel at synth time, so a
    match proves decode + resize + reduce round-trip the container
    bytes exactly."""
    import pyarrow.compute as pc
    import ray.data as rd

    from dqm_ray.functions.multimodal import (extract_media_features,
                                              synthesize_media_table)

    t = synthesize_media_table(n_rows=64, seed=21)
    t = t.filter(pc.not_equal(t.column("kind"), "video"))
    return extract_media_features(rd.from_arrow(t), thumb=16,
                                  concurrency=2, batch_size=16)


def _q_media_probe(sf_dir: str):
    """TRUE binary decode (strict mode): the built-in pure-numpy codecs
    (functions/codecs.py — uncompressed 24-bit BMP, PCM16 WAV) recover
    dimensions / channel counts / sample rates / integer value sums from
    real container bytes. Oracle = the pre-encode ground-truth columns
    stored in the source table, so a hash match proves decode inverts
    encode row-for-row. Video is excluded: no mp4 codec in-sandbox, and
    strict mode correctly refuses to fake it."""
    import pyarrow.compute as pc
    import ray.data as rd

    from dqm_ray.functions.multimodal import (decode_media,
                                              synthesize_media_table)

    t = synthesize_media_table(n_rows=64, seed=21)
    t = t.filter(pc.not_equal(t.column("kind"), "video"))
    return decode_media(rd.from_arrow(t), strict=True, concurrency=2,
                        batch_size=16) \
        .select_columns(["media_id", "kind", "n_bytes", "width", "height",
                         "n_channels", "sample_rate", "n_samples",
                         "val_sum"])


_BENCH_MOD = 50  # documents with doc_id % 50 == 0 act as the eval set
_DECONTAM_K = 13
_DOCPREP_MIN_MATCHES = 20  # substantive leakage, not boilerplate overlap


def _bench_split(is_bench: bool):
    """Vectorized filter: the benchmark subset or its complement."""
    def f(b: pa.Table) -> pa.Table:
        m = b.column("doc_id").to_numpy() % _BENCH_MOD == 0
        return b.filter(pa.array(m if is_bench else ~m))
    return f


def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination: corpus docs sharing any 13-byte gram
    with the benchmark subset (doc_id % 50 == 0). Benchmark grams are
    collected distributed then broadcast once (ray.put); the corpus
    pass is one streaming searchsorted probe per batch."""
    from dqm_ray.functions.decontam import (collect_benchmark_grams,
                                            decontaminate)

    docs = _docs(sf_dir, columns=["doc_id", "text"])
    grams = collect_benchmark_grams(
        docs.map_batches(_bench_split(True), batch_format="pyarrow"),
        k=_DECONTAM_K)
    return decontaminate(
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(_bench_split(False), batch_format="pyarrow"),
        grams, k=_DECONTAM_K)


def _q_scrub_spans(sf_dir: str):
    """Span-level decontamination: cut exactly the bytes covered by
    matched benchmark 13-grams instead of dropping the document —
    same broadcast-probe shape as decontaminate."""
    from dqm_ray.functions.decontam import (collect_benchmark_grams,
                                            scrub_spans)

    docs = _docs(sf_dir, columns=["doc_id", "text"])
    grams = collect_benchmark_grams(
        docs.map_batches(_bench_split(True), batch_format="pyarrow"),
        k=_DECONTAM_K)
    return scrub_spans(
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(_bench_split(False), batch_format="pyarrow"),
        grams, k=_DECONTAM_K)


_SAMPLE_SEED = 11
_SAMPLE_BASE_RATE = 0.1
_SAMPLE_RATES = {"en": 0.1, "zh": 0.5, "es": 0.25, "de": 0.25, "fr": 0.25}


def _q_stratified_sample(sf_dir: str):
    """Deterministic stratified sampling: per-lang keep rates via one
    keyed-hash filter — no shuffle, reproducible across reruns, and the
    identical predicate runs in SQL (bitwise membership parity)."""
    from dqm_ray.functions.sampling import hash_sample

    return hash_sample(_docs(sf_dir, columns=["doc_id", "lang"]),
                       key_col="doc_id", rate=_SAMPLE_BASE_RATE,
                       seed=_SAMPLE_SEED, stratum_col="lang",
                       rates=_SAMPLE_RATES)


def _q_length_quantiles(sf_dir: str):
    """Exact per-lang p50/p90/p99 of n_chars via the bounded value-count
    histogram — reads two integer columns, shuffles only (lang, value,
    count) rows."""
    from dqm_ray.functions.quantiles import grouped_discrete_quantiles

    return grouped_discrete_quantiles(
        _docs(sf_dir, columns=["lang", "n_chars"]),
        group_col="lang", value_col="n_chars")


def _q_docprep(sf_dir: str):
    """The composed LLM data-prep chain (quality filter → exact dedup →
    decontamination → stratified sample) end to end — every stage
    individually oracled, and the composition oracled as one SQL
    program."""
    from dqm_ray.functions.decontam import collect_benchmark_grams
    from dqm_ray.pipelines.docprep import run_docprep

    grams = collect_benchmark_grams(
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(_bench_split(True), batch_format="pyarrow"),
        k=_DECONTAM_K)
    corpus = _docs(sf_dir, columns=["doc_id", "text", "lang"]) \
        .map_batches(_bench_split(False), batch_format="pyarrow")
    return run_docprep(corpus, bench_grams=grams, rates=_SAMPLE_RATES,
                       base_rate=_SAMPLE_BASE_RATE, seed=_SAMPLE_SEED,
                       k=_DECONTAM_K, min_matches=_DOCPREP_MIN_MATCHES)


def _q_label_centroids(sf_dir: str):
    """Per-label embedding centroids (vector aggregate): batches reduce
    to one (sum-vector, count) row per label before the shuffle."""
    import ray.data as rd

    from dqm_ray.functions.similarity import label_centroids

    ds = _read_sf(sf_dir, "embeddings",
                         columns=["label", "embedding"])
    return label_centroids(ds)


def _q_bucketed_join(sf_dir: str):
    """Shuffle-free co-located join: orders and customer are written
    ONCE hash-bucketed by custkey (cached hive layout under /tmp), then
    one task per bucket reads both sides' partitions and joins locally
    — the write-time partitioning pays for every later join."""
    import shutil

    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Sum

    from dqm_ray.sources.bucketed import bucketed_join, write_bucketed

    sf = os.path.basename(os.path.normpath(sf_dir))
    base = os.path.join(_CACHE, f"bucketed_v1_{sf}")
    da, db = os.path.join(base, "orders"), os.path.join(base, "customer")
    if not os.path.isdir(base):
        # build under a pid-suffixed dir, publish by atomic rename —
        # concurrent builders race harmlessly (loser removes its copy)
        tmp = f"{base}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        orders = _read_sf(
            sf_dir, "orders",
            columns=["o_custkey", "o_totalprice"]) \
            .map_batches(lambda t: t.rename_columns(
                ["custkey", "o_totalprice"]), batch_format="pyarrow")
        cust = _read_sf(
            sf_dir, "customer",
            columns=["c_custkey", "c_nationkey"]) \
            .map_batches(lambda t: t.rename_columns(
                ["custkey", "c_nationkey"]), batch_format="pyarrow")
        write_bucketed(orders, os.path.join(tmp, "orders"),
                       key="custkey", num_buckets=16)
        write_bucketed(cust, os.path.join(tmp, "customer"),
                       key="custkey", num_buckets=16)
        try:
            os.rename(tmp, base)
        except OSError:  # another process published first
            shutil.rmtree(tmp, ignore_errors=True)
    joined = bucketed_join(da, db, on="custkey", num_buckets=16)

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if not len(df):
            return pa.table({"c_nationkey": pa.array([], pa.int64()),
                             "n_orders": pa.array([], pa.int64()),
                             "revenue_cents": pa.array([], pa.int64())})
        df["revenue_cents"] = np.round(
            df["o_totalprice"].to_numpy() * 100).astype(np.int64)
        df["n_orders"] = np.int64(1)
        g = df.groupby("c_nationkey", as_index=False)[
            ["n_orders", "revenue_cents"]].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    return joined.map_batches(partial, batch_format="pyarrow") \
        .groupby("c_nationkey").aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("revenue_cents", alias_name="revenue_cents"))


def _q_events_in_window(sf_dir: str):
    """Range join (interval containment): for each purchase, count
    same-user events in the preceding 30 minutes — binned interval
    join (one bin per point, hash-part co-location), no all-pairs."""
    import pyarrow.compute as pc
    import ray.data as rd

    from dqm_ray.functions.joins import interval_join

    path = os.path.join(sf_dir, "events.parquet")
    half_hour_us = 30 * 60 * 1_000_000

    def mk_intervals(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b.column("event_type"), "purchase"))
        ts = t.column("ts").cast(pa.int64())
        return pa.table({
            "purchase_id": t.column("event_id"),
            "user_id": t.column("user_id"),
            "w_start": pc.subtract(ts, half_hour_us),
            "w_end": ts,
        })

    intervals = _read_sf(
        sf_dir, "events", columns=["event_id", "user_id", "event_type", "ts"]) \
        .map_batches(mk_intervals, batch_format="pyarrow")
    points = _read_sf(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    pairs = interval_join(
        intervals, points, by="user_id", start_col="w_start",
        end_col="w_end", point_col="ts", int_id="purchase_id",
        point_id="event_id", bin_width_us=half_hour_us)
    out = pairs.groupby("purchase_id").count()
    return out.map_batches(
        lambda t: t.rename_columns(["purchase_id", "n"]),
        batch_format="pyarrow")


def _q_windowed_counts(sf_dir: str):
    """Same contract as events_in_window (same-user events in the 30
    minutes before each purchase, inclusive) computed in ONE all-to-all
    instead of two: windows.windowed_count co-locates by user and
    resolves every anchor window with two searchsorted probes per part
    — the scale-preferred shape when the window key is the join key."""
    import pyarrow.compute as pc
    import ray.data as rd

    from dqm_ray.functions.windows import windowed_count

    ds = _read_sf(
        sf_dir, "events",
        columns=["event_id", "user_id", "event_type", "ts"])

    def mark(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": b.column("event_id"),
            "user_id": b.column("user_id"),
            "ts": b.column("ts"),
            "is_purchase": pc.equal(b.column("event_type"), "purchase"),
        })

    out = windowed_count(ds.map_batches(mark, batch_format="pyarrow"),
                         key_col="user_id", ts_col="ts",
                         anchor_col="is_purchase", id_col="event_id",
                         window_us=30 * 60 * 1_000_000)
    return out.map_batches(
        lambda t: t.rename_columns(["purchase_id", "n"]),
        batch_format="pyarrow")


def _q_windowed_revenue(sf_dir: str):
    """Windowed SUM sibling of windowed_counts: per purchase, the sum of
    floor(value) over same-user events in the preceding 30 minutes
    (inclusive). floor() is exact on doubles in BOTH engines (no
    half-way ties — the asof_prior_view lesson), so the int64 window
    sum is bitwise-oracled; the kernel is csum[hi]-csum[lo] at the two
    searchsorted probes (windows.windowed_sum)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from dqm_ray.functions.windows import windowed_sum

    ds = _read_sf(
        sf_dir, "events",
        columns=["event_id", "user_id", "event_type", "ts", "value"])

    def mark(b: pa.Table) -> pa.Table:
        v = b.column("value").to_numpy(zero_copy_only=False)
        return pa.table({
            "event_id": b.column("event_id"),
            "user_id": b.column("user_id"),
            "ts": b.column("ts"),
            "value_floor": pa.array(np.floor(v).astype(np.int64)),
            "is_purchase": pc.equal(b.column("event_type"), "purchase"),
        })

    out = windowed_sum(ds.map_batches(mark, batch_format="pyarrow"),
                       key_col="user_id", ts_col="ts",
                       anchor_col="is_purchase", id_col="event_id",
                       value_col="value_floor",
                       window_us=30 * 60 * 1_000_000)
    return out.map_batches(
        lambda t: t.rename_columns(["purchase_id", "win_sum"]),
        batch_format="pyarrow")


def _q_windowed_peak(sf_dir: str):
    """Windowed MAX sibling: per purchase, the max event value of the
    same user in the preceding 30 minutes (inclusive). Float-safe
    without quantization — max selects an existing double, so both
    engines return the identical bit pattern (no accumulation order).
    Kernel = sparse-table RMQ over the part's sorted values
    (windows.windowed_extreme)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from dqm_ray.functions.windows import windowed_extreme

    ds = _read_sf(
        sf_dir, "events",
        columns=["event_id", "user_id", "event_type", "ts", "value"])

    def mark(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": b.column("event_id"),
            "user_id": b.column("user_id"),
            "ts": b.column("ts"),
            "value": b.column("value"),
            "is_purchase": pc.equal(b.column("event_type"), "purchase"),
        })

    out = windowed_extreme(ds.map_batches(mark, batch_format="pyarrow"),
                           key_col="user_id", ts_col="ts",
                           anchor_col="is_purchase", id_col="event_id",
                           value_col="value", mode="max",
                           window_us=30 * 60 * 1_000_000)
    return out.map_batches(
        lambda t: t.rename_columns(["purchase_id", "peak"]),
        batch_format="pyarrow")


def _q_importance_sample(sf_dir: str):
    """Size-biased corpus sampling: keep each document with probability
    min(1, n_chars * k / W) — inclusion proportional to length, the
    standard importance sampler for token-budgeted training mixes.
    Exact-integer predicate on both engines (full-precision threshold;
    HUGEINT twin in sampling.weighted_sample_sql), zero shuffle."""
    from dqm_ray.functions.sampling import weighted_sample

    return weighted_sample(
        _docs(sf_dir, columns=["doc_id", "n_chars"]),
        key_col="doc_id", weight_col="n_chars", target_k=120, seed=3)


def _q_top_terms(sf_dir: str):
    """Corpus heavy hitters: top-100 lowercase word tokens by frequency
    (ties by term) — per-batch Arrow tokenize + value_counts, vocabulary-
    bounded shuffle, distributed sort + limit."""
    from dqm_ray.functions.text import top_terms

    return top_terms(_docs(sf_dir, columns=["text"]), k=100)


def _q_boilerplate_lines(sf_dir: str):
    """C4/RefinedWeb-style line-level boilerplate removal over the
    synthetic code corpus (template-heavy: license banners and nav
    chrome repeat across files) — 2-content-pass count/clean shape with
    128-bit fingerprints, see dqm_ray/functions/boilerplate.py."""
    import ray.data as rd

    from dqm_ray.functions.boilerplate import remove_boilerplate_lines

    # one block per corpus shard: Ray's size heuristic would split the
    # 32 sf0.1 shards into ~224 blocks, and the groupby's sort-shuffle
    # overhead scales with block COUNT (~4 s of tiny tasks at sf0.1);
    # shard-sized blocks amortize it (filewise-runner lesson)
    paths = _corpus_paths(sf_dir)
    ds = rd.read_parquet(paths, columns=["path", "content"],
                         override_num_blocks=len(paths))
    return remove_boilerplate_lines(ds, text_col="content", id_col="path",
                                    min_len=10, min_docs=10)


def _q_doc_chunks(sf_dir: str):
    """Fixed-size overlapping character chunks per document (training
    -sequence / RAG prep) — embarrassingly parallel flat-map."""
    from dqm_ray.functions.text import chunk_docs

    return chunk_docs(_docs(sf_dir, columns=["doc_id", "text"]),
                      chunk_size=500, overlap=100)


def _q_anti_join_no_urgent(sf_dir: str):
    """Customers with no URGENT-priority order, counted per market
    segment — left anti join (distinct right keys broadcast, payload
    side never shuffles)."""
    import ray.data as rd
    import pyarrow.dataset as pads
    from ray.data.aggregate import Count

    from dqm_ray.functions.joins import anti_join

    cust = _read_sf(sf_dir, "customer",
                           columns=["c_custkey", "c_mktsegment"])
    urgent = _read_sf(
        sf_dir, "orders", columns=["o_custkey"],
        filter=(pads.field("o_orderpriority") == "1-URGENT"))
    left = anti_join(cust, urgent, on="c_custkey", right_on="o_custkey")
    return left.groupby("c_mktsegment").aggregate(
        Count(alias_name="n_customers"))


def _q_rollup_revenue(sf_dir: str):
    """Revenue rollup: (returnflag, linestatus) leaves + per-returnflag
    subtotals + grand total, exact integer cents. The rollup levels
    derive from the TINY leaf aggregate driver-side (exact for
    sum/count) — no extra pass over the fact table."""
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = _read_sf(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_extendedprice"])

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        ep = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "l_returnflag": batch.column("l_returnflag").to_pylist(),
            "l_linestatus": batch.column("l_linestatus").to_pylist(),
            "revenue_cents": np.round(ep * 100).astype(np.int64),
            "n_lines": np.ones(len(batch), dtype=np.int64),
        })
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    leaf = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["l_returnflag", "l_linestatus"]).aggregate(
            Sum("revenue_cents", alias_name="revenue_cents"),
            Sum("n_lines", alias_name="n_lines")).to_pandas()
    mid = leaf.groupby("l_returnflag", as_index=False)[
        ["revenue_cents", "n_lines"]].sum()
    mid["l_linestatus"] = "ALL"
    top = pd.DataFrame({
        "l_returnflag": ["ALL"], "l_linestatus": ["ALL"],
        "revenue_cents": [leaf["revenue_cents"].sum()],
        "n_lines": [leaf["n_lines"].sum()]})
    cols = ["l_returnflag", "l_linestatus", "revenue_cents", "n_lines"]
    out = pd.concat([leaf[cols], mid[cols], top[cols]], ignore_index=True)
    out["revenue_cents"] = out["revenue_cents"].astype(np.int64)
    out["n_lines"] = out["n_lines"].astype(np.int64)
    return pa.Table.from_pandas(out, preserve_index=False)


def _q_kmeans_embeddings(sf_dir: str):
    """Distributed Lloyd k-means over the embeddings table (k=8, 3
    assignment passes, deterministic init/ties) — flat (cluster, dim,
    centroid, n) output; oracle = the same 3 iterations unrolled in
    SQL."""
    import ray.data as rd

    from dqm_ray.functions.similarity import kmeans_embeddings

    ds = _read_sf(sf_dir, "embeddings",
                         columns=["vec_id", "embedding"])
    return kmeans_embeddings(ds, k=8, iters=3)


def _q_ccnet_buckets(sf_dir: str):
    """CCNet-style head/middle/tail quality split: per-language NTILE(3)
    over exact integer-micro perplexity (nano-quantized char-bigram LM,
    functions/ccnet.py) — the standard web-corpus quality partition."""
    from dqm_ray.corpus import training_text
    from dqm_ray.functions.ccnet import perplexity_buckets, quantize_logp
    from dqm_ray.stages.scorer import VectorBigramModel

    logq = quantize_logp(VectorBigramModel(training_text()).log_p)
    ds = _docs(sf_dir, columns=["doc_id", "text", "lang"])
    return perplexity_buckets(ds, logq, text_col="text",
                              lang_col="lang", id_col="doc_id",
                              n_buckets=3)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def queries() -> dict[str, Callable[[str], Any]]:
    _ensure_workers_can_import()
    return {
        # ORDER CONTRACT: the correctness driver gates the FIRST 50
        # entries. Slots 1-50 hold (a) the minimal set of queries that
        # together cover every SURVEY.md S2 operator, (b) asof_prior_view
        # (red r2-r4, fixed in r5 — needs its fresh green row), (c) the
        # nine queries that had never received a driver row before r5
        # (windowed_counts/revenue/peak, media_features,
        # importance_sample, jsonl/csv_ingest, knn_lsh, normalize_text),
        # and (d) queries whose code changed this round (knn_lsh,
        # grouped_split, knn_ivf{,_quantized}, boilerplate_lines +
        # flagship, whose oracle corpus cache / IVF index are now derived
        # from sf_dir instead of pinned to sf0.01). Entries past 50 all carry a
        # green CORRECTNESS_r01-r04 row and pass tools/selfcheck.py,
        # which replicates the driver compare (now strict on dtype kind).
        "flagship_quality": _q_flagship,
        "lineage_sha256": _q_lineage_sha256,
        "grouped_stats": _q_grouped_stats,
        "hist_n_chars": _q_hist_n_chars,
        "raw_sample": _q_raw_sample,
        "fourier_events": _q_fourier_events,
        "fourier_total": _q_fourier_total,
        "seg_revenue": _q_seg_revenue,
        "top_orders": _q_top_orders,
        "exact_dedup": _q_exact_dedup,
        "asof_prior_view": _q_asof_prior_view,
        "approx_distinct_users": _q_approx_distinct,
        "media_probe": _q_media_probe,
        "windowed_counts": _q_windowed_counts,
        "windowed_revenue": _q_windowed_revenue,
        "windowed_peak": _q_windowed_peak,
        "resume_semantics": _q_resume_semantics,
        "media_features": _q_media_features,
        "importance_sample": _q_importance_sample,
        "corpus_prep": _q_corpus_prep,
        "jsonl_ingest": _q_jsonl_ingest,
        "csv_ingest": _q_csv_ingest,
        "knn_lsh": _q_knn_lsh,
        "wire_formats": _q_wire_formats,
        "custom_rule_filter": _q_custom_rule_filter,
        "webprep": _q_webprep,
        "normalize_text": _q_normalize_text,
        "dup_report": _q_dup_report,
        "dataset_split": _q_dataset_split,
        "budget_sample": _q_budget_sample,
        "train_bigram_lm": _q_train_bigram_lm,
        "scrub_spans": _q_scrub_spans,
        "sample_exact_k": _q_sample_exact_k,
        "knn_ivf_quantized": _q_knn_ivf_quantized,
        "table_profile": _q_table_profile,
        "value_outliers": _q_value_outliers,
        "prep_report": _q_prep_report,
        "grouped_split": _q_grouped_split,
        "props_stats": _q_props_stats,
        "ccnet_buckets": _q_ccnet_buckets,
        "incremental_neardup": _q_incremental_neardup,
        "canonical_docs": _q_canonical_docs,
        "bloom_probe": _q_bloom_probe,
        "dedup_spans": _q_dedup_spans,
        "semantic_decontam": _q_semantic_decontam,
        "trending": _q_trending,
        "knn_ivf": _q_knn_ivf,
        "train_trigram_lm": _q_train_trigram_lm,
        "boilerplate_lines": _q_boilerplate_lines,
        "project_embeddings": _q_project_embeddings,
        "minhash_dedup": _q_minhash_dedup,
        "shuffle_order": _q_shuffle_order,
        "tfidf_keywords": _q_tfidf_keywords,
        "dedup_paragraphs": _q_dedup_paragraphs,
        "sketch_quantiles": _q_sketch_quantiles,
        "incremental_dedup": _q_incremental_dedup,
        "rate_limit": _q_rate_limit,
        "quantize_embeddings": _q_quantize_embeddings,
        "knn_quantized": _q_knn_quantized,
        "funnel_conversions": _q_funnel,
        "doc_line_stats": _q_doc_line_stats,
        "pii_scrub": _q_pii_scrub,
        "top_k_per_lang": _q_top_k_per_lang,
        "token_counts": _q_token_counts,
        "quality_score": _q_quality_score,
        "q1_pricing": _q_q1_pricing,
        "events_hourly": _q_events_hourly,
        "join_order_lines": _q_join_order_lines,
        "join_native": _q_join_native,
        "union_counts": _q_union_counts,
        "user_sessions": _q_user_sessions,
        "events_sliding": _q_events_sliding,
        "ngram_jaccard_pairs": _q_ngram_jaccard_pairs,
        "salted_group_stats": _q_salted_group_stats,
        "knn_cosine": _q_knn_cosine,
        "zscore_chars": _q_zscore_chars,
        "nl_langid": _q_nl_langid,
        "fingerprint": _q_fingerprint,
        "simhash_pairs": _q_simhash_pairs,
        "embedding_near_dup": _q_embedding_near_dup,
        "media_decode": _q_media_decode,
        "decontaminate": _q_decontaminate,
        "stratified_sample": _q_stratified_sample,
        "length_quantiles": _q_length_quantiles,
        "top_terms": _q_top_terms,
        "docprep": _q_docprep,
        "label_centroids": _q_label_centroids,
        "events_in_window": _q_events_in_window,
        "bucketed_join_revenue": _q_bucketed_join,
        "corpus_diff": _q_corpus_diff,
        "doc_chunks": _q_doc_chunks,
        "anti_join_no_urgent": _q_anti_join_no_urgent,
        "rollup_revenue": _q_rollup_revenue,
        "kmeans_embeddings": _q_kmeans_embeddings,
        "key_deltas": _q_key_deltas,
        "repetition_stats": _q_repetition_stats,
        "pack_sequences": _q_pack_sequences,
        "mixture_epochs": _q_mixture_epochs,
    }


_NL = "chr(10)"
_LINES = f"str_split(text, {_NL})"
_LENS = f"list_transform({_LINES}, x -> length(x))"

# ---------------------------------------------------------------------------
# flagship oracle: the end-to-end keep/drop/detected_lang/sha256/scrubbed
# contract re-derived in pure DuckDB SQL over the SAME cached corpus
# shards the Ray query reads, with the char-bigram model registered as a
# 128x128 parquet table (written once, deterministically).
# ---------------------------------------------------------------------------

_MODEL_PARQUET = os.path.join(_CACHE, "bigram_logp_v1.parquet")
_LOGQ_PARQUET = os.path.join(_CACHE, "bigram_logq_v1.parquet")


def _ensure_bigram_logq_parquet() -> str:
    """The nano-quantized INTEGER twin of the model parquet (ccnet.py's
    exactness contract: BIGINT sums instead of float SUM order)."""
    if not os.path.exists(_LOGQ_PARQUET):
        import pyarrow.parquet as pq

        from dqm_ray.corpus import training_text
        from dqm_ray.functions.ccnet import quantize_logp
        from dqm_ray.stages.scorer import VectorBigramModel

        logq = quantize_logp(VectorBigramModel(training_text()).log_p)
        c1, c2 = np.meshgrid(np.arange(128), np.arange(128), indexing="ij")
        os.makedirs(_CACHE, exist_ok=True)
        tmp = _LOGQ_PARQUET + f".tmp{os.getpid()}"
        pq.write_table(pa.table({
            "c1": pa.array(c1.ravel(), pa.int32()),
            "c2": pa.array(c2.ravel(), pa.int32()),
            "logq": pa.array(logq.ravel(), pa.int64()),
        }), tmp)
        os.replace(tmp, _LOGQ_PARQUET)
    return _LOGQ_PARQUET


def _ccnet_oracle_sql() -> str:
    """Per-doc exact integer perplexity (BIGINT sum of nano-quantized
    log-probs, single identically-ordered division, half-away micro
    rounding) + NTILE(3) by (ppl_micro, doc_id) per lang."""
    logq = _ensure_bigram_logq_parquet()
    return f"""
        WITH bg AS (
          SELECT doc_id,
                 least(unicode(substr(text, CAST(t.i AS INT), 1)),
                       127) AS c1,
                 least(unicode(substr(text, CAST(t.i AS INT) + 1, 1)),
                       127) AS c2
          FROM documents, unnest(range(1, length(text))) AS t(i)),
        ppl AS (
          SELECT doc_id,
                 CAST(round(CAST(-SUM(m.logq) AS DOUBLE)
                            / (1000.0 * COUNT(*))) AS BIGINT) AS ppl_micro
          FROM bg JOIN read_parquet('{logq}') m
               ON bg.c1 = m.c1 AND bg.c2 = m.c2
          GROUP BY doc_id),
        alld AS (
          SELECT d.doc_id, d.lang, COALESCE(p.ppl_micro, 0) AS ppl_micro
          FROM documents d LEFT JOIN ppl p USING (doc_id))
        SELECT doc_id, lang, ppl_micro,
               CAST(ntile(3) OVER (PARTITION BY lang
                                   ORDER BY ppl_micro, doc_id)
                    AS BIGINT) AS bucket
        FROM alld"""


def _ensure_bigram_model_parquet() -> str:
    """Materialize the scorer's deterministic char-bigram log-prob matrix
    (VectorBigramModel over corpus.training_text — same seed everywhere)
    as a (c1, c2, logp) parquet so SQL can reproduce log-perplexity."""
    if not os.path.exists(_MODEL_PARQUET):
        import pyarrow.parquet as pq

        from dqm_ray.corpus import training_text
        from dqm_ray.stages.scorer import VectorBigramModel

        m = VectorBigramModel(training_text())
        c1, c2 = np.meshgrid(np.arange(128), np.arange(128), indexing="ij")
        os.makedirs(_CACHE, exist_ok=True)
        tmp = _MODEL_PARQUET + f".tmp{os.getpid()}"
        pq.write_table(pa.table({
            "c1": pa.array(c1.ravel(), pa.int32()),
            "c2": pa.array(c2.ravel(), pa.int32()),
            "logp": pa.array(m.log_p.ravel(), pa.float64()),
        }), tmp)
        os.replace(tmp, _MODEL_PARQUET)
    return _MODEL_PARQUET


def _flagship_oracle_sql(sf: str = "sf0.01") -> str:
    """Compose the flagship keep/drop SQL from the same QualityConfig /
    LANG_MARKERS / AUTOGEN_MARKERS constants the Ray stages read, so the
    two sides cannot drift. The correctness gate runs at sf0.01; the
    corpus glob below is the deterministic cache the Ray query writes."""
    from dqm_ray.config import AUTOGEN_MARKERS, LANG_MARKERS, QualityConfig

    cfg = QualityConfig()
    corpus_glob = os.path.join(_CACHE, sf, "code_files_*.parquet")
    ws = "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"

    def sq(s: str) -> str:  # SQL single-quote literal
        return "'" + s.replace("'", "''") + "'"

    # per-language marker-hit totals over the scorer prefix:
    # count(marker) = (len(s) - len(replace(s, marker, ''))) / len(marker)
    hit_exprs = {}
    for lang, markers in LANG_MARKERS.items():
        terms = [f"(length(spfx) - length(replace(spfx, {sq(m)}, '')))"
                 f" / {len(m)}" for m in markers]
        hit_exprs[lang] = "(" + " + ".join(terms) + ")"
    langs = list(LANG_MARKERS.keys())
    mx = "greatest(" + ", ".join(f"h_{l}" for l in langs) + ")"
    # first-max-wins in LANG_MARKERS order (scorer argmax tie rule)
    detect_case = (f"CASE WHEN {mx} < {cfg.langid_min_marker_hits} "
                   "THEN 'unknown' "
                   + " ".join(f"WHEN h_{l} = {mx} THEN '{l}'" for l in langs)
                   + " END")
    # langs without a marker profile never mismatch (scorer uses sentinel 1)
    decl_hits = ("CASE lang "
                 + " ".join(f"WHEN '{l}' THEN h_{l}" for l in langs)
                 + " ELSE 1 END")
    autogen = " OR ".join(
        f"contains(substr(pfx, 1, {cfg.autogen_scan_chars}), {sq(m)})"
        for m in AUTOGEN_MARKERS)

    return f"""
        WITH src AS (
          SELECT repo, path, "commit", lang, content,
                 substr(content, 1, {cfg.analyze_prefix_chars}) AS pfx,
                 substr(content, 1, {cfg.scorer_prefix_chars}) AS spfx
          FROM read_parquet('{corpus_glob}')
          WHERE content IS NOT NULL
        ),
        feats AS (
          SELECT repo, path, "commit", lang, content, spfx,
                 length(trim(pfx, {ws})) = 0 AS is_empty,
                 list_max(list_transform(str_split(pfx, chr(10)),
                                         x -> length(x))) AS max_line_len,
                 CAST(list_sum(list_transform(str_split(pfx, chr(10)),
                                              x -> length(x))) AS DOUBLE)
                   / len(str_split(pfx, chr(10))) AS mean_line_len,
                 len(str_split(pfx, chr(10))) AS n_lines,
                 1.0 - CAST(len(list_distinct(str_split(pfx, chr(10))))
                            AS DOUBLE)
                     / len(str_split(pfx, chr(10))) AS dup_ratio,
                 CASE WHEN length(pfx) > 0 THEN
                   CAST(length(regexp_replace(pfx, '[^A-Za-z0-9]', '', 'g'))
                        AS DOUBLE) / length(pfx) ELSE 0.0 END AS alnum_frac,
                 ({autogen}) AS has_autogen,
                 {" , ".join(f"{hit_exprs[l]} AS h_{l}" for l in langs)},
                 len(str_split(spfx, chr(10))) AS sp_lines,
                 length(trim(spfx, {ws})) > 0 AS sp_nonblank
          FROM src
        ),
        bg AS (
          SELECT repo, path, "commit",
                 least(unicode(substr(spfx, CAST(t.i AS INT), 1)), 127) AS c1,
                 least(unicode(substr(spfx, CAST(t.i AS INT) + 1, 1)), 127) AS c2
          FROM feats, unnest(range(1, length(spfx))) AS t(i)
        ),
        pplt AS (
          SELECT repo, path, "commit",
                 -SUM(m.logp) / COUNT(*) AS log_ppl
          FROM bg JOIN read_parquet('{_MODEL_PARQUET}') m
               ON bg.c1 = m.c1 AND bg.c2 = m.c2
          GROUP BY repo, path, "commit"
        )
        SELECT f.repo, f.path, f."commit", f.lang,
               NOT (f.is_empty
                    OR f.max_line_len > {cfg.max_line_len}
                    OR (NOT f.is_empty
                        AND f.mean_line_len > {cfg.max_mean_line_len})
                    OR (NOT f.is_empty AND f.alnum_frac < {cfg.min_alnum_frac})
                    OR (f.n_lines >= {cfg.dup_min_lines}
                        AND f.dup_ratio > {cfg.max_dup_line_ratio})
                    OR f.has_autogen
                    OR (({decl_hits}) = 0 AND f.sp_lines >= {cfg.langid_min_lines}
                        AND f.sp_nonblank)
                    OR COALESCE(p.log_ppl, 0.0) > {cfg.max_log_ppl}) AS keep,
               {detect_case} AS detected_lang,
               sha256(f.content) AS sha256,
               {_SCRUB_SQL.replace("text", "f.content")} <> f.content AS scrubbed
        FROM feats f
        LEFT JOIN pplt p ON f.repo = p.repo AND f.path = p.path
                        AND f."commit" = p."commit"
    """

_SCRUB_SQL = ("regexp_replace(regexp_replace(regexp_replace(text, "
              r"'[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'), "
              r"'\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b', '<IP>', 'g'), "
              r"'\b(?:AKIA[0-9A-Z]{16}|ghp_[A-Za-z0-9]{36})\b', '<KEY>', 'g')")


def _sql_mulmod64(expr: str, const: int) -> str:
    """SQL for (expr * const) mod 2^64 without exceeding HUGEINT range:
    split expr into 32-bit halves so every product stays < 2^96."""
    M = 1 << 64
    return (f"((CAST(({expr}) >> 32 AS HUGEINT) * {(const << 32) % M} "
            f"+ CAST(({expr}) & 4294967295 AS HUGEINT) * {const}) % {M})")


_POLY_POWERS_PARQUET = os.path.join(_CACHE, "poly_powers_v1.parquet")


def _ensure_poly_powers_parquet() -> str:
    """(m, P^m mod 2^64) lookup for variable-length polynomial hashes in
    SQL (token hashes of any length up to 1024 bytes)."""
    if not os.path.exists(_POLY_POWERS_PARQUET):
        import pyarrow.parquet as pq

        from dqm_ray.functions.dedup import _POLY_P

        P, M = int(_POLY_P), 1 << 64
        mm = np.arange(1024)
        os.makedirs(_CACHE, exist_ok=True)
        tmp = _POLY_POWERS_PARQUET + f".tmp{os.getpid()}"
        pq.write_table(pa.table({
            "m": pa.array(mm, pa.int64()),
            "c": pa.array(np.array([pow(P, int(m), M) for m in mm],
                                   dtype=np.uint64), pa.uint64()),
        }), tmp)
        os.replace(tmp, _POLY_POWERS_PARQUET)
    return _POLY_POWERS_PARQUET


def _simhash_oracle_sql(max_hamming: int = 3) -> str:
    """simhash_candidates re-derived in SQL: regex token split (RE2 both
    sides, identical empty-token semantics) → per-token polynomial byte
    hash (powers table) → token-trigram combine (32-bit-split mulmod) →
    per-bit sign sums → 64-bit simhash → 16-bit-block buckets → pairs
    with bit_count(xor) ≤ max_hamming. Bitwise-identical to the Ray
    kernel."""
    M = 1 << 64
    P1, P2 = 0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F
    C = [P1, P2, (P2 * P2) % M]
    return f"""
        WITH toks AS MATERIALIZED (
          SELECT doc_id, t.i AS tok_i, arr[CAST(t.i AS INT)] AS tok
          FROM (SELECT doc_id,
                       regexp_split_to_array(lower(text),
                                             '[^a-z0-9_]+') AS arr
                FROM documents),
               unnest(range(1, len(arr)+1)) t(i)
        ),
        th AS MATERIALIZED (
          SELECT tb.doc_id, tb.tok_i,
                 CAST(SUM((CAST(tb.b AS HUGEINT) * pw.c) % {M}) % {M}
                      AS UBIGINT) AS h
          FROM (SELECT doc_id, tok_i, length(tok) AS tl, p.i AS pos,
                       unicode(substr(tok, CAST(p.i AS INT), 1)) AS b
                FROM toks, unnest(range(1, length(tok)+1)) p(i)) tb
          JOIN read_parquet('{_POLY_POWERS_PARQUET}') pw
            ON pw.m = tb.tl - tb.pos
          GROUP BY tb.doc_id, tb.tok_i
          UNION ALL
          SELECT doc_id, tok_i, 0 FROM toks WHERE length(tok) = 0
        ),
        lagged AS (
          SELECT doc_id, h,
                 lead(h,1) OVER win AS h1, lead(h,2) OVER win AS h2
          FROM th WINDOW win AS (PARTITION BY doc_id ORDER BY tok_i)
        ),
        grams AS MATERIALIZED (
          SELECT doc_id,
            CAST(({_sql_mulmod64('h', C[0])} + {_sql_mulmod64('h1', C[1])}
                  + {_sql_mulmod64('h2', C[2])}) % {M} AS UBIGINT) AS g
          FROM lagged WHERE h2 IS NOT NULL
        ),
        bits AS (
          SELECT doc_id, b.b AS bit,
                 SUM(CASE WHEN (g >> CAST(b.b AS INT)) & 1 = 1
                     THEN 1 ELSE -1 END) AS acc
          FROM grams, unnest(range(0, 64)) b(b)
          GROUP BY doc_id, b.b
        ),
        sh AS MATERIALIZED (
          SELECT d.doc_id, COALESCE(s.v, 0)::UBIGINT AS simhash
          FROM documents d LEFT JOIN (
            SELECT doc_id,
                   CAST(SUM(CASE WHEN acc > 0
                            THEN CAST(1 AS HUGEINT) << CAST(bit AS INT)
                            ELSE 0 END) AS UBIGINT) AS v
            FROM bits GROUP BY doc_id) s ON d.doc_id = s.doc_id
        ),
        buck AS (
          SELECT doc_id, simhash, blk.k AS blk,
                 (simhash >> CAST(16*blk.k AS INT)) & 65535 AS block
          FROM sh, unnest(range(0, 4)) blk(k)
        ),
        cand AS (
          SELECT DISTINCT x.doc_id AS id_a, y.doc_id AS id_b,
                 bit_count(xor(x.simhash, y.simhash)) AS hamming
          FROM buck x JOIN buck y
            ON x.blk = y.blk AND x.block = y.block AND x.doc_id < y.doc_id
        )
        SELECT id_a, id_b, CAST(hamming AS BIGINT) AS hamming
        FROM cand WHERE hamming <= {max_hamming}"""


_MINHASH_PERMS_PARQUET = os.path.join(_CACHE, "minhash_perms_v2.parquet")


def _ensure_minhash_perms_parquet() -> str:
    """Materialize the minhash permutation constants (seed 7 — identical
    in every worker) as a (j, a, b) parquet for the SQL oracle."""
    if not os.path.exists(_MINHASH_PERMS_PARQUET):
        import pyarrow.parquet as pq

        from dqm_ray.functions.dedup import _perm_params

        a, b = _perm_params(128, seed=7)
        os.makedirs(_CACHE, exist_ok=True)
        tmp = _MINHASH_PERMS_PARQUET + f".tmp{os.getpid()}"
        pq.write_table(pa.table({
            "j": pa.array(np.arange(128, dtype=np.int64)),
            "a": pa.array(a, pa.uint64()),
            "b": pa.array(b, pa.uint64()),
        }), tmp)
        os.replace(tmp, _MINHASH_PERMS_PARQUET)
    return _MINHASH_PERMS_PARQUET


def _minhash_sig_ctes(num_perm: int = 128, bands: int = 16,
                      k: int = 5) -> str:
    """The shared MinHash CTE block (``bytes`` … ``buck``): byte k-gram
    rolling hashes → per-permutation minima (permutation table
    registered as parquet) → per-band polynomial hashes → bucket keys.
    Every mod-2^64 wraparound is reproduced with HUGEINT arithmetic
    (32-bit-split products where a full 64x64 multiply could exceed
    2^127), so both consumers (minhash_dedup, incremental_neardup) are
    bitwise-identical to the Ray path, not approximate."""
    from dqm_ray.functions.dedup import _POLY_P

    P, M = int(_POLY_P), 1 << 64
    GOLD = 0x9E3779B97F4A7C15
    rpb = num_perm // bands
    c = [pow(P, m, M) for m in range(max(k, rpb))]
    gram_expr = " + ".join(
        f"(CAST(b{j} AS HUGEINT) * {c[k - 1 - j]}) % {M}" for j in range(k))
    leads = ", ".join(f"lead(b0, {j}) OVER win AS b{j}" for j in range(1, k))
    short_coef = " ".join(f"WHEN {m} THEN {c[m]}" for m in range(k - 1))
    # band-hash term s*c mod 2^64 via 32-bit split (s_hi*(c<<32) + s_lo*c)
    cases_hi = " ".join(f"WHEN {r} THEN {(c[rpb - 1 - r] << 32) % M}"
                        for r in range(rpb - 1)) + f" ELSE {(1 << 32) % M} END"
    cases_lo = " ".join(f"WHEN {r} THEN {c[rpb - 1 - r]}"
                        for r in range(rpb - 1)) + " ELSE 1 END"
    bh_term = (f"((CAST(s >> 32 AS HUGEINT) * (CASE j % {rpb} {cases_hi}) "
               f"+ CAST(s & 4294967295 AS HUGEINT) * "
               f"(CASE j % {rpb} {cases_lo})) % {M})")
    return f"""bytes AS MATERIALIZED (
          SELECT doc_id, t.i, length(text) AS L,
                 unicode(substr(text, CAST(t.i AS INT), 1)) AS b0
          FROM documents, unnest(range(1, length(text)+1)) t(i)
        ),
        w AS (
          SELECT doc_id, i, L, b0, {leads}
          FROM bytes WINDOW win AS (PARTITION BY doc_id ORDER BY i)
        ),
        grams AS MATERIALIZED (
          SELECT DISTINCT doc_id, CAST(({gram_expr}) % {M} AS UBIGINT) AS gram
          FROM w WHERE L >= {k} AND i <= L - {k} + 1
          UNION
          SELECT doc_id, CAST(SUM((CAST(b0 AS HUGEINT) *
                   (CASE L - i {short_coef} END)) % {M}) % {M} AS UBIGINT)
          FROM bytes WHERE L < {k} GROUP BY doc_id
          UNION
          SELECT doc_id, 0 FROM documents WHERE length(text) = 0
        ),
        sigv AS MATERIALIZED (
          SELECT g.doc_id, p.j,
                 min(CAST((CAST(p.a AS HUGEINT) * g.gram + p.b) % {M}
                          AS UBIGINT)) AS s
          FROM grams g
          CROSS JOIN read_parquet('{_MINHASH_PERMS_PARQUET}') p
          GROUP BY g.doc_id, p.j
        ),
        bandh AS (
          SELECT doc_id, CAST(j // {rpb} AS INT) AS band,
                 CAST(SUM({bh_term}) % {M} AS UBIGINT) AS bh
          FROM sigv GROUP BY doc_id, CAST(j // {rpb} AS INT)
        ),
        buck AS MATERIALIZED (
          SELECT doc_id,
            CAST((CAST(bh AS HUGEINT) + CAST(band AS HUGEINT) * {GOLD}) % {M}
                 AS UBIGINT) AS bucket_key
          FROM bandh
        )"""


def _minhash_oracle_sql(num_perm: int = 128, bands: int = 16, k: int = 5,
                        threshold: float = 0.8) -> str:
    """The ENTIRE MinHash+LSH dedup chain in SQL: the shared signature
    CTEs (_minhash_sig_ctes) → candidate pairs → signature-Jaccard
    filter → connected components as a recursive transitive closure
    with min-label."""
    return f"""
        WITH RECURSIVE {_minhash_sig_ctes(num_perm, bands, k)},
        cand AS (
          SELECT DISTINCT x.doc_id AS id_a, y.doc_id AS id_b
          FROM buck x JOIN buck y
            ON x.bucket_key = y.bucket_key AND x.doc_id < y.doc_id
        ),
        est AS (
          SELECT cd.id_a, cd.id_b,
                 SUM(CASE WHEN sa.s = sb.s THEN 1 ELSE 0 END)
                   / {float(num_perm)} AS e
          FROM cand cd
          JOIN sigv sa ON sa.doc_id = cd.id_a
          JOIN sigv sb ON sb.doc_id = cd.id_b AND sb.j = sa.j
          GROUP BY cd.id_a, cd.id_b
        ),
        edges AS MATERIALIZED (
          SELECT id_a, id_b FROM est WHERE e >= {threshold}),
        nodes AS (SELECT id_a AS n FROM edges UNION SELECT id_b FROM edges),
        ud AS (SELECT id_a AS u, id_b AS v FROM edges
               UNION SELECT id_b, id_a FROM edges),
        reach(n, r) AS (
          SELECT n, n FROM nodes
          UNION
          SELECT ud.u, reach.r FROM ud JOIN reach ON ud.v = reach.n
        )
        SELECT n AS doc_id, CAST(min(r) AS BIGINT) AS dup_group
        FROM reach GROUP BY n"""


def _incremental_neardup_oracle_sql(num_perm: int = 128, bands: int = 16,
                                    k: int = 5,
                                    threshold: float = 0.8) -> str:
    """Evens-vs-odds split over the same bitwise signature CTEs: an odd
    (ingest) doc is dropped iff it shares a band bucket with an even
    (index) doc AND the verified signature Jaccard crosses the
    threshold."""
    return f"""
        WITH {_minhash_sig_ctes(num_perm, bands, k)},
        cand AS (
          SELECT DISTINCT x.doc_id AS new_id, y.doc_id AS old_id
          FROM buck x JOIN buck y ON x.bucket_key = y.bucket_key
          WHERE x.doc_id % 2 = 1 AND y.doc_id % 2 = 0
        ),
        est AS (
          SELECT cd.new_id, cd.old_id,
                 SUM(CASE WHEN sa.s = sb.s THEN 1 ELSE 0 END)
                   / {float(num_perm)} AS e
          FROM cand cd
          JOIN sigv sa ON sa.doc_id = cd.new_id
          JOIN sigv sb ON sb.doc_id = cd.old_id AND sb.j = sa.j
          GROUP BY cd.new_id, cd.old_id
        ),
        dups AS (SELECT DISTINCT new_id FROM est WHERE e >= {threshold})
        SELECT doc_id, lang, n_chars FROM documents
        WHERE doc_id % 2 = 1
          AND doc_id NOT IN (SELECT new_id FROM dups)"""


_EMB_PROJ_PARQUET = os.path.join(_CACHE, "emb_proj_v1.parquet")


def _embedding_dim() -> int:
    """Vector width probed from whichever test-scale embeddings table
    exists (all scales share one dim by the fixture contract)."""
    import pyarrow.parquet as pq

    for sf in ("sf0.01", "sf0.001", "sf0.1"):
        p = f"/root/testdata/{sf}/embeddings.parquet"
        if os.path.exists(p):
            return len(pq.read_table(p, columns=["embedding"])
                       .column("embedding")[0])
    raise FileNotFoundError("no embeddings.parquet under /root/testdata")


def _ensure_emb_proj_parquet() -> str:
    """Materialize project_embeddings' seeded Gaussian matrix (seed 17,
    same rng call order) as a (d 1-based, p, v) parquet for the SQL
    twin."""
    if not os.path.exists(_EMB_PROJ_PARQUET):
        import pyarrow.parquet as pq

        n_dim, out_dim = _embedding_dim(), 16
        h = np.random.default_rng(17).standard_normal((n_dim, out_dim))
        d_idx, p_idx = np.meshgrid(np.arange(1, n_dim + 1),
                                   np.arange(out_dim), indexing="ij")
        os.makedirs(_CACHE, exist_ok=True)
        tmp = _EMB_PROJ_PARQUET + f".tmp{os.getpid()}"
        pq.write_table(pa.table({
            "d": pa.array(d_idx.ravel(), pa.int32()),
            "p": pa.array(p_idx.ravel(), pa.int32()),
            "v": pa.array(h.ravel(), pa.float64()),
        }), tmp)
        os.replace(tmp, _EMB_PROJ_PARQUET)
    return _EMB_PROJ_PARQUET


def _project_oracle_sql() -> str:
    return f"""
        SELECT e.vec_id, CAST(m.p AS BIGINT) AS p,
               round(SUM(CAST(e.embedding[CAST(m.d AS INT)] AS DOUBLE)
                         * m.v), 6) AS value
        FROM embeddings e
        JOIN read_parquet('{_ensure_emb_proj_parquet()}') m ON true
        GROUP BY e.vec_id, m.p"""


_EMB_PLANES_PARQUET = os.path.join(_CACHE, "emb_planes_v1.parquet")


def _ensure_emb_planes_parquet() -> str:
    """Materialize the LSH random hyperplanes (seed 13, same rng as
    embedding_near_dup's bucketize) as a (d, p, v) parquet."""
    if not os.path.exists(_EMB_PLANES_PARQUET):
        import pyarrow.parquet as pq

        n_dim = _embedding_dim()
        rng = np.random.default_rng(13)
        h = rng.standard_normal((n_dim, 4))
        d_idx, p_idx = np.meshgrid(np.arange(1, n_dim + 1), np.arange(4),
                                   indexing="ij")
        os.makedirs(_CACHE, exist_ok=True)
        tmp = _EMB_PLANES_PARQUET + f".tmp{os.getpid()}"
        pq.write_table(pa.table({
            "d": pa.array(d_idx.ravel(), pa.int32()),
            "p": pa.array(p_idx.ravel(), pa.int32()),
            "v": pa.array(h.ravel(), pa.float64()),
        }), tmp)
        os.replace(tmp, _EMB_PLANES_PARQUET)
    return _EMB_PLANES_PARQUET


def _embedding_near_dup_oracle_sql(threshold: float = 0.25) -> str:
    """Sign-bucket LSH + exact cosine verify in SQL: per-vector dot with
    each registered hyperplane → sign-bit bucket; pairs within a bucket
    with cosine ≥ threshold (filtered unrounded, output round(6) —
    matching the Ray side's rounding; sign/threshold compares are robust
    to the float-sum-order difference, the rounded cosine is exact)."""
    return f"""
        WITH comp AS (
          SELECT e.vec_id, h.p,
                 SUM(CAST(e.embedding[CAST(h.d AS INT)] AS DOUBLE) * h.v)
                   AS dot
          FROM embeddings e
          JOIN read_parquet('{_EMB_PLANES_PARQUET}') h ON true
          GROUP BY e.vec_id, h.p
        ),
        b AS (
          SELECT vec_id,
                 SUM(CASE WHEN dot > 0 THEN CAST(1 << p AS BIGINT)
                     ELSE 0 END) AS bucket
          FROM comp GROUP BY vec_id
        ),
        pairs AS (
          SELECT x.vec_id AS id_a, y.vec_id AS id_b,
                 list_cosine_similarity(CAST(ea.embedding AS DOUBLE[]),
                                        CAST(eb.embedding AS DOUBLE[])) AS sim
          FROM b x JOIN b y ON x.bucket = y.bucket AND x.vec_id < y.vec_id
          JOIN embeddings ea ON ea.vec_id = x.vec_id
          JOIN embeddings eb ON eb.vec_id = y.vec_id
        )
        SELECT id_a, id_b, round(sim, 6) AS cosine
        FROM pairs WHERE sim >= {threshold}"""


_MEDIA_SRC_PARQUET = os.path.join(_CACHE, "media_src_v3.parquet")


def _ensure_media_src_parquet() -> str:
    """Materialize the deterministic synthesized media table (seed 21 —
    the same table _q_media_decode builds in-process) so SQL can verify
    the decode stage's metadata output."""
    if not os.path.exists(_MEDIA_SRC_PARQUET):
        import pyarrow.parquet as pq

        from dqm_ray.functions.multimodal import synthesize_media_table

        os.makedirs(_CACHE, exist_ok=True)
        tmp = _MEDIA_SRC_PARQUET + f".tmp{os.getpid()}"
        pq.write_table(synthesize_media_table(n_rows=64, seed=21), tmp)
        os.replace(tmp, _MEDIA_SRC_PARQUET)
    return _MEDIA_SRC_PARQUET


def _media_decode_oracle_sql() -> str:
    """decode_media's metadata contract in SQL over the registered
    synthesized payload table: byte length + sha256 of the uppercase-hex
    payload encoding (DuckDB's sha256 takes VARCHAR; hex() is uppercase,
    matching the stage's checksum definition)."""
    return f"""
        SELECT media_id, kind,
               octet_length(payload) AS n_bytes,
               substr(sha256(hex(payload)), 1, 16) AS checksum
        FROM read_parquet('{_MEDIA_SRC_PARQUET}')"""


def _knn_lsh_oracle_sql(sf_dir: str = "/root/testdata/sf0.01",
                        n_planes: int = 6, n_probe_bits: int = 4) -> str:
    """knn_lsh bitwise in SQL: int8 quantization (the
    quantize_embeddings CTE), exact-integer plane projections from the
    pinned ±1 plane parquet, bucket bits, each query's OWN multi-probe
    set (own bucket + lowest-|proj| flips, ties by plane), the per-query
    candidate filter, and the knn_quantized ranking key."""
    import pyarrow.parquet as pq

    from dqm_ray.functions.similarity import build_lsh_planes

    dim = len(pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                            columns=["embedding"]).column("embedding")[0])
    build_lsh_planes(dim, n_planes, 5, cache_dir=_CACHE)  # ensure pinned
    planes = os.path.join(_CACHE,
                          f"lsh_planes_{dim}x{n_planes}_s5.parquet")
    return f"""
        WITH dd AS (SELECT vec_id,
                           list_transform(embedding,
                               x -> CAST(x AS DOUBLE)) AS v
                    FROM embeddings),
        s AS (SELECT vec_id, v,
                     list_max(list_transform(v, x -> abs(x))) / 127.0
                         AS scale
              FROM dd),
        e AS (SELECT vec_id, scale, u.dim AS dim,
                     CAST(CASE WHEN scale = 0 THEN 0
                               WHEN u.x < 0
                               THEN -floor(abs(u.x) / scale + 0.5)
                               ELSE floor(abs(u.x) / scale + 0.5)
                          END AS BIGINT) AS q
              FROM (SELECT vec_id, scale,
                           unnest(list_transform(range(1, len(v) + 1),
                             i -> struct_pack(dim := i - 1,
                                              x := v[i]))) AS u
                    FROM s) t),
        pl AS (SELECT plane, dim, sgn
               FROM read_parquet('{planes}')),
        proj AS (SELECT e.vec_id, pl.plane,
                        CAST(SUM(e.q * pl.sgn) AS BIGINT) AS pr
                 FROM e JOIN pl USING (dim)
                 GROUP BY e.vec_id, pl.plane),
        buck AS (SELECT vec_id,
                        CAST(SUM(CASE WHEN pr >= 0
                                 THEN 1 << plane ELSE 0 END) AS BIGINT)
                            AS bucket
                 FROM proj GROUP BY vec_id),
        flips AS (SELECT vec_id, plane
                  FROM (SELECT vec_id, plane,
                               row_number() OVER (PARTITION BY vec_id
                                   ORDER BY abs(pr), plane) AS rn
                        FROM proj WHERE vec_id < 4)
                  WHERE rn <= {n_probe_bits}),
        pset AS (SELECT DISTINCT qid, b FROM (
                   SELECT vec_id AS qid, bucket AS b
                   FROM buck WHERE vec_id < 4
                   UNION ALL
                   SELECT bk.vec_id,
                          xor(bk.bucket, CAST(1 << f.plane AS BIGINT))
                   FROM buck bk JOIN flips f USING (vec_id))),
        cand AS (SELECT p.qid, bk.vec_id
                 FROM buck bk JOIN pset p ON bk.bucket = p.b),
        dots AS (SELECT c.vec_id AS vec_id, c.qid AS qid,
                        CAST(SUM(e.q * qs.q) AS BIGINT) AS di,
                        any_value(e.scale) AS se,
                        any_value(qs.scale) AS sq
                 FROM cand c
                 JOIN e ON e.vec_id = c.vec_id
                 JOIN e qs ON qs.vec_id = c.qid AND qs.dim = e.dim
                 GROUP BY c.vec_id, c.qid)
        SELECT qid AS query_id, vec_id, CAST(rn AS BIGINT) AS rank,
               round(CAST(di AS DOUBLE) * se * sq, 6) AS score
        FROM (SELECT *, row_number() OVER (PARTITION BY qid
                   ORDER BY CAST(di AS DOUBLE) * se * sq DESC,
                            vec_id) AS rn
              FROM dots) WHERE rn <= 10"""


def _media_features_oracle_sql() -> str:
    """Feature-extraction contract: the synth-time expectations (same
    numpy kernel as the stage, computed on the pre-encode arrays)."""
    return f"""
        SELECT media_id, kind, thumb_sum, energy_sum
        FROM read_parquet('{_MEDIA_SRC_PARQUET}')
        WHERE kind != 'video'"""


def _media_probe_oracle_sql() -> str:
    """Strict-decode contract: the source table's pre-encode
    ground-truth metadata (computed from the raw pixel/sample arrays
    BEFORE container encoding). The Ray side recovers the same values
    from the container BYTES via the built-in BMP/WAV codecs, so this
    differential proves decode inverts encode."""
    return f"""
        SELECT media_id, kind,
               octet_length(payload) AS n_bytes,
               width, height, n_channels, sample_rate, n_samples, val_sum
        FROM read_parquet('{_MEDIA_SRC_PARQUET}')
        WHERE kind != 'video'"""


def _fourier_events_oracle_sql(n_points: int = 256) -> str:
    """fourier_by_key in SQL as an O(n^2) DFT: re/im sums against exact
    cos/sin twiddles per (key, freq). numpy's FFT and the naive sum
    differ only by accumulation order (~1e-12 absolute here), so both
    sides round magnitudes to 6 decimals — the comparison is exact."""
    half = n_points // 2 + 1
    return f"""
        WITH s AS (
          SELECT event_type, value,
                 row_number() OVER (PARTITION BY event_type
                                    ORDER BY event_id) - 1 AS j,
                 count(*) OVER (PARTITION BY event_type) AS cnt
          FROM events
          QUALIFY j < {n_points} AND cnt >= {n_points}
        ),
        f AS (
          SELECT event_type, k.k AS freq_idx,
                 SUM(value * cos(2*pi()*j*k.k/{n_points}.0)) AS re,
                 SUM(value * sin(2*pi()*j*k.k/{n_points}.0)) AS im
          FROM s, unnest(range(0, {half})) k(k)
          GROUP BY event_type, k.k
        )
        SELECT event_type, CAST(freq_idx AS BIGINT) AS freq_idx,
               round(sqrt(re*re + im*im), 6) AS magnitude
        FROM f"""


def _fourier_total_oracle_sql(n_points: int = 256) -> str:
    """fourier_total in SQL: by FFT linearity the summed-series
    transform equals the DFT of the per-position sum over qualifying
    keys — same O(n^2) twiddle sum and round(6) as fourier_events."""
    half = n_points // 2 + 1
    return f"""
        WITH s AS (
          SELECT event_type, value,
                 row_number() OVER (PARTITION BY event_type
                                    ORDER BY event_id) - 1 AS j,
                 count(*) OVER (PARTITION BY event_type) AS cnt
          FROM events
          QUALIFY j < {n_points} AND cnt >= {n_points}
        ),
        tot AS (SELECT j, SUM(value) AS v FROM s GROUP BY j),
        f AS (
          SELECT k.k AS freq_idx,
                 SUM(v * cos(2*pi()*j*k.k/{n_points}.0)) AS re,
                 SUM(v * sin(2*pi()*j*k.k/{n_points}.0)) AS im
          FROM tot, unnest(range(0, {half})) k(k)
          GROUP BY k.k
        )
        SELECT CAST(freq_idx AS BIGINT) AS freq_idx,
               round(sqrt(re*re + im*im), 6) AS magnitude
        FROM f"""


def _nl_langid_oracle_sql() -> str:
    """Stopword-profile langid in SQL: non-overlapping ' word ' counts on
    the space-padded lowercase text (replace() and Arrow count_substring
    share left-to-right non-overlapping semantics), first-max-wins in
    NL_STOPWORDS key order — exactly nl_langid_batch."""
    from dqm_ray.functions.text import NL_STOPWORDS

    langs = list(NL_STOPWORDS.keys())
    hit_exprs = []
    for lang in langs:
        terms = [f"(length(p) - length(replace(p, ' {w} ', ''))) / {len(w) + 2}"
                 for w in NL_STOPWORDS[lang]]
        hit_exprs.append("(" + " + ".join(terms) + f") AS h_{lang}")
    mx = "greatest(" + ", ".join(f"h_{l}" for l in langs) + ")"
    case = (f"CASE WHEN {mx} = 0 THEN 'unknown' "
            + " ".join(f"WHEN h_{l} = {mx} THEN '{l}'" for l in langs)
            + " END")
    return f"""
        SELECT doc_id, {case} AS detected_lang
        FROM (SELECT doc_id, {", ".join(hit_exprs)}
              FROM (SELECT doc_id, ' ' || lower(text) || ' ' AS p
                    FROM documents))"""


def _fingerprint_oracle_sql(ngram: int = 8) -> str:
    """fingerprint_batch in SQL: min over byte n-grams of the rolling
    uint64 hash g = ((b0*P)*P + b1)*P + ... (wraparound), short rows
    (< n bytes) take the min raw byte, empty rows 0. The stepwise mod-2^64
    wraparound equals one final mod of Σ b_j * (P^pow mod 2^64), so the
    per-position coefficients are precomputed here with numpy uint64."""
    P = np.uint64(0x100000001B3)
    coef = [P ** np.uint64(ngram)] + [P ** np.uint64(ngram - 1 - j)
                                      for j in range(1, ngram)]
    hash_expr = " + ".join(
        f"CAST(b{j} AS HUGEINT) * {int(c)}" for j, c in enumerate(coef))
    leads = ", ".join(
        f"lead(b0, {j}) OVER (PARTITION BY doc_id ORDER BY i) AS b{j}"
        for j in range(1, ngram))
    return f"""
        WITH bytes AS (
          SELECT doc_id, t.i, unicode(substr(text, CAST(t.i AS INT), 1)) AS b0
          FROM documents, unnest(range(1, length(text) + 1)) t(i)
        ),
        w AS (
          SELECT doc_id, b0, {leads},
                 count(*) OVER (PARTITION BY doc_id) AS len
          FROM bytes
        ),
        h AS (
          SELECT doc_id,
                 CASE WHEN max(len) >= {ngram} THEN
                   min(CASE WHEN b{ngram - 1} IS NOT NULL THEN
                     CAST(({hash_expr}) % 18446744073709551616 AS UBIGINT)
                   END)
                 ELSE min(CAST(b0 AS UBIGINT)) END AS fingerprint
          FROM w GROUP BY doc_id
        )
        SELECT d.doc_id, COALESCE(h.fingerprint, 0)::UBIGINT AS fingerprint
        FROM documents d LEFT JOIN h ON d.doc_id = h.doc_id"""


def _gram_ctes(k: int = _DECONTAM_K) -> str:
    """CTE fragment computing the distinct rolling k-byte-gram hashes of
    every document (same polynomial family as the Ray kernel; whole-doc
    hash for short docs; HUGEINT mod-2^64)."""
    from dqm_ray.functions.dedup import _POLY_P

    P, M = int(_POLY_P), 1 << 64
    c = [pow(P, m, M) for m in range(k)]
    gram_expr = " + ".join(
        f"(CAST(b{j} AS HUGEINT) * {c[k - 1 - j]}) % {M}" for j in range(k))
    leads = ", ".join(f"lead(b0, {j}) OVER win AS b{j}" for j in range(1, k))
    short_coef = " ".join(f"WHEN {m} THEN {c[m]}" for m in range(k - 1))
    return f"""bytes AS MATERIALIZED (
          SELECT doc_id, t.i, length(text) AS L,
                 unicode(substr(text, CAST(t.i AS INT), 1)) AS b0
          FROM documents, unnest(range(1, length(text)+1)) t(i)
        ),
        w AS (
          SELECT doc_id, i, L, b0, {leads}
          FROM bytes WINDOW win AS (PARTITION BY doc_id ORDER BY i)
        ),
        grams AS MATERIALIZED (
          SELECT DISTINCT doc_id, CAST(({gram_expr}) % {M} AS UBIGINT) AS gram
          FROM w WHERE L >= {k} AND i <= L - {k} + 1
          UNION
          SELECT doc_id, CAST(SUM((CAST(b0 AS HUGEINT) *
                   (CASE L - i {short_coef} END)) % {M}) % {M} AS UBIGINT)
          FROM bytes WHERE L < {k} GROUP BY doc_id
          UNION
          SELECT doc_id, 0 FROM documents WHERE length(text) = 0
        ),
        pos_grams AS (
          SELECT doc_id, i, CAST(({gram_expr}) % {M} AS UBIGINT) AS gram
          FROM w WHERE L >= {k} AND i <= L - {k} + 1
        )"""


def _decontam_oracle_sql(k: int = _DECONTAM_K,
                         bench_mod: int = _BENCH_MOD) -> str:
    """Decontamination re-derived in SQL: benchmark side = doc_id %
    bench_mod == 0, contaminated = shares any distinct k-gram hash."""
    return f"""
        WITH {_gram_ctes(k)},
        bench AS (SELECT DISTINCT gram FROM grams
                  WHERE doc_id % {bench_mod} = 0)
        SELECT g.doc_id, count(DISTINCT g.gram) AS n_matched
        FROM grams g JOIN bench USING (gram)
        WHERE g.doc_id % {bench_mod} <> 0
        GROUP BY g.doc_id"""


def _span_scrub_oracle_sql(k: int = _DECONTAM_K,
                           bench_mod: int = _BENCH_MOD) -> str:
    """Span-level decontamination in SQL: matched k-gram START
    positions come from pos_grams; the cover set is the union of
    [i, i+k) per hit; cleaned text = string_agg of uncovered chars in
    order (byte == codepoint — the ASCII precondition the gram CTEs
    already rely on)."""
    return f"""
        WITH {_gram_ctes(k)},
        bench AS (SELECT DISTINCT gram FROM grams
                  WHERE doc_id % {bench_mod} = 0),
        hits AS (SELECT p.doc_id, p.i FROM pos_grams p
                 JOIN bench USING (gram)
                 WHERE p.doc_id % {bench_mod} <> 0),
        cover AS (SELECT DISTINCT h.doc_id, h.i + t.d AS pos
                  FROM hits h, unnest(range(0, {k})) t(d)),
        corpus AS (SELECT doc_id FROM documents
                   WHERE doc_id % {bench_mod} <> 0),
        agg AS (
          SELECT b.doc_id,
                 coalesce(string_agg(chr(b.b0), '' ORDER BY b.i)
                          FILTER (WHERE c.pos IS NULL), '') AS text,
                 CAST(count(c.pos) AS BIGINT) AS n_chars_removed
          FROM bytes b
          LEFT JOIN cover c ON b.doc_id = c.doc_id AND b.i = c.pos
          WHERE b.doc_id % {bench_mod} <> 0
          GROUP BY b.doc_id),
        nh AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_hits
               FROM hits GROUP BY doc_id)
        SELECT c.doc_id, coalesce(a.text, '') AS text,
               coalesce(n.n_hits, 0) AS n_hits,
               coalesce(a.n_chars_removed, 0) AS n_chars_removed
        FROM corpus c LEFT JOIN agg a USING (doc_id)
        LEFT JOIN nh n USING (doc_id)"""


# quality_score_batch re-derived as one SQL expression over `text` —
# identical IEEE op order to the Ray kernel (shared by the quality_score
# and docprep oracles)
_QUALITY_EXPR = """0.25 * (
              least(greatest(length(text) / 500.0, 0.0), 1.0)
              + least(greatest(
                  CAST(len(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS DOUBLE)
                  / greatest(length(text) / 6.0, 1.0), 0.0), 1.0)
              + (1.0 - least(greatest(
                  CAST(len(regexp_extract_all(text, '[.,;:!?]')) AS DOUBLE)
                  / greatest(CAST(len(regexp_extract_all(text, '[A-Za-z0-9_]+'))
                             AS DOUBLE), 1.0), 0.0), 1.0))
              + least(greatest(
                  CAST(len(regexp_extract_all(text, ' ')) AS DOUBLE)
                  / greatest(CAST(len(regexp_extract_all(text, '[A-Za-z0-9_]+'))
                             AS DOUBLE), 1.0), 0.0), 1.0)
            )"""


def _span_cut_ctes(k: int) -> str:
    """The span-cut CTE block (anchors → agg) shared by the
    dedup_spans and webprep oracles — one builder so the two sides
    cannot drift (the zscore_sql pattern)."""
    return f"""anchors AS (
          SELECT gram, min(doc_id * 4294967296 + i - 1) AS w
          FROM pos_grams WHERE (i - 1) % {k} = 0 GROUP BY gram),
        hits AS (
          SELECT p.doc_id, p.i FROM pos_grams p
          JOIN anchors a USING (gram)
          WHERE a.w < p.doc_id * 4294967296 + p.i - 1),
        cover AS (SELECT DISTINCT h.doc_id, h.i + t.d AS pos
                  FROM hits h, unnest(range(0, {k})) t(d)),
        agg AS (
          SELECT b.doc_id,
                 coalesce(string_agg(chr(b.b0), '' ORDER BY b.i)
                          FILTER (WHERE c.pos IS NULL), '') AS text,
                 CAST(count(c.pos) AS BIGINT) AS n_cut
          FROM bytes b
          LEFT JOIN cover c ON b.doc_id = c.doc_id AND b.i = c.pos
          GROUP BY b.doc_id)"""


def _dedup_spans_oracle_sql(k: int = _SPAN_K) -> str:
    """Span dedup in SQL over the shared gram CTEs: stride-anchored
    min packed (doc << 32 | pos) winner per gram; positions whose gram
    has a strictly-smaller winner are covered; cleaned text =
    string_agg of uncovered chars (the scrub_spans oracle kernel)."""
    return f"""
        WITH {_gram_ctes(k)},
        {_span_cut_ctes(k)}
        SELECT d.doc_id,
               CASE WHEN d.text IS NOT NULL THEN coalesce(a.text, '')
               END AS text,
               coalesce(a.n_cut, 0) AS n_cut
        FROM documents d LEFT JOIN agg a USING (doc_id)"""


def _dedup_paragraphs_oracle_sql() -> str:
    """Paragraph dedup in SQL: winner = min(doc_id * 2^20 + idx) per
    distinct paragraph text (same packing as paragraphs.py POS_BITS);
    empties never participate; every doc appears, all-dup docs with
    text '', a null text (str_split unnests it to no rows) null with
    0 / 0."""
    return """
            WITH base AS (
              SELECT doc_id, str_split(text, chr(10)||chr(10)) AS paras
              FROM documents),
            occ AS (
              SELECT doc_id, q.para AS para, q.idx AS idx FROM (
                SELECT doc_id,
                       unnest(list_transform(range(1, len(paras) + 1),
                         i -> struct_pack(para := paras[i],
                                          idx := i - 1))) AS q
                FROM base) t),
            w AS (SELECT para, min(doc_id * 1048576 + idx) AS wpos
                  FROM occ WHERE length(para) >= 1 GROUP BY para),
            k AS (SELECT o.doc_id, o.para, o.idx,
                         (length(o.para) < 1
                          OR o.doc_id * 1048576 + o.idx = w.wpos) AS keep
                  FROM occ o LEFT JOIN w ON o.para = w.para),
            a AS (
              SELECT doc_id,
                     coalesce(string_agg(para, chr(10)||chr(10)
                              ORDER BY idx) FILTER (WHERE keep), '')
                         AS text,
                     CAST(count(*) FILTER (WHERE keep) AS BIGINT)
                         AS n_kept,
                     CAST(count(*) FILTER (WHERE NOT keep) AS BIGINT)
                         AS n_dropped
              FROM k GROUP BY doc_id)
            SELECT d.doc_id, a.text, coalesce(a.n_kept, 0) AS n_kept,
                   coalesce(a.n_dropped, 0) AS n_dropped
            FROM documents d LEFT JOIN a USING (doc_id)"""


def _zscore_oracle_sql() -> str:
    """grouped_zscore's pinned-IEEE contract, built by the same module
    (skew.zscore_sql) so the two sides cannot drift."""
    from dqm_ray.functions.skew import zscore_sql

    return zscore_sql("lang", "n_chars")


def _webprep_oracle_sql() -> str:
    """The webprep chain as ONE SQL program: span-cut CTEs (cleaned
    text + n_cut, shared builder) -> integer perplexity over the
    cleaned text -> ntile per lang -> keep head+middle."""
    logq = _ensure_bigram_logq_parquet()
    return f"""
        WITH {_gram_ctes(_SPAN_K)},
        {_span_cut_ctes(_SPAN_K)},
        cleaned AS (
          SELECT d.doc_id, d.lang, coalesce(a.text, '') AS text,
                 coalesce(a.n_cut, 0) AS n_cut
          FROM documents d LEFT JOIN agg a USING (doc_id)),
        b2 AS (
          SELECT doc_id,
                 least(unicode(substr(text, CAST(t.i AS INT), 1)),
                       127) AS c1,
                 least(unicode(substr(text, CAST(t.i AS INT) + 1, 1)),
                       127) AS c2
          FROM cleaned, unnest(range(1, length(text))) AS t(i)),
        ppl AS (
          SELECT doc_id,
                 CAST(round(CAST(-SUM(m.logq) AS DOUBLE)
                            / (1000.0 * COUNT(*))) AS BIGINT)
                     AS ppl_micro
          FROM b2 JOIN read_parquet('{logq}') m
               ON b2.c1 = m.c1 AND b2.c2 = m.c2
          GROUP BY doc_id),
        alld AS (
          SELECT c.doc_id, c.lang, c.n_cut,
                 COALESCE(p.ppl_micro, 0) AS ppl_micro
          FROM cleaned c LEFT JOIN ppl p USING (doc_id)),
        ranked AS (
          SELECT doc_id, lang, n_cut, ppl_micro,
                 CAST(ntile(3) OVER (PARTITION BY lang
                                     ORDER BY ppl_micro, doc_id)
                      AS BIGINT) AS bucket
          FROM alld)
        SELECT doc_id, lang, n_cut, ppl_micro, bucket
        FROM ranked WHERE bucket <= 2"""


def _hll_oracle() -> str:
    """Bitwise HLL oracle — register algebra + finalize in DuckDB."""
    from dqm_ray.functions.bloom import hll_oracle_sql

    return hll_oracle_sql("events", "user_id", ["event_type"],
                          alias="approx_users")


def _bloom_oracle_sql() -> str:
    """Rebuild the identical Bloom filter in SQL: distinct set bits of
    the en-doc keys, then per-doc BOOL_AND over its k probe bits."""
    from dqm_ray.functions.bloom import bloom_sql_bit

    bit = bloom_sql_bit("doc_id", "t.i", _BLOOM_M, _BLOOM_SEED)
    return f"""
        WITH bits AS (
          SELECT DISTINCT {bit} AS b
          FROM documents, unnest(range({_BLOOM_K})) t(i)
          WHERE lang = 'en'),
        probe AS (
          SELECT doc_id, lang, {bit} AS b
          FROM documents, unnest(range({_BLOOM_K})) t(i))
        SELECT p.doc_id, ANY_VALUE(p.lang) AS lang,
               BOOL_AND(bb.b IS NOT NULL) AS maybe_member
        FROM probe p LEFT JOIN bits bb ON p.b = bb.b
        GROUP BY p.doc_id"""


def _canonical_oracle_sql() -> str:
    """minhash clusters (the full bitwise chain, nested as a CTE) joined
    to the shared IEEE quality expression; canonical pick = row_number
    over (quality_score DESC, doc_id ASC) per cluster."""
    return f"""
        WITH groups AS ({_minhash_oracle_sql()}),
        scored AS (
          SELECT g.dup_group, d.doc_id, {_QUALITY_EXPR} AS quality_score
          FROM groups g JOIN documents d ON g.doc_id = d.doc_id
        )
        SELECT dup_group, doc_id AS canonical_id, quality_score,
               CAST(n_members AS BIGINT) AS n_members
        FROM (
          SELECT dup_group, doc_id, quality_score,
                 count(*) OVER (PARTITION BY dup_group) AS n_members,
                 row_number() OVER (PARTITION BY dup_group
                                    ORDER BY quality_score DESC, doc_id)
                     AS rn
          FROM scored) WHERE rn = 1"""


def _docprep_oracle_sql() -> str:
    """The COMPOSED data-prep chain in one SQL program: quality filter
    (same IEEE expression) → first-wins exact dedup among survivors →
    drop docs sharing any 13-gram with the benchmark subset → the
    identical keyed-hash stratified sample predicate."""
    from dqm_ray.functions.sampling import rate_threshold, sample_sql_hash

    cases = " ".join(
        f"WHEN '{lang}' THEN {rate_threshold(r)}"
        for lang, r in sorted(_SAMPLE_RATES.items()))
    thr = (f"CASE lang {cases} "
           f"ELSE {rate_threshold(_SAMPLE_BASE_RATE)} END")
    return f"""
        WITH {_gram_ctes(_DECONTAM_K)},
        bench AS (SELECT DISTINCT gram FROM grams
                  WHERE doc_id % {_BENCH_MOD} = 0),
        qualified AS (
          SELECT doc_id, lang, text, {_QUALITY_EXPR} AS quality_score
          FROM documents
          WHERE doc_id % {_BENCH_MOD} <> 0
        ),
        surviving AS (
          SELECT * FROM qualified WHERE quality_score >= 0.5
        ),
        winners AS (
          SELECT min(doc_id) AS doc_id FROM surviving GROUP BY text
        ),
        contaminated AS (
          SELECT g.doc_id FROM grams g JOIN bench USING (gram)
          GROUP BY g.doc_id
          HAVING count(DISTINCT g.gram) >= {_DOCPREP_MIN_MATCHES}
        )
        SELECT s.doc_id, s.lang, s.quality_score
        FROM surviving s
        JOIN winners w USING (doc_id)
        WHERE s.doc_id NOT IN (SELECT doc_id FROM contaminated)
          AND {sample_sql_hash('s.doc_id', _SAMPLE_SEED)} < {thr}"""


def _stratified_sample_oracle_sql() -> str:
    """The identical keyed-hash keep-predicate in SQL (same multiplier,
    offset and integer thresholds as dqm_ray.functions.sampling)."""
    from dqm_ray.functions.sampling import rate_threshold, sample_sql_hash

    cases = " ".join(
        f"WHEN '{lang}' THEN {rate_threshold(r)}"
        for lang, r in sorted(_SAMPLE_RATES.items()))
    thr = (f"CASE lang {cases} "
           f"ELSE {rate_threshold(_SAMPLE_BASE_RATE)} END")
    return (f"SELECT doc_id, lang FROM documents "
            f"WHERE {sample_sql_hash('doc_id', _SAMPLE_SEED)} < {thr}")


def _importance_sample_oracle_sql() -> str:
    """The size-biased keep-predicate in full-precision HUGEINT."""
    from dqm_ray.functions.sampling import weighted_sample_sql

    pred = weighted_sample_sql(
        "doc_id", "n_chars", 120,
        "(SELECT SUM(CAST(n_chars AS HUGEINT)) FROM documents)", seed=3)
    return f"SELECT doc_id, n_chars FROM documents WHERE {pred}"


def _boilerplate_oracle_sql(sf: str = "sf0.01") -> str:
    glob = os.path.join(_CACHE, sf, "code_files_*.parquet")
    return f"""
        WITH ls AS (SELECT path, str_split(content, chr(10)) AS ls
                    FROM read_parquet('{glob}')),
        l AS (SELECT path, unnest(ls) AS line,
                     unnest(range(1, len(ls)+1)) AS ord
              FROM ls),
        freq AS (SELECT line FROM (
                   SELECT line, count(DISTINCT path) AS cd FROM l
                   WHERE length(line) >= 10 GROUP BY line)
                 WHERE cd >= 10),
        l2 AS (SELECT l.path, l.line, l.ord, f.line IS NOT NULL AS rm
               FROM l LEFT JOIN freq f ON l.line = f.line)
        SELECT path,
               coalesce(string_agg(line, chr(10) ORDER BY ord)
                        FILTER (WHERE NOT rm), '') AS text,
               CAST(count(*) FILTER (WHERE rm) AS BIGINT) AS n_removed
        FROM l2 GROUP BY path
        UNION ALL  -- a null content has no lines: kept null, 0 removed
        SELECT path, NULL, CAST(0 AS BIGINT)
        FROM read_parquet('{glob}') WHERE content IS NULL"""


def _kmeans_oracle_sql() -> str:
    """The exact 3-assignment-pass Lloyd contract unrolled: init = the 8
    lowest-id vectors; argmin ties break to the lowest cluster id via
    the window order; empty clusters drop out of the next CTE."""
    assign = """(SELECT vec_id, v, cl FROM (
            SELECT e.vec_id, e.v, {c}.cl,
                   row_number() OVER (PARTITION BY e.vec_id
                     ORDER BY list_distance(e.v, {c}.c), {c}.cl) AS rn
            FROM e CROSS JOIN {c}) WHERE rn = 1)"""
    update = """(SELECT cl, list(s ORDER BY j) AS c FROM (
             SELECT cl, j, round(avg(v[CAST(j AS INT)]), 6) AS s
             FROM {a}, unnest(range(1, 65)) t(j) GROUP BY cl, j)
           GROUP BY cl)"""
    return f"""
        WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
                   FROM embeddings),
        c0 AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cl, v AS c
               FROM (SELECT * FROM e ORDER BY vec_id LIMIT 8)),
        a1 AS {assign.format(c="c0")},
        c1 AS {update.format(a="a1")},
        a2 AS {assign.format(c="c1")},
        c2 AS {update.format(a="a2")},
        a3 AS {assign.format(c="c2")}
        SELECT cl AS cluster, CAST(j - 1 AS BIGINT) AS dim,
               round(avg(v[CAST(j AS INT)]), 6) AS centroid,
               count(*) AS n
        FROM a3, unnest(range(1, 65)) t(j) GROUP BY cl, j"""


def _mixture_case_exprs() -> tuple[str, str, str]:
    """(floor-weight CASE, fractional-threshold CASE, hash expr) built
    from the same weight dict + hash constants (sampling.py), so SQL
    and Ray cannot drift."""
    import numpy as np

    from dqm_ray.functions.sampling import rate_threshold, sample_sql_hash

    full_case = ("CASE lang " + " ".join(
        f"WHEN '{k}' THEN {int(np.floor(v))}"
        for k, v in _MIX_WEIGHTS.items()) + " ELSE 1 END")
    thr_case = ("CASE lang " + " ".join(
        f"WHEN '{k}' THEN CAST({rate_threshold(v - np.floor(v))} AS HUGEINT)"
        for k, v in _MIX_WEIGHTS.items()) + " ELSE CAST(0 AS HUGEINT) END")
    return full_case, thr_case, sample_sql_hash("doc_id", seed=_MIX_SEED)


def _mixture_oracle_sql() -> str:
    full_case, thr_case, h = _mixture_case_exprs()
    return f"""
        WITH n AS (
          SELECT doc_id, lang,
                 {full_case}
                 + CASE WHEN {h} < {thr_case} THEN 1 ELSE 0 END AS n_copies
          FROM documents)
        SELECT doc_id, lang,
               CAST(unnest(range(n_copies)) AS BIGINT) AS epoch
        FROM n"""


def _shuffle_oracle_sql() -> str:
    """row_number over the signed-int64 view of the identical keyed
    hash (scan.py shuffle_rank); bijective -> tie-free."""
    from dqm_ray.functions.sampling import sample_sql_hash

    h = sample_sql_hash("doc_id", seed=_SHUF_SEED)
    signed = (f"(CASE WHEN {h} >= 9223372036854775808 "
              f"THEN {h} - 18446744073709551616 ELSE {h} END)")
    return f"""
        SELECT doc_id,
               CAST(row_number() OVER (ORDER BY {signed}) - 1 AS BIGINT)
                   AS shuffle_rank
        FROM documents"""


def _corpus_prep_ctes() -> str:
    """Shared CTE block for the corpus-prep chain oracles: normalize ->
    paragraph dedup -> token gate -> exact dedup -> mixture epochs ->
    packing scan (CTEs norm..p). Each CTE mirrors the same stage's Ray
    kernel constants (POS_BITS packing, TOKEN_RE, mixture cases,
    EPOCH_RADIX key, 2048 budget)."""
    from dqm_ray.functions.text import normalize_sql_expr

    norm = normalize_sql_expr("text")
    full_case, thr_case, h = _mixture_case_exprs()
    return f"""norm AS (SELECT doc_id, lang, {norm} AS text
                      FROM documents),
        base AS (SELECT doc_id, str_split(text, chr(10)||chr(10))
                            AS paras FROM norm),
        occ AS (SELECT doc_id, q.para AS para, q.idx AS idx FROM (
                  SELECT doc_id,
                         unnest(list_transform(range(1, len(paras) + 1),
                           i -> struct_pack(para := paras[i],
                                            idx := i - 1))) AS q
                  FROM base) t),
        w AS (SELECT para, min(doc_id * 1048576 + idx) AS wpos
              FROM occ WHERE length(para) >= 1 GROUP BY para),
        k AS (SELECT o.doc_id, o.para, o.idx,
                     (length(o.para) < 1
                      OR o.doc_id * 1048576 + o.idx = w.wpos) AS keep
              FROM occ o LEFT JOIN w ON o.para = w.para),
        clean AS (SELECT doc_id,
                         coalesce(string_agg(para, chr(10)||chr(10)
                                  ORDER BY idx) FILTER (WHERE keep), '')
                             AS text
                  FROM k GROUP BY doc_id),
        tok AS (SELECT c.doc_id, n.lang, c.text,
                       CAST(len(regexp_extract_all(c.text,
                            '[A-Za-z0-9_]+')) AS BIGINT) AS n_tokens
                FROM clean c JOIN norm n USING (doc_id)),
        gated AS (SELECT * FROM tok WHERE n_tokens >= 5),
        ded AS (SELECT * FROM gated
                WHERE doc_id IN (SELECT min(doc_id) FROM gated
                                 GROUP BY text)),
        m AS (SELECT doc_id, lang, n_tokens,
                     CAST(unnest(range(n_copies)) AS BIGINT) AS epoch
              FROM (SELECT doc_id, lang, n_tokens,
                           {full_case}
                           + CASE WHEN {h} < {thr_case}
                                  THEN 1 ELSE 0 END AS n_copies
                    FROM ded) t),
        s AS (SELECT *, doc_id * 8 + epoch AS pk FROM m),
        p AS (SELECT doc_id, lang, epoch, n_tokens,
                     CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY pk
                          ROWS BETWEEN UNBOUNDED PRECEDING
                          AND 1 PRECEDING), 0) AS BIGINT)
                         AS token_offset
              FROM s)"""


def _corpus_prep_oracle_sql() -> str:
    return f"""
        WITH {_corpus_prep_ctes()}
        SELECT doc_id, lang, epoch, n_tokens, token_offset,
               CAST(token_offset // 2048 AS BIGINT) AS seq_id
        FROM p"""


def _prep_report_oracle_sql() -> str:
    """Stage-retention report over the SAME chain CTEs."""
    return f"""
        WITH {_corpus_prep_ctes()}
        SELECT 0 AS stage_idx, 'input' AS stage,
               CAST(count(*) AS BIGINT) AS n FROM documents
        UNION ALL
        SELECT 1, 'token_gate', CAST(count(*) AS BIGINT) FROM gated
        UNION ALL
        SELECT 2, 'exact_dedup', CAST(count(*) AS BIGINT) FROM ded
        UNION ALL
        SELECT 3, 'epoch_rows', CAST(count(*) AS BIGINT) FROM m
        UNION ALL
        SELECT 4, 'sequences',
               CAST(count(DISTINCT token_offset // 2048) AS BIGINT)
        FROM p"""


def _budget_oracle_sql() -> str:
    from dqm_ray.functions.sampling import sample_sql_hash

    h = sample_sql_hash("d.doc_id", seed=_BUDGET_SEED)
    b_case = ("CASE lang " + " ".join(
        f"WHEN '{k}' THEN {v}" for k, v in _BUDGETS.items())
        + " ELSE NULL END")
    m = 1 << 64
    return f"""
        WITH tot AS (SELECT lang,
                            CAST({b_case} AS DOUBLE)
                                / CAST(SUM(n_chars) AS DOUBLE) AS rate
                     FROM documents GROUP BY lang),
        thr AS (SELECT lang,
                       -- unbudgeted strata: kernel falls back to rate
                       -- 1.0 => threshold 2^64-1, not a silent drop
                       COALESCE(
                         LEAST(CAST(floor(rate * {float(m)!r}) AS HUGEINT),
                               CAST({m - 1} AS HUGEINT)),
                         CAST({m - 1} AS HUGEINT)) AS t
                FROM tot)
        SELECT d.doc_id, d.lang, d.n_chars
        FROM documents d JOIN thr USING (lang)
        WHERE {h} < thr.t"""


def _exact_k_oracle_sql() -> str:
    from dqm_ray.functions.sampling import sample_sql_hash

    h = sample_sql_hash("doc_id", seed=_EXACTK_SEED)
    signed = (f"(CASE WHEN {h} >= 9223372036854775808 "
              f"THEN {h} - 18446744073709551616 ELSE {h} END)")
    return f"""
        SELECT doc_id, lang FROM (
          SELECT doc_id, lang,
                 row_number() OVER (PARTITION BY lang
                                    ORDER BY {signed}) AS rn
          FROM documents) WHERE rn <= 10"""


def _grouped_split_oracle_sql() -> str:
    from dqm_ray.functions.sampling import rate_threshold, sample_sql_hash

    h = sample_sql_hash("gkey", seed=_SPLIT_SEED)
    names = list(_SPLIT_FRACS.keys())
    cum, whens = 0.0, []
    for name in names[:-1]:
        cum += _SPLIT_FRACS[name]
        whens.append(f"WHEN {h} < {rate_threshold(cum)} THEN '{name}'")
    case = "CASE " + " ".join(whens) + f" ELSE '{names[-1]}' END"
    return f"""
        SELECT doc_id, source, {case} AS split FROM (
          SELECT doc_id, source,
                 MIN(doc_id) OVER (PARTITION BY source) AS gkey
          FROM documents)"""


def _split_oracle_sql() -> str:
    from dqm_ray.functions.sampling import rate_threshold, sample_sql_hash

    h = sample_sql_hash("doc_id", seed=_SPLIT_SEED)
    names = list(_SPLIT_FRACS.keys())
    cum, whens = 0.0, []
    for name in names[:-1]:
        cum += _SPLIT_FRACS[name]
        whens.append(f"WHEN {h} < {rate_threshold(cum)} THEN '{name}'")
    case = "CASE " + " ".join(whens) + f" ELSE '{names[-1]}' END"
    return f"""
        SELECT doc_id, lang, {case} AS split FROM documents"""


def _normalize_oracle_sql() -> str:
    from dqm_ray.functions.text import normalize_sql_expr

    e = normalize_sql_expr("text")
    return f"""
        SELECT doc_id, {e} AS text,
               CAST(length({e}) AS BIGINT) AS n_chars_norm
        FROM documents"""


def _sketch_oracle_sql() -> str:
    from dqm_ray.functions.sketch import sketch_sql

    return sketch_sql("documents", group_col="lang",
                      value_col="n_chars")


def oracle_sql(sf_dir: str = "/root/testdata/sf0.01") -> dict[str, str]:
    # The driver calls this with NO argument and gates at sf0.01 — the
    # default keeps its behavior bit-identical. tools/selfcheck.py passes
    # its sf_dir so the corpus-cache / IVF-index oracles derive from the
    # SAME scale the Ray queries run at (VERDICT r4 item 6: no more
    # "non-green at sf0.001 BY DESIGN" rows).
    sf = os.path.basename(os.path.normpath(sf_dir))
    # The flagship oracle reads the deterministic /tmp corpus cache and
    # the bigram-model parquet; materialize both here so the SQL is
    # runnable regardless of whether the Ray query ran first.
    try:
        _corpus_paths(sf_dir)
        _ensure_bigram_model_parquet()
        _ensure_minhash_perms_parquet()
        _ensure_emb_planes_parquet()
        _ensure_media_src_parquet()
        _ensure_poly_powers_parquet()
        _ensure_ivf_index(sf_dir)
    except Exception:  # noqa: BLE001 — oracle strings must still return
        pass
    return {
        "flagship_quality": _flagship_oracle_sql(sf),
        "boilerplate_lines": _boilerplate_oracle_sql(sf),
        "kmeans_embeddings": _kmeans_oracle_sql(),
        "doc_chunks": """
            SELECT doc_id, CAST(i AS BIGINT) AS chunk_id,
                   substring(text, CAST(i*400+1 AS BIGINT), 500)
                       AS chunk_text,
                   length(substring(text, CAST(i*400+1 AS BIGINT), 500))
                       AS n_chunk_chars
            FROM documents,
                 unnest(range(0, CASE WHEN length(text) <= 500 THEN 1
                    ELSE CAST(ceil((length(text)-500)/400.0) AS BIGINT) + 1
                    END)) t(i)""",
        "anti_join_no_urgent": """
            SELECT c_mktsegment, count(*) AS n_customers
            FROM customer c
            WHERE NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = c.c_custkey
                                AND o.o_orderpriority = '1-URGENT')
            GROUP BY c_mktsegment""",
        "rollup_revenue": """
            SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
                   COALESCE(l_linestatus, 'ALL') AS l_linestatus,
                   CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT))
                        AS BIGINT) AS revenue_cents,
                   COUNT(*) AS n_lines
            FROM lineitem
            GROUP BY ROLLUP(l_returnflag, l_linestatus)""",
        "nl_langid": _nl_langid_oracle_sql(),
        "fingerprint": _fingerprint_oracle_sql(),
        "minhash_dedup": _minhash_oracle_sql(),
        "embedding_near_dup": _embedding_near_dup_oracle_sql(),
        "media_decode": _media_decode_oracle_sql(),
        "media_probe": _media_probe_oracle_sql(),
        "media_features": _media_features_oracle_sql(),
        "knn_lsh": _knn_lsh_oracle_sql(sf_dir),
        "fourier_events": _fourier_events_oracle_sql(),
        "fourier_total": _fourier_total_oracle_sql(),
        "simhash_pairs": _simhash_oracle_sql(),
        "knn_ivf": _knn_ivf_oracle_sql(sf),
        "knn_ivf_quantized": _knn_ivf_quantized_oracle_sql(sf),
        "decontaminate": _decontam_oracle_sql(),
        "scrub_spans": _span_scrub_oracle_sql(),
        # smallest-signed-hash-per-stratum; bijective hash -> tie-free.
        "sample_exact_k": _exact_k_oracle_sql(),
        # quantile_disc == the kernel's smallest-value-reaching-ceil(qN)
        # rule; all comparisons in integer cents (no .5 ties in the
        # data at cents scale — verified) -> bitwise-stable flag set.
        "value_outliers": """
            WITH v AS (SELECT event_id, event_type,
                              CAST(round(value * 100) AS BIGINT) AS vc
                       FROM events),
            q AS (SELECT event_type,
                         quantile_disc(vc, 0.01) AS p1,
                         quantile_disc(vc, 0.99) AS p99
                  FROM v GROUP BY event_type)
            SELECT v.event_id, v.event_type, v.vc,
                   CASE WHEN v.vc < q.p1 THEN 'low'
                        ELSE 'high' END AS side
            FROM v JOIN q USING (event_type)
            WHERE v.vc < q.p1 OR v.vc > q.p99""",
        # same per-column report; min/max rendered via CAST AS VARCHAR
        # == python str() for ints; n_distinct -1 where not requested.
        "table_profile": """
            SELECT 'doc_id' AS "column",
                   CAST(count(*) FILTER (WHERE doc_id IS NULL) AS BIGINT)
                       AS n_nulls,
                   CAST(-1 AS BIGINT) AS n_distinct,
                   CAST(min(doc_id) AS VARCHAR) AS min_str,
                   CAST(max(doc_id) AS VARCHAR) AS max_str
            FROM documents
            UNION ALL
            SELECT 'lang',
                   CAST(count(*) FILTER (WHERE lang IS NULL) AS BIGINT),
                   CAST(count(DISTINCT lang) AS BIGINT),
                   NULL, NULL
            FROM documents
            UNION ALL
            SELECT 'n_chars',
                   CAST(count(*) FILTER (WHERE n_chars IS NULL) AS BIGINT),
                   CAST(-1 AS BIGINT),
                   CAST(min(n_chars) AS VARCHAR),
                   CAST(max(n_chars) AS VARCHAR)
            FROM documents
            UNION ALL
            SELECT 'source',
                   CAST(count(*) FILTER (WHERE source IS NULL) AS BIGINT),
                   CAST(count(DISTINCT source) AS BIGINT),
                   NULL, NULL
            FROM documents""",
        "stratified_sample": _stratified_sample_oracle_sql(),
        "importance_sample": _importance_sample_oracle_sql(),
        "docprep": _docprep_oracle_sql(),
        "bucketed_join_revenue": """
            SELECT c_nationkey, COUNT(*) AS n_orders,
                   CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
                       AS revenue_cents
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_nationkey""",
        "events_in_window": """
            SELECT p.event_id AS purchase_id, count(*) AS n
            FROM events p JOIN events e
              ON e.user_id = p.user_id
             AND e.ts >= p.ts - INTERVAL 30 MINUTE AND e.ts <= p.ts
            WHERE p.event_type = 'purchase'
            GROUP BY p.event_id""",
        "windowed_counts": """
            SELECT p.event_id AS purchase_id, count(*) AS n
            FROM events p JOIN events e
              ON e.user_id = p.user_id
             AND e.ts >= p.ts - INTERVAL 30 MINUTE AND e.ts <= p.ts
            WHERE p.event_type = 'purchase'
            GROUP BY p.event_id""",
        "windowed_revenue": """
            SELECT p.event_id AS purchase_id,
                   CAST(SUM(CAST(floor(e.value) AS BIGINT)) AS BIGINT) AS win_sum
            FROM events p JOIN events e
              ON e.user_id = p.user_id
             AND e.ts >= p.ts - INTERVAL 30 MINUTE AND e.ts <= p.ts
            WHERE p.event_type = 'purchase'
            GROUP BY p.event_id""",
        "windowed_peak": """
            SELECT p.event_id AS purchase_id, MAX(e.value) AS peak
            FROM events p JOIN events e
              ON e.user_id = p.user_id
             AND e.ts >= p.ts - INTERVAL 30 MINUTE AND e.ts <= p.ts
            WHERE p.event_type = 'purchase'
            GROUP BY p.event_id""",
        "label_centroids": """
            SELECT label, j AS dim,
                   round(sum(CAST(embedding[CAST(j+1 AS INT)] AS DOUBLE))
                         / count(*), 6) AS centroid
            FROM embeddings, unnest(range(0, len(embedding))) t(j)
            GROUP BY label, j""",
        "length_quantiles": """
            SELECT lang,
                   quantile_disc(n_chars, 0.5) AS p50,
                   quantile_disc(n_chars, 0.9) AS p90,
                   quantile_disc(n_chars, 0.99) AS p99
            FROM documents GROUP BY lang""",
        "top_terms": """
            SELECT term, count(*) AS n FROM (
              SELECT unnest(list_filter(
                regexp_extract_all(lower(text), '[a-z]+'),
                x -> length(x) >= 2)) AS term
              FROM documents)
            GROUP BY term ORDER BY n DESC, term ASC LIMIT 100""",
        "doc_line_stats": f"""
            SELECT doc_id,
              CAST(len({_LINES}) AS BIGINT) AS n_lines,
              CAST(list_max({_LENS}) AS BIGINT) AS max_line_len,
              CAST(list_sum({_LENS}) AS DOUBLE) / len({_LINES}) AS mean_line_len,
              1.0 - CAST(len(list_distinct({_LINES})) AS DOUBLE) / len({_LINES})
                  AS dup_line_ratio,
              CAST(length(regexp_replace(text, '[^A-Za-z0-9]', '', 'g')) AS DOUBLE)
                  / length(text) AS alnum_frac
            FROM documents""",
        "pii_scrub": f"""
            SELECT doc_id, {_SCRUB_SQL} AS text,
                   {_SCRUB_SQL} <> text AS scrubbed
            FROM documents""",
        "lineage_sha256": "SELECT doc_id, sha256(text) AS sha256 FROM documents",
        "grouped_stats": """
            SELECT lang, COUNT(*) AS n_docs,
              CAST(SUM(n_chars) AS DOUBLE) / COUNT(*) AS mean_chars,
              CASE WHEN COUNT(*) <= 1 THEN -1.0 ELSE
                round(stddev_samp(n_chars), 6) END AS std_chars,
              sqrt(CAST(SUM(n_chars*n_chars) AS DOUBLE) / COUNT(*)) AS rms_chars
            FROM documents GROUP BY lang""",
        "hist_n_chars": """
            SELECT b.bin, COALESCE(c.cnt, 0) AS cnt
            FROM (SELECT unnest(range(20)) AS bin) b
            LEFT JOIN (
              SELECT CAST(floor((n_chars - 0.0) / 50.0) AS BIGINT) AS bin,
                     COUNT(*) AS cnt
              FROM documents WHERE n_chars >= 0 AND n_chars < 1000
              GROUP BY 1) c USING (bin)""",
        "exact_dedup": """
            SELECT doc_id, n_chars FROM documents
            WHERE doc_id IN (SELECT min(doc_id) FROM documents GROUP BY text)""",
        "top_k_per_lang": """
            SELECT lang, doc_id, rn FROM (
              SELECT lang, doc_id,
                     row_number() OVER (PARTITION BY lang ORDER BY doc_id) AS rn
              FROM documents) WHERE rn <= 5""",
        "token_counts": """
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS BIGINT)
                       AS n_tokens,
                   CAST(len(regexp_extract_all(text, '[^ \t\n]+')) AS BIGINT)
                       AS n_ws_tokens
            FROM documents""",
        "quality_score": f"""
            SELECT doc_id, {_QUALITY_EXPR} AS quality_score
            FROM documents""",
        "q1_pricing": """
            SELECT l_returnflag, l_linestatus,
              CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
              CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
                  AS sum_base_cents,
              CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                  * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT)
                  AS sum_disc_c4,
              COUNT(*) AS count_order
            FROM lineitem WHERE l_shipdate < TIMESTAMP '1998-09-01'
            GROUP BY l_returnflag, l_linestatus""",
        "events_hourly": """
            SELECT event_type, date_trunc('hour', ts) AS hour,
                   COUNT(*) AS n, round(SUM(value), 6) AS sum_value
            FROM events GROUP BY 1, 2""",
        "seg_revenue": """
            SELECT c_mktsegment, COUNT(*) AS n_orders,
                   CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
                       AS revenue_cents
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment""",
        "join_order_lines": """
            SELECT o_orderpriority, COUNT(*) AS n_lines,
                   CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY o_orderpriority""",
        "join_native": """
            SELECT o_orderpriority, COUNT(*) AS n_lines,
                   CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY o_orderpriority""",
        "top_orders": """
            SELECT o_orderkey, o_totalprice, rn AS rank FROM (
              SELECT o_orderkey, o_totalprice,
                     row_number() OVER (ORDER BY o_totalprice DESC,
                                        o_orderkey) AS rn
              FROM orders) WHERE rn <= 20""",
        "union_counts": """
            SELECT lang, source, COUNT(*) AS n FROM (
              SELECT lang, source FROM documents WHERE lang = 'de'
              UNION ALL
              SELECT lang, source FROM documents WHERE lang = 'zh')
            GROUP BY lang, source""",
        "events_sliding": """
            SELECT event_type, window_start, COUNT(*) AS n FROM (
              SELECT event_type,
                     time_bucket(INTERVAL 30 MINUTE, ts) AS window_start
              FROM events
              UNION ALL
              SELECT event_type,
                     time_bucket(INTERVAL 30 MINUTE, ts) - INTERVAL 30 MINUTE
              FROM events)
            GROUP BY event_type, window_start""",
        "ngram_jaccard_pairs": """
            WITH g AS (
              SELECT doc_id,
                     list_distinct([substr(text, i + 1, 5)
                                    for i in range(greatest(length(text) - 4,
                                                            1))]) AS sh
              FROM documents WHERE doc_id < 10)
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE)
                       / len(list_distinct(list_concat(a.sh, b.sh))) AS jaccard
            FROM g a JOIN g b ON a.doc_id < b.doc_id""",
        "asof_prior_view": """
            SELECT l.event_id,
                   CAST(COALESCE(r.event_id, -1) AS BIGINT) AS prior_event_id,
                   CAST(COALESCE(epoch_us(r.ts), -1) AS BIGINT)
                       AS prior_ts_us
            FROM (SELECT * FROM events WHERE event_type = 'click') l
            ASOF LEFT JOIN (
              -- tie contract: max event_id among equal (user_id, ts)
              SELECT user_id, ts, max_by(event_id, event_id) AS event_id
              FROM events WHERE event_type = 'view' GROUP BY user_id, ts) r
            ON l.user_id = r.user_id AND l.ts >= r.ts""",
        "salted_group_stats": """
            SELECT lang, COUNT(*) AS n,
                   CAST(SUM(n_chars) AS BIGINT) AS sum_n_chars
            FROM documents GROUP BY lang""",
        "raw_sample": """
            SELECT doc_id, text FROM documents WHERE doc_id % 100 = 0""",
        "user_sessions": """
            SELECT user_id,
                   CAST(SUM(CASE WHEN prev_ts IS NULL
                                 OR ts - prev_ts > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions
            FROM (SELECT user_id, ts,
                         lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                             AS prev_ts
                  FROM events)
            GROUP BY user_id""",
        "knn_cosine": """
            WITH q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
                       FROM embeddings WHERE vec_id < 4)
            SELECT qid AS query_id, vec_id, rn AS rank,
                   round(CAST(cos AS DOUBLE), 6) AS cosine
            FROM (
              SELECT q.qid, e.vec_id,
                     list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe)
                         AS cos,
                     row_number() OVER (
                       PARTITION BY q.qid
                       ORDER BY list_cosine_similarity(
                                  CAST(e.embedding AS DOUBLE[]), q.qe) DESC,
                                e.vec_id) AS rn
              FROM embeddings e, q)
            WHERE rn <= 10""",
        # gap sums are exact BIGINT microseconds on both sides; the only
        # float ops are the final /n/1e6 divisions in the SAME order as
        # the Ray kernel (windows.py key_deltas) -> bitwise match.
        "key_deltas": """
            SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
                   CASE WHEN COUNT(*) > 1
                        THEN CAST(SUM(gap_us) AS DOUBLE)
                             / (COUNT(*) - 1) / 1e6
                        ELSE -1.0 END AS mean_gap_s,
                   CASE WHEN COUNT(*) > 1
                        THEN CAST(MAX(gap_us) AS DOUBLE) / 1e6
                        ELSE -1.0 END AS max_gap_s
            FROM (SELECT user_id, ts,
                         COALESCE(date_diff('microsecond',
                             lag(ts) OVER (PARTITION BY user_id
                                           ORDER BY ts), ts), 0) AS gap_us
                  FROM events)
            GROUP BY user_id""",
        # list-comprehension restatement of repetition.py: same split
        # semantics (verified: str_split_regex('\\s+') == Arrow
        # utf8_split_whitespace incl. edge empties, filtered both
        # sides), same tie contract (count DESC, first occurrence ASC),
        # all fractions a single int/int -> DOUBLE division.
        "repetition_stats": """
            WITH base AS (
              SELECT doc_id, length(text) AS n_chars,
                     list_filter(str_split_regex(text, '\\s+'),
                                 w -> w <> '') AS words,
                     str_split(text, chr(10)) AS lines
              FROM documents
            ),
            g2 AS (
              SELECT doc_id, n_chars,
                     unnest(list_transform(range(1, len(words)), i ->
                       struct_pack(gram := words[i] || ' ' || words[i+1],
                                   idx := i))) AS g
              FROM base),
            c2 AS (SELECT doc_id, any_value(n_chars) AS n_chars,
                          g.gram AS gram, count(*) AS c, min(g.idx) AS fi
                   FROM g2 GROUP BY doc_id, g.gram),
            t2 AS (SELECT doc_id,
                          CAST(c * length(gram) AS DOUBLE) / n_chars
                              AS frac,
                          row_number() OVER (PARTITION BY doc_id
                              ORDER BY c DESC, fi ASC) AS rn
                   FROM c2),
            g3 AS (
              SELECT doc_id, n_chars,
                     unnest(list_transform(range(1, len(words) - 1), i ->
                       struct_pack(gram := words[i] || ' ' || words[i+1]
                                           || ' ' || words[i+2],
                                   idx := i))) AS g
              FROM base),
            c3 AS (SELECT doc_id, any_value(n_chars) AS n_chars,
                          g.gram AS gram, count(*) AS c, min(g.idx) AS fi
                   FROM g3 GROUP BY doc_id, g.gram),
            t3 AS (SELECT doc_id,
                          CAST(c * length(gram) AS DOUBLE) / n_chars
                              AS frac,
                          row_number() OVER (PARTITION BY doc_id
                              ORDER BY c DESC, fi ASC) AS rn
                   FROM c3)
            SELECT b.doc_id,
                   CAST(len(lines) - len(list_distinct(lines)) AS DOUBLE)
                       / len(lines) AS dup_line_frac,
                   CASE WHEN len(words) > 0
                        THEN CAST(len(words) - len(list_distinct(words))
                                  AS DOUBLE) / len(words)
                        ELSE 0.0 END AS dup_word_frac,
                   coalesce(t2.frac, 0.0) AS top2gram_frac,
                   coalesce(t3.frac, 0.0) AS top3gram_frac
            FROM base b
            LEFT JOIN (SELECT doc_id, frac FROM t2 WHERE rn = 1) t2
              USING (doc_id)
            LEFT JOIN (SELECT doc_id, frac FROM t3 WHERE rn = 1) t3
              USING (doc_id)""",
        # exclusive ordered scan == SUM ... ROWS UNBOUNDED PRECEDING
        # AND 1 PRECEDING; integer cumsum -> bitwise-exact both sides.
        "pack_sequences": """
            WITH t AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(text, '[A-Za-z0-9_]+'))
                          AS BIGINT) AS n_tokens
              FROM documents),
            s AS (
              SELECT doc_id, n_tokens,
                     CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
                          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                          0) AS BIGINT) AS token_offset
              FROM t)
            SELECT doc_id, n_tokens, token_offset,
                   CAST(token_offset // 2048 AS BIGINT) AS seq_id
            FROM s""",
        # n_copies = floor(w) + (keyed hash < frac(w) threshold); the
        # hash/threshold integers are IDENTICAL to the Ray kernel's
        # (sampling.py mixture_resample) -> exact epoch multiset.
        "mixture_epochs": _mixture_oracle_sql(),
        # rank over the signed view of the same bijective hash; no
        # ties possible (odd-multiplier hash permutes Z_2^64).
        "shuffle_order": _shuffle_oracle_sql(),
        # integer-quantized idf: (2^20*(N+1)) // (df+1) — selection and
        # scores are pure-integer, bitwise-stable across engines.
        "tfidf_keywords": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(list_filter(str_split_regex(lower(text),
                            '[^a-z]+'), s -> length(s) >= 2)) AS term
              FROM documents),
            tf AS (SELECT doc_id, term, count(*) AS c
                   FROM toks GROUP BY 1, 2),
            df AS (SELECT term, count(DISTINCT doc_id) AS dfn
                   FROM toks GROUP BY 1),
            nd AS (SELECT count(*) AS n FROM documents),
            scored AS (
              SELECT doc_id, term,
                     CAST(c * ((1048576 * (n + 1)) // (dfn + 1))
                          AS BIGINT) AS score
              FROM tf JOIN df USING (term) CROSS JOIN nd)
            SELECT doc_id, term, score, CAST(rn AS BIGINT) AS rank
            FROM (SELECT *, row_number() OVER (PARTITION BY doc_id
                       ORDER BY score DESC, term) AS rn
                  FROM scored) WHERE rn <= 3""",
        "dedup_paragraphs": _dedup_paragraphs_oracle_sql(),
        # same NFC + RE2 step list (text.py NORM_STEPS), same order.
        "normalize_text": _normalize_oracle_sql(),
        # identical integer log-bucket math + ceil threshold in ints
        # (functions/sketch.py sketch_sql builds it from the kernel's
        # own constants).
        "sketch_quantiles": _sketch_oracle_sql(),
        # prior corpus = even doc_ids, ingest = odds; keep = not in
        # prior (by text) and first occurrence within the ingest.
        "incremental_dedup": """
            SELECT d.doc_id, d.n_chars FROM documents d
            WHERE d.doc_id % 2 = 1
              AND NOT EXISTS (SELECT 1 FROM documents p
                              WHERE p.doc_id % 2 = 0
                                AND p.text = d.text)
              AND d.doc_id = (SELECT min(x.doc_id) FROM documents x
                              WHERE x.doc_id % 2 = 1
                                AND x.text = d.text)""",
        "corpus_prep": _corpus_prep_oracle_sql(),
        "prep_report": _prep_report_oracle_sql(),
        # group key = MIN(doc_id) per source, same hash + thresholds
        # as dataset_split -> whole groups move between splits atomically.
        "grouped_split": _grouped_split_oracle_sql(),
        "ccnet_buckets": _ccnet_oracle_sql(),
        "incremental_neardup": _incremental_neardup_oracle_sql(),
        "canonical_docs": _canonical_oracle_sql(),
        "bloom_probe": _bloom_oracle_sql(),
        "approx_distinct_users": _hll_oracle(),
        "dedup_spans": _dedup_spans_oracle_sql(),
        "webprep": _webprep_oracle_sql(),
        "dup_report": """
            SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(COUNT(DISTINCT text) AS BIGINT) AS n_unique,
                   CAST(COUNT(*) - COUNT(DISTINCT text) AS BIGINT)
                       AS n_dup_docs
            FROM documents GROUP BY lang""",
        "funnel_conversions": """
            SELECT user_id,
                   CAST(COUNT(*) FILTER (WHERE event_type = 'click')
                        AS BIGINT) AS n_clicks,
                   CAST(SUM(CASE WHEN event_type = 'click' AND EXISTS (
                          SELECT 1 FROM events v
                          WHERE v.user_id = e.user_id
                            AND v.event_type = 'view'
                            AND v.ts <= e.ts
                            AND v.ts > e.ts - INTERVAL 10 MINUTE)
                        THEN 1 ELSE 0 END) AS BIGINT) AS n_converted
            FROM events e GROUP BY user_id
            HAVING COUNT(*) FILTER (WHERE event_type = 'click') > 0""",
        "semantic_decontam": f"""
            WITH bench AS (SELECT CAST(embedding AS DOUBLE[]) AS v
                           FROM embeddings WHERE vec_id % 2 = 0),
            sims AS (
              SELECT p.vec_id,
                     list_cosine_similarity(
                         CAST(p.embedding AS DOUBLE[]), b.v) AS sim
              FROM embeddings p JOIN bench b ON true
              WHERE p.vec_id % 2 = 1)
            SELECT vec_id,
                   CAST(SUM(CASE WHEN sim >= {_SEM_THRESHOLD}
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_matched,
                   round(MAX(sim), 6) AS max_cosine
            FROM sims GROUP BY vec_id
            HAVING SUM(CASE WHEN sim >= {_SEM_THRESHOLD}
                       THEN 1 ELSE 0 END) > 0""",
        "zscore_chars": _zscore_oracle_sql(),
        "project_embeddings": _project_oracle_sql(),
        "corpus_diff": """
            WITH gen1 AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 7 = 0 THEN text || '!'
                          ELSE text END AS text
              FROM documents WHERE doc_id % 13 <> 0
              UNION ALL
              SELECT doc_id + 10000000, text || '+'
              FROM documents WHERE doc_id % 11 = 0)
            SELECT COALESCE(o.doc_id, n.doc_id) AS doc_id,
                   CASE WHEN o.doc_id IS NULL THEN 'added'
                        WHEN n.doc_id IS NULL THEN 'removed'
                        WHEN o.text <> n.text THEN 'changed'
                        ELSE 'same' END AS status
            FROM documents o FULL OUTER JOIN gen1 n
              ON o.doc_id = n.doc_id""",
        "trending": """
            SELECT window_start, event_type, n, rank FROM (
              SELECT date_trunc('hour', ts) AS window_start, event_type,
                     CAST(count(*) AS BIGINT) AS n,
                     CAST(row_number() OVER (
                          PARTITION BY date_trunc('hour', ts)
                          ORDER BY count(*) DESC, event_type)
                          AS BIGINT) AS rank
              FROM events GROUP BY 1, 2) WHERE rank <= 3""",
        # stdlib json.loads == DuckDB json_extract for integer fields.
        "props_stats": """
            SELECT event_type, COUNT(*) AS n,
                   CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT))
                        AS BIGINT) AS sum_k,
                   CAST(MIN(CAST(json_extract(props, '$.k') AS BIGINT))
                        AS BIGINT) AS min_k,
                   CAST(MAX(CAST(json_extract(props, '$.k') AS BIGINT))
                        AS BIGINT) AS max_k
            FROM events GROUP BY event_type""",
        # first-k per (user, hour window), (ts, event_id) tie order.
        "rate_limit": """
            SELECT user_id, event_id, window_start,
                   CAST(rn AS BIGINT) AS rn
            FROM (SELECT user_id, event_id,
                         date_trunc('hour', ts) AS window_start,
                         row_number() OVER (
                             PARTITION BY user_id, date_trunc('hour', ts)
                             ORDER BY ts, event_id) AS rn
                  FROM events) WHERE rn <= 3""",
        # float32 -> DOUBLE promotion is exact; same IEEE op order
        # (abs-max, /127, |x|/s + 0.5, floor, sign) -> bitwise equal.
        "quantize_embeddings": """
            WITH d AS (SELECT vec_id,
                              list_transform(embedding,
                                  x -> CAST(x AS DOUBLE)) AS v
                       FROM embeddings),
            s AS (SELECT vec_id, v,
                         list_max(list_transform(v, x -> abs(x))) / 127.0
                             AS scale
                  FROM d),
            e AS (SELECT vec_id, scale,
                         unnest(list_transform(range(1, len(v) + 1),
                           i -> struct_pack(dim := i - 1, x := v[i])))
                             AS u
                  FROM s)
            SELECT vec_id, CAST(u.dim AS BIGINT) AS dim, scale,
                   CAST(CASE WHEN scale = 0 THEN 0
                             WHEN u.x < 0
                             THEN -floor(abs(u.x) / scale + 0.5)
                             ELSE floor(abs(u.x) / scale + 0.5)
                        END AS BIGINT) AS q
            FROM e""",
        # int8 dots are exact BIGINT sums; ranking key = two float
        # multiplies in the SAME order as the Ray kernel -> identical
        # ranks; score rounded to 6 for display only.
        "knn_quantized": """
            WITH d AS (SELECT vec_id,
                              list_transform(embedding,
                                  x -> CAST(x AS DOUBLE)) AS v
                       FROM embeddings),
            s AS (SELECT vec_id, v,
                         list_max(list_transform(v, x -> abs(x))) / 127.0
                             AS scale
                  FROM d),
            e AS (SELECT vec_id, scale,
                         u.dim AS dim,
                         CAST(CASE WHEN scale = 0 THEN 0
                                   WHEN u.x < 0
                                   THEN -floor(abs(u.x) / scale + 0.5)
                                   ELSE floor(abs(u.x) / scale + 0.5)
                              END AS BIGINT) AS q
                  FROM (SELECT vec_id, scale,
                               unnest(list_transform(range(1, len(v) + 1),
                                 i -> struct_pack(dim := i - 1,
                                                  x := v[i]))) AS u
                        FROM s) t),
            dots AS (SELECT e.vec_id AS vec_id, qs.vec_id AS qid,
                            CAST(SUM(e.q * qs.q) AS BIGINT) AS di,
                            any_value(e.scale) AS se,
                            any_value(qs.scale) AS sq
                     FROM e JOIN (SELECT * FROM e WHERE vec_id < 4) qs
                       USING (dim)
                     GROUP BY e.vec_id, qs.vec_id)
            SELECT qid AS query_id, vec_id, CAST(rn AS BIGINT) AS rank,
                   round(CAST(di AS DOUBLE) * se * sq, 6) AS score
            FROM (SELECT *, row_number() OVER (PARTITION BY qid
                       ORDER BY CAST(di AS DOUBLE) * se * sq DESC,
                                vec_id) AS rn
                  FROM dots) WHERE rn <= 10""",
        # oracle reads the PARQUET view — equality proves the JSONL
        # round-trip (write_json -> read_json) loses nothing.
        "jsonl_ingest": """
            SELECT lang, COUNT(*) AS n_docs,
                   CAST(SUM(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang""",
        "csv_ingest": """
            SELECT lang, COUNT(*) AS n_docs,
                   CAST(SUM(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang""",
        "wire_formats": """
            SELECT lang, COUNT(*) AS n_docs,
                   CAST(SUM(n_chars) AS BIGINT) AS sum_chars, fmt
            FROM documents, unnest(['json', 'csv']) t(fmt)
            GROUP BY lang, fmt""",
        # the resume contract: the second run processes exactly the
        # shards the first (partial) run did not finish — per-shard row
        # counts of everything past the first two sorted shard files
        # (reads the sf-derived corpus cache, same scale as the query)
        "resume_semantics": f"""
            SELECT shard, count(*) AS "rows"
            FROM (SELECT regexp_replace(
                           regexp_replace(filename, '^.*/', ''),
                           '.parquet$', '') AS shard
                  FROM read_parquet('{os.path.join(_CACHE, sf,
                                                   "code_files_*.parquet")}',
                                    filename = true))
            WHERE shard NOT IN ('code_files_0000', 'code_files_0001')
            GROUP BY shard ORDER BY shard""",
        # reads the sf-derived corpus cache, same scale as the query
        "custom_rule_filter": f"""
            SELECT path, length(content) AS n_chars,
                   (length(content) - length(replace(content, '{{', '')))
                       * 100 > length(content) AS dropped
            FROM read_parquet('{os.path.join(_CACHE, sf,
                                             "code_files_*.parquet")}')""",
        # same hash + cumulative integer thresholds as sampling.py
        # dataset_split -> identical assignment.
        "dataset_split": _split_oracle_sql(),
        # rate = CAST(budget AS DOUBLE)/CAST(total AS DOUBLE), threshold
        # = floor(rate * 2^64) clamped in HUGEINT — identical float ops
        # and integer clamp as sampling.py budget_sample.
        "budget_sample": _budget_oracle_sql(),
        # ASCII-pair bigrams: both codepoints < 128 == both BYTES < 128
        # over utf8 (multi-byte codepoints only emit bytes >= 0x80), so
        # codepoint pairs in SQL count the same multiset as the byte
        # kernel; ties (n DESC, c1, c2) pinned both sides.
        "train_bigram_lm": """
            WITH ch AS (
              SELECT lang,
                     unnest(list_transform(range(1, length(text)), i ->
                       struct_pack(a := unicode(substr(text, i, 1)),
                                   b := unicode(substr(text, i + 1, 1)))))
                         AS p
              FROM documents),
            cnt AS (SELECT lang, p.a AS c1, p.b AS c2,
                           count(*) AS n
                    FROM ch
                    WHERE p.a BETWEEN 0 AND 127
                      AND p.b BETWEEN 0 AND 127
                    GROUP BY 1, 2, 3)
            SELECT lang, CAST(c1 AS BIGINT) AS c1,
                   CAST(c2 AS BIGINT) AS c2, n,
                   CAST(rn AS BIGINT) AS rank
            FROM (SELECT *, row_number() OVER (PARTITION BY lang
                       ORDER BY n DESC, c1, c2) AS rn
                  FROM cnt) WHERE rn <= 20""",
        "train_trigram_lm": """
            WITH ch AS (
              SELECT lang,
                     unnest(list_transform(range(1, length(text) - 1),
                       i -> struct_pack(
                              a := unicode(substr(text, i, 1)),
                              b := unicode(substr(text, i + 1, 1)),
                              c := unicode(substr(text, i + 2, 1)))))
                         AS p
              FROM documents),
            cnt AS (SELECT lang, p.a AS c1, p.b AS c2, p.c AS c3,
                           count(*) AS n
                    FROM ch
                    WHERE p.a BETWEEN 0 AND 127
                      AND p.b BETWEEN 0 AND 127
                      AND p.c BETWEEN 0 AND 127
                    GROUP BY 1, 2, 3, 4)
            SELECT lang, CAST(c1 AS BIGINT) AS c1,
                   CAST(c2 AS BIGINT) AS c2, CAST(c3 AS BIGINT) AS c3,
                   n, CAST(rn AS BIGINT) AS rank
            FROM (SELECT *, row_number() OVER (PARTITION BY lang
                       ORDER BY n DESC, c1, c2, c3) AS rn
                  FROM cnt) WHERE rn <= 20""",
    }
