"""Mergeable log-histogram quantile sketch for positive integers.

`grouped_discrete_quantiles` (functions/quantiles.py) is exact but its
shuffle is |groups| x |distinct values| — unbounded for
high-cardinality metrics. This sketch bounds per-group state at
``64 * S`` integer counters regardless of data: bucket =
``msb(v) * S + ((v - 2^msb) * S) // 2^msb`` — the top log2 octave
refined into S equal integer sub-ranges. Bucket width / lower edge
<= 1/S, so the reported quantile (the chosen bucket's LOWER EDGE,
also an exact integer) is within a factor of (1 + 1/S) of the true
discrete quantile. Merging = vector add of counters: associative,
commutative, deterministic — the estimate is a pure function of the
value multiset, so unlike sampling sketches it is bitwise
reproducible AND expressible in SQL (floor(log2) on integers is
libm-safe: log2 is exact at powers of two and the nearest other
integer is >= 1/(v ln 2) away, far beyond 1-ulp error).

Threshold rule = quantile_disc: smallest bucket whose cumulative
count reaches ceil(q * N), compared in integers
(``100 * cum >= pct * N``). Values < 1 are outside the log domain and
are excluded (count them separately if needed).

Reference parity: Hist with uniform bins reduced to a bounded counter
vector per window (include/dqm/algs/Hist.hpp) — this is the
log-domain, merge-exact generalization.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DEFAULT_S = 8  # sub-buckets per octave -> <= 12.5% relative error


def bucket_of(v: np.ndarray, s: int = DEFAULT_S) -> np.ndarray:
    """Exact integer log-bucket (v must be >= 1, int64)."""
    msb = np.floor(np.log2(v.astype(np.float64))).astype(np.int64)
    p = np.int64(1) << msb
    return msb * s + ((v - p) * s) // p


def bucket_lower_edge(bucket: np.ndarray, s: int = DEFAULT_S) -> np.ndarray:
    msb = bucket // s
    r = bucket % s
    p = np.int64(1) << msb.astype(np.int64)
    return p + (r * p) // s


def bucket_upper_edge(bucket: np.ndarray, s: int = DEFAULT_S) -> np.ndarray:
    """Exclusive upper edge: smallest integer mapping to a HIGHER
    bucket (ceil division — for octaves smaller than s the naive
    lower_edge(b+1) collapses onto lower_edge(b))."""
    msb = bucket // s
    r = bucket % s
    p = np.int64(1) << msb.astype(np.int64)
    return p + ((r + 1) * p + s - 1) // s


def grouped_quantile_sketch(ds, *, group_col: str, value_col: str,
                            pcts: tuple = (50, 90, 99),
                            s: int = DEFAULT_S):
    """Per group: approximate quantiles (bucket lower edges) of a
    positive-integer column at integer percentiles ``pcts``.

    Scale shape: one grouped count per (group, bucket) — a block's
    partial holds at most |groups| x 64 x s counter rows — then one
    sorted pass over each key part walks every group's <= 64 x s
    buckets. Returns (group_col, n, p50, p90, ...) with int64
    estimates.
    """
    from dqm_ray.functions.quantiles import group_cumsum
    from dqm_ray.state.reduce import grouped_aggregate

    def prep(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).cast(pa.int64())
        batch = pa.table({group_col: batch.column(group_col), "v": v}) \
            .filter(pc.greater_equal(v, 1))
        return pa.table({
            group_col: batch.column(group_col),
            "bucket": pa.array(bucket_of(batch.column("v").to_numpy(), s),
                               pa.int64())})

    def walk(t: pa.Table) -> pa.Table:
        t = t.sort_by([(group_col, "ascending"), ("bucket", "ascending")])
        buckets = t.column("bucket").to_numpy()
        starts, before, total, cum = group_cumsum(t, group_col, "n")
        out = {group_col: t.column(group_col).take(pa.array(starts)),
               "n": pa.array(total, pa.int64())}
        for pct in pcts:
            # first bucket whose 100 * cum reaches pct * total
            i = np.searchsorted(
                cum, before + np.maximum((pct * total + 99) // 100, 1))
            out[f"p{pct}"] = pa.array(bucket_lower_edge(buckets[i], s),
                                      pa.int64())
        return pa.table(out)

    return grouped_aggregate(ds, prep, [group_col, "bucket"], {"n": "count"},
                             what="grouped_quantile_sketch", finish=walk)


def sketch_sql(table_expr: str, *, group_col: str, value_col: str,
               pcts: tuple = (50, 90, 99), s: int = DEFAULT_S) -> str:
    """The identical sketch as DuckDB SQL (same integer bucket math,
    same ceil threshold in integers)."""
    edge = (f"((1::BIGINT << (b{{p}} // {s})) "
            f"+ ((b{{p}} % {s}) * (1::BIGINT << (b{{p}} // {s}))) "
            f"// {s})")
    sels = ",\n".join(
        f"min(CASE WHEN 100 * cum >= {p} * total THEN bucket END) AS b{p}"
        for p in pcts)
    outs = ",\n".join(
        f"CAST({edge.format(p=p)} AS BIGINT) AS p{p}" for p in pcts)
    return f"""
        WITH v AS (SELECT {group_col} AS g,
                          CAST({value_col} AS BIGINT) AS v
                   FROM {table_expr} WHERE {value_col} >= 1),
        b AS (SELECT g, CAST(floor(log2(v)) AS BIGINT) AS msb, v FROM v),
        bk AS (SELECT g,
                      msb * {s} + ((v - (1::BIGINT << msb)) * {s}
                                   // (1::BIGINT << msb)) AS bucket,
                      count(*) AS n
               FROM b GROUP BY 1, 2),
        c AS (SELECT g, bucket, n,
                     sum(n) OVER (PARTITION BY g ORDER BY bucket) AS cum,
                     sum(n) OVER (PARTITION BY g) AS total
              FROM bk),
        sel AS (SELECT g, CAST(any_value(total) AS BIGINT) AS n, {sels}
                FROM c GROUP BY g)
        SELECT g AS {group_col}, n, {outs} FROM sel"""
