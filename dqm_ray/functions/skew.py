"""Skewed grouped aggregation and per-group z-scores.

The reference never faces skew (fixed 256 channels/link, SURVEY §4.1);
a source-code corpus does: repo sizes are heavy-tailed (the synthetic
corpus makes `org0/repo0` ~30% of all rows on purpose). Shuffling a hot
key's rows would funnel them through one reduce task; here no row
moves: every block is first reduced to one partial row per key (the
fill step of the reference accumulators, src/algs/STD.cpp:21-27), so a
hot key sends at most one row per block to the part that merges it.
That bound makes salting (k sub-keys per key, then a second merge)
unnecessary.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def salted_count_sum(ds, *, key: str, sum_cols: tuple[str, ...] = ()):
    """count(*) + integer sums per key on the keyed reduce's grouped
    aggregate (see the module docstring for why no salt is needed).
    Returns a Dataset with columns (key, n, sum_<col>...)."""
    from dqm_ray.state.reduce import grouped_aggregate

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            [batch.column(key)] + [batch.column(c).cast(pa.int64())
                                   for c in sum_cols],
            names=[key, *[f"sum_{c}" for c in sum_cols]])

    return grouped_aggregate(
        ds, prep, [key],
        {"n": "count", **{f"sum_{c}": "sum" for c in sum_cols}},
        what="salted_count_sum")


def grouped_zscore(ds, *, key_col: str, val_col: str,
                   out_col: str = "z_micro"):
    """Per-group z-score normalization of an INTEGER column with a
    bitwise cross-engine contract: group moments are exact int64 sums
    (n, Σx, Σx²) merged by one grouped aggregate, then every float
    op is a single pinned IEEE step mirrored verbatim in the SQL
    oracle —

        mean = double(S) / n
        var  = (double(SS) - double(S) * double(S) / n) / (n - 1)
        z    = (double(x) - mean) / sqrt(var)

    and the published value is integer micro-units (half-away). Groups
    with n <= 1 or zero variance emit z_micro = 0. Exactness bound:
    Σx² must fit int64 (~1e9 rows of 1e4-magnitude values); past that,
    promote the partial to two int64 limbs.

    Scale shape: per-block partial moments -> the grouped aggregate's
    per-key merge -> broadcast dict -> one vectorized normalization
    pass. The feature-normalization step of a training-data pipeline;
    reference parity: the fill/merge accumulator split of
    src/algs/STD.cpp:21-27."""
    import ray

    from dqm_ray.state.reduce import collect, grouped_aggregate

    def prep(batch: pa.Table) -> pa.Table:
        x = batch.column(val_col).cast(pa.int64())
        return pa.table({key_col: batch.column(key_col), "s": x,
                         "ss": pc.multiply(x, x)})

    t = collect(grouped_aggregate(
        ds, prep, [key_col], {"n": "count", "s": "sum", "ss": "sum"},
        what="grouped_zscore"))
    stats = dict(zip(t.column(key_col).to_pylist(),
                     zip(*(t.column(c).to_pylist()
                           for c in ("n", "s", "ss")))))
    ref = ray.put(stats)

    def normalize(batch: pa.Table) -> pa.Table:
        st = ray.get(ref)
        k = batch.column(key_col).to_numpy(zero_copy_only=False)
        x = batch.column(val_col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        uniq, inv = np.unique(k, return_inverse=True)
        nf = np.array([st[u][0] for u in uniq], np.float64)
        sf = np.array([st[u][1] for u in uniq], np.float64)
        ssf = np.array([st[u][2] for u in uniq], np.float64)
        mean = sf / nf
        with np.errstate(invalid="ignore", divide="ignore"):
            var = (ssf - sf * sf / nf) / (nf - 1.0)
            z = (x - mean[inv]) / np.sqrt(var)[inv]
        ok = (nf[inv] > 1) & (var[inv] > 0.0)
        micro = np.sign(z) * np.floor(np.abs(z) * 1e6 + 0.5)
        micro = np.where(ok, micro, 0.0).astype(np.int64)
        return batch.append_column(out_col, pa.array(micro, pa.int64()))

    return ds.map_batches(normalize, batch_format="pyarrow", num_cpus=1)


def zscore_sql(key_col: str, val_col: str, table: str = "documents",
               out_col: str = "z_micro",
               select_cols: tuple = ("doc_id",)) -> str:
    """The identical pinned-IEEE z-score as a SQL query fragment."""
    sel = ", ".join(f"t.{c}" for c in (*select_cols, key_col, val_col))
    return f"""
        WITH m AS (
          SELECT {key_col},
                 CAST(count(*) AS BIGINT) AS n,
                 CAST(sum({val_col}) AS BIGINT) AS s,
                 CAST(sum({val_col} * {val_col}) AS BIGINT) AS ss
          FROM {table} GROUP BY {key_col})
        SELECT {sel},
               CAST(CASE WHEN m.n <= 1 OR
                         (CAST(m.ss AS DOUBLE)
                          - CAST(m.s AS DOUBLE) * CAST(m.s AS DOUBLE)
                            / m.n) / (m.n - 1) <= 0.0
                    THEN 0
                    ELSE round(
                      (CAST(t.{val_col} AS DOUBLE)
                       - CAST(m.s AS DOUBLE) / m.n)
                      / sqrt((CAST(m.ss AS DOUBLE)
                              - CAST(m.s AS DOUBLE) * CAST(m.s AS DOUBLE)
                                / m.n) / (m.n - 1)) * 1e6)
                    END AS BIGINT) AS {out_col}
        FROM {table} t JOIN m USING ({key_col})"""
