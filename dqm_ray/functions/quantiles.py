"""Exact grouped quantiles for discrete (integer) metrics at scale.

A distributed sort-based percentile moves every row; for discrete
metrics (lengths, counts, scores-in-buckets) the value-count histogram
is exact and tiny: one grouped count per (group, value) — per-block
partials of |groups| x |distinct values| rows — then one sorted pass
over each key part walks every group's histogram. Nothing unbounded
touches a single task: a group's state is its distinct-value
histogram, not its rows.

Quantile definition = SQL ``quantile_disc`` / ``percentile_disc``: the
smallest value whose cumulative count reaches ``ceil(q * N)`` — exact
integer semantics, no interpolation, so the DuckDB oracle matches
bitwise.

Reference parity: the reference's Hist algorithm also reduces a window
to a bounded counter vector before export (src/algs/Hist.cpp via
include/dqm/algs/Hist.hpp) — this generalizes it to exact quantiles
over grouped streams.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def grouped_discrete_quantiles(ds, *, group_col: str, value_col: str,
                               qs: tuple = (0.5, 0.9, 0.99),
                               names: tuple | None = None):
    """Per group: exact discrete quantiles of an integer column.

    Returns one row per group with columns ``(group_col, *names)``;
    ``names`` defaults to ``p50``-style labels from ``qs``.
    """
    from dqm_ray.state.reduce import grouped_aggregate

    names = names or tuple(f"p{int(round(q * 100))}" for q in qs)

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({group_col: batch.column(group_col),
                         value_col: batch.column(value_col)
                         .cast(pa.int64())})

    def quantiles(t: pa.Table) -> pa.Table:
        t = t.sort_by([(group_col, "ascending"), (value_col, "ascending")])
        vals = t.column(value_col).to_numpy()
        starts, before, total, cum = group_cumsum(t, group_col, "n")
        out = {group_col: t.column(group_col).take(pa.array(starts))}
        for q, name in zip(qs, names):
            target = np.maximum(np.ceil(q * total).astype(np.int64), 1)
            out[name] = pa.array(vals[np.searchsorted(cum, before + target)])
        return pa.table(out)

    return grouped_aggregate(ds, prep, [group_col, value_col],
                             {"n": "count"},
                             what="grouped_discrete_quantiles",
                             finish=quantiles)


def group_cumsum(t: pa.Table, group_col: str, n_col: str):
    """For ``t`` sorted by ``group_col``: ``(starts, before, total,
    cum)`` — per group its first row, the running ``n_col`` sum before
    that row and its own sum, and the running sum over all rows, so a
    group's k-th unit (k >= 1) lies at row ``searchsorted(cum, before
    + k)``."""
    from dqm_ray.state.reduce import run_starts

    n = t.column(n_col).to_numpy()
    cum = np.cumsum(n)
    starts = np.flatnonzero(run_starts(
        t.column(group_col).to_numpy(zero_copy_only=False)))
    before = cum[starts] - n[starts]
    total = np.diff(np.r_[before, cum[-1] if len(cum) else 0])
    return starts, before, total, cum
