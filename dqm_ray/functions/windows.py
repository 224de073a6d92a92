"""Per-key ordered windowing (sessions, lag/deltas) at scale.

The naive shape — a per-key groupby with one pandas group per user —
is the many-tiny-groups pathology (millions of per-group dispatches,
one task per key). Instead every operator here runs on the
keyed reduce's hash parts (:func:`dqm_ray.state.reduce.keyed_parts`:
K from the bytes the map tasks emit, plain Ray tasks) and runs ONE
vectorized pass per part: lexsort the part by ``(key, order_col)``,
then compute gaps / lags with ``np.diff`` masked at key boundaries. The
map tasks keep only the columns the window needs (key, order, value),
never payloads.

Reference parity: the reference evaluates per-channel streams in record
order inside a single process (ChannelStream run loop,
src/DQMModule.cxx run path); hash-part co-location is the Ray-native
equivalent of its per-channel iteration.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from dqm_ray.state.reduce import run_starts


def _per_key(ds, cols: list, fn, *, key_col: str, what: str):
    """``fn`` over the hash parts (keyed on ``key_col``) of ``ds``'s
    columns ``cols``; returns the Dataset of its outputs."""
    from dqm_ray.state.reduce import keyed_parts

    return keyed_parts([(ds, lambda b: b.select(cols))], fn, key=key_col,
                       what=what)


def to_us(col) -> np.ndarray:
    """int64 microseconds of a timestamp column; an integer as is."""
    a = col.to_numpy()
    if np.issubdtype(a.dtype, np.datetime64):
        a = a.astype("datetime64[us]")
    return a.astype(np.int64)


def sessionize(ds, *, key_col: str = "user_id", ts_col: str = "ts",
               gap_minutes: int = 30):
    """Per-key session count: sessions are maximal runs of events with
    consecutive gaps <= ``gap_minutes``. One vectorized pass per
    hash-part; a part holds MANY keys (bounded #groups, no per-key
    dispatch)."""
    gap = gap_minutes * 60 * 1_000_000

    def part_sessions(t: pa.Table) -> pa.Table:
        k = t.column(key_col).to_numpy()
        ts = to_us(t.column(ts_col))
        order = np.lexsort((ts, k))
        k, ts = k[order], ts[order]
        new_key = run_starts(k)
        breaks = new_key.copy()
        breaks[1:] |= (ts[1:] - ts[:-1]) > gap
        n = np.bincount(np.cumsum(new_key) - 1, weights=breaks) \
            .astype(np.int64)
        return pa.table({key_col: t.column(key_col).take(order[new_key]),
                         "n_sessions": n})

    return _per_key(ds, [key_col, ts_col], part_sessions, key_col=key_col,
                    what="sessionize")


def key_deltas(ds, *, key_col: str = "user_id", ts_col: str = "ts"):
    """Per-key inter-event gap stats: n_events, mean/max gap in seconds
    (keys with one event get n_gaps = 0 and NULL-free −1 sentinels,
    mirroring the reference's n<=1 STD sentinel contract,
    src/algs/STD.cpp:21-48).

    Gaps are accumulated in integer MICROSECONDS (exact in float64 up
    to 2^53 us ≈ 285 years of gap per key), so sums are
    order-independent and the derived mean is bitwise-identical to the
    SQL oracle's ``SUM(gap_us)/n/1e6`` with no rounding fudge."""

    def part_deltas(t: pa.Table) -> pa.Table:
        k = t.column(key_col).to_numpy()
        ts = to_us(t.column(ts_col))
        order = np.lexsort((ts, k))
        k, ts = k[order], ts[order]
        new_key = run_starts(k)
        seg = np.cumsum(new_key) - 1
        n_events = np.bincount(seg).astype(np.int64)
        d_us = np.zeros(len(k), np.int64)
        d_us[1:] = ts[1:] - ts[:-1]
        d_us[new_key] = 0
        sum_us = np.bincount(seg, weights=d_us)  # integer-valued floats
        # per-segment max via maximum.reduceat over segment starts
        starts = np.nonzero(new_key)[0]
        max_us = np.maximum.reduceat(d_us, starts)
        n_gaps = n_events - 1
        has = n_gaps > 0
        mean_gap = np.where(
            has, sum_us / np.maximum(n_gaps, 1) / 1e6, -1.0)
        max_gap = np.where(has, max_us / 1e6, -1.0)
        return pa.table({
            key_col: t.column(key_col).take(order[starts]),
            "n_events": n_events,
            "mean_gap_s": mean_gap,
            "max_gap_s": max_gap})

    return _per_key(ds, [key_col, ts_col], part_deltas, key_col=key_col,
                    what="key_deltas")


def _window_start(ts: np.ndarray, window_minutes: int) -> np.ndarray:
    """The tumbling-window start (datetime64[us]) of every timestamp."""
    ts = ts.astype("datetime64[us]")
    return ts - ((ts - np.datetime64(0, "us"))
                 % np.timedelta64(window_minutes * 60, "s"))


def rate_limit(ds, *, key_col: str = "user_id", ts_col: str = "ts",
               id_col: str = "event_id", window_minutes: int = 60,
               k: int = 3):
    """Per-key per-window rate limiting: keep the first ``k`` events of
    each key in every tumbling window, ordered by ``(ts, id)`` (the id
    breaks timestamp ties deterministically — same contract as the
    as-of join fix).

    Same scale shape as the other window ops: hash-part co-location,
    ONE lexsort pass per part, rank via run-start subtraction — no
    per-key dispatch; the map tasks keep only (key, ts, id). Emits
    (key, id, window_start, rn). Reference parity: the reference
    throttles per-channel export cadence per poll window
    (fake_app_confgen.py cadence/size pairs).
    """

    def part_limit(t: pa.Table) -> pa.Table:
        key = t.column(key_col).to_numpy()
        ts = t.column(ts_col).to_numpy()
        ids = t.column(id_col).to_numpy().astype(np.int64)
        win = _window_start(ts, window_minutes)
        order = np.lexsort((ids, ts, win, key))
        key, win = key[order], win[order]
        starts = np.nonzero(run_starts(key, win))[0]
        seg_len = np.diff(np.r_[starts, len(key)])
        rn = np.arange(len(key)) - np.repeat(starts, seg_len)
        keep = rn < k
        return pa.table({key_col: t.column(key_col).take(order[keep]),
                         id_col: ids[order[keep]],
                         "window_start": win[keep],
                         "rn": (rn[keep] + 1).astype(np.int64)})

    return _per_key(ds, [key_col, ts_col, id_col], part_limit,
                    key_col=key_col, what="rate_limit")


def trending(ds, *, ts_col: str = "ts", key_col: str = "event_type",
             window_minutes: int = 60, k: int = 3):
    """Top-k keys per tumbling window by count — the "what's trending
    this hour" op. Tie contract: count DESC, key ASC.

    Scale shape: one keyed reduce on ``window_start``. Every map task
    collapses its block to per-(window, key) partial counts
    (cardinality = windows x keys, never rows); each hash part sums
    them and takes the per-window top-k with ONE lexsort (no per-window
    dispatch). Emits (window_start, key, n, rank 1..k)."""
    from dqm_ray.state.reduce import keyed_parts

    def partial(b: pa.Table) -> pa.Table:
        # a null key or ts joins no window
        b = b.filter(pc.and_(pc.is_valid(b.column(ts_col)),
                             pc.is_valid(b.column(key_col))))
        win = _window_start(b.column(ts_col).to_numpy(), window_minutes)
        return pa.table({"window_start": win, key_col: b.column(key_col)}) \
            .group_by(["window_start", key_col]) \
            .aggregate([([], "count_all")])

    def topk(t: pa.Table) -> pa.Table:
        g = t.group_by(["window_start", key_col]) \
            .aggregate([("count_all", "sum")])
        win = g.column("window_start").to_numpy()
        key = g.column(key_col).to_numpy()
        n = g.column("count_all_sum").to_numpy()
        order = np.lexsort((key, -n, win))
        win, n = win[order], n[order]
        starts = np.nonzero(run_starts(win))[0]
        seg_len = np.diff(np.r_[starts, len(win)])
        rn = np.arange(len(win)) - np.repeat(starts, seg_len) + 1
        keep = rn <= k
        return pa.table({
            "window_start": win[keep],
            key_col: g.column(key_col).take(order[keep]),
            "n": n[keep], "rank": rn[keep].astype(np.int64)})

    return keyed_parts([(ds, partial)], topk, key="window_start",
                       what="trending")


def funnel(ds, *, user_col: str = "user_id", ts_col: str = "ts",
           type_col: str = "event_type", view: str = "view",
           click: str = "click", window_minutes: int = 10):
    """View→click conversion funnel per user: a click CONVERTS iff the
    same user has a view with ``click.ts - W < view.ts <= click.ts``.
    Emits (user, n_clicks, n_converted) for users with >= 1 click.

    Scale shape: user co-location on hash parts + ONE lexsort per part;
    the last-view lookup is a segmented running max expressed as
    ``np.maximum.accumulate`` over view positions with a segment-start
    validity check — no per-user dispatch, no self-join."""
    w_us = window_minutes * 60 * 1_000_000

    def part_funnel(tb: pa.Table) -> pa.Table:
        u = tb.column(user_col).to_numpy()
        t = to_us(tb.column(ts_col))
        typ = tb.column(type_col).to_numpy()
        is_view = typ == view
        is_click = typ == click
        # views sort before clicks at equal (user, ts): same-ts views
        # are visible to the click (the <= bound)
        o = np.lexsort((is_click, t, u))
        u, t, is_view, is_click = u[o], t[o], is_view[o], is_click[o]
        n = len(u)
        new_seg = run_starts(u)
        starts = np.nonzero(new_seg)[0]
        seg_len = np.diff(np.r_[starts, n])
        seg_start = np.repeat(starts, seg_len)
        lv = np.maximum.accumulate(
            np.where(is_view, np.arange(n, dtype=np.int64), -1))
        valid = lv >= seg_start
        last_view_ts = np.where(valid, t[np.maximum(lv, 0)],
                                np.iinfo(np.int64).min)
        converted = is_click & valid & (last_view_ts > t - w_us)
        seg_id = np.cumsum(new_seg) - 1
        n_clicks = np.bincount(seg_id[is_click],
                               minlength=len(starts)).astype(np.int64)
        n_conv = np.bincount(seg_id[converted],
                             minlength=len(starts)).astype(np.int64)
        keep = n_clicks > 0
        return pa.table({
            user_col: tb.column(user_col).take(o[starts[keep]]),
            "n_clicks": n_clicks[keep],
            "n_converted": n_conv[keep]})

    return _per_key(ds, [user_col, ts_col, type_col], part_funnel,
                    key_col=user_col, what="funnel")


def _bisect(v: np.ndarray, lo: np.ndarray, hi: np.ndarray, x: np.ndarray,
            right: bool) -> np.ndarray:
    """Per query i, the first position in the sorted ``v[lo[i]:hi[i]]``
    whose value is above ``x[i]`` (``right``) or at or above it: one
    vectorized bisection step over every query per halving."""
    lo, hi = lo.copy(), hi.copy()
    while (act := lo < hi).any():
        mid = (lo + hi) // 2
        vm = v[np.where(act, mid, 0)]
        below = act & ((vm <= x) if right else (vm < x))
        lo = np.where(below, mid + 1, lo)
        hi = np.where(act & ~below, mid, hi)
    return lo


def _window_bounds(t: pa.Table, key_col: str, ts_col: str,
                   anchor_col: str, window_us: int):
    """The probe of the three ``windowed_*`` ops: sort a part's rows by
    (key, ts); returns ``(order, anchors, lo, hi)``: ``order`` the sort,
    ``anchors`` the sorted positions of the anchor rows, and
    ``[lo, hi)`` per anchor the sorted positions of the same-key rows
    with ``ts in [anchor_ts - window_us, anchor_ts]``: two bisections
    of the ts within the anchor's key run. Exact at any key count and
    ts span: nothing is packed."""
    key = t.column(key_col).to_numpy()
    ts = to_us(t.column(ts_col))
    order = np.lexsort((ts, key))
    anchors = np.nonzero(t.column(anchor_col).to_numpy()
                         .astype(bool)[order])[0]
    ts = ts[order]
    starts = run_starts(key[order])
    run = np.cumsum(starts) - 1
    starts = np.nonzero(starts)[0]
    s = starts[run[anchors]]
    e = np.r_[starts[1:], len(ts)][run[anchors]]
    ta = ts[anchors]
    t_lo = np.maximum(ta, np.iinfo(np.int64).min + window_us) - window_us
    return (order, anchors, _bisect(ts, s, e, t_lo, right=False),
            _bisect(ts, s, e, ta, right=True))


def windowed_count(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                   anchor_col: str, id_col: str, window_us: int):
    """For each anchor row, the count of same-key rows with
    ``ts in [anchor_ts - window_us, anchor_ts]`` (inclusive; the anchor
    itself counts). Returns (id_col, n) for anchor rows only.

    ONE keyed reduce, vs two for the equivalent
    ``interval_join(...).groupby().count()``: keys co-locate by hash
    part, each part is lexsorted once by (key, ts), and every anchor's
    window resolves with two ``np.searchsorted`` probes
    (:func:`_window_bounds`)."""

    def part_count(t: pa.Table) -> pa.Table:
        order, anchors, lo, hi = _window_bounds(t, key_col, ts_col,
                                                anchor_col, window_us)
        return pa.table({id_col: t.column(id_col).take(order[anchors]),
                         "n": (hi - lo).astype(np.int64)})

    return _per_key(ds, [key_col, ts_col, anchor_col, id_col], part_count,
                    key_col=key_col, what="windowed_count")


def windowed_sum(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                 anchor_col: str, id_col: str, value_col: str,
                 window_us: int):
    """For each anchor row, the SUM of ``value_col`` (int64 — use
    integer micro-units for money/float values, the repo's exactness
    rule) over same-key rows with ``ts in [anchor_ts - window_us,
    anchor_ts]``. Returns (id_col, win_sum).

    Same one-reduce shape as :func:`windowed_count`; the window sum
    falls out of an exclusive prefix sum over the part's sorted values:
    ``csum[hi] - csum[lo]`` at the two searchsorted probe positions —
    exact, since int64 addition is associative (float values would make
    the result depend on accumulation order; the API refuses them)."""

    def part_sum(t: pa.Table) -> pa.Table:
        v = t.column(value_col).to_numpy()
        if v.dtype.kind not in "iu":
            raise TypeError(
                f"windowed_sum needs an integer value column (got "
                f"{v.dtype}); quantize floats to micro-units upstream")
        order, anchors, lo, hi = _window_bounds(t, key_col, ts_col,
                                                anchor_col, window_us)
        csum = np.concatenate(([0], np.cumsum(v[order].astype(np.int64))))
        return pa.table({id_col: t.column(id_col).take(order[anchors]),
                         "win_sum": csum[hi] - csum[lo]})

    return _per_key(ds, [key_col, ts_col, anchor_col, id_col, value_col],
                    part_sum, key_col=key_col, what="windowed_sum")


def windowed_extreme(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                     anchor_col: str, id_col: str, value_col: str,
                     window_us: int, mode: str = "max"):
    """For each anchor row, the MAX (or MIN) of ``value_col`` over
    same-key rows with ``ts in [anchor_ts - window_us, anchor_ts]``.
    Returns (id_col, win_extreme). Unlike :func:`windowed_sum` this is
    float-safe: min/max select an existing element, so the result is
    bit-identical regardless of evaluation order.

    Kernel: the two searchsorted probes give each anchor a contiguous
    index range [lo, hi) in the part's (key, ts)-sorted value array;
    the range extreme comes from a sparse-table RMQ — log2(n) levels of
    pairwise np.maximum built once per part (O(n log n) int64/float64,
    fully vectorized), then every query answers from two overlapping
    power-of-two blocks. Queries group by their level, so the probe
    loop runs once per DISTINCT window length class (<= 40 iterations),
    never per anchor."""
    if mode not in ("max", "min"):
        raise ValueError("mode must be 'max' or 'min'")

    def part_extreme(t: pa.Table) -> pa.Table:
        reduce_fn = np.maximum if mode == "max" else np.minimum
        order, anchors, lo, hi = _window_bounds(t, key_col, ts_col,
                                                anchor_col, window_us)
        v = t.column(value_col).to_numpy()[order]
        # sparse table: st[j][i] = extreme of v[i : i + 2^j]
        st = [v]
        while (1 << len(st)) <= len(v):
            h = 1 << (len(st) - 1)
            st.append(reduce_fn(st[-1][:-h], st[-1][h:]))
        lens = hi - lo                      # >= 1: the anchor is a row
        out = np.empty(len(lens), dtype=v.dtype)
        # bit length - 1 == floor(log2): exact for int windows
        levels = np.zeros(len(lens), dtype=np.int64)
        nz = lens > 0
        levels[nz] = (np.frexp(lens[nz].astype(np.float64))[1] - 1)
        for j in np.unique(levels[nz]):
            m = nz & (levels == j)
            blk = 1 << int(j)
            out[m] = reduce_fn(st[j][lo[m]], st[j][hi[m] - blk])
        return pa.table({id_col: t.column(id_col).take(order[anchors]),
                         "win_extreme": out})

    return _per_key(ds, [key_col, ts_col, anchor_col, id_col, value_col],
                    part_extreme, key_col=key_col, what="windowed_extreme")
