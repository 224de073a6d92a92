"""Joins — the two shapes that matter at 100 TB (SURVEY §2.5 J1).

- **Broadcast hash join** (small side ≤ GBs): ``ray.put`` the small
  side once, map each batch against it — the ChannelMap lookup analog
  (built once, probed by every transmit — include/dqm/ChannelMap.hpp:28-29,
  include/dqm/ChannelStream.hpp:169-196). No shuffle at all.
- **Partitioned hash join** (both sides large): both sides run on the
  keyed reduce's hash parts (:func:`dqm_ray.state.reduce.keyed_parts`,
  K from the bytes the map tasks emit); part i joins the left side's
  part i with the right side's, each side with its own columns.

``Dataset.join`` exists in recent Ray; the explicit forms below are the
portable patterns and keep the partitioning assumption visible.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from dqm_ray.functions.windows import to_us


def broadcast_join(ds, small_df: pd.DataFrame, *, on: str,
                   how: str = "inner", batch_size: int = 8192):
    """Join a Dataset against a driver-side small table by broadcasting
    the small side to every node once (per-worker cached resolve)."""
    from dqm_ray.state import Broadcast

    small = Broadcast(small_df)

    def probe(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out = df.merge(small.value, on=on, how=how)
        return pa.Table.from_pandas(out, preserve_index=False)

    return ds.map_batches(probe, batch_format="pyarrow",
                          batch_size=batch_size)


def partitioned_hash_join(left, right, *, on: str, suffix: str = "_r"):
    """Explicit partitioned hash join of two Datasets on an int64 key.

    Scale note: both sides co-locate by ``on`` on K hash parts, K from
    their bytes; salt hot keys upstream if a single key exceeds a
    worker's memory.
    """
    from dqm_ray.state.reduce import keyed_parts

    def join_part(l: pa.Table, r: pa.Table) -> pa.Table:
        r = r.rename_columns([c + suffix if c != on and c in l.column_names
                              else c for c in r.column_names])
        # arrow-native join: int64 keys/payloads stay int64 end to end
        return l.join(r, keys=on, join_type="inner")

    return keyed_parts([(left, _whole), (right, _whole)], join_part,
                       key=on, what="partitioned_hash_join")


def _whole(batch: pa.Table) -> pa.Table:
    return batch


def _distinct_keys(batch: pa.Table, *, col: str) -> pa.Table:
    return pa.table({col: batch.column(col).unique().drop_null()
                     .cast(pa.int64(), safe=False)})


def _drop_members(batch: pa.Table, keys: tuple, *, col: str) -> pa.Table:
    from dqm_ray.state.reduce import sorted_member

    v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
    return batch.filter(pa.array(~sorted_member(keys[0], v)))


def anti_join(left, right, *, on: str, right_on: str | None = None):
    """Left anti join: rows of ``left`` with no match in ``right`` —
    the NOT EXISTS / EXCEPT shape dedup and compliance filters need.

    Scale shape: the right side reduces to its DISTINCT int64 keys on
    plain Ray tasks (:func:`~dqm_ray.state.reduce.map_reduce`: per-block
    distinct keys, then a keyed reduce), which stay in the object store
    as one sorted array; one task per group of left blocks filters them
    with a searchsorted probe — the left (payload) side never shuffles
    and no key reaches the driver. Scale bound: 8 B x |distinct right
    keys| per left task (same documented bound as exact_dedup's winner
    set); past ~10^10 distinct keys switch to the bucketed-layout
    co-located join (sources/bucketed.py) and emit the unmatched side
    there.

    Reference parity: the inverse of the ChannelMap admission lookup —
    frames whose channel is NOT in the map are dropped before analysis
    (include/dqm/ChannelMapFiller.hpp fill + Pipeline check chain).
    """
    import functools

    import ray.data as rd

    from dqm_ray.state.reduce import dataset_blocks, map_blocks, map_reduce

    ron = right_on or on
    distinct = functools.partial(_distinct_keys, col=ron)
    groups, empty = dataset_blocks(right)
    keys, _ = map_reduce(groups, distinct, distinct, key=ron,
                         what="anti_join", empty=empty)
    groups, empty = dataset_blocks(left)
    out, _ = map_blocks(functools.partial(_drop_members, col=on), groups,
                        keys, empty=empty)
    return rd.from_arrow_refs(out)


def _typed(df: pd.DataFrame, schema: pa.Schema) -> pa.Table:
    """pandas -> arrow with the declared types: integer columns that
    picked up NaN (no asof match) become int64 WITH NULLS, never
    float64."""
    cols = {}
    for c, t in zip(schema.names, schema.types):
        s = df[c]
        if pa.types.is_integer(t) and s.dtype.kind == "f":
            m = s.isna().to_numpy()
            cols[c] = pa.array(
                np.where(m, 0, s.to_numpy()).astype(np.int64),
                type=t, mask=m)
        else:
            cols[c] = pa.array(s, type=t, from_pandas=True)
    return pa.table(cols)


def _backward_match(lt: pa.Table, rt: pa.Table, *, by: str, on: str,
                    tb: str | None):
    """Per left row, the index of its backward as-of match in ``rt``
    (null where none), or None when the packed key would overflow.

    Composite-searchsorted asof: factorize ``by`` over BOTH sides, pack
    (code, on) into one int64, and resolve every left row with a single
    searchsorted over the right side — merge_asof(by=) walks a per-key
    Cython path that is several times slower on many-key parts. Equal
    (by, on) ties: right sorted stable ascending by tiebreak,
    searchsorted('right')-1 lands on the max-tiebreak row — the
    documented contract."""
    if not rt.num_rows:
        return pa.nulls(lt.num_rows, pa.int64())
    lo_np, ro_np = to_us(lt.column(on)), to_us(rt.column(on))
    codes, _ = pd.factorize(np.concatenate(
        [lt.column(by).to_numpy(), rt.column(by).to_numpy()]))
    lc = codes[:lt.num_rows].astype(np.int64)
    rc = codes[lt.num_rows:].astype(np.int64)
    t0 = int(min(lo_np.min(), ro_np.min()))
    span = int(max(lo_np.max(), ro_np.max())) - t0 + 2
    if int(codes.max() + 1) * span >= 2 ** 63:
        return None
    rsort = np.lexsort(((rt.column(tb).to_numpy() if tb
                         else np.zeros(rt.num_rows)), ro_np, rc))
    r_comp = rc[rsort] * span + (ro_np[rsort] - t0)
    pos = np.searchsorted(r_comp, lc * span + (lo_np - t0),
                          side="right") - 1
    valid = (pos >= 0) & (rc[rsort][np.maximum(pos, 0)] == lc)
    # a masked index: unmatched left rows take TYPED nulls in the right
    # value columns (int64 stays int64-with-nulls)
    return pa.array(rsort[np.maximum(pos, 0)].astype(np.int64),
                    pa.int64(), mask=~valid)


def asof_join(left, right, *, by: str, on: str, suffix: str = "_r",
              direction: str = "backward", tiebreak: str | None = None):
    """As-of join: for each left row, the most recent right row with
    ``right.on <= left.on`` within the same ``by`` key (direction
    'backward'; pandas merge_asof semantics).

    Tie contract: when several right rows share the winning ``on`` value,
    the row with the greatest ``tiebreak`` value wins (pass the right
    side's unique id column). Without a tiebreak, ties retain the right
    side's block order — fine for analytics, NOT reproducible
    run-to-run; always pass one when output hashes matter.

    Partitioning assumption (documented per SURVEY custom-operator
    rule): both sides co-locate by ``by`` on the keyed reduce's K hash
    parts (K from their bytes) — a part holds MANY keys, and each part
    runs ONE vectorized pass over all of them (the windows.py shape;
    never one pandas dispatch per key — that is the many-tiny-groups
    pathology, VERDICT r3 item 5). Each part gets each side with its own
    columns, so no side's schema is padded to the other's. A hot ``by``
    key bounds per-part memory — salt upstream if one key exceeds a
    worker.
    """
    from dqm_ray.state.reduce import keyed_parts

    def join_part(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lcols = lt.column_names
        renamed = {c: (c + suffix if c in lcols and c not in (by, on)
                       else c) for c in rt.column_names}
        rt = rt.rename_columns([renamed[c] for c in rt.column_names])
        r_value_cols = [renamed[c] for c in renamed if c not in (by, on)]
        out_schema = pa.schema(
            [lt.schema.field(c) for c in lcols]
            + [rt.schema.field(c) for c in r_value_cols])
        if not lt.num_rows:
            return out_schema.empty_table()
        tb = renamed.get(tiebreak, tiebreak) if tiebreak else None
        idx = _backward_match(lt, rt, by=by, on=on, tb=tb) \
            if direction == "backward" else None
        if idx is not None:
            cols = {c: lt.column(c) for c in lcols}
            for c in r_value_cols:
                cols[c] = rt.column(c).take(idx)
            return pa.table(cols)
        # fallback (forward/nearest directions, or packing overflow):
        # merge_asof(by=...) needs both frames sorted by `on` globally;
        # within equal (by, on), the LAST right row wins, so a stable
        # sort ascending by tiebreak makes the max-tiebreak row win.
        l = lt.to_pandas().sort_values(on, kind="mergesort")
        r = rt.select([by, on, *r_value_cols]).to_pandas() \
            .sort_values([on, tb] if tb else on, kind="mergesort")
        r[on] = r[on].astype(l[on].dtype)
        r[by] = r[by].astype(l[by].dtype)
        return _typed(pd.merge_asof(l, r, on=on, by=by,
                                    direction=direction), out_schema)

    return keyed_parts([(left, _whole), (right, _whole)], join_part,
                       key=by, what="asof_join")


def interval_join(intervals, points, *, by: str, start_col: str,
                  end_col: str, point_col: str, int_id: str,
                  point_id: str, bin_width_us: int):
    """Pairs (int_id, point_id) where ``by`` matches and
    ``start <= point <= end`` — the range-join Ray Data lacks natively.

    Binning strategy: time is cut into ``bin_width_us`` bins; every
    interval row emits one row per bin it touches, every point row
    emits exactly one bin, and candidates co-locate on the keyed
    reduce's hash parts by one int64 derived from (by, bin) — the arrow
    join + range filter runs on one whole part per call (many tiny
    (by, bin) groups per invocation, never one task per group). A point
    lives in exactly one bin, so a pair can only surface once: no dedup
    pass needed.

    Partitioning assumptions (document per deployment): interval length
    should be O(bin_width) — an interval emits len/bin_width + 1 rows;
    and a hot (by, bin) pair concentrates its candidates in one part,
    so salt the ``by`` key upstream if a single key x bin exceeds a
    worker's memory. K follows the bytes of the tagged rows; results
    are part-count-invariant (pure hash co-location).
    """
    from dqm_ray.state.reduce import key_bits, keyed_parts

    def keyed(t: pa.Table) -> pa.Table:
        # one int64 per (key, bin): equal pairs share a part
        kb = key_bits(t.column("key")) ^ (
            t.column("bin").to_numpy().view(np.uint64)
            * np.uint64(0xBF58476D1CE4E5B9))
        return t.append_column("kb", pa.array(kb.view(np.int64)))

    def tag_intervals(batch: pa.Table) -> pa.Table:
        s = to_us(batch.column(start_col))
        e = to_us(batch.column(end_col))
        b0 = s // bin_width_us
        reps = np.maximum(e // bin_width_us - b0 + 1, 0)
        rows = np.repeat(np.arange(len(batch)), reps)
        first = np.repeat(np.cumsum(reps) - reps, reps)
        return keyed(pa.table({
            "key": batch.column(by).take(rows),
            "bin": b0[rows] + (np.arange(len(rows)) - first),
            "iid": batch.column(int_id).take(rows).cast(pa.int64()),
            "s": s[rows],
            "e": e[rows],
        }))

    def tag_points(batch: pa.Table) -> pa.Table:
        p = to_us(batch.column(point_col))
        return keyed(pa.table({
            "key": batch.column(by),
            "bin": p // bin_width_us,
            "pid": batch.column(point_id).cast(pa.int64()),
            "p": p,
        }))

    def join_part(l: pa.Table, r: pa.Table) -> pa.Table:
        j = l.drop_columns(["kb"]).join(r.drop_columns(["kb"]),
                                        keys=["key", "bin"],
                                        join_type="inner")
        p = j.column("p").to_numpy()
        j = j.filter(pa.array((p >= j.column("s").to_numpy())
                              & (p <= j.column("e").to_numpy())))
        return j.select(["iid", "pid"]).rename_columns([int_id, point_id])

    return keyed_parts([(intervals, tag_intervals), (points, tag_points)],
                       join_part, key="kb", what="interval_join")
