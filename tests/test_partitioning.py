"""Adaptive range-bin sizing (dqm_ray.functions.scan.num_bins) + the
invariance contract of the keyed reduce's hash parts: co-location is
pure routing, so every hash-part operator must produce its naive twin's
result at any part count K, here K = 1 and K = 4 (forced through the
reduce budget and read from the logged K)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from dqm_ray.functions.scan import num_bins


def test_num_bins_floor_and_growth():
    assert num_bins(None) == 256
    assert num_bins(100) == 256
    assert num_bins(500_000 * 4096) == 4097
    assert num_bins(10**18) == 65536


@pytest.fixture()
def events_df():
    rng = np.random.RandomState(7)
    n = 4000
    return pd.DataFrame({
        "user_id": rng.randint(0, 97, n).astype(np.int64),
        "ts": (np.datetime64("2025-01-01", "us")
               + rng.randint(0, 10**10, n).astype("timedelta64[us]")),
        "event_id": np.arange(n, dtype=np.int64),
    })


def _sorted(df, cols):
    return df.sort_values(cols).reset_index(drop=True)


def test_sessionize_part_count_invariant(ray_session, events_df,
                                        at_k1_and_k4):
    import ray.data as rd

    from dqm_ray.functions.windows import sessionize

    gap = np.timedelta64(30 * 60, "s")
    want = pd.DataFrame(
        [(uid, 1 + int((np.diff(np.sort(g["ts"].to_numpy())) > gap).sum()))
         for uid, g in events_df.groupby("user_id")],
        columns=["user_id", "n_sessions"])
    outs = at_k1_and_k4(
        lambda: sessionize(rd.from_pandas(events_df).repartition(5)),
        "sessionize")
    for out in outs:
        pd.testing.assert_frame_equal(_sorted(out.to_pandas(), ["user_id"]),
                                      want)


def _asof_twin(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
    """Naive backward as-of join: per left row, the same-user right row
    with the greatest (ts, event_id) at or before the left ts."""
    by_user = {}
    for u, t, e in zip(right["user_id"], right["ts"], right["event_id"]):
        by_user.setdefault(u, []).append((t, e))
    rows = []
    for u, t, e in zip(left["user_id"], left["ts"], left["event_id"]):
        prior = [r for r in by_user.get(u, []) if r[0] <= t]
        rows.append((u, t, e, max(prior)[1] if prior else None))
    return pd.DataFrame(rows, columns=["user_id", "ts", "event_id",
                                       "event_id_r"])


def test_asof_join_part_count_invariant(ray_session, events_df,
                                        at_k1_and_k4):
    import ray.data as rd

    from dqm_ray.functions.joins import asof_join

    left = events_df.iloc[::2].reset_index(drop=True)
    right = events_df.iloc[1::2].reset_index(drop=True)
    want = _sorted(_asof_twin(left, right), ["event_id"])
    outs = at_k1_and_k4(
        lambda: asof_join(rd.from_pandas(left).repartition(3),
                          rd.from_pandas(right).repartition(4),
                          by="user_id", on="ts", tiebreak="event_id"),
        "asof_join")
    for ds in outs:
        # dtype contract (VERDICT r4 item 1): every id stays int64 in the
        # ARROW schema (nullable on the right side; unmatched rows are
        # typed nulls, never NaN-promoted floats)
        sch = dict(zip(ds.schema().names, ds.schema().types))
        assert sch["event_id"] == pa.int64(), sch
        assert sch["user_id"] == pa.int64(), sch
        assert sch["event_id_r"] == pa.int64(), sch
        assert pa.types.is_timestamp(sch["ts"]), sch
        got = _sorted(ds.to_pandas(), ["event_id"])
        assert got["event_id"].tolist() == want["event_id"].tolist()
        assert got["event_id_r"].fillna(-1).astype(np.int64).tolist() == \
            want["event_id_r"].fillna(-1).astype(np.int64).tolist()


def test_asof_join_no_per_key_dispatch(ray_session, events_df,
                                       reduce_at_budget):
    """The parts follow the bytes, never the key count: 97 users in a
    few hundred KB run as K = 1 part task at the default budget, and
    as K = 8 at an eighth of the logged bytes."""
    import ray.data as rd

    from dqm_ray.functions.joins import asof_join
    from dqm_ray.state.reduce import SMALL_REDUCE_BYTES

    def run():
        return asof_join(rd.from_pandas(events_df.iloc[::2]),
                         rd.from_pandas(events_df.iloc[1::2]),
                         by="user_id", on="ts", tiebreak="event_id")

    one, k, nbytes, _ = reduce_at_budget(SMALL_REDUCE_BYTES, run,
                                         "asof_join")
    assert k == 1 and 0 < nbytes <= SMALL_REDUCE_BYTES
    assert one.num_blocks() == 1
    eight, k, _, _ = reduce_at_budget(nbytes // 8, run, "asof_join")
    assert k == 8 and eight.num_blocks() == 8
    assert eight.count() == one.count() == len(events_df) // 2


def test_prefix_scan_adaptive_bins_match_naive(ray_session):
    import ray.data as rd

    from dqm_ray.functions.scan import ordered_prefix_sum

    rng = np.random.RandomState(3)
    df = pd.DataFrame({
        "k": rng.permutation(3000).astype(np.int64),
        "v": rng.randint(0, 100, 3000).astype(np.int64)})
    out = ordered_prefix_sum(rd.from_pandas(df).repartition(7),
                             order_col="k", value_col="v").to_pandas()
    out = _sorted(out, ["k"])
    naive = df.sort_values("k").reset_index(drop=True)
    expect = naive["v"].cumsum().shift(fill_value=0).to_numpy()
    np.testing.assert_array_equal(out["cum_before"].to_numpy(), expect)
