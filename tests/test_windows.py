"""Hash-part windowing ops (dqm_ray/functions/windows.py) vs a naive
pandas reference at K = 1 and K = 4 hash parts: sessionize and
key_deltas must match an independent per-key python computation,
including the n<=1 -> -1 sentinel contract (src/algs/STD.cpp:21-48)
and exact integer-us mean/max gaps."""

import numpy as np
import pandas as pd
import pytest


def _events(n=4000, n_users=73, seed=5):
    rng = np.random.default_rng(seed)
    user = rng.integers(0, n_users, n)
    base = np.datetime64("2024-01-01T00:00:00", "us")
    ts = base + rng.integers(0, 30 * 86400_000_000, n).astype(
        "timedelta64[us]")
    # plant exact-duplicate timestamps (tie handling) and a lonely user
    ts[1] = ts[0]
    user[1] = user[0]
    user[2] = n_users + 7  # singleton key -> sentinel path
    return pd.DataFrame({"user_id": user.astype(np.int64), "ts": ts})


def _naive_sessions(df, gap_minutes=30):
    out = {}
    for uid, g in df.groupby("user_id"):
        ts = np.sort(g["ts"].to_numpy())
        gaps = np.diff(ts) > np.timedelta64(gap_minutes * 60, "s")
        out[uid] = 1 + int(gaps.sum())
    return out


def test_sessionize_matches_naive(ray_session, at_k1_and_k4):
    import ray.data as rd

    from dqm_ray.functions.windows import sessionize

    df = _events()
    want = _naive_sessions(df)
    for out in at_k1_and_k4(
            lambda: sessionize(rd.from_pandas(df).repartition(3),
                               key_col="user_id", ts_col="ts",
                               gap_minutes=30), "sessionize"):
        got = out.to_pandas()
        assert len(got) == len(want)
        assert dict(zip(got["user_id"], got["n_sessions"])) == want


def test_key_deltas_matches_naive_and_sentinel(ray_session, at_k1_and_k4):
    import ray.data as rd

    from dqm_ray.functions.windows import key_deltas

    df = _events()
    one, four = at_k1_and_k4(
        lambda: key_deltas(rd.from_pandas(df).repartition(3),
                           key_col="user_id", ts_col="ts"), "key_deltas")
    pd.testing.assert_frame_equal(
        one.to_pandas().sort_values("user_id", ignore_index=True),
        four.to_pandas().sort_values("user_id", ignore_index=True))
    got = one.to_pandas().set_index("user_id")
    for uid, g in df.groupby("user_id"):
        ts = np.sort(g["ts"].to_numpy())
        row = got.loc[uid]
        assert row["n_events"] == len(ts)
        if len(ts) <= 1:
            assert row["mean_gap_s"] == -1.0
            assert row["max_gap_s"] == -1.0
        else:
            d_us = np.diff(ts).astype("timedelta64[us]").astype(np.int64)
            assert row["mean_gap_s"] == pytest.approx(
                float(d_us.sum()) / len(d_us) / 1e6, abs=0, rel=1e-12)
            assert row["max_gap_s"] == d_us.max() / 1e6


def test_sessionize_string_keys(ray_session, at_k1_and_k4):
    """The hash parts split on string keys too."""
    import ray.data as rd

    from dqm_ray.functions.windows import sessionize

    df = _events(n=500, n_users=11)
    df["user_id"] = "u" + df["user_id"].astype(str)
    want = _naive_sessions(df)
    for out in at_k1_and_k4(
            lambda: sessionize(rd.from_pandas(df).repartition(2),
                               key_col="user_id", ts_col="ts"),
            "sessionize"):
        got = out.to_pandas()
        assert dict(zip(got["user_id"], got["n_sessions"])) == want


def _naive_rate_limit(df, window_minutes=60, k=3):
    win = df["ts"].dt.floor(f"{window_minutes}min")
    d = df.assign(window_start=win).sort_values(
        ["user_id", "window_start", "ts", "event_id"])
    d["rn"] = d.groupby(["user_id", "window_start"]).cumcount() + 1
    return d[d["rn"] <= k][["user_id", "event_id", "window_start", "rn"]]


def test_rate_limit_matches_naive(ray_session, at_k1_and_k4):
    import ray.data as rd

    from dqm_ray.functions.windows import rate_limit

    df = _events(n=5000, n_users=40, seed=11)
    df["event_id"] = np.arange(len(df), dtype=np.int64)
    # plant exact (user, ts) ties so the event_id tie-break matters
    df.loc[5, ["user_id", "ts"]] = df.loc[4, ["user_id", "ts"]]
    df.loc[6, ["user_id", "ts"]] = df.loc[4, ["user_id", "ts"]]
    ref = _naive_rate_limit(df).sort_values(
        ["user_id", "window_start", "rn"]).reset_index(drop=True)
    for ds in at_k1_and_k4(
            lambda: rate_limit(rd.from_pandas(df).repartition(9),
                               window_minutes=60, k=3), "rate_limit"):
        out = ds.to_pandas().sort_values(["user_id", "window_start", "rn"]) \
            .reset_index(drop=True)
        pd.testing.assert_frame_equal(
            out[["user_id", "event_id", "window_start", "rn"]], ref)
        assert (out.groupby(["user_id", "window_start"]).size() <= 3).all()


def test_trending_topk_and_ties(ray_session, at_k1_and_k4):
    import ray.data as rd

    from dqm_ray.functions.windows import trending

    base = np.datetime64("2024-01-01T00:00:00", "us")
    rows = []
    # hour 0: a x3, b x2, c x1, d x1 (c/d tie -> c wins rank 3)
    rows += [("a", 0)] * 3 + [("b", 5)] * 2 + [("c", 7), ("d", 9)]
    # hour 1: only z
    rows += [("z", 61)]
    df = pd.DataFrame({
        "event_type": [r[0] for r in rows],
        "ts": [base + np.timedelta64(m, "m") for _, m in rows],
    })
    for ds in at_k1_and_k4(
            lambda: trending(rd.from_pandas(df).repartition(3),
                             window_minutes=60, k=3), "trending"):
        out = ds.to_pandas().sort_values(["window_start", "rank"]) \
            .reset_index(drop=True)
        h0 = out[out["window_start"] == base]
        assert h0["event_type"].tolist() == ["a", "b", "c"]
        assert h0["n"].tolist() == [3, 2, 1]
        assert h0["rank"].tolist() == [1, 2, 3]
        h1 = out[out["window_start"] != base]
        assert h1["event_type"].tolist() == ["z"] and len(out) == 4


def test_funnel_conversion_semantics(ray_session, at_k1_and_k4):
    """Window bounds: same-ts view counts, view strictly older than W
    does not; other event types are inert; view-after-click ignored."""
    import ray.data as rd

    from dqm_ray.functions.windows import funnel

    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    m = np.timedelta64(1, "m")
    rows = [
        (1, t0, "view"), (1, t0 + 5 * m, "click"),          # converts
        (2, t0, "view"), (2, t0 + 10 * m, "click"),         # 10m ago: NO
        (3, t0, "view"), (3, t0, "click"),                  # same ts: yes
        (4, t0, "purchase"), (4, t0 + 1 * m, "click"),      # no view
        (5, t0 + 2 * m, "click"), (5, t0 + 3 * m, "view"),  # view after
        (6, t0, "view"),                                    # no click
    ]
    df = pd.DataFrame({
        "user_id": np.array([r[0] for r in rows], np.int64),
        "ts": [r[1] for r in rows],
        "event_type": [r[2] for r in rows],
    })
    for ds in at_k1_and_k4(
            lambda: funnel(rd.from_pandas(df).repartition(2),
                           window_minutes=10), "funnel"):
        out = ds.to_pandas().set_index("user_id").sort_index()
        assert out.index.tolist() == [1, 2, 3, 4, 5]
        assert out["n_clicks"].tolist() == [1, 1, 1, 1, 1]
        assert out["n_converted"].tolist() == [1, 0, 1, 0, 0]


def _window_twin(df: pd.DataFrame, W: int, key="user_id",
                 anchor="is_anchor", eid="event_id") -> pd.DataFrame:
    """Brute force: every anchor joined to every same-key row, kept
    when ``ts in [anchor ts - W, anchor ts]``; per anchor the count,
    and the sum, max and min of ``v``."""
    a = df[df[anchor]][[key, "ts", eid]]
    m = a.merge(df[[key, "ts", "v"]], on=key, suffixes=("", "_o"))
    m = m[(m["ts_o"] >= m["ts"] - W) & (m["ts_o"] <= m["ts"])]
    return m.groupby(eid)["v"].agg(["size", "sum", "max", "min"]) \
        .rename(columns={"size": "n"})


def _windows_df(rng, n, n_keys, span, v):
    return pd.DataFrame({
        "user_id": rng.integers(0, n_keys, n),
        "ts": rng.integers(0, span, n),
        "event_id": np.arange(n, dtype=np.int64),
        "v": v,
        "is_anchor": rng.random(n) < 0.25,
    })


def test_windowed_count_matches_bruteforce(ray_session, at_k1_and_k4):
    import pyarrow as pa
    import ray.data as rd

    from dqm_ray.functions.windows import windowed_count

    rng = np.random.default_rng(13)
    df = _windows_df(rng, 3000, 40, 10**7, rng.integers(0, 9, 3000))
    W = 250_000
    want = _window_twin(df, W)["n"]
    t = pa.Table.from_pandas(df)
    for ds in at_k1_and_k4(
            lambda: windowed_count(
                rd.from_arrow([t.slice(0, 1000), t.slice(1000)]),
                key_col="user_id", ts_col="ts", anchor_col="is_anchor",
                id_col="event_id", window_us=W), "windowed_count"):
        got = ds.to_pandas().set_index("event_id")["n"].sort_index()
        assert got.index.tolist() == want.index.tolist()
        assert got.tolist() == want.tolist()


def test_windowed_sum_matches_bruteforce(ray_session, at_k1_and_k4):
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from dqm_ray.functions.windows import windowed_sum

    rng = np.random.default_rng(29)
    df = _windows_df(rng, 2000, 25, 10**6, rng.integers(-50, 50, 2000))
    W = 40_000
    want = _window_twin(df, W)["sum"]
    t = pa.Table.from_pandas(df)
    for ds in at_k1_and_k4(
            lambda: windowed_sum(
                rd.from_arrow([t.slice(0, 700), t.slice(700)]),
                key_col="user_id", ts_col="ts", anchor_col="is_anchor",
                id_col="event_id", value_col="v", window_us=W),
            "windowed_sum"):
        got = ds.to_pandas().set_index("event_id")["win_sum"].sort_index()
        assert got.index.tolist() == want.index.tolist()
        assert got.tolist() == want.tolist()
    # float value columns are refused (accumulation-order exactness rule)
    fdf = df.assign(v=df["v"].astype(float))
    with pytest.raises(Exception):
        windowed_sum(rd.from_arrow(pa.Table.from_pandas(fdf)),
                     key_col="user_id", ts_col="ts",
                     anchor_col="is_anchor", id_col="event_id",
                     value_col="v", window_us=W).to_pandas()


def test_windowed_ops_fuzz(ray_session):
    """Property fuzz vs brute force: arbitrary key/ts collisions, ties
    on the window boundary, anchors at segment edges."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from dqm_ray.functions.windows import windowed_count, windowed_sum

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(20, 150),
           st.integers(1, 6), st.integers(1, 50))
    def prop(seed, n, n_keys, W):
        rng = np.random.default_rng(seed)
        df = pd.DataFrame({
            "k": rng.integers(0, n_keys, n),
            "ts": rng.integers(0, 60, n),      # dense → many exact ties
            "eid": np.arange(n, dtype=np.int64),
            "v": rng.integers(-9, 9, n),
            "a": rng.random(n) < 0.4,
        })
        t = pa.Table.from_pandas(df)
        gc = windowed_count(rd.from_arrow(t), key_col="k", ts_col="ts",
                            anchor_col="a", id_col="eid",
                            window_us=W).to_pandas() \
            .set_index("eid")["n"]
        gs = windowed_sum(rd.from_arrow(t), key_col="k", ts_col="ts",
                          anchor_col="a", id_col="eid", value_col="v",
                          window_us=W).to_pandas() \
            .set_index("eid")["win_sum"]
        for _, r in df[df["a"]].iterrows():
            m = (df["k"] == r["k"]) & (df["ts"] >= r["ts"] - W) \
                & (df["ts"] <= r["ts"])
            assert gc[r["eid"]] == int(m.sum())
            assert gs[r["eid"]] == int(df.loc[m, "v"].sum())

    prop()


def test_windowed_extreme_matches_bruteforce(ray_session, at_k1_and_k4):
    import pyarrow as pa
    import ray.data as rd

    from dqm_ray.functions.windows import windowed_extreme

    rng = np.random.default_rng(31)
    # float-safe: max picks rows
    df = _windows_df(rng, 2500, 30, 10**6, rng.standard_normal(2500))
    W = 30_000
    want = _window_twin(df, W)
    t = pa.Table.from_pandas(df)
    for mode in ("max", "min"):
        for ds in at_k1_and_k4(
                lambda: windowed_extreme(
                    rd.from_arrow([t.slice(0, 1200), t.slice(1200)]),
                    key_col="user_id", ts_col="ts", anchor_col="is_anchor",
                    id_col="event_id", value_col="v", window_us=W,
                    mode=mode), "windowed_extreme"):
            got = ds.to_pandas().set_index("event_id")["win_extreme"] \
                .sort_index()
            assert got.index.tolist() == want.index.tolist()
            assert got.tolist() == want[mode].tolist(), mode


def test_windowed_ops_400k_keys_over_a_year_at_k1(ray_session, monkeypatch,
                                                   reduce_at_budget):
    """400,000 keys over one year in ONE part: keys x ts-span passes
    2^63, and the three probes still equal the brute-force twin."""
    import pyarrow as pa
    import ray.data as rd

    import dqm_ray.state.reduce as reduce_mod
    from dqm_ray.functions.windows import (windowed_count, windowed_extreme,
                                           windowed_sum)
    from dqm_ray.state.reduce import SMALL_REDUCE_BYTES

    # K as on a 1-CPU cluster: the ~19 MiB input would take 2 parts on
    # this session's CPUs
    monkeypatch.setattr(reduce_mod, "_cpus", lambda: 1)

    rng = np.random.default_rng(400)
    n_keys, year_us = 400_000, 365 * 86_400 * 10**6
    n = 2 * n_keys
    df = pd.DataFrame({
        "user_id": np.r_[np.arange(n_keys), rng.integers(0, n_keys,
                                                         n - n_keys)],
        "ts": np.r_[0, year_us - 1, rng.integers(0, year_us, n - 2)],
        "event_id": np.arange(n, dtype=np.int64),
        "v": rng.integers(-1000, 1000, n),
        "is_anchor": rng.random(n) < 0.3,
    })
    assert df["user_id"].nunique() * year_us >= 2 ** 63
    W = 60 * 86_400 * 10**6
    want = _window_twin(df, W)
    t = pa.Table.from_pandas(df)
    blocks = [t.slice(i, n // 4) for i in range(0, n, n // 4)]
    ops = (
        (windowed_count, {}, "n", "n"),
        (windowed_sum, {"value_col": "v"}, "win_sum", "sum"),
        (windowed_extreme, {"value_col": "v"}, "win_extreme", "max"))
    for op, kw, col, twin_col in ops:
        ds, k, _, _ = reduce_at_budget(
            SMALL_REDUCE_BYTES,
            lambda: op(rd.from_arrow(blocks), key_col="user_id",
                       ts_col="ts", anchor_col="is_anchor",
                       id_col="event_id", window_us=W, **kw),
            op.__name__)
        assert k == 1
        got = ds.to_pandas().set_index("event_id")[col].sort_index()
        assert got.index.tolist() == want.index.tolist()
        np.testing.assert_array_equal(got.to_numpy(),
                                      want[twin_col].to_numpy())


@pytest.mark.parametrize("span", [1, 10, 2**62, 2**64],
                         ids=["1", "10", "2^62", "2^64"])
def test_window_bounds_exact_at_any_span(span):
    """Every anchor's [lo, hi) equals a per-row scan at any ts span: all
    rows at one ts, a small span, and spans of half and all of the
    int64 domain (where ts - W would wrap)."""
    import pyarrow as pa

    from dqm_ray.functions.windows import _window_bounds

    rng = np.random.default_rng(span % 1000)
    n = 300
    lo_ts = -(2 ** 63) if span > 2 ** 63 else -7
    ts = (lo_ts + rng.integers(0, min(span, 2 ** 63), n, dtype=np.uint64)
          .astype(np.int64) * (2 if span > 2 ** 63 else 1))
    ts[:2] = [lo_ts, lo_ts + span - 1]
    key = rng.integers(0, 9, n)
    anchor = rng.random(n) < 0.5
    W = max(span // 7, 3)
    t = pa.table({"k": key, "ts": ts, "a": anchor})
    order, anchors, lo, hi = _window_bounds(t, "k", "ts", "a", W)
    sk, sts = key[order], ts[order].astype(object)
    for i, a in enumerate(anchors):
        inside = [j for j in range(n) if sk[j] == sk[a]
                  and sts[a] - W <= sts[j] <= sts[a]]
        assert inside == list(range(lo[i], hi[i])), i


@pytest.mark.parametrize("rows", ["one_anchor", "equal_ts"])
def test_windowed_ops_single_timestamp(ray_session, at_k1_and_k4, rows):
    """A one-row anchor input, and an input whose rows all share one
    ts, equal the brute-force twin at K = 1 and K = 4."""
    import pyarrow as pa
    import ray.data as rd

    from dqm_ray.functions.windows import (windowed_count, windowed_extreme,
                                           windowed_sum)

    n = 1 if rows == "one_anchor" else 40
    df = pd.DataFrame({"user_id": np.arange(n) % 3,
                       "ts": np.full(n, 1_000_000, np.int64),
                       "event_id": np.arange(n, dtype=np.int64),
                       "v": np.arange(n, dtype=np.int64) - 7,
                       "is_anchor": np.arange(n) % 2 == 0})
    want = _window_twin(df, 50)
    t = pa.Table.from_pandas(df)
    ops = ((windowed_count, {}, "n", "n"),
           (windowed_sum, {"value_col": "v"}, "win_sum", "sum"),
           (windowed_extreme, {"value_col": "v"}, "win_extreme", "max"))
    for op, kw, col, twin_col in ops:
        for ds in at_k1_and_k4(
                lambda: op(rd.from_arrow(t), key_col="user_id", ts_col="ts",
                           anchor_col="is_anchor", id_col="event_id",
                           window_us=50, **kw), op.__name__):
            got = ds.to_pandas().set_index("event_id")[col].sort_index()
            assert got.index.tolist() == want.index.tolist()
            assert got.tolist() == want[twin_col].tolist(), op.__name__


def test_trending_drops_null_keys_and_ts(ray_session, at_k1_and_k4):
    """A null key or ts joins no window (as pandas' groupby drops
    them); a string key with nulls still ranks."""
    import pyarrow as pa
    import ray.data as rd

    from dqm_ray.functions.windows import trending

    base = np.datetime64("2024-01-01T00:00:00", "us")
    ts = [base + np.timedelta64(m, "m") for m in range(6)] + [None, None]
    t = pa.table({
        "event_type": ["a", None, None, None, "b", "a", "b", None],
        "ts": pa.array(ts, pa.timestamp("us")),
    })
    for ds in at_k1_and_k4(
            lambda: trending(rd.from_arrow([t.slice(0, 4), t.slice(4)]),
                             window_minutes=60, k=3), "trending"):
        out = ds.to_pandas().sort_values("rank").reset_index(drop=True)
        assert out["event_type"].tolist() == ["a", "b"]
        assert out["n"].tolist() == [2, 1]
        assert (out["window_start"] == base).all()


def test_sessionize_shared_prefix_and_float_keys(ray_session,
                                                 at_k1_and_k4):
    """Keys that share a long prefix (ids, URLs) and float keys split
    on their whole value: K = 4 equals K = 1 and the naive twin."""
    import ray.data as rd

    from dqm_ray.functions.windows import sessionize

    df = _events(n=800, n_users=60, seed=3)
    for keys in (df["user_id"].map("https://example.com/user-{:06d}"
                                   .format),
                 df["user_id"] + 0.5):
        d = df.assign(user_id=keys)
        want = _naive_sessions(d)
        for out in at_k1_and_k4(
                lambda: sessionize(rd.from_pandas(d).repartition(3)),
                "sessionize"):
            got = out.to_pandas()
            assert dict(zip(got["user_id"], got["n_sessions"])) == want
