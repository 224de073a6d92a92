"""Fourier operators (golden sine fixtures — the reference's
Fourier_test_generator.py pattern), joins, registry, normalize."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _sine_events(n_keys=3, n=512, freq_bin=20):
    """Per-key sine at a known bin → spectrum peaks exactly there
    (filegen.py `sin` pattern analog)."""
    rows = []
    for k in range(n_keys):
        t = np.arange(n)
        val = np.sin(2 * np.pi * freq_bin * t / 256) * (k + 1)
        rows.append(pd.DataFrame({"key": f"k{k}", "seq": t, "value": val}))
    return pd.concat(rows, ignore_index=True)


def test_fourier_by_key_peak(ray_session):
    import ray.data as rd

    from dqm_ray.functions.spectral import fourier_by_key

    df = _sine_events()
    out = fourier_by_key(rd.from_pandas(df), key="key", value_col="value",
                         order_col="seq", n_points=256).to_pandas()
    for k, g in out.groupby("key"):
        peak = g.loc[g["magnitude"].idxmax(), "freq_idx"]
        assert peak == 20
    # vs numpy golden, element-wise
    g0 = out[out["key"] == "k0"].sort_values("freq_idx")
    series = df[df["key"] == "k0"].sort_values("seq")["value"].to_numpy()[:256]
    want = np.abs(np.fft.rfft(series))
    np.testing.assert_allclose(g0["magnitude"].to_numpy(), want, atol=1e-9)


def test_fourier_by_key_skips_short(ray_session):
    import ray.data as rd

    from dqm_ray.functions.spectral import fourier_by_key

    df = pd.DataFrame({"key": ["a"] * 100 + ["b"] * 300,
                       "seq": list(range(100)) + list(range(300)),
                       "value": np.ones(400)})
    out = fourier_by_key(rd.from_pandas(df), key="key", value_col="value",
                         order_col="seq", n_points=256).to_pandas()
    assert set(out["key"]) == {"b"}  # 'a' has < n_points samples


def test_fourier_total_linearity(ray_session):
    import ray.data as rd

    from dqm_ray.functions.spectral import fourier_total

    df = _sine_events()
    got = fourier_total(rd.from_pandas(df), key="key", value_col="value",
                        order_col="seq", n_points=256)
    # oracle: FFT of summed aligned series
    summed = np.zeros(256)
    for _k, g in df.groupby("key"):
        summed += g.sort_values("seq")["value"].to_numpy()[:256]
    want = np.abs(np.fft.rfft(summed))
    np.testing.assert_allclose(
        got.sort_values("freq_idx")["magnitude"].to_numpy(), want, atol=1e-9)


def test_broadcast_join(ray_session):
    import ray.data as rd

    from dqm_ray.functions.joins import broadcast_join

    big = pd.DataFrame({"k": np.arange(100) % 7, "v": np.arange(100)})
    small = pd.DataFrame({"k": np.arange(7), "name": [f"n{i}" for i in range(7)]})
    out = broadcast_join(rd.from_pandas(big).repartition(4), small,
                         on="k").to_pandas()
    want = big.merge(small, on="k")
    assert len(out) == len(want)
    assert out.sort_values(["k", "v"]).reset_index(drop=True).equals(
        want.sort_values(["k", "v"]).reset_index(drop=True))


def test_partitioned_hash_join(ray_session, at_k1_and_k4):
    import ray.data as rd

    from dqm_ray.functions.joins import partitioned_hash_join

    l = pd.DataFrame({"key": np.arange(200) % 50, "lv": np.arange(200)})
    r = pd.DataFrame({"key": np.arange(0, 100, 2), "rv": np.arange(50),
                      "lv": np.arange(50) * 3})
    want = l.merge(r, on="key", suffixes=("", "_r"))
    cols = ["key", "lv", "rv", "lv_r"]
    for ds in at_k1_and_k4(
            lambda: partitioned_hash_join(rd.from_pandas(l).repartition(4),
                                          rd.from_pandas(r).repartition(2),
                                          on="key"),
            "partitioned_hash_join"):
        out = ds.to_pandas()
        assert sorted(out.columns) == sorted(cols)
        assert sorted(map(tuple, out[cols].to_numpy().tolist())) == \
            sorted(map(tuple, want[cols].to_numpy().tolist()))


def test_rule_registry(corpus_table, cfg):
    import dataclasses

    import dqm_ray.registry as reg
    from dqm_ray.stages.rules import heuristic_rules_batch

    @reg.register_rule("no_todo")
    def no_todo(batch, _cfg):
        import pyarrow.compute as pc

        return pc.match_substring(batch.column("content"), "TODO") \
            .to_numpy(zero_copy_only=False)

    try:
        t = pa.table({
            "repo": ["r"], "path": ["p"], "commit": ["c"], "lang": ["python"],
            "content": pa.array(["x = 1  # TODO fix\n"], pa.large_string()),
        })
        cfg2 = dataclasses.replace(cfg, custom_rules=("no_todo",))
        out = heuristic_rules_batch(t, cfg=cfg2)
        assert out["rule_reasons"][0].as_py() == ["no_todo"]
        with pytest.raises(KeyError, match="unknown rule"):
            reg.get_rule("nope")
    finally:
        reg.RULES.pop("no_todo", None)


def test_normalize_stage(cfg):
    import dataclasses

    from dqm_ray.stages.normalize import normalize_batch

    t = pa.table({
        "repo": ["a", "b", "c"], "path": ["p1", "p2", "p3"],
        "commit": ["x", "y", "z"], "lang": ["python", "cobol", "go"],
        "content": pa.array(["ok", None, "ok"], pa.string()),
    })
    cfg2 = dataclasses.replace(cfg, allowed_langs=("python", "go"))
    out = normalize_batch(t, cfg=cfg2)
    assert out["repo"].to_pylist() == ["a", "c"]  # null content + bad lang dropped
    assert pa.types.is_large_string(out["content"].type)
    with pytest.raises(ValueError, match="missing required"):
        normalize_batch(t.drop_columns(["lang"]), cfg=cfg2)


def test_salted_groupby_matches_plain(ray_session):
    import ray.data as rd

    from dqm_ray.functions.skew import salted_count_sum

    rng = np.random.default_rng(44)
    # heavy skew: 70% of rows share one key
    keys = np.where(rng.random(5000) < 0.7, "hot",
                    rng.choice(["a", "b", "c"], 5000))
    df = pd.DataFrame({"k": keys, "v": rng.integers(0, 100, 5000)})
    out = salted_count_sum(rd.from_pandas(df).repartition(8),
                           key="k", sum_cols=("v",)).to_pandas()
    want = df.groupby("k").agg(n=("v", "size"), sum_v=("v", "sum"))
    out = out.set_index("k").sort_index()
    assert (out["n"] == want["n"]).all()
    assert (out["sum_v"] == want["sum_v"]).all()


def test_asof_join_matches_pandas(ray_session, at_k1_and_k4):
    import ray.data as rd

    from dqm_ray.functions.joins import asof_join

    rng = np.random.default_rng(12)
    left = pd.DataFrame({
        "k": rng.integers(0, 5, 80),
        "t": np.sort(rng.integers(0, 1000, 80)),
        "lv": np.arange(80)})
    right = pd.DataFrame({
        "k": rng.integers(0, 5, 60),
        "t": np.sort(rng.integers(0, 1000, 60)),
        "rv": np.arange(60) * 10})
    # pandas oracle, per key
    outs = []
    for k, lg in left.groupby("k"):
        rg = right[right["k"] == k].drop(columns="k")
        lg = lg.sort_values("t")
        if len(rg):
            outs.append(pd.merge_asof(lg, rg.sort_values("t"), on="t"))
        else:
            lg = lg.copy(); lg["rv"] = np.nan; outs.append(lg)
    want = pd.concat(outs, ignore_index=True)
    want = want.sort_values(["k", "t", "lv"]).reset_index(drop=True)
    for ds in at_k1_and_k4(
            lambda: asof_join(rd.from_pandas(left).repartition(3),
                              rd.from_pandas(right).repartition(2),
                              by="k", on="t"), "asof_join"):
        got = ds.to_pandas().sort_values(["k", "t", "lv"]) \
            .reset_index(drop=True)
        assert got["lv"].tolist() == want["lv"].tolist()
        assert got["rv"].fillna(-1).tolist() == \
            want["rv"].fillna(-1).tolist()


def test_interval_join_containment(ray_session, at_k1_and_k4):
    """Binned range join: exact containment, cross-key exclusion, and
    intervals spanning many bins."""
    import pandas as pd
    import ray.data as rd

    from dqm_ray.functions.joins import interval_join

    intervals = pd.DataFrame({
        "iid": [1, 2, 3],
        "k": [10, 10, 20],
        "s": [100, 250, 0],
        "e": [200, 260, 1000],   # iid=3 spans many bins (width 50)
    })
    points = pd.DataFrame({
        "pid": [101, 102, 103, 104, 105, 106],
        "k":   [10, 10, 10, 20, 20, 30],
        "p":   [150, 201, 255, 500, 1001, 150],
    })
    for ds in at_k1_and_k4(
            lambda: interval_join(
                rd.from_pandas(intervals).repartition(2),
                rd.from_pandas(points).repartition(3),
                by="k", start_col="s", end_col="e", point_col="p",
                int_id="iid", point_id="pid", bin_width_us=50),
            "interval_join"):
        pairs = ds.to_pandas()
        got = set(map(tuple, pairs[["iid", "pid"]].to_numpy()))
        # iid1:[100,200]@k10 → 150; iid2:[250,260]@k10 → 255;
        # iid3:[0,1000]@k20 → 500 (1001 outside, 150@k30 wrong key)
        assert got == {(1, 101), (2, 103), (3, 104)}
        # no duplicate pairs despite multi-bin intervals
        assert len(pairs) == len(got)


def test_bucketed_write_and_join(ray_session, tmp_path):
    """Write-once bucketed layout → shuffle-free per-bucket join equals
    a plain merge; missing buckets yield schema-correct empties."""
    import pandas as pd
    import ray.data as rd

    from dqm_ray.sources.bucketed import bucketed_join, write_bucketed

    a = pd.DataFrame({"k": np.arange(200, dtype=np.int64),
                      "va": np.arange(200) * 2})
    b = pd.DataFrame({"k": np.arange(0, 400, 2, dtype=np.int64),
                      "vb": np.arange(0, 400, 2) * 3})
    da, db = str(tmp_path / "a"), str(tmp_path / "b")
    write_bucketed(rd.from_pandas(a).repartition(3), da, key="k",
                   num_buckets=8)
    write_bucketed(rd.from_pandas(b).repartition(2), db, key="k",
                   num_buckets=8)
    got = bucketed_join(da, db, on="k", num_buckets=8).to_pandas() \
        .sort_values("k", ignore_index=True)
    want = a.merge(b, on="k").sort_values("k", ignore_index=True)
    assert got["k"].tolist() == want["k"].tolist()
    assert got["va"].tolist() == want["va"].tolist()
    assert got["vb"].tolist() == want["vb"].tolist()
