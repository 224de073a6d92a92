"""Boilerplate-line removal, document chunking, anti join, rollup, and
distributed k-means — round-2 additions."""

import collections

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ds(table):
    import ray.data as rd

    return rd.from_arrow(table)


# ---------------------------------------------------------------------------
# line-level boilerplate removal
# ---------------------------------------------------------------------------

def _docs_with_boilerplate():
    banner = "// Copyright Example Corp - generated"
    nav = "=== navigation chrome line ==="
    rows = []
    for i in range(12):
        body = f"unique body line {i} alpha\nshort\nunique tail {i}"
        rows.append(f"{banner}\n{body}\n{nav}")
    # doc 12: banner repeated twice inside ONE doc (counts once)
    rows.append(f"{banner}\n{banner}\nrare line only here")
    # doc 13: nothing but boilerplate -> becomes ''
    rows.append(f"{banner}\n{nav}")
    # doc 14: empty text
    rows.append("")
    return pa.table({
        "doc_id": pa.array(np.arange(15), pa.int64()),
        "text": pa.array(rows),
    }), banner, nav


def test_boilerplate_removes_frequent_lines(ray_session):
    from dqm_ray.functions.boilerplate import remove_boilerplate_lines

    tbl, banner, nav = _docs_with_boilerplate()
    out = remove_boilerplate_lines(
        _ds(tbl), text_col="text", id_col="doc_id",
        min_len=10, min_docs=10).to_pandas().set_index("doc_id")
    assert len(out) == 15
    for i in range(12):
        t = out.loc[i, "text"]
        assert banner not in t and nav not in t
        assert f"unique body line {i} alpha" in t
        assert "short" in t  # below min_len: never removed
        assert out.loc[i, "n_removed"] == 2
    # doc 12: two banner copies removed (both occurrences), rare line kept
    assert out.loc[12, "text"] == "rare line only here"
    assert out.loc[12, "n_removed"] == 2
    # doc 13: all lines were boilerplate
    assert out.loc[13, "text"] == "" and out.loc[13, "n_removed"] == 2
    # doc 14: empty text round-trips
    assert out.loc[14, "text"] == "" and out.loc[14, "n_removed"] == 0


def test_doc_distinct_counts_matches_bruteforce():
    """The packed-key distinct-(doc, code) counter == a pandas dedupe,
    across dict sizes that exercise the bit-width packing (including
    dict_size=1, where the code field floors to one bit)."""
    from dqm_ray.functions.boilerplate import _doc_distinct_counts

    rng = np.random.default_rng(7)
    for dict_size, n in [(1, 40), (2, 100), (40_000, 50_000), (3, 0)]:
        codes = rng.integers(0, dict_size, n).astype(np.int64)
        rows = np.sort(rng.integers(0, max(n // 4, 1), n)).astype(np.int64)
        uniq, counts = _doc_distinct_counts(codes, rows, dict_size)
        ref = pd.DataFrame({"c": codes, "r": rows}).drop_duplicates() \
            .groupby("c").size()
        assert np.array_equal(uniq, ref.index.to_numpy())
        assert np.array_equal(counts, ref.to_numpy())


def test_boilerplate_bucketed_matches_broadcast(ray_session, tmp_path):
    """Zero-broadcast bucketed clean == broadcast clean, row for row
    (the paragraphs-bucketed parity pattern)."""
    from dqm_ray.functions.boilerplate import (
        remove_boilerplate_lines, remove_boilerplate_lines_bucketed)

    tbl, _, _ = _docs_with_boilerplate()
    a = remove_boilerplate_lines(
        _ds(tbl), text_col="text", id_col="doc_id",
        min_len=10, min_docs=10).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    b = remove_boilerplate_lines_bucketed(
        _ds(tbl), str(tmp_path / "bp"), text_col="text",
        id_col="doc_id", min_len=10, min_docs=10,
        num_buckets=4, num_parts=8).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert (b["n_removed"].to_numpy()[:12] == 2).all()
    # rerunning with the SAME workdir must not read the stale
    # generation next to the new files (write_parquet appends)
    c = remove_boilerplate_lines_bucketed(
        _ds(tbl), str(tmp_path / "bp"), text_col="text",
        id_col="doc_id", min_len=10, min_docs=10,
        num_buckets=4, num_parts=8).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, c)


def test_boilerplate_noop_below_threshold(ray_session):
    from dqm_ray.functions.boilerplate import remove_boilerplate_lines

    tbl = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["a shared long line here\nx", "a shared long line here\ny"]),
    })
    out = remove_boilerplate_lines(
        _ds(tbl), text_col="text", id_col="doc_id",
        min_len=10, min_docs=3).to_pandas()
    assert (out["n_removed"] == 0).all()
    assert set(out["text"]) == set(tbl.column("text").to_pylist())


def _boilerplate_oracle(df: pd.DataFrame, min_len: int,
                        min_docs: int) -> pd.DataFrame:
    """Naive twin: a line is boilerplate iff it has >= ``min_len``
    characters and occurs in >= ``min_docs`` docs (rows)."""
    docs_per_line = collections.Counter()
    for t in df["text"]:
        docs_per_line.update(set(t.split("\n")))
    boiler = {ln for ln, n in docs_per_line.items()
              if n >= min_docs and len(ln) >= min_len}
    texts, removed = [], []
    for t in df["text"]:
        lines = t.split("\n")
        kept = [ln for ln in lines if ln not in boiler]
        texts.append("\n".join(kept))
        removed.append(len(lines) - len(kept))
    return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(), "text": texts,
                         "n_removed": np.array(removed, np.int64)}) \
        .sort_values("doc_id").reset_index(drop=True)


@pytest.mark.parametrize("dup_rate", [0.0, 0.5, 0.95])
def test_boilerplate_reduce_threshold_parity(ray_session, dup_docs,
                                             reduce_at_budget, dup_rate):
    """With the budget at the measured partial size (inclusive: small
    path) and one byte under it (large path) the two reduce paths
    remove the same lines as each other and the naive twin; the path
    taken is read from the reduce's log record."""
    from dqm_ray.functions.boilerplate import remove_boilerplate_lines
    from dqm_ray.state.reduce import SMALL_REDUCE_BYTES

    t = dup_docs(600, dup_rate, seed=int(dup_rate * 100) + 1)
    oracle = _boilerplate_oracle(t.to_pandas(), 10, 20)
    assert oracle["n_removed"].sum() > 0

    def run():
        return remove_boilerplate_lines(
            _ds(t), text_col="text", id_col="doc_id", min_len=10,
            min_docs=20).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)

    what = "remove_boilerplate_lines"
    _, path, nbytes, _ = reduce_at_budget(SMALL_REDUCE_BYTES, run, what)
    assert path == "small" and nbytes > 0
    small, p_small, _, t_small = reduce_at_budget(nbytes, run, what)
    large, p_large, _, t_large = reduce_at_budget(nbytes - 1, run, what)
    assert (p_small, p_large) == ("small", "large")
    pd.testing.assert_frame_equal(small, large)
    pd.testing.assert_frame_equal(small, oracle)
    print(f"{what} dup_rate={dup_rate}: small {t_small:.3f}s, "
          f"large {t_large:.3f}s, large/small {t_large / t_small:.1f}x")


def test_doc_distinct_counts_pack_bounds():
    """The (row, code) int64 pack: just inside the bound it counts
    right, just outside it raises ValueError instead of colliding.
    At 20 code bits rows may reach 2^43 - 1. A 63-bit code field is
    rejected outright (the in-bound 62-bit case needs a 2^62-slot
    bincount, so only the outside is run)."""
    from dqm_ray.functions.boilerplate import _doc_distinct_counts

    codes = np.array([0, (1 << 20) - 1, 0], np.int64)
    top = (1 << 43) - 1
    uniq, counts = _doc_distinct_counts(
        codes, np.array([0, top, top], np.int64), 1 << 20)
    assert uniq.tolist() == [0, (1 << 20) - 1]
    assert counts.tolist() == [2, 1]
    with pytest.raises(ValueError, match="overflows int64"):
        _doc_distinct_counts(codes, np.array([0, top, top + 1], np.int64),
                             1 << 20)
    with pytest.raises(ValueError, match="overflows int64"):
        _doc_distinct_counts(np.array([0], np.int64),
                             np.array([0], np.int64), 1 << 63)


def test_packed_positions_bounds():
    """Bucketed line positions pack (id << 20) + line index: ids in
    [-2^43, 2^43) and up to 2^20 lines per doc pack without collision
    and decode by an arithmetic shift; one past either bound raises
    ValueError."""
    from dqm_ray.functions.boilerplate import POS_BITS, _packed_positions

    top, bottom = (1 << 43) - 1, -(1 << 43)
    p = _packed_positions(np.array([bottom, -1, 0, top], np.int64),
                          np.array([0, 0, 1, 2, 3, 3], np.int64))
    assert p.tolist() == [bottom << POS_BITS, (bottom << POS_BITS) + 1,
                          -1 << POS_BITS, 0, top << POS_BITS,
                          (top << POS_BITS) + 1]
    assert (p >> POS_BITS).tolist() == [bottom, bottom, -1, 0, top, top]
    for bad in (bottom - 1, top + 1):
        with pytest.raises(ValueError, match="ids must lie"):
            _packed_positions(np.array([0, bad], np.int64),
                              np.array([0, 1], np.int64))
    n = 1 << POS_BITS
    p = _packed_positions(np.array([5, 6], np.int64),
                          np.r_[np.zeros(n, np.int64), 1])
    assert p[n - 1] == (5 << POS_BITS) + n - 1 and p[n] == 6 << POS_BITS
    with pytest.raises(ValueError, match="lines"):
        _packed_positions(np.array([5], np.int64),
                          np.zeros(n + 1, np.int64))


def test_boilerplate_bucketed_id_bounds(ray_session, tmp_path):
    """End to end: the smallest and largest packable ids clean like the
    broadcast path; one past the top raises ValueError instead of
    colliding."""
    from dqm_ray.functions.boilerplate import (
        remove_boilerplate_lines, remove_boilerplate_lines_bucketed)

    tbl, _, _ = _docs_with_boilerplate()
    ids = tbl.column("doc_id").to_numpy().copy()
    ids[0], ids[-1] = -(1 << 43), (1 << 43) - 1
    inside = tbl.set_column(0, "doc_id", pa.array(ids, pa.int64()))
    a = remove_boilerplate_lines(
        _ds(inside), text_col="text", id_col="doc_id", min_len=10,
        min_docs=10).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    b = remove_boilerplate_lines_bucketed(
        _ds(inside), str(tmp_path / "in"), text_col="text",
        id_col="doc_id", min_len=10, min_docs=10, num_buckets=4,
        num_parts=8).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    ids[-1] = 1 << 43
    outside = tbl.set_column(0, "doc_id", pa.array(ids, pa.int64()))
    # Ray Data re-raises the worker's ValueError as a UserCodeException
    with pytest.raises(Exception, match="ids must lie"):
        remove_boilerplate_lines_bucketed(
            _ds(outside), str(tmp_path / "out"), text_col="text",
            id_col="doc_id", min_len=10, min_docs=10, num_buckets=4,
            num_parts=8).materialize()


# ---------------------------------------------------------------------------
# chunking
# ---------------------------------------------------------------------------

def test_chunk_docs_cover_and_overlap(ray_session):
    from dqm_ray.functions.text import chunk_docs

    texts = ["", "x" * 100, "".join(chr(97 + i % 26) for i in range(1234))]
    tbl = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                    "text": pa.array(texts)})
    out = chunk_docs(_ds(tbl), chunk_size=500, overlap=100) \
        .to_pandas().sort_values(["doc_id", "chunk_id"])
    # chunk counts: 1, 1, 1 + ceil((1234-500)/400) = 3
    assert out.groupby("doc_id").size().tolist() == [1, 1, 3]
    by = out.set_index(["doc_id", "chunk_id"])["chunk_text"]
    assert by[(0, 0)] == "" and by[(1, 0)] == "x" * 100
    assert by[(2, 0)] == texts[2][:500]
    assert by[(2, 1)] == texts[2][400:900]
    assert by[(2, 2)] == texts[2][800:1300]
    # consecutive chunks overlap by exactly `overlap` chars
    assert by[(2, 0)][-100:] == by[(2, 1)][:100]
    assert (out["n_chunk_chars"] ==
            out["chunk_text"].str.len()).all()


# ---------------------------------------------------------------------------
# anti join
# ---------------------------------------------------------------------------

def test_anti_join_matches_pandas(ray_session):
    from dqm_ray.functions.joins import anti_join

    rng = np.random.default_rng(3)
    left = pa.table({"k": pa.array(rng.integers(0, 50, 200), pa.int64()),
                     "payload": pa.array(np.arange(200), pa.int64())})
    right = pa.table({"rk": pa.array(rng.integers(25, 60, 100), pa.int64())})
    got = anti_join(_ds(left), _ds(right), on="k", right_on="rk") \
        .to_pandas().sort_values("payload").reset_index(drop=True)
    rset = set(right.column("rk").to_pylist())
    exp = left.to_pandas()
    exp = exp[~exp["k"].isin(rset)].reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_anti_join_empty_right(ray_session):
    from dqm_ray.functions.joins import anti_join

    left = pa.table({"k": pa.array([1, 2], pa.int64())})
    right = pa.table({"k": pa.array([], pa.int64())})
    got = anti_join(_ds(left), _ds(right), on="k").to_pandas()
    assert sorted(got["k"]) == [1, 2]


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def _lloyd_reference(x, ids, k, iters):
    """Sequential single-machine Lloyd with the exact same contract."""
    order = np.argsort(ids)
    cent = x[order[:k]].astype(np.float64)
    cl = np.arange(k)
    for _ in range(iters):
        d2 = ((x[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        a = cl[d2.argmin(axis=1)]
        uniq = np.unique(a)
        cent = np.stack([x[a == c].mean(axis=0) for c in uniq])
        cl = uniq
    return cl, a, cent


def test_kmeans_matches_sequential_lloyd(ray_session):
    from dqm_ray.functions.similarity import kmeans_embeddings

    rng = np.random.default_rng(11)
    n, d, k = 300, 16, 5
    x = rng.normal(size=(n, d)).astype(np.float64)
    ids = rng.permutation(n).astype(np.int64)
    tbl = pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array(list(x.astype(np.float32)),
                              pa.list_(pa.float32(), d)),
    })
    got = kmeans_embeddings(_ds(tbl).repartition(4), k=k, iters=3,
                            round_to=6).to_pandas()
    cl, a, cent = _lloyd_reference(x.astype(np.float32).astype(np.float64),
                                   ids, k, 3)
    exp_n = {c: int((a == c).sum()) for c in cl}
    got_n = got.groupby("cluster")["n"].first().to_dict()
    assert got_n == exp_n
    got_c = got.pivot(index="cluster", columns="dim", values="centroid")
    exp_c = np.round(cent, 6)
    np.testing.assert_allclose(got_c.loc[cl].to_numpy(), exp_c, atol=2e-6)


# ---------------------------------------------------------------------------
# rollup
# ---------------------------------------------------------------------------

def test_rollup_levels_consistent(ray_session):
    import __ray_entry__ as entry

    out = entry._q_rollup_revenue("/root/testdata/sf0.001").to_pandas()
    leaf = out[(out["l_returnflag"] != "ALL")
               & (out["l_linestatus"] != "ALL")]
    mid = out[(out["l_returnflag"] != "ALL")
              & (out["l_linestatus"] == "ALL")].set_index("l_returnflag")
    top = out[(out["l_returnflag"] == "ALL")]
    for rf, grp in leaf.groupby("l_returnflag"):
        assert mid.loc[rf, "revenue_cents"] == grp["revenue_cents"].sum()
        assert mid.loc[rf, "n_lines"] == grp["n_lines"].sum()
    assert top["revenue_cents"].iloc[0] == leaf["revenue_cents"].sum()
    assert top["n_lines"].iloc[0] == leaf["n_lines"].sum()
