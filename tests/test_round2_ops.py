"""Boilerplate-line removal, document chunking, anti join, rollup, and
distributed k-means — round-2 additions."""

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


def _boilerplate_at_k(reduce_at_budget, tbl):
    """Clean ``tbl`` with the frequent-line reduce in one task (K = 1)
    and split into K = 4 parts; return both outputs sorted by id, the
    cleaning call and the K = 4 budget."""
    from dqm_ray.functions.boilerplate import remove_boilerplate_lines
    from dqm_ray.state.reduce import SMALL_REDUCE_BYTES

    def run():
        return remove_boilerplate_lines(
            _ds(tbl), text_col="text", id_col="doc_id", min_len=10,
            min_docs=10).to_pandas().sort_values("doc_id") \
            .reset_index(drop=True)

    what = "remove_boilerplate_lines"
    a, k1, nbytes, _ = reduce_at_budget(SMALL_REDUCE_BYTES, run, what)
    b, k4, _, _ = reduce_at_budget(nbytes // 3, run, what)
    assert (k1, k4) == (1, 4)
    return a, b, run, nbytes // 3


def test_boilerplate_bucketed_matches_broadcast(ray_session,
                                                reduce_at_budget):
    """The frequent-line reduce split into K = 4 hash parts (buckets)
    gives the one-task (K = 1) output row for row, and a rerun at
    K = 4 gives it again."""
    tbl, _, _ = _docs_with_boilerplate()
    a, b, run, budget = _boilerplate_at_k(reduce_at_budget, tbl)
    pd.testing.assert_frame_equal(a, b)
    assert (b["n_removed"].to_numpy()[:12] == 2).all()
    c, k4, _, _ = reduce_at_budget(budget, run, "remove_boilerplate_lines")
    assert k4 == 4
    pd.testing.assert_frame_equal(a, c)


def test_boilerplate_bucketed_id_bounds(ray_session, reduce_at_budget):
    """End to end: ids at both ends of int64 clean alike at K = 1 and
    K = 4 and come back unchanged (no id is packed into a position)."""
    tbl, _, _ = _docs_with_boilerplate()
    ids = tbl.column("doc_id").to_numpy().copy()
    ids[0], ids[-1] = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    tbl = tbl.set_column(0, "doc_id", pa.array(ids, pa.int64()))
    a, b, _, _ = _boilerplate_at_k(reduce_at_budget, tbl)
    pd.testing.assert_frame_equal(a, b)
    assert (b["n_removed"].to_numpy()[:12] == 2).all()
    assert b["doc_id"].tolist() == sorted(ids.tolist())


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


@pytest.mark.parametrize("dup_rate", [0.0, 0.5, 0.95])
def test_boilerplate_reduce_threshold_parity(ray_session, dup_docs,
                                             reduce_at_budget,
                                             boilerplate_twin, dup_rate):
    """With the budget at the measured partial size (inclusive: K = 1)
    and one byte under it (K = 2) the reduce removes the same lines as
    the naive twin on either side; K is read from the reduce's log
    record and each side is timed."""
    from dqm_ray.functions.boilerplate import remove_boilerplate_lines
    from dqm_ray.state.reduce import SMALL_REDUCE_BYTES

    t = dup_docs(600, dup_rate, seed=int(dup_rate * 100) + 1)
    oracle = boilerplate_twin(t.to_pandas(), 10, 20)
    assert oracle["n_removed"].sum() > 0

    def run():
        return remove_boilerplate_lines(
            _ds(t), text_col="text", id_col="doc_id", min_len=10,
            min_docs=20).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)

    what = "remove_boilerplate_lines"
    _, k, nbytes, _ = reduce_at_budget(SMALL_REDUCE_BYTES, run, what)
    assert k == 1 and nbytes > 0
    one, k_one, _, t_one = reduce_at_budget(nbytes, run, what)
    two, k_two, _, t_two = reduce_at_budget(nbytes - 1, run, what)
    assert (k_one, k_two) == (1, 2)
    pd.testing.assert_frame_equal(one, two)
    pd.testing.assert_frame_equal(one, oracle)
    print(f"{what} dup_rate={dup_rate}: K=1 {t_one:.3f}s, "
          f"K=2 {t_two:.3f}s, K=2/K=1 {t_two / t_one:.1f}x")


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
    """pack_positions packs (id << bits) + position: ids in
    [-2^(63-bits), 2^(63-bits)) and positions in [0, 2^bits) pack
    without collision, order by (id, position) and decode by an
    arithmetic shift; one past any bound raises ValueError."""
    from dqm_ray.functions.dedup import pack_positions

    for bits in (20, 32):
        top, bottom = (1 << (63 - bits)) - 1, -(1 << (63 - bits))
        last = (1 << bits) - 1
        ids = np.array([bottom, bottom, -1, 0, top, top], np.int64)
        pos = np.array([0, last, 0, 1, 0, last], np.int64)
        p = pack_positions(ids, pos, bits)
        assert (np.diff(p) > 0).all()
        assert (p >> bits).tolist() == ids.tolist()
        assert (p & last).tolist() == pos.tolist()
        for bad in (bottom - 1, top + 1):
            with pytest.raises(ValueError, match="ids must lie"):
                pack_positions(np.array([0, bad], np.int64),
                               np.array([0, 0], np.int64), bits)
        for bad in (-1, last + 1):
            with pytest.raises(ValueError, match="positions must lie"):
                pack_positions(np.array([0, 1], np.int64),
                               np.array([0, bad], np.int64), bits)


def test_boilerplate_null_text(ray_session, dup_docs, boilerplate_twin):
    """A null text is a doc with no lines: kept with text null and
    n_removed 0 — alone, beside other docs, and after exact_dedup (which
    keeps one null-text doc as a text of its own)."""
    from conftest import _first_wins_twin
    from dqm_ray.functions.boilerplate import remove_boilerplate_lines
    from dqm_ray.functions.dedup import exact_dedup

    nulls = pa.table({"doc_id": pa.array([3, 1], pa.int64()),
                      "text": pa.array([None, None], pa.string())})
    out = remove_boilerplate_lines(_ds(nulls), min_docs=2).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [1, 3]
    assert out["text"].isna().all() and (out["n_removed"] == 0).all()

    t = dup_docs(300, 0.5, seed=9)
    texts = t.column("text").to_pylist()
    for i in (0, 5, 17):
        texts[i] = None
    t = t.set_column(1, "text", pa.array(texts, pa.string()))
    df = t.to_pandas()
    got = remove_boilerplate_lines(_ds(t), min_len=10, min_docs=20) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, boilerplate_twin(df, 10, 20))

    chain = remove_boilerplate_lines(exact_dedup(_ds(t)), min_len=10,
                                     min_docs=20).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    winners = _first_wins_twin(df)
    pd.testing.assert_frame_equal(chain,
                                  boilerplate_twin(winners, 10, 20))
    assert chain["text"].isna().sum() == 1


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


def test_dedup_family_null_text_contract(ray_session):
    """One contract across the text ops of the dedup family and their
    DuckDB oracles: a null text stays null with its counters 0, an empty
    text stays '' — and through corpus_prep's normalize ->
    dedup_paragraphs -> exact_dedup chain the null doc is not grouped
    with the '' doc."""
    from dqm_ray.functions.boilerplate import remove_boilerplate_lines
    from dqm_ray.functions.dedup import exact_dedup
    from dqm_ray.functions.paragraphs import dedup_paragraphs
    from dqm_ray.functions.spans import dedup_spans
    from dqm_ray.functions.text import normalize_text_batch

    import duckdb

    import __ray_entry__ as entry

    rep = "some repeated text here ok"
    t = pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                  "text": pa.array([None, "", rep, rep], pa.string())})
    con = duckdb.connect()
    con.register("documents", t)
    for op, counters, oracle in (
            (lambda ds: dedup_paragraphs(ds), ["n_kept", "n_dropped"],
             entry._dedup_paragraphs_oracle_sql()),
            (lambda ds: dedup_spans(ds, k=10), ["n_cut"],
             entry._dedup_spans_oracle_sql(10)),
            (lambda ds: remove_boilerplate_lines(ds, min_len=10,
                                                 min_docs=2),
             ["n_removed"], None)):
        out = op(_ds(t)).to_pandas().sort_values("doc_id") \
            .reset_index(drop=True)
        assert out["text"][0] is None, counters
        assert (out.loc[0, counters] == 0).all(), counters
        assert out["text"][1] == "", counters
        if oracle:  # the DuckDB oracle keeps the same contract
            want = con.sql(oracle).df().sort_values("doc_id") \
                .reset_index(drop=True)
            assert want.values.tolist() == \
                out[want.columns].values.tolist(), counters

    chain = dedup_paragraphs(
        _ds(t).map_batches(normalize_text_batch, batch_format="pyarrow")
        .drop_columns(["n_chars_norm"]))
    got = exact_dedup(chain.drop_columns(["n_kept", "n_dropped"])) \
        .to_pandas().sort_values("doc_id")
    assert got["doc_id"].tolist() == [1, 2, 3]
    assert got["text"].tolist() == [None, "", rep]
