"""Dedup family: exact first-wins, MinHash-LSH with planted near-dups,
SimHash hamming, n-gram Jaccard, embedding cosine near-dup."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from dqm_ray.functions.dedup import (MinHashStage, embedding_near_dup,
                                     exact_dedup, minhash_lsh_dedup,
                                     ngram_jaccard, simhash_batch,
                                     simhash_candidates)


def _docs_with_dups():
    """40 unique docs + planted dup clusters with known structure."""
    rng = np.random.default_rng(8)
    words = np.array([f"word{i:03d}" for i in range(500)])
    texts, ids = [], []
    for i in range(40):
        texts.append(" ".join(rng.choice(words, size=60)))
        ids.append(i)
    # exact dup pair: 100 copies 0; near-dup cluster: 101,102 are 1 with
    # small edits
    texts += [texts[0], texts[1] + " tail", "prefix " + texts[1]]
    ids += [100, 101, 102]
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "text": pa.array(texts, pa.string())})


def test_exact_dedup_first_wins(ray_session):
    import ray.data as rd

    t = _docs_with_dups()
    out = exact_dedup(rd.from_arrow(t)).to_pandas()
    assert len(out) == 42  # 43 rows, one exact dup removed
    assert 0 in set(out["doc_id"]) and 100 not in set(out["doc_id"])


def test_minhash_estimates_jaccard():
    stage = MinHashStage(num_perm=128, bands=32)
    a = "the quick brown fox jumps over the lazy dog " * 5
    b = "the quick brown fox jumps over the lazy cat " * 5
    sig_a, sig_b = stage.signature(a), stage.signature(b)
    est = (sig_a == sig_b).mean()
    true = ngram_jaccard(a, b, k=5)
    assert est == pytest.approx(true, abs=0.15)


def test_minhash_lsh_finds_planted_dups(ray_session):
    import ray.data as rd

    t = _docs_with_dups()
    dup_table, pairs = minhash_lsh_dedup(
        rd.from_arrow(t), threshold=0.6, concurrency=2, batch_size=16)
    groups = dict(zip(dup_table["doc_id"].to_pylist(),
                      dup_table["dup_group"].to_pylist()))
    assert groups.get(100) == 0          # exact dup joined to 0
    assert groups.get(101) == 1 and groups.get(102) == 1  # near-dups to 1


def test_simhash_near_vs_far():
    a = "the quick brown fox jumps over the lazy dog " * 10
    b = a.replace("dog ", "cat ", 1)
    c = "completely different words entirely unrelated content here " * 10
    t = pa.table({"text": pa.array([a, b, c])})
    out = simhash_batch(t)["simhash"].to_pylist()
    ham_ab = bin(out[0] ^ out[1]).count("1")
    ham_ac = bin(out[0] ^ out[2]).count("1")
    assert ham_ab < ham_ac
    assert ham_ab <= 6


def test_simhash_candidates_pipeline(ray_session):
    import ray.data as rd

    t = _docs_with_dups()
    cand = simhash_candidates(rd.from_arrow(t), max_hamming=3)
    pairs = set(map(tuple, cand[["id_a", "id_b"]].to_numpy()))
    assert (0, 100) in pairs  # identical text → hamming 0


@pytest.mark.parametrize("texts", [
    [], ["the quick brown fox jumps over the lazy dog " * 5,
         "completely different words entirely unrelated content " * 5]])
def test_simhash_candidates_without_pairs_keeps_columns(ray_session, texts):
    """No pair (an empty input, or two unrelated docs) still gives the
    int64 id_a, id_b and hamming columns."""
    import ray.data as rd

    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    cand = simhash_candidates(rd.from_arrow(t), max_hamming=3)
    assert len(cand) == 0
    assert list(cand.columns) == ["id_a", "id_b", "hamming"]
    assert (cand.dtypes == np.int64).all()


def test_ngram_jaccard_bounds():
    assert ngram_jaccard("abcdefgh", "abcdefgh") == 1.0
    assert ngram_jaccard("aaaaaaaa", "bbbbbbbb") == 0.0


def test_embedding_near_dup_planted(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(4)
    base = rng.standard_normal((30, 16))
    # rows 30/31: near-duplicates of row 0 (tiny noise)
    near = base[0] + 0.01 * rng.standard_normal((2, 16))
    emb = np.vstack([base, near])
    t = pa.table({
        "vec_id": pa.array(np.arange(32), pa.int64()),
        "embedding": pa.array(list(emb.astype(np.float32)),
                              pa.list_(pa.float32(), 16)),
    })
    out = embedding_near_dup(rd.from_arrow(t), threshold=0.95, planes=6)
    pairs = set(map(tuple, out[["id_a", "id_b"]].to_numpy()))
    assert (0, 30) in pairs and (0, 31) in pairs


@pytest.mark.parametrize("vecs", [[], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
def test_embedding_near_dup_without_pairs_keeps_columns(ray_session, vecs):
    """No pair (an empty input, or two orthogonal vectors) still gives
    the int64 id_a and id_b and float64 cosine columns."""
    import ray.data as rd

    t = pa.table({"vec_id": pa.array(range(len(vecs)), pa.int64()),
                  "embedding": pa.array(vecs, pa.list_(pa.float32()))})
    out = embedding_near_dup(rd.from_arrow(t), threshold=0.5, planes=2)
    assert len(out) == 0
    assert list(out.columns) == ["id_a", "id_b", "cosine"]
    assert list(out.dtypes) == [np.int64, np.int64, np.float64]


def _component_task(pairs: pd.DataFrame):
    """(pairs, dup_table) of the component task run on Ray over the
    reduced pair columns ``pairs``."""
    import ray

    from dqm_ray.functions.dedup import _pairs_and_groups

    value = tuple(pairs[c].to_numpy() for c in ("id_a", "id_b",
                                                "est_jaccard"))
    refs = _pairs_and_groups.remote(ray.put(value), "doc_id")
    return ray.get(refs)


def test_connected_components_distributed(ray_session):
    """The component task labels two chains and a triangle (listed in
    no particular order) with the min id of each component."""
    pairs = pd.DataFrame({
        "id_a": [3, 1, 2, 10, 21, 20, 20],
        "id_b": [4, 2, 3, 11, 22, 21, 22],
        "est_jaccard": 1.0})
    table, dup = _component_task(pairs)
    assert table.column_names == ["id_a", "id_b", "est_jaccard"]
    assert table.num_rows == 7
    assert dup.schema.types == [pa.int64(), pa.int64()]
    assert dict(zip(dup["doc_id"].to_pylist(),
                    dup["dup_group"].to_pylist())) == {
        1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10, 20: 20, 21: 20, 22: 20}


def test_connected_components_full_range_int64_ids(ray_session):
    """Hash-derived ids use the full int64 range: the component task
    gives union-find's groups on random graphs over such ids, chains
    and stars included, and on no edge at all."""
    from conftest import _union_find_groups

    rng = np.random.default_rng(0)
    for n_nodes, n_edges in ((600, 300), (2000, 2500), (50, 400), (1, 0)):
        ids = rng.integers(-2**63, 2**63 - 1, size=n_nodes, dtype=np.int64)
        ids[:2] = [-2**63, 2**63 - 1][:n_nodes]
        a = ids[rng.integers(0, n_nodes, n_edges)]
        b = ids[rng.integers(0, n_nodes, n_edges)]
        _, dup = _component_task(pd.DataFrame(
            {"id_a": a, "id_b": b, "est_jaccard": 1.0}))
        pd.testing.assert_frame_equal(
            dup.to_pandas(), _union_find_groups(zip(a.tolist(), b.tolist())))


def test_components_shuffled_chain_rounds():
    """A chain of 200k nodes under shuffled ids, edges in random order,
    is one component labelled by its min id within 20 rounds (one round
    per link would be 200k)."""
    from dqm_ray.functions.dedup import min_id_components

    rng = np.random.default_rng(3)
    n = 200_000
    chain = rng.permutation(n).astype(np.int64) * 5 - 7
    edges = rng.permutation(n - 1)
    nodes, group, rounds = min_id_components(chain[:-1][edges],
                                             chain[1:][edges])
    assert len(nodes) == n and (group == chain.min()).all()
    assert 1 <= rounds <= 20, rounds


def test_minhash_lsh_components_match_union_find(ray_session, monkeypatch):
    """The dup_table equals union-find over the returned pairs, which are
    distinct, and the driver fetches the dup_table but never the
    pairs."""
    import ray
    import ray.data as rd

    from conftest import _union_find_groups

    fetched = []
    real_get = ray.get

    def recording_get(refs, *a, **k):
        out = real_get(refs, *a, **k)
        fetched.extend(out if isinstance(out, list) else [out])
        return out

    t = _docs_with_dups()
    monkeypatch.setattr(ray, "get", recording_get)
    dup, pairs = minhash_lsh_dedup(
        rd.from_arrow(t), threshold=0.6, concurrency=2, batch_size=16)
    monkeypatch.undo()
    pair_value = [v for v in fetched if isinstance(v, pa.Table) and
                  "id_a" in v.column_names or isinstance(v, tuple) and
                  any(isinstance(x, np.ndarray) for x in v)]
    assert not pair_value and any(v is dup for v in fetched)
    p = pa.concat_tables(ray.get(pairs.to_arrow_refs())).to_pandas()
    assert len(p) and not p.duplicated(["id_a", "id_b"]).any()
    assert (p["id_a"] < p["id_b"]).all()
    pd.testing.assert_frame_equal(
        dup.to_pandas(),
        _union_find_groups(zip(p["id_a"].tolist(), p["id_b"].tolist())))


def test_minhash_pair_bound_raises(monkeypatch):
    """A bucket of 50 distinct signatures, which would give 1225
    representative pairs, raises past a bound of 1000, naming the
    bucket size and the bound; at 1225 it gives them all."""
    import dqm_ray.functions.dedup as dedup

    rng = np.random.default_rng(6)
    sig = rng.integers(0, 1 << 63, (50, 16), dtype=np.uint64)
    rows = pa.table({
        "doc_id": pa.array(rng.permutation(50), pa.int64()),
        "bucket_key": pa.array(np.full(50, -5), pa.int64()),
        "sig": pa.FixedSizeListArray.from_arrays(
            pa.array(sig.ravel(), pa.uint64()), 16)})
    monkeypatch.setattr(dedup, "MAX_BUCKET_PAIRS", 1000)
    with pytest.raises(ValueError, match=r"bucket of 50 distinct signatures"
                                         r" gives 1225 representative pairs"
                                         r".*MAX_BUCKET_PAIRS = 1000"):
        dedup._verified_pairs(rows, id_col="doc_id", threshold=0.0)
    monkeypatch.setattr(dedup, "MAX_BUCKET_PAIRS", 1225)
    assert dedup._verified_pairs(rows, id_col="doc_id",
                                 threshold=0.0).num_rows == 1225


def test_near_dup_pairs_of_many_buckets_in_chunks(monkeypatch):
    """A part whose 12 buckets give 2,280 pairs in all, each bucket 190,
    gives every pair 7 at a time past a bound of 200: MinHash's equal
    the per-bucket loop's, and the embedding pairs, which have no bound,
    every two vectors of a bucket with their cosine."""
    import dqm_ray.functions.dedup as dedup
    from conftest import _lsh_pairs_twin

    monkeypatch.setattr(dedup, "MAX_BUCKET_PAIRS", 200)
    monkeypatch.setattr(dedup, "PAIR_CHUNK", 7)
    rng = np.random.default_rng(11)
    ids = rng.permutation(240).astype(np.int64) * 3 - 100
    bk = np.repeat(rng.integers(-2**62, 2**62, 12), 20)
    sig = rng.integers(0, 4, (240, 6), dtype=np.uint64)
    sig[:, 0] = np.arange(240)  # 20 distinct signatures a bucket
    order = rng.permutation(240)
    got = dedup._verified_pairs(pa.table({
        "doc_id": ids[order], "bucket_key": bk[order],
        "sig": pa.FixedSizeListArray.from_arrays(
            pa.array(sig[order].ravel()), 6)}),
        id_col="doc_id", threshold=0.0).to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values(["id_a", "id_b"], ignore_index=True),
        _lsh_pairs_twin(ids, bk, sig), check_exact=True)

    emb = rng.standard_normal((240, 5))
    got = dedup._cosine_pairs(pa.table({
        "vec_id": ids[order], "bucket": bk[order],
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(emb[order].ravel()), 5)}),
        id_col="vec_id", emb_col="embedding", threshold=-2.0).to_pandas()
    unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    i, j = (np.concatenate([b * 20 + t for b in range(12)])
            for t in np.triu_indices(20, k=1))
    lo, hi = np.minimum(ids[i], ids[j]), np.maximum(ids[i], ids[j])
    want = pd.DataFrame({"id_a": lo, "id_b": hi,
                         "cosine": (unit[i] * unit[j]).sum(axis=1)})
    pd.testing.assert_frame_equal(
        got.sort_values(["id_a", "id_b"], ignore_index=True),
        want.sort_values(["id_a", "id_b"], ignore_index=True))


def test_canonical_docs_picks_best_quality(ray_session, at_k1_and_k4):
    """Canonical pick = argmax (quality_score desc, id asc) per
    cluster; singleton non-dup docs never appear."""
    import ray.data as rd

    from dqm_ray.functions.dedup import canonical_docs
    from dqm_ray.functions.text import quality_score_batch

    texts = {
        0: "the quick brown fox jumps over the lazy dog. " * 10,
        1: "the quick brown fox jumps over the lazy dog. " * 10,
        2: "!!!???..." * 40,                       # low quality twin
        3: "a completely different document " * 12,
    }
    df = pd.DataFrame({"doc_id": list(texts), "text": list(texts.values())})
    dup_table = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "dup_group": pa.array([0, 0, 0], pa.int64()),
    })
    scores = quality_score_batch(
        pa.table({"text": pa.array([texts[0]])}))["quality_score"]
    for ds in at_k1_and_k4(
            lambda: canonical_docs(rd.from_pandas(df).repartition(2),
                                   dup_table), "canonical_docs"):
        out = ds.to_pandas()
        assert len(out) == 1
        row = out.iloc[0]
        assert row["dup_group"] == 0 and row["n_members"] == 3
        # ids 0 and 1 tie on score (identical text) -> lowest id wins
        assert row["canonical_id"] == 0
        assert row["quality_score"] == scores[0].as_py()


def test_canonical_docs_empty_clusters(ray_session):
    import ray.data as rd

    from dqm_ray.functions.dedup import canonical_docs

    df = pd.DataFrame({"doc_id": np.arange(5, dtype=np.int64),
                       "text": [f"unique {i}" for i in range(5)]})
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "dup_group": pa.array([], pa.int64())})
    out = canonical_docs(rd.from_pandas(df), empty).to_pandas()
    assert len(out) == 0


def test_dedup_spans_cuts_repeats(ray_session):
    """Repeated >=2k-1 spans are cut from later docs (and later
    in-doc repeats) while the winner occurrence and short docs stay."""
    import ray.data as rd

    from dqm_ray.functions.spans import dedup_spans

    k = 10
    span = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789abcd"  # 40 = 4k chars
    docs = {
        0: f"intro text one {span} outro text one",
        1: f"totally different wrapper {span} and a tail here",
        2: "short",                                # < k: never cut
        3: f"{span}xx{span}",                      # in-doc repeat
        4: "no repeats in this document at all - unique words only",
    }
    df = pd.DataFrame({"doc_id": list(docs), "text": list(docs.values())})
    out = dedup_spans(rd.from_pandas(df), k=k).to_pandas() \
        .set_index("doc_id")
    # winner doc keeps the span
    assert span in out.loc[0, "text"]
    assert out.loc[0, "n_cut"] == 0
    # later doc loses exactly the span region (anchors cover all 4
    # stride windows; flanks survive)
    assert span not in out.loc[1, "text"]
    assert "totally different wrapper" in out.loc[1, "text"]
    assert "and a tail here" in out.loc[1, "text"]
    # doc 3: its FIRST occurrence is a repeat of doc 0's span -> both
    # occurrences cut (winner lives in doc 0)
    assert span not in out.loc[3, "text"]
    assert out.loc[2, "text"] == "short" and out.loc[2, "n_cut"] == 0
    assert out.loc[4, "n_cut"] == 0
    # deterministic across block layouts
    out2 = dedup_spans(rd.from_pandas(df).repartition(3), k=k) \
        .to_pandas().set_index("doc_id")
    for i in docs:
        assert out2.loc[i, "text"] == out.loc[i, "text"]


def test_dedup_spans_partitioned_matches_one_task(ray_session,
                                                  reduce_at_budget):
    """The winner-map reduce split into K = 4 parts of the anchors gives
    the one-task (K = 1) output row for row, for any input order."""
    import ray.data as rd

    from dqm_ray.functions.spans import dedup_spans
    from dqm_ray.state.reduce import SMALL_REDUCE_BYTES

    k = 10
    span = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789abcd"
    docs = {
        0: f"intro text one {span} outro text one",
        1: f"totally different wrapper {span} and a tail here",
        2: "short",
        3: f"{span}xx{span}",
        4: "no repeats in this document at all - unique words only",
        5: f"another host page quoting {span} yet again with more",
    }
    df = pd.DataFrame({"doc_id": list(docs), "text": list(docs.values())})

    def run(frame):
        return lambda: dedup_spans(rd.from_pandas(frame), k=k) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)

    a, k1, nbytes, _ = reduce_at_budget(SMALL_REDUCE_BYTES, run(df),
                                        "dedup_spans")
    b, k4, _, _ = reduce_at_budget(nbytes // 3, run(df), "dedup_spans")
    c, _, _, _ = reduce_at_budget(
        nbytes // 3, run(df.sample(frac=1.0, random_state=1)),
        "dedup_spans")
    assert (k1, k4) == (1, 4)
    assert a.loc[1, "n_cut"] > 0
    pd.testing.assert_frame_equal(a, b)
    pd.testing.assert_frame_equal(a, c)


def test_dedup_spans_bucketed_empty_input(ray_session, reduce_at_budget):
    """An upstream filter that drops every row yields an empty result
    with ``n_cut`` in its schema, not a crash, at the one-task budget
    and at a third of the partial bytes (K = 4 when there are any)."""
    import ray.data as rd

    from dqm_ray.functions.spans import dedup_spans
    from dqm_ray.state.reduce import SMALL_REDUCE_BYTES

    empty = pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                          "text": pd.Series(dtype="object")})
    full = pd.DataFrame({"doc_id": [0, 1],
                         "text": ["a document long enough", "another"]})
    inputs = {
        "0-row": lambda: rd.from_pandas(empty),
        "filtered": lambda: rd.from_pandas(full).repartition(2)
        .filter(lambda r: r["doc_id"] < 0)}
    for how, make in inputs.items():
        run = lambda: dedup_spans(make(), k=10).materialize()  # noqa: E731
        one, k1, nbytes, _ = reduce_at_budget(SMALL_REDUCE_BYTES, run,
                                              "dedup_spans")
        parts, k, _, _ = reduce_at_budget(max(nbytes // 3, 1), run,
                                          "dedup_spans")
        assert k1 == 1 and k == (4 if nbytes >= 3 else 1), (how, nbytes)
        for out in (one, parts):
            assert out.count() == 0, how
            assert len(out.to_pandas()) == 0, how
            assert "n_cut" in out.schema().names, how


def test_packed_position_overflow_raises(ray_session):
    """Ids or positions past the packed radix raise instead of
    colliding: paragraph 2^20 of doc 1 would be doc 2's paragraph 0,
    and a span-dedup id of 2^31 would wrap to a negative position."""
    import ray.data as rd

    from dqm_ray.functions.paragraphs import dedup_paragraphs
    from dqm_ray.functions.spans import dedup_spans

    long_doc = "\n\n" * (1 << 20) + "shared"  # "shared" is paragraph 2^20
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array([long_doc, "shared"], pa.string())})
    with pytest.raises(Exception, match="positions must lie"):
        dedup_paragraphs(rd.from_arrow(t)).materialize()
    t = pa.table({"doc_id": pa.array([1, 1 << 31], pa.int64()),
                  "text": pa.array(["a repeated span of text"] * 2)})
    with pytest.raises(Exception, match="ids must lie"):
        dedup_spans(rd.from_arrow(t), k=10).materialize()


def test_bloom_ignores_null_keys(ray_session):
    """Null keys are skipped (ignore_nulls contract), not hashed as
    NaN-cast garbage (review finding)."""
    import ray.data as rd

    from dqm_ray.functions.bloom import build_bloom

    a = rd.from_arrow(pa.table({"k": pa.array([5, None, 9],
                                              pa.int64())}))
    b = rd.from_arrow(pa.table({"k": pa.array([5, 9], pa.int64())}))
    wa = build_bloom(a, key_col="k", m_bits=1 << 10, k_hashes=4)
    wb = build_bloom(b, key_col="k", m_bits=1 << 10, k_hashes=4)
    assert (wa == wb).all()


# ---------------------------------------------------------------------------
# keyed reduce: exact_dedup either side of the budget, empty inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dup_rate", [0.0, 0.5, 0.95])
def test_exact_dedup_reduce_threshold_parity(ray_session, dup_docs,
                                             reduce_at_budget, dup_rate):
    """With the budget at the measured partial size (inclusive: K = 1)
    and one byte under it (K = 2) the reduce gives the same rows as the
    pandas oracle (min id per distinct text) on either side; K is read
    from the reduce's log record and each side is timed."""
    import ray.data as rd

    from dqm_ray.state.reduce import SMALL_REDUCE_BYTES

    t = dup_docs(600, dup_rate, seed=int(dup_rate * 100))
    df = t.to_pandas()
    oracle = df[df["doc_id"].isin(df.groupby("text")["doc_id"].min())] \
        .sort_values("doc_id").reset_index(drop=True)

    def run():
        return exact_dedup(rd.from_arrow(t)).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)

    _, k, nbytes, _ = reduce_at_budget(SMALL_REDUCE_BYTES, run,
                                       "exact_dedup")
    assert k == 1 and nbytes > 0
    one, k_one, _, t_one = reduce_at_budget(nbytes, run, "exact_dedup")
    two, k_two, _, t_two = reduce_at_budget(nbytes - 1, run, "exact_dedup")
    assert (k_one, k_two) == (1, 2)
    pd.testing.assert_frame_equal(one, two)
    pd.testing.assert_frame_equal(one, oracle)
    print(f"exact_dedup dup_rate={dup_rate}: K=1 {t_one:.3f}s, "
          f"K=2 {t_two:.3f}s, K=2/K=1 {t_two / t_one:.1f}x")


def test_dedup_ops_on_empty_input(ray_session):
    """On an emptied input — filtered to 0 rows, cut to 0 blocks by
    limit(0), or a 0-row table (corpus gates can legitimately empty
    their input) — the four Dataset ops on the keyed reduce return 0
    rows with their output schema (``Dataset.schema()``; Ray Data's
    ``to_pandas`` drops the columns of any all-empty Dataset), and
    minhash_lsh_dedup returns no members and no pairs, typed. A filter
    that kept no rows leaves no input schema, so its output carries
    (doc_id, text) and the op's own columns."""
    import ray.data as rd

    from dqm_ray.functions.boilerplate import remove_boilerplate_lines
    from dqm_ray.functions.paragraphs import dedup_paragraphs
    from dqm_ray.functions.spans import dedup_spans

    t = _docs_with_dups()
    ops = {
        "exact_dedup": (exact_dedup, []),
        "boilerplate": (lambda ds: remove_boilerplate_lines(ds, min_docs=2),
                        ["n_removed"]),
        "paragraphs": (dedup_paragraphs, ["n_kept", "n_dropped"]),
        "spans": (lambda ds: dedup_spans(ds, k=10), ["n_cut"]),
    }
    for name, (op, extra) in ops.items():
        empties = {
            "filtered": rd.from_arrow(t).filter(lambda r: r["doc_id"] < 0),
            "limit0": rd.from_arrow(t).limit(0),
            "0-row": rd.from_arrow(t.slice(0, 0))}
        for how, ds in empties.items():
            out = op(ds)
            assert out.count() == 0, (name, how)
            cols = ["doc_id", "text"] + extra
            assert out.schema().names == cols, (name, how, out.schema())
    # the near-dup pair stage: an empty dup_table and 0 typed pairs
    for ds in empties.values():
        dup, pairs = minhash_lsh_dedup(ds)
        assert dup.num_rows == 0 and dup.schema.types == [pa.int64()] * 2
        assert pairs.count() == 0
        assert pairs.schema().names == ["id_a", "id_b", "est_jaccard"]


def test_small_reduce_collects_nothing_on_driver(ray_session, dup_docs,
                                                 monkeypatch):
    """On the small path neither reduce pulls corpus-cardinality data to
    the driver: ``Dataset.to_pandas`` is never called, and no value the
    driver fetches with ``ray.get`` is an array or table as long as the
    winner set."""
    import ray
    import ray.data as rd

    from dqm_ray.functions.boilerplate import remove_boilerplate_lines

    t = dup_docs(2000, 0.5, seed=4)
    n_winners = len(set(t.column("text").to_pylist()))

    def no_collect(self, *a, **k):
        raise AssertionError("Dataset.to_pandas called on the driver")

    fetched = []
    real_get = ray.get

    def recording_get(refs, *a, **k):
        out = real_get(refs, *a, **k)
        fetched.extend(out if isinstance(out, list) else [out])
        return out

    monkeypatch.setattr(rd.Dataset, "to_pandas", no_collect)
    monkeypatch.setattr(ray, "get", recording_get)
    deduped = exact_dedup(rd.from_arrow(t)).materialize()
    cleaned = remove_boilerplate_lines(deduped, min_docs=5).materialize()
    monkeypatch.undo()

    def size(v):
        if isinstance(v, (np.ndarray, pa.Table, pa.Array, list)):
            return len(v)
        if isinstance(v, tuple):
            return max((size(x) for x in v), default=0)
        return 0

    assert max((size(v) for v in fetched), default=0) < n_winners
    assert deduped.count() == cleaned.count() == n_winners
