"""Incremental dedup against a persisted signature index
(dqm_ray/functions/incremental.py) vs a naive sequential reference:
prior-corpus suppression + first-wins within the ingest, bucket-layout
alignment across index generations."""

import shutil

import numpy as np
import pandas as pd
import pytest


def _naive_keep(new_df, prior_texts):
    seen = set()
    ids = []
    for did, t in zip(new_df["doc_id"], new_df["text"]):
        if t in prior_texts or t in seen:
            continue
        seen.add(t)
        ids.append(did)
    return ids


@pytest.fixture()
def tmpidx(tmp_path):
    d = str(tmp_path / "idx")
    yield d
    shutil.rmtree(d, ignore_errors=True)


def test_incremental_dedup_matches_naive(ray_session, tmpidx):
    import ray.data as rd

    from dqm_ray.functions.incremental import (build_dedup_index,
                                               incremental_dedup)

    rng = np.random.default_rng(5)
    pool = [f"document body {i}" for i in range(60)]
    prior = pd.DataFrame({"doc_id": np.arange(100, dtype=np.int64),
                          "text": rng.choice(pool[:40], 100)})
    new = pd.DataFrame({"doc_id": np.arange(100, 300, dtype=np.int64),
                        "text": rng.choice(pool, 200)})
    build_dedup_index(rd.from_pandas(prior).repartition(4), tmpidx)
    out = incremental_dedup(rd.from_pandas(new).repartition(5), tmpidx,
                            workdir=tmpidx + "_w") \
        .to_pandas().sort_values("doc_id")
    assert out["doc_id"].tolist() == _naive_keep(new, set(prior.text))
    # fresh texts all survive; a doc duplicating the prior never does
    fresh = new[~new.text.isin(set(prior.text))]
    assert set(fresh.drop_duplicates("text").doc_id) == set(out.doc_id)


def test_incremental_second_generation(ray_session, tmpidx):
    """Appending an accepted ingest's signatures to the index (same
    bucket function) suppresses it for the NEXT ingest."""
    import ray.data as rd

    from dqm_ray.functions.incremental import (build_dedup_index,
                                               incremental_dedup)

    prior = pd.DataFrame({"doc_id": np.arange(10, dtype=np.int64),
                          "text": [f"gen0 {i}" for i in range(10)]})
    build_dedup_index(rd.from_pandas(prior), tmpidx)
    g1 = pd.DataFrame({"doc_id": np.arange(10, 20, dtype=np.int64),
                       "text": [f"gen1 {i}" for i in range(10)]})
    kept1 = incremental_dedup(rd.from_pandas(g1), tmpidx,
                              workdir=tmpidx + "_w1").to_pandas()
    assert len(kept1) == 10
    # grow the index with gen1 by rebuilding over the union (the
    # bucket function is stable, so layouts stay aligned)
    build_dedup_index(rd.from_pandas(pd.concat([prior, g1])), tmpidx)
    g2 = pd.DataFrame({
        "doc_id": np.arange(20, 40, dtype=np.int64),
        "text": [f"gen1 {i}" for i in range(10)]
              + [f"gen2 {i}" for i in range(10)]})
    kept2 = incremental_dedup(rd.from_pandas(g2), tmpidx,
                              workdir=tmpidx + "_w2") \
        .to_pandas().sort_values("doc_id")
    assert kept2["doc_id"].tolist() == list(range(30, 40))


def _neardup_corpus():
    """Index docs + an ingest with planted exact/near/fresh docs."""
    base = ("the quick brown fox jumps over the lazy dog while the "
            "rain in spain stays mainly on the plain and %d keeps "
            "every shingle window busy enough for stable minhash")
    prior = pd.DataFrame({
        "doc_id": np.arange(0, 20, dtype=np.int64),
        "text": [base % i for i in range(20)]})
    new_rows = []
    # 5 exact copies of index docs, 5 near copies (one char appended),
    # 10 fresh docs
    for i in range(5):
        new_rows.append(base % i)
    for i in range(5, 10):
        new_rows.append((base % i) + "!")
    for i in range(10):
        new_rows.append(f"completely different content number {i} " * 8)
    new = pd.DataFrame({
        "doc_id": np.arange(100, 120, dtype=np.int64),
        "text": new_rows})
    return prior, new


def test_incremental_neardup(ray_session, tmpidx):
    import ray.data as rd

    from dqm_ray.functions.incremental import (build_neardup_index,
                                               incremental_neardup)

    prior, new = _neardup_corpus()
    build_neardup_index(rd.from_pandas(prior), tmpidx, num_buckets=8)
    kept = incremental_neardup(rd.from_pandas(new), tmpidx,
                               num_buckets=8,
                               workdir=tmpidx + "_w").to_pandas() \
        .sort_values("doc_id")
    # exact + near copies dropped, fresh kept
    assert kept["doc_id"].tolist() == list(range(110, 120))
    # deterministic across reruns
    kept2 = incremental_neardup(rd.from_pandas(new), tmpidx,
                                num_buckets=8,
                                workdir=tmpidx + "_w2").to_pandas() \
        .sort_values("doc_id")
    assert kept2["doc_id"].tolist() == kept["doc_id"].tolist()


def test_incremental_neardup_threshold_gate(ray_session, tmpidx):
    """A candidate pair sharing a band bucket but below the signature
    -Jaccard threshold survives (verify step, not just LSH recall)."""
    import ray.data as rd

    from dqm_ray.functions.dedup import MinHashStage
    from dqm_ray.functions.incremental import (build_neardup_index,
                                               incremental_neardup)

    a = "the quick brown fox jumps over the lazy dog " * 4
    b = a[:len(a) // 2] + "zebra lion tiger bear wolf eagle hawk " * 3
    st = MinHashStage()
    e = (st.signature(a) == st.signature(b)).mean()
    assert 0 < e < 0.8  # shares some shingles, below threshold
    prior = pd.DataFrame({"doc_id": np.array([0], np.int64),
                          "text": [a]})
    new = pd.DataFrame({"doc_id": np.array([100], np.int64),
                        "text": [b]})
    build_neardup_index(rd.from_pandas(prior), tmpidx, num_buckets=4)
    kept = incremental_neardup(rd.from_pandas(new), tmpidx,
                               num_buckets=4, threshold=0.8,
                               workdir=tmpidx + "_w").to_pandas()
    assert kept["doc_id"].tolist() == [100]


def test_corpus_diff_verdicts(ray_session, at_k1_and_k4):
    import ray.data as rd

    from dqm_ray.functions.incremental import corpus_diff

    old = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": [f"doc {i}" for i in range(6)]})
    new = pd.DataFrame({
        "doc_id": np.array([0, 1, 2, 4, 9], np.int64),
        "text": ["doc 0", "doc 1 EDITED", "doc 2", "doc 4", "brand new"]})
    want = {0: "same", 1: "changed", 2: "same", 3: "removed", 4: "same",
            5: "removed", 9: "added"}
    for ds in at_k1_and_k4(
            lambda: corpus_diff(rd.from_pandas(old).repartition(2),
                                rd.from_pandas(new).repartition(2)),
            "corpus_diff"):
        out = ds.to_pandas()
        assert dict(zip(out["doc_id"], out["status"])) == want
        assert len(out) == len(want)
