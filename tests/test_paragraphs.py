"""dedup_paragraphs (dqm_ray/functions/paragraphs.py) vs a naive
sequential seen-set reference: first-occurrence-wins cross-doc
paragraph dedup, empty paragraphs never participating, every doc
present in the output (all-dup docs with empty text)."""

import numpy as np
import pandas as pd


def test_dedup_paragraphs_edges(ray_session, paragraphs_twin):
    import ray.data as rd

    from dqm_ray.functions.paragraphs import dedup_paragraphs

    docs = [
        "hello world\n\nfoo bar\n\nhello world",  # intra-doc dup
        "unique one\n\nfoo bar",                   # cross-doc dup
        "",                                        # empty doc
        "foo bar",                                 # fully deduped away
        "a\n\n\n\nb\n\na",                         # empties always kept
    ]
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64),
                       "text": docs})
    out = dedup_paragraphs(rd.from_pandas(df).repartition(3)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(out, paragraphs_twin(df))


def test_dedup_paragraphs_random_corpus(ray_session, paragraphs_twin):
    """Template-heavy random corpus across many blocks: winner choice
    must follow global (doc_id, idx) order, not block order."""
    import ray.data as rd

    from dqm_ray.functions.paragraphs import dedup_paragraphs

    rng = np.random.default_rng(12)
    pool = [f"paragraph number {i} with body text" for i in range(40)]
    docs = ["\n\n".join(rng.choice(pool, size=rng.integers(1, 8)))
            for _ in range(400)]
    df = pd.DataFrame({"doc_id": np.arange(400, dtype=np.int64),
                       "text": docs})
    out = dedup_paragraphs(rd.from_pandas(df).repartition(11)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    ref = paragraphs_twin(df)
    pd.testing.assert_frame_equal(out, ref)
    # every distinct paragraph survives exactly once corpus-wide
    kept_paras = [p for t in out["text"] for p in t.split("\n\n") if p]
    assert sorted(set(kept_paras)) == sorted(kept_paras)


def test_dedup_paragraphs_partitioned_matches_one_task(ray_session,
                                                      reduce_at_budget):
    """The winner reduce split into K = 4 parts of the partials gives
    the one-task (K = 1) output on a template-heavy corpus over many
    blocks."""
    import ray.data as rd

    from dqm_ray.functions.paragraphs import dedup_paragraphs
    from dqm_ray.state.reduce import SMALL_REDUCE_BYTES

    rng = np.random.default_rng(3)
    pool = [f"shared para {i} body" for i in range(30)]
    docs = ["\n\n".join(rng.choice(pool, size=rng.integers(1, 6)))
            for _ in range(300)]
    docs[7] = ""                       # empty doc survives both paths
    df = pd.DataFrame({"doc_id": np.arange(300, dtype=np.int64),
                       "text": docs})

    def run():
        return dedup_paragraphs(rd.from_pandas(df).repartition(9)) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)

    what = "dedup_paragraphs"
    a, k1, nbytes, _ = reduce_at_budget(SMALL_REDUCE_BYTES, run, what)
    b, k4, _, _ = reduce_at_budget(nbytes // 3, run, what)
    assert (k1, k4) == (1, 4)
    pd.testing.assert_frame_equal(a, b)
