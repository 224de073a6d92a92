"""Scorer stage (langid + perplexity) vs naive oracle."""

import numpy as np
import pytest

from dqm_ray.corpus import training_text
from dqm_ray.oracle import BigramModel, label_table
from dqm_ray.stages.scorer import ScorerStage, VectorBigramModel


@pytest.fixture(scope="module")
def stage(cfg):
    return ScorerStage(cfg)


def test_bigram_models_agree():
    text = training_text(seed=5, n_lines=200)
    naive = BigramModel(text)
    vec = VectorBigramModel(text)
    samples = ["def foo(x):\n    return x + 1\n", "qqqzzz@@@!!!", "", "a",
               "The quick brown fox. " * 10]
    for s in samples:
        assert vec.log_ppl_many([s])[0] == pytest.approx(naive.log_ppl(s),
                                                         rel=1e-9, abs=1e-12)


def test_scorer_matches_oracle(corpus_table, cfg, stage):
    inp = corpus_table.drop_columns(["pattern"])
    out = stage(inp)
    oracle = label_table(inp, cfg)
    np.testing.assert_allclose(out["log_ppl"].to_pylist(),
                               [r["log_ppl"] for r in oracle], rtol=1e-9)
    assert out["detected_lang"].to_pylist() == \
        [r["detected_lang"] for r in oracle]
    got = out["scorer_reasons"].to_pylist()
    want = [[x for x in r["reasons"] if x in cfg.enabled_scorer_rules]
            for r in oracle]
    assert got == want


def test_pattern_outcomes(corpus_table, stage):
    out = stage(corpus_table)
    pats = corpus_table["pattern"].to_pylist()
    reasons = out["scorer_reasons"].to_pylist()
    for p, r in zip(pats, reasons):
        if p == "wrong_lang":
            assert "lang_mismatch" in r
        elif p == "high_ppl":
            assert "high_ppl" in r
        elif p == "clean_code":
            assert r == []


def test_separation_margin(corpus_table, cfg, stage):
    """Perplexity threshold sits with real margin between clean code and
    random soup (so float noise can't flip labels)."""
    out = stage(corpus_table)
    pats = corpus_table["pattern"].to_pylist()
    ppl = np.array(out["log_ppl"].to_pylist())
    clean = ppl[[i for i, p in enumerate(pats) if p == "clean_code"]]
    soup = ppl[[i for i, p in enumerate(pats) if p == "high_ppl"]]
    assert clean.max() < cfg.max_log_ppl - 0.2
    assert soup.min() > cfg.max_log_ppl + 0.2


def test_binary_model_artifact_roundtrip(ray_session, tmp_path):
    """The production artifact shape: a BINARY serialized model (DQMB)
    in the cfg.model_path slot, loaded once per actor — scores must be
    bitwise identical to the in-memory model it was saved from."""
    import ray.data as rd

    from dqm_ray.config import QualityConfig
    from dqm_ray.corpus import generate_corpus
    from dqm_ray.pipelines.quality import build_quality_pipeline
    from dqm_ray.stages.scorer import VectorBigramModel
    from dqm_ray.state.model_artifact import save_bigram_artifact

    src = VectorBigramModel("zq xv qz vx " * 2000)
    artifact = tmp_path / "model.dqmb"
    save_bigram_artifact(str(artifact), src.log_p)

    table = generate_corpus(120, seed=29).drop_columns(["pattern"])
    cfg = QualityConfig(model_path=str(artifact))
    out = build_quality_pipeline(rd.from_arrow(table), cfg).to_pandas()
    # same scores as constructing the stage with the source model text
    cfg2 = QualityConfig()
    from dqm_ray.stages.scorer import ScorerStage

    stage = ScorerStage(cfg2, model_text="zq xv qz vx " * 2000)
    import pyarrow as pa

    from dqm_ray.stages.normalize import normalize_batch

    ref = stage(normalize_batch(table, cfg=cfg2))
    key = ["repo", "path", "commit"]
    out = out.sort_values(key).reset_index(drop=True)
    ref_df = ref.to_pandas().sort_values(key).reset_index(drop=True)
    assert (out["log_ppl"].to_numpy()
            == ref_df["log_ppl"].to_numpy()).all()


def test_fasttext_kenlm_layouts_recognized(tmp_path):
    """The committed fixtures carry the REAL public binary layouts;
    without the wheels the loader must parse the headers and raise an
    actionable NotImplementedError — not misread them as training
    text (which would silently mis-score)."""
    import os

    import pytest

    from dqm_ray.state.model_artifact import (load_model_artifact,
                                              parse_fasttext_header)

    fix = os.path.join(os.path.dirname(__file__), "fixtures")
    ft = os.path.join(fix, "tiny_fasttext.bin")
    with pytest.raises(NotImplementedError, match="fastText"):
        load_model_artifact(ft)
    with open(ft, "rb") as fh:
        hdr = parse_fasttext_header(fh.read(512))
    assert hdr["magic"] == 793712314 and hdr["version"] == 12
    assert hdr["dim"] == 16 and hdr["model"] == 3  # supervised (lid shape)
    assert abs(hdr["t"] - 1e-4) < 1e-12

    with pytest.raises(NotImplementedError, match="KenLM.*version 5"):
        load_model_artifact(os.path.join(fix, "tiny_kenlm.bin"))


def test_scorer_rejects_wrong_alphabet_artifact(tmp_path):
    import numpy as np
    import pytest

    from dqm_ray.config import QualityConfig
    from dqm_ray.stages.scorer import ScorerStage
    from dqm_ray.state.model_artifact import save_bigram_artifact

    bad = tmp_path / "bad.dqmb"
    save_bigram_artifact(str(bad), np.zeros((64, 64)))
    with pytest.raises(ValueError, match="alphabet"):
        ScorerStage(QualityConfig(model_path=str(bad)))


def test_external_model_artifact_injection(ray_session, tmp_path):
    """Dropping in an external model artifact (a file the actor loads
    once in __init__) changes scoring end-to-end — the ChannelMapFiller
    external-fill analog. A real fastText/KenLM binary would occupy the
    same cfg.model_path slot."""
    from dataclasses import replace

    import ray.data as rd

    from dqm_ray.config import QualityConfig
    from dqm_ray.corpus import generate_corpus
    from dqm_ray.pipelines.quality import build_quality_pipeline
    from dqm_ray.stages.scorer import ScorerStage

    # artifact trained on pathological text: real code should look
    # high-perplexity under it
    artifact = tmp_path / "model.txt"
    artifact.write_text("zq xv qz vx " * 2000)
    cfg = QualityConfig(model_path=str(artifact))

    table = generate_corpus(150, seed=23).drop_columns(["pattern"])
    base = build_quality_pipeline(
        rd.from_arrow(table), QualityConfig()).to_pandas()
    injected = build_quality_pipeline(rd.from_arrow(table), cfg).to_pandas()
    key = ["repo", "path", "commit"]
    base = base.sort_values(key).reset_index(drop=True)
    injected = injected.sort_values(key).reset_index(drop=True)
    # scoring actually used the artifact: perplexities shift up en masse
    # (empty/short docs score 0 under either model, so not 100%)
    assert (injected["log_ppl"] > base["log_ppl"]).mean() > 0.75
    assert injected["log_ppl"].mean() > base["log_ppl"].mean() + 1.0
    assert injected["keep"].sum() < base["keep"].sum()
    # direct stage check: file-loaded model == same text passed inline
    st_file = ScorerStage(cfg)
    st_text = ScorerStage(replace(cfg, model_path=None),
                          model_text=artifact.read_text())
    assert np.allclose(st_file.model.log_p, st_text.model.log_p)


def test_log_ppl_many_matches_per_doc_reference():
    """The batched (concat + reduceat) perplexity equals the per-doc
    formula, including empty / 1-char / unicode edge docs."""
    from dqm_ray.stages.scorer import VectorBigramModel

    m = VectorBigramModel("the quick brown fox " * 50)
    texts = ["hello world", "", "x", "a b", "é世界 mixed",
             "", "zz", "the quick brown fox jumps", " ", ""]
    got = m.log_ppl_many(texts)
    for t, g in zip(texts, got):
        ids = m._ids(t)
        want = 0.0 if len(ids) < 2 else \
            -float(m.log_p[ids[:-1], ids[1:]].sum()) / (len(ids) - 1)
        assert abs(g - want) < 1e-12, (t, g, want)


def test_marker_alternation_equals_per_marker_counts():
    """The per-lang alternation scan must count exactly the sum of
    per-marker counts (the SQL oracle keeps the per-marker form)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from dqm_ray.config import LANG_MARKERS
    from dqm_ray.stages.scorer import ScorerStage

    st = ScorerStage()
    # adversarial adjacency: markers back-to-back, repeated, interleaved
    texts = []
    for ms in LANG_MARKERS.values():
        texts.append("".join(ms) * 3)
        texts.append(" ".join(ms[::-1]))
        texts.append(ms[0] + ms[0] + ms[-1])
    arr = pa.array(texts, pa.large_string())
    for li, lang in enumerate(st.lang_names):
        combined = pc.count_substring_regex(arr, st.lang_patterns[li]) \
            .to_numpy(zero_copy_only=False)
        summed = sum(pc.count_substring(arr, mk)
                     .to_numpy(zero_copy_only=False)
                     for mk in LANG_MARKERS[lang])
        assert (combined == summed).all(), lang


def test_scorer_ppl_chunked_bit_identical():
    """_ppl_core chunks the lp gather at row boundaries (cache-resident
    temps); reduceat sums pairwise, so each row's segment must keep the
    exact length it had in the monolithic formulation — fuzz against an
    inline monolithic twin, including rows longer than the chunk size,
    empty rows, and production-shaped (~8 KB) rows."""
    m = VectorBigramModel("the quick brown fox " * 50)

    def monolithic(ids, offs, lens):
        n = len(lens)
        out = np.zeros(n, dtype=np.float64)
        if len(ids) < 2:
            return out
        lp = m.log_p[ids[:-1], ids[1:]]
        straddle = offs[1:-1] - 1
        lp[straddle[(straddle >= 0) & (straddle < len(lp))]] = 0.0
        counts = np.maximum(lens - 1, 0)
        sums = np.zeros(n, dtype=np.float64)
        nonempty = lens > 0
        starts = offs[:-1][nonempty]
        if starts.size:
            valid = starts < len(lp)
            seg = np.zeros(int(nonempty.sum()), dtype=np.float64)
            if valid.any():
                seg[valid] = np.add.reduceat(lp, starts[valid])
            sums[nonempty] = seg
        return np.where(counts > 0, -sums / np.maximum(counts, 1), 0.0)

    rng = np.random.default_rng(17)
    for trial in range(60):
        nrows = int(rng.integers(1, 40))
        lens = rng.integers(0, 60, nrows)
        if trial % 7 == 0:  # row longer than the 2^19 chunk
            lens[rng.integers(0, nrows)] = rng.integers(1 << 19, 1 << 20)
        if trial % 11 == 0:  # production-shaped
            lens[:] = rng.integers(4000, 9000, nrows)
        lens = lens.astype(np.int64)
        offs = np.zeros(nrows + 1, np.int64)
        np.cumsum(lens, out=offs[1:])
        ids = rng.integers(0, 128, int(offs[-1])).astype(np.int64)
        want = monolithic(ids, offs, lens)
        got = m._ppl_core(ids, offs, lens)
        assert np.array_equal(want, got), trial
