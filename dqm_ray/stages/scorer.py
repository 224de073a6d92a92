"""Stateful scorer stage — language-ID + char-bigram perplexity.

The analog of the reference's build-once state (ChannelMap filled once
then read by every algorithm, include/dqm/ChannelMapFiller.hpp:38-75;
per-channel accumulators in ChannelStream, include/dqm/ChannelStream.hpp:34-250):
model construction happens ONCE per instance in ``__init__``, per-batch
work is vectorized numpy over Arrow columns.

Used as one step of the fused chain: ``QualityStage`` builds one
``ScorerStage(cfg)`` per worker process and calls it on each batch.

The model is injectable (``model_text``): the deterministic self-trained
char-bigram model is the tested default; a real fastText lid.176 /
KenLM model drops into the same interface when its wheel is available
(not in this sandbox).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from dqm_ray.config import LANG_MARKERS, QualityConfig


class VectorBigramModel:
    """Vectorized twin of oracle.BigramModel: add-one-smoothed char-bigram
    log-probabilities over a 128-symbol alphabet (ASCII; >127 → bucket 127)."""

    V = 128

    def __init__(self, training_text: str):
        ids = self._ids(training_text)
        counts = np.zeros((self.V, self.V), dtype=np.int64)
        np.add.at(counts, (ids[:-1], ids[1:]), 1)
        row_tot = counts.sum(axis=1, keepdims=True)
        self.log_p = np.log((counts + 1) / (row_tot + self.V))

    @staticmethod
    def _ids(text: str) -> np.ndarray:
        cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
        return np.minimum(cp, 127).astype(np.int64)

    def log_ppl_many(self, texts: list[str]) -> np.ndarray:
        """Batch log-perplexity: ONE utf-32 encode of the concatenated
        texts + one fancy-index + segment reduceat (the per-doc python
        loop was the scorer's second-largest cost). Bigrams straddling
        doc boundaries are zeroed before the segment sums."""
        n = len(texts)
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        ids = self._ids("".join(texts))
        lens = np.fromiter((len(t) for t in texts), dtype=np.int64, count=n)
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=offs[1:])
        return self._ppl_core(ids, offs, lens)

    def log_ppl_buffer(self, data: np.ndarray,
                       offs: np.ndarray) -> np.ndarray:
        """ASCII fast path: score straight off a string column's raw
        utf8 buffer (byte == codepoint, ids are the bytes themselves) —
        no to_pylist, no join, no utf-32 encode. Bit-identical to
        log_ppl_many on the same ASCII rows: the concatenated id
        sequence and every subsequent op are the same arrays."""
        ids = np.minimum(data, np.uint8(127))
        offs = np.asarray(offs, dtype=np.int64)
        return self._ppl_core(ids, offs, np.diff(offs))

    def _ppl_core(self, ids: np.ndarray, offs: np.ndarray,
                  lens: np.ndarray) -> np.ndarray:
        n = len(lens)
        out = np.zeros(n, dtype=np.float64)
        if len(ids) < 2:
            return out
        counts = np.maximum(lens - 1, 0)
        sums = np.zeros(n, dtype=np.float64)
        # Chunked at ROW boundaries so the float64 gather temp stays
        # cache-resident instead of streaming an 8x blowup of the input
        # through DRAM (the scrub-prefilter lesson). Each chunk carries
        # ONE id past its last row so that row's segment keeps its zeroed
        # boundary gram: reduceat sums pairwise, so segment LENGTH (not
        # just values) must match the monolithic version for bit-identical
        # results — verified by fuzz in test_scorer_ppl_chunked.
        CH = 1 << 19
        r = 0
        while r < n:
            r2 = int(np.searchsorted(offs, offs[r] + CH, side="right")) - 1
            r2 = min(max(r2, r + 1), n)
            a = int(offs[r])
            b_ext = min(int(offs[r2]) + 1, len(ids))
            seg_ids = ids[a:b_ext]
            if len(seg_ids) >= 2:
                lp = self.log_p[seg_ids[:-1], seg_ids[1:]]
                strad = offs[r + 1:r2 + 1] - 1 - a  # gram between doc i, i+1
                lp[strad[(strad >= 0) & (strad < len(lp))]] = 0.0
                w_lens = lens[r:r2]
                nonempty = w_lens > 0          # zero-width docs break reduceat
                starts = (offs[r:r2] - a)[nonempty]
                if starts.size:
                    valid = starts < len(lp)   # trailing docs may lack grams
                    seg = np.zeros(int(nonempty.sum()), dtype=np.float64)
                    if valid.any():
                        seg[valid] = np.add.reduceat(lp, starts[valid])
                    sums[r:r2][nonempty] = seg
            r = r2
        return np.where(counts > 0, -sums / np.maximum(counts, 1), 0.0)


class ScorerStage:
    """Callable scorer step of the fused chain, built once per worker.

    Appends: detected_lang (string), log_ppl (float64),
    scorer_reasons (list<string> in cfg.enabled_scorer_rules order).
    """

    def __init__(self, cfg: QualityConfig | None = None,
                 model_text: str | None = None):
        from dqm_ray.corpus import training_text

        self.cfg = cfg or QualityConfig()
        # build-once state (T1 analog): bigram model + marker tables.
        # Model source precedence: explicit text > external artifact file
        # (cfg.model_path — the ChannelMapFiller external-fill analog;
        # magic-sniffed: DQMB binary matrix / fastText / KenLM / UTF-8
        # training text, see state/model_artifact.py) > deterministic
        # built-in corpus.
        if model_text is None and self.cfg.model_path is not None:
            from dqm_ray.state.model_artifact import (BigramArtifact,
                                                      TrainingText,
                                                      load_model_artifact)

            art = load_model_artifact(self.cfg.model_path)
            if isinstance(art, BigramArtifact):
                if art.log_p.shape[0] != VectorBigramModel.V:
                    raise ValueError(
                        f"DQMB alphabet {art.log_p.shape[0]} != scorer "
                        f"alphabet {VectorBigramModel.V}")
                self.model = VectorBigramModel.__new__(VectorBigramModel)
                self.model.log_p = art.log_p
            elif isinstance(art, TrainingText):
                self.model = VectorBigramModel(art.text)
            else:  # wheel-backed model object (kenlm via adapter)
                if not hasattr(art, "log_ppl_many"):
                    # fastText loads as a classifier, not a perplexity
                    # model — fail at CONSTRUCTION with the contract
                    # named, not with AttributeError on the first batch
                    raise NotImplementedError(
                        f"model artifact {type(art).__name__} does not "
                        "expose log_ppl_many; the scorer consumes "
                        "perplexity models (DQMB matrix, KenLM binary, "
                        "or UTF-8 training text)")
                self.model = art
        else:
            self.model = VectorBigramModel(model_text or training_text())
        self.lang_names = list(LANG_MARKERS.keys())
        self.lang_index = {l: i for i, l in enumerate(self.lang_names)}
        # one RE2 alternation per lang instead of one scan per marker
        # (2.7x fewer passes over the prefix bytes). Valid because no
        # marker is a suffix-prefix overlap of another within a lang, so
        # non-overlapping alternation count == sum of per-marker counts
        # (the oracle SQL keeps the per-marker formulation).
        import re as _re

        self.lang_patterns = ["|".join(_re.escape(m) for m in LANG_MARKERS[l])
                              for l in self.lang_names]

    def __call__(self, batch: pa.Table) -> pa.Table:
        from dqm_ray.stages.rules import (is_ascii_batch, prefix_slice,
                                          string_buffer_view)

        cfg = self.cfg
        content = batch.column("content").combine_chunks()
        ascii_ok = is_ascii_batch(content)
        prefix = prefix_slice(content, cfg.scorer_prefix_chars, ascii_ok)

        # marker-hit matrix: (n_langs, n_rows), one alternation scan/lang
        n = len(batch)
        hits = np.empty((len(self.lang_names), n), dtype=np.int64)
        for li, pattern in enumerate(self.lang_patterns):
            hits[li] = pc.count_substring_regex(prefix, pattern) \
                .to_numpy(zero_copy_only=False).astype(np.int64)

        best = hits.argmax(axis=0)          # first max wins — oracle tie rule
        best_hits = hits[best, np.arange(n)]
        detected = np.where(
            best_hits >= cfg.langid_min_marker_hits,
            np.array(self.lang_names, dtype=object)[best], "unknown")

        view = string_buffer_view(prefix) if (
            ascii_ok and hasattr(self.model, "log_ppl_buffer")) else None
        if view is not None:
            log_ppl = self.model.log_ppl_buffer(*view)
        else:
            log_ppl = self.model.log_ppl_many(prefix.to_pylist())

        # lang_mismatch: declared lang has a marker profile, file is big
        # enough, none of the declared lang's markers appear.
        # n_lines/nonblank feed ONLY this mask, and the other two
        # conjuncts (declared lang known, zero marker hits) are already
        # free from the hits matrix — so the line-split and whitespace
        # trim run on the ~15% candidate subset, not every row.
        declared = batch.column("lang").to_numpy(zero_copy_only=False)
        decl_idx = np.array([self.lang_index.get(l, -1) for l in declared],
                            dtype=np.int64)
        decl_hits = np.where(decl_idx >= 0,
                             hits[np.maximum(decl_idx, 0), np.arange(n)], 1)
        mismatch = np.zeros(n, dtype=bool)
        cand = np.flatnonzero((decl_idx >= 0) & (decl_hits == 0))
        if cand.size:
            sub = prefix.take(pa.array(cand))
            n_lines = pc.list_value_length(pc.split_pattern(sub, "\n")) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            nonblank = pc.greater(
                pc.utf8_length(pc.utf8_trim_whitespace(sub)), 0
            ).to_numpy(zero_copy_only=False)
            mismatch[cand] = (n_lines >= cfg.langid_min_lines) & nonblank
        high_ppl = log_ppl > cfg.max_log_ppl

        from dqm_ray.stages.rules import reasons_from_masks
        masks = []
        for rule in cfg.enabled_scorer_rules:
            if rule == "lang_mismatch":
                masks.append(("lang_mismatch", mismatch))
            elif rule == "high_ppl":
                masks.append(("high_ppl", high_ppl))

        out = batch.append_column("detected_lang",
                                  pa.array(detected.astype(object), pa.string()))
        out = out.append_column("log_ppl", pa.array(log_ppl, pa.float64()))
        out = out.append_column("scorer_reasons",
                                reasons_from_masks(masks, len(batch)))
        return out
