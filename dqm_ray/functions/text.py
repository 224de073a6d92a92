"""Text-analysis operators over a generic (id, text) table — the
documents-table face of the same kernels the flagship pipeline uses on
code files: line statistics, token counting, language-ID, quality
scoring, document fingerprinting.

All per-row work is vectorized Arrow/numpy inside ``map_batches``; the
only Python-level loop is the per-row fingerprint hash (C-accelerated).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

TOKEN_RE = r"[A-Za-z0-9_]+"  # ASCII-explicit: same meaning in RE2 & python re

# tiny per-language stopword profiles for natural-language ID over the
# documents table (n-gram-heuristic langid; deterministic, self-contained)
NL_STOPWORDS: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "of", "to", "is"),
    "de": ("der", "die", "und", "nicht", "das"),
    "fr": ("le", "la", "et", "les", "des"),
    "es": ("el", "la", "que", "los", "de"),
}


def line_stats_batch(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Append n_lines / max_line_len / mean_line_len / dup_line_ratio /
    alnum_frac computed from `text_col` (shared kernel with the code
    pipeline's rules stage)."""
    from dqm_ray.stages.rules import ascii_class_count, line_stats

    text = batch.column(text_col).combine_chunks()
    stats = line_stats(text)
    tlen = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.int64)
    alnum = ascii_class_count(text)
    alnum_frac = np.where(tlen > 0, alnum / np.maximum(tlen, 1), 0.0)
    out = batch
    out = out.append_column("n_lines", pa.array(stats["n_lines"], pa.int64()))
    out = out.append_column("max_line_len", pa.array(stats["max_line_len"], pa.int64()))
    out = out.append_column("mean_line_len", pa.array(stats["mean_line_len"], pa.float64()))
    out = out.append_column("dup_line_ratio", pa.array(stats["dup_line_ratio"], pa.float64()))
    out = out.append_column("alnum_frac", pa.array(alnum_frac, pa.float64()))
    return out


def token_count_batch(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Append n_tokens (BPE-ish ASCII word regex) and n_ws_tokens
    (whitespace-separated chunks) — the two token-counting bases."""
    text = batch.column(text_col).combine_chunks()
    n = pc.count_substring_regex(text, TOKEN_RE)
    ws = pc.count_substring_regex(text, r"[^ \t\n]+")
    out = batch.append_column("n_tokens", n.cast(pa.int64()))
    return out.append_column("n_ws_tokens", ws.cast(pa.int64()))


def nl_langid_batch(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Append detected_lang by stopword-profile hits (word-boundary-aware:
    counts ' word ' occurrences on a space-padded lowercase text)."""
    text = batch.column(text_col).combine_chunks()
    lower = pc.utf8_lower(text)
    padded = pc.binary_join_element_wise(
        pa.array([" "] * len(batch)), lower, pa.array([" "] * len(batch)), "")
    langs = list(NL_STOPWORDS.keys())
    hits = np.zeros((len(langs), len(batch)), dtype=np.int64)
    for li, lang in enumerate(langs):
        for w in NL_STOPWORDS[lang]:
            hits[li] += pc.count_substring(padded, f" {w} ") \
                .to_numpy(zero_copy_only=False).astype(np.int64)
    best = hits.argmax(axis=0)
    best_hits = hits[best, np.arange(len(batch))]
    detected = np.where(best_hits > 0,
                        np.array(langs, dtype=object)[best], "unknown")
    return batch.append_column(
        "detected_lang", pa.array(detected.astype(object), pa.string()))


def fingerprint_batch(batch: pa.Table, *, text_col: str = "text",
                      ngram: int = 8) -> pa.Table:
    """Append fingerprint: min 64-bit rolling hash over byte n-grams —
    fully vectorized over the batch's raw utf8 buffer (equal
    fingerprints ⇒ likely shared content)."""
    from dqm_ray.stages.rules import string_buffer_view

    text = batch.column(text_col).combine_chunks()
    out = np.zeros(len(batch), dtype=np.uint64)
    valid_idx = None
    if text.null_count:
        # null-safe path: run the same vectorized kernel over the
        # non-null subset, scatter back (null rows keep fingerprint 0)
        valid = pc.is_valid(text).to_numpy(zero_copy_only=False)
        valid_idx = np.nonzero(valid)[0]
        text = text.take(pa.array(valid_idx, pa.int64()))
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
    view = string_buffer_view(text)
    if view is not None:
        data, offs = view
        d = data.astype(np.uint64)
        P = np.uint64(0x100000001B3)  # FNV-ish odd multiplier
        if len(d) >= ngram:
            g = d[: len(d) - ngram + 1] * P
            for j in range(1, ngram):
                g = g * P + d[j: len(d) - ngram + 1 + j]
        else:
            g = np.zeros(0, np.uint64)
        # row segments over the gram array; grams straddling row
        # boundaries are included in the earlier row — harmless for a
        # min-fingerprint (they mix the same boundary bytes) but we mask
        # them out anyway for exact per-row semantics
        n = len(text)
        lens = np.diff(offs)
        sub = np.zeros(n, dtype=np.uint64)
        for i in range(n):  # n iterations over slices, not bytes
            lo, hi = offs[i], offs[i + 1]
            if lens[i] >= ngram:
                seg = g[lo:hi - ngram + 1]
            elif lens[i] > 0:
                seg = d[lo:hi]  # short row: hash its bytes directly
            else:
                seg = None
            sub[i] = int(seg.min()) if seg is not None and len(seg) else 0
        if valid_idx is None:
            out = sub
        else:
            out[valid_idx] = sub
    return batch.append_column("fingerprint", pa.array(out, pa.uint64()))


def quality_score_batch(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Append a [0,1] quality score from length / punctuation / word-shape
    ratios (heuristic; monotone in each component)."""
    text = batch.column(text_col).combine_chunks()
    tlen = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.float64)
    words = pc.count_substring_regex(text, TOKEN_RE) \
        .to_numpy(zero_copy_only=False).astype(np.float64)
    punct = pc.count_substring_regex(text, r"[.,;:!?]") \
        .to_numpy(zero_copy_only=False).astype(np.float64)
    spaces = pc.count_substring(text, " ").to_numpy(zero_copy_only=False) \
        .astype(np.float64)
    len_score = np.clip(tlen / 500.0, 0.0, 1.0)
    word_score = np.clip(words / np.maximum(tlen / 6.0, 1.0), 0.0, 1.0)
    punct_score = 1.0 - np.clip(punct / np.maximum(words, 1.0), 0.0, 1.0)
    space_score = np.clip(spaces / np.maximum(words, 1.0), 0.0, 1.0)
    score = 0.25 * (len_score + word_score + punct_score + space_score)
    return batch.append_column("quality_score", pa.array(score, pa.float64()))


def chunk_docs(ds, *, text_col: str = "text", id_col: str = "doc_id",
               chunk_size: int = 500, overlap: int = 100):
    """Split every document into fixed-size character windows with
    overlap — training-sequence / RAG chunk prep.

    Contract (mirrored by the SQL oracle): stride = chunk_size −
    overlap; doc with n chars gets ``1 + ceil((n − chunk_size) /
    stride)`` chunks (1 if n ≤ chunk_size, including empty docs);
    chunk i covers characters ``[i·stride, i·stride + chunk_size)``
    (codepoint semantics, identical to SQL ``substring``).

    Scale shape: embarrassingly parallel flat-map — one vectorized
    ``utf8_slice_codeunits`` pass per chunk ordinal over the rows that
    still have text there, so total work is O(total chars x
    chunk_size/stride), no per-row Python and no shuffle. Row fan-out
    is bounded by Ray's block splitting; large docs only increase the
    per-batch output linearly.
    """
    stride = chunk_size - overlap
    if stride <= 0:
        raise ValueError("overlap must be smaller than chunk_size")

    def chunk_batch(batch: pa.Table) -> pa.Table:
        text = batch.column(text_col).combine_chunks()
        ids = batch.column(id_col)
        n = pc.utf8_length(text).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n_chunks = np.where(
            n <= chunk_size, 1,
            (n - chunk_size + stride - 1) // stride + 1)
        pieces = []
        for i in range(int(n_chunks.max()) if len(batch) else 0):
            sel = np.nonzero(n_chunks > i)[0]
            sub = text.take(pa.array(sel))
            piece = pc.utf8_slice_codeunits(
                sub, start=i * stride, stop=i * stride + chunk_size)
            pieces.append(pa.table({
                id_col: ids.take(pa.array(sel)),
                "chunk_id": pa.array(np.full(len(sel), i, np.int64)),
                "chunk_text": piece.cast(pa.string()),
                "n_chunk_chars": pc.utf8_length(piece).cast(pa.int64()),
            }))
        if not pieces:
            return pa.table({id_col: ids, "chunk_id": pa.array([], pa.int64()),
                             "chunk_text": pa.array([], pa.string()),
                             "n_chunk_chars": pa.array([], pa.int64())})
        return pa.concat_tables(pieces)

    return ds.map_batches(chunk_batch, batch_format="pyarrow")


def top_terms(ds, *, text_col: str = "text", min_len: int = 2,
              k: int = 100):
    """Corpus-wide heavy hitters: the k most frequent lowercase ASCII
    word tokens (``[a-z]+`` runs of ``lower(text)``, length >= min_len).

    Scale shape: tokenization and first-level counting happen per block
    (Arrow split + value_counts — (term, partial_count) rows bounded by
    the vocabulary, never tokens), then one grouped sum whose key parts
    each keep their top k, and the driver picks the top k of those.
    Ties break by term ascending so the top-k set is deterministic.

    Reference parity: Counter-style raw stream reduced to a bounded
    export per window (include/dqm/ChannelStream.hpp export loop) —
    here the export is the global term histogram's top-k."""
    import ray.data as rd

    from dqm_ray.state.reduce import collect, grouped_aggregate

    order = [("n", "descending"), ("term", "ascending")]

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch.column(text_col).combine_chunks()),
            "[^a-z]+")
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.greater_equal(pc.utf8_length(flat),
                                            min_len))
        vc = pc.value_counts(flat)
        return pa.table({"term": vc.field("values"),
                         "n": vc.field("counts")})

    def top(t: pa.Table) -> pa.Table:
        return t.sort_by(order).slice(0, k)

    return rd.from_arrow(top(collect(grouped_aggregate(
        ds, partial, ["term"], {"n": "sum"}, what="top_terms",
        finish=top))))


# integer-quantized IDF: idf_q = (IDF_SCALE*(N+1)) // (df+1). Pure
# integer arithmetic keeps selection and scores bitwise identical
# across engines (float ln() would differ in the last ulp between
# libm builds and make near-equal ranks nondeterministic).
IDF_SCALE = 1 << 20


def _doc_term_pairs(batch: pa.Table, text_col: str, min_len: int):
    """Tokenize a batch -> (row_index, term_code, dictionary) with all
    work in Arrow kernels; one row per token occurrence."""
    toks = pc.split_pattern_regex(
        pc.utf8_lower(batch.column(text_col).combine_chunks()),
        "[^a-z]+")
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    keep = pc.greater_equal(pc.utf8_length(flat), min_len)
    flat = flat.filter(keep)
    parent = parent[keep.to_numpy(zero_copy_only=False)]
    enc = flat.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return parent.astype(np.int64), codes, enc.dictionary


def tfidf_keywords(ds, *, text_col: str = "text", id_col: str = "doc_id",
                   k: int = 3, min_len: int = 2):
    """Per-document top-k TF-IDF keywords.

    Two passes, both vocabulary-bounded on the wire:

    1. document frequency: per batch emit (term, n_docs_containing)
       partials — distinct (doc, term) pairs via one np.unique over
       packed codes, so a block's partial holds at most |block vocab|
       rows, never tokens — then one grouped sum; the resulting df table
       (Heaps'-law sublinear in corpus size) is broadcast once via
       ray.put as sorted (vocab, df) arrays;
    2. scoring: per batch compute per-doc term counts (same packed
       np.unique), look up df by searchsorted into the broadcast
       vocab, score = count * idf_q (integer-quantized IDF — see
       IDF_SCALE), and keep each doc's top k by (score DESC, term
       ASC) with a vectorized lexsort — no per-doc Python.

    At vocabularies too large to broadcast, pass 1's df table can be
    hash-bucket-joined instead (sources/bucketed.py); the query-scale
    default broadcasts. Reference parity: ChannelMapFiller's
    build-once lookup map applied per record
    (include/dqm/ChannelMapFiller.hpp:38-75).
    """
    from dqm_ray.state.broadcast import Broadcast
    from dqm_ray.state.reduce import collect, grouped_aggregate

    n_docs = ds.count()

    def df_partial(batch: pa.Table) -> pa.Table:
        parent, codes, terms = _doc_term_pairs(batch, text_col, min_len)
        if len(codes) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "df_n": pa.array([], pa.int64())})
        nvocab = len(terms)
        u = np.unique(parent * nvocab + codes)
        cnt = np.bincount((u % nvocab).astype(np.int64), minlength=nvocab)
        nz = np.nonzero(cnt)[0]
        return pa.table({"term": terms.take(pa.array(nz)),
                         "df_n": pa.array(cnt[nz], pa.int64())})

    dft = collect(grouped_aggregate(ds, df_partial, ["term"],
                                    {"df_n": "sum"}, what="tfidf_df")) \
        .sort_by("term")
    bc = Broadcast((dft.column("term").to_numpy(zero_copy_only=False),
                    dft.column("df_n").to_numpy()))

    def score_batch(batch: pa.Table) -> pa.Table:
        parent, codes, terms = _doc_term_pairs(batch, text_col, min_len)
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "term": pa.array([], pa.string()),
                          "score": pa.array([], pa.int64()),
                          "rank": pa.array([], pa.int64())})
        if len(codes) == 0:
            return empty
        nvocab = len(terms)
        u, c = np.unique(parent * nvocab + codes, return_counts=True)
        d_idx = u // nvocab
        t_str = terms.take(pa.array(u % nvocab)) \
            .to_numpy(zero_copy_only=False)
        vocab_a, dfv_a = bc.value
        df = dfv_a[np.searchsorted(vocab_a, t_str)]
        score = c.astype(np.int64) * ((IDF_SCALE * (n_docs + 1)) // (df + 1))
        order = np.lexsort((t_str, -score, d_idx))
        d_s = d_idx[order]
        starts = np.r_[0, np.nonzero(np.diff(d_s))[0] + 1]
        seg_len = np.diff(np.r_[starts, len(d_s)])
        rank = np.arange(len(d_s)) - np.repeat(starts, seg_len)
        keep = rank < k
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: pa.array(ids[d_s[keep]], pa.int64()),
            "term": pa.array(t_str[order][keep], pa.string()),
            "score": pa.array(score[order][keep], pa.int64()),
            "rank": pa.array(rank[keep] + 1, pa.int64()),
        })

    return ds.map_batches(score_batch, batch_format="pyarrow", num_cpus=1)


# Unicode normalization pipeline — ONE pattern list shared (textually)
# by the Arrow kernel and the DuckDB oracle; both engines run RE2, so
# the raw pattern strings mean the same thing in each.
NORM_STEPS: tuple[tuple[str, str], ...] = (
    (r"\r\n?", "\n"),                              # CRLF/CR -> LF
    (r"[\x00-\x08\x0B\x0C\x0E-\x1F\x7F]", ""),     # strip controls
    (r"[ \t\x{00A0}]+", " "),                      # collapse blanks+NBSP
)
NORM_TRIM = " \n"


def normalize_text_batch(batch: pa.Table, *,
                         text_col: str = "text") -> pa.Table:
    """NFC-normalize + control-strip + blank-collapse + edge-trim.

    Standard corpus canonicalization before hashing/dedup (equivalent
    byte sequences must hash equal). All steps are Arrow compute
    kernels (utf8_normalize + RE2 replaces) — zero Python per row;
    embarrassingly parallel, no shuffle. Reference parity: the decode/
    admission normalization stage (stages/normalize.py admission
    contract over python/dqm/dqm_collector.py framing).
    """
    s = batch.column(text_col).combine_chunks()
    # NFC: pyarrow's utf8_normalize does not COMPOSE (verified on
    # 16.1 — NFC output keeps combining marks), so compose via
    # unicodedata — but only for the non-ASCII minority (ASCII is
    # NFC-invariant), gated by a vectorized string_is_ascii scan.
    non_ascii = pc.invert(pc.string_is_ascii(s)).to_numpy(
        zero_copy_only=False)
    if non_ascii.any():
        import unicodedata

        vals = s.to_numpy(zero_copy_only=False)
        idx = np.nonzero(non_ascii)[0]
        fixed = vals.copy()
        for i in idx:
            fixed[i] = unicodedata.normalize("NFC", vals[i])
        s = pa.array(fixed, pa.string())
    for pat, rep in NORM_STEPS:
        s = pc.replace_substring_regex(s, pat, rep)
    s = pc.utf8_trim(s, NORM_TRIM)
    out = batch.set_column(batch.schema.get_field_index(text_col),
                           text_col, s)
    return out.append_column("n_chars_norm",
                             pc.cast(pc.utf8_length(s), pa.int64()))


def normalize_sql_expr(col: str = "text") -> str:
    """The identical normalization as a DuckDB expression (nfc_normalize
    + the same RE2 patterns in the same order)."""
    e = f"nfc_normalize({col})"
    for pat, rep in NORM_STEPS:
        p = pat.replace("'", "''")
        e = f"regexp_replace({e}, '{p}', '{rep}', 'g')"
    return f"trim({e}, ' ' || chr(10))"
