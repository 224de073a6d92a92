"""Distributed n-gram language-model TRAINING — the counting job that
produces the char-bigram table the flagship's scorer consumes
(stages/scorer.py VectorBigramModel; external-model injection path).
At corpus scale, "training" an n-gram LM is exactly a distributed
count: per-block bincount partials over a bounded vocabulary
(|langs| x 128 x 128 cells) merged by one grouped aggregate, zero
content moved.

ASCII-pair semantics shared bitwise with the SQL oracle: a bigram is
counted iff BOTH codepoints are < 128. Over raw utf8 BYTES that is
"both bytes < 128" — multi-byte codepoints contribute only bytes
>= 0x80 (lead >= 0xC2, continuations 0x80-0xBF), so adjacent
ASCII-ASCII codepoint pairs are exactly adjacent byte pairs below
128, and the two representations count the same multiset.

Reference parity: Hist fill loop reduced to a bounded counter vector
per window (include/dqm/algs/Hist.hpp) — here the counter IS the
model.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

V = 128  # ASCII vocabulary; bigram space V*V per stratum


def train_bigram_lm(ds, *, text_col: str = "text",
                    lang_col: str = "lang", top_k: int | None = 20):
    """Per-lang char-bigram counts; with ``top_k``, the k most frequent
    bigrams per lang (ties: c1 ASC, c2 ASC). Returns a Dataset
    (lang, c1, c2, n[, rank])."""
    from dqm_ray.stages.rules import string_buffer_view

    def partial(batch: pa.Table) -> pa.Table:
        langs = batch.column(lang_col).to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(langs, return_inverse=True)
        text = batch.column(text_col).combine_chunks()
        empty = pa.table({lang_col: pa.array([], pa.string()),
                          "code": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64())})
        view = string_buffer_view(text)
        if view is None:
            # null/empty fast path unusable: per-row fallback
            vals = text.to_pylist()
            rows = []
            for li, t in zip(inv, vals):
                if not t:
                    continue
                b = np.frombuffer(t.encode(), np.uint8).astype(np.int64)
                rows.append((li, b))
            if not rows:
                return empty
            li_all = np.concatenate(
                [np.full(len(b), li, np.int64) for li, b in rows])
            d = np.concatenate([b for _, b in rows])
            offs = np.cumsum([0] + [len(b) for _, b in rows])
        else:
            d, offs = view
            d = d.astype(np.int64)
            li_all = np.repeat(inv.astype(np.int64), np.diff(offs))
        if len(d) < 2:
            return empty
        a, b = d[:-1], d[1:]
        la = li_all[:-1]
        # valid: both ASCII and not crossing a document boundary
        starts = np.zeros(len(d), bool)
        starts[offs[:-1][offs[:-1] < len(d)]] = True
        ok = (a < V) & (b < V) & ~starts[1:]
        code = la[ok] * (V * V) + a[ok] * V + b[ok]
        cnt = np.bincount(code, minlength=len(uniq) * V * V)
        nz = np.nonzero(cnt)[0]
        return pa.table({
            lang_col: pa.array(uniq[nz // (V * V)]),
            "code": pa.array(nz % (V * V), pa.int64()),
            "n": pa.array(cnt[nz], pa.int64()),
        })

    return _top_codes(ds, partial, lang_col, top_k, 2, "train_bigram_lm")


def train_trigram_lm(ds, *, text_col: str = "text",
                     lang_col: str = "lang", top_k: int | None = 20):
    """Per-lang char-TRIGRAM counts (the next n-gram order of
    :func:`train_bigram_lm`; same ASCII-triple byte==codepoint proof —
    three consecutive bytes < 128 are exactly three consecutive ASCII
    codepoints). The trigram space is sparse, so per-batch partials
    compact via ``np.unique`` over composite codes instead of a dense
    V^3 bincount; a block's partial holds one (lang, code, n) row per
    distinct trigram. Returns (lang, c1, c2, c3, n[, rank]);
    ties: c1, c2, c3 ASC."""
    from dqm_ray.stages.rules import string_buffer_view

    V3, V2 = V * V * V, V * V

    def partial(batch: pa.Table) -> pa.Table:
        langs = batch.column(lang_col).to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(langs, return_inverse=True)
        text = batch.column(text_col).combine_chunks()
        empty = pa.table({lang_col: pa.array([], pa.string()),
                          "code": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64())})
        view = string_buffer_view(text)
        if view is None:
            vals = text.to_pylist()
            rows = [(li, np.frombuffer((t or "").encode(), np.uint8)
                     .astype(np.int64)) for li, t in zip(inv, vals) if t]
            if not rows:
                return empty
            li_all = np.concatenate(
                [np.full(len(b), li, np.int64) for li, b in rows])
            d = np.concatenate([b for _, b in rows])
            offs = np.cumsum([0] + [len(b) for _, b in rows])
            offs = np.asarray(offs, np.int64)
        else:
            d, offs = view
            d = d.astype(np.int64)
            offs = offs.astype(np.int64)
            li_all = np.repeat(inv.astype(np.int64), np.diff(offs))
        if len(d) < 3:
            return empty
        a, b, c = d[:-2], d[1:-1], d[2:]
        la = li_all[:-2]
        starts = np.zeros(len(d), bool)
        starts[offs[:-1][offs[:-1] < len(d)]] = True
        # valid: all three bytes ASCII, triple inside ONE document
        ok = (a < V) & (b < V) & (c < V) & ~starts[1:-1] & ~starts[2:]
        code = la[ok] * V3 + a[ok] * V2 + b[ok] * V + c[ok]
        u, cnt = np.unique(code, return_counts=True)
        return pa.table({
            lang_col: pa.array(uniq[u // V3]),
            "code": pa.array(u % V3, pa.int64()),
            "n": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    return _top_codes(ds, partial, lang_col, top_k, 3, "train_trigram_lm")


def _top_codes(ds, partial, lang_col: str, top_k: int | None, order: int,
               what: str):
    """The per-(lang, code) sums of the ``(lang, code, n)`` partials,
    each code split into its ``order`` characters c1, c2, ...; with
    ``top_k``, each lang's ``top_k`` most frequent codes (ties: code
    ASC, i.e. c1, c2, ... ASC), ``rank`` counting from 1 within a lang.
    One sort per part ranks every lang it holds."""
    from dqm_ray.state.reduce import grouped_aggregate, run_starts

    def finish(t: pa.Table) -> pa.Table:
        t = t.sort_by([(lang_col, "ascending"), ("n", "descending"),
                       ("code", "ascending")])
        new = run_starts(t.column(lang_col).to_numpy(zero_copy_only=False))
        first = np.flatnonzero(new)[np.cumsum(new) - 1]
        rank = np.arange(t.num_rows) - first + 1
        if top_k is not None:
            t, rank = t.filter(pa.array(rank <= top_k)), rank[rank <= top_k]
        code = t.column("code").to_numpy()
        return pa.table({
            lang_col: t.column(lang_col),
            **{f"c{i + 1}": pa.array(code // V ** (order - 1 - i) % V)
               for i in range(order)},
            "n": t.column("n"), "rank": pa.array(rank)})

    return grouped_aggregate(ds, partial, [lang_col, "code"], {"n": "sum"},
                             what=what, finish=finish)
