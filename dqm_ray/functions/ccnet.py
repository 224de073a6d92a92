"""CCNet-style per-language perplexity bucketing — the standard web
-corpus quality split (head / middle / tail by LM perplexity within
each language, Wenzek et al. 2019) as a two-pass Ray pipeline with a
bitwise SQL-reproducible contract.

Exactness design (the repo's oracle invariant): float perplexities are
never compared across engines. The char-bigram log-probabilities are
quantized ONCE to integer nano-units (``logq = round(log_p * 1e9)``,
half-away — the quantize_embeddings kernel), per-doc scores are exact
BIGINT sums of those, and the published score is integer micro-units
``ppl_micro = round(-sum_q / (1000 * n_bigrams))`` — every intermediate
is either an exact integer or a single identically-ordered IEEE
division, so DuckDB reproduces it bit for bit. Bucket assignment is
rank-based (``NTILE(k) OVER (PARTITION BY lang ORDER BY ppl_micro,
doc_id)``) rather than value-quantile-based, which keeps ties exact.

Scale shape:

1. scoring pass — ``map_batches``; the 128x128 int64 matrix broadcasts
   once via ``ray.put``; per batch ONE utf-32 encode of the
   concatenated texts + fancy-index + segment ``reduceat`` (the
   scorer's vectorized shape);
2. rank pass — the range-binned two-phase scan (scan.py's shape),
   grouped by language: per-(lang, bin) counts to the driver (bounded:
   n_langs x 256 ints), per-lang exclusive-scan offsets back, one
   ``map_groups`` per (lang, bin) that sorts its slice by
   (ppl_micro, doc_id) and assigns global ranks, then the closed-form
   NTILE bucket. Content never shuffles; the rank shuffle carries
   (lang, bin) keyed rows of 3 ints. Heavily-concentrated perplexity
   distributions skew the bins — raise ``n_bins`` if a (lang, bin)
   group outgrows a worker.

Reference parity: per-channel normalization against build-once global
state (ChannelMap probe, include/dqm/ChannelStream.hpp:169-196); the
"state" here is the corpus's own per-lang rank structure.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

V = 128
N_BINS = 256


def quantize_logp(log_p: np.ndarray) -> np.ndarray:
    """Integer nano-units, round-half-away (SQL round semantics)."""
    return (np.sign(log_p)
            * np.floor(np.abs(log_p) * 1e9 + 0.5)).astype(np.int64)


def _ppl_micro_many(texts: list[str], logq: np.ndarray):
    """Exact per-doc integer perplexity: sum_q = Σ logq over the doc's
    char bigrams (codepoints clamped to 127, the scorer's alphabet),
    ppl_micro = round(-sum_q / (1000 * n_bigrams)) half-away; docs with
    no bigram score 0."""
    n = len(texts)
    if n == 0:
        return np.zeros(0, np.int64)
    cp = np.frombuffer("".join(texts).encode("utf-32-le"), dtype=np.uint32)
    ids = np.minimum(cp, 127).astype(np.int64)
    lens = np.fromiter((len(t) for t in texts), dtype=np.int64, count=n)
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    counts = np.maximum(lens - 1, 0)
    sums = np.zeros(n, dtype=np.int64)
    if len(ids) >= 2:
        q = logq[ids[:-1], ids[1:]]
        straddle = offs[1:-1] - 1          # gram between doc i and i+1
        q[straddle[(straddle >= 0) & (straddle < len(q))]] = 0
        nonempty = lens > 0
        starts = offs[:-1][nonempty]
        if starts.size:
            valid = starts < len(q)
            seg = np.zeros(int(nonempty.sum()), dtype=np.int64)
            if valid.any():
                seg[valid] = np.add.reduceat(q, starts[valid])
            sums[nonempty] = seg
    x = (-sums).astype(np.float64) / (1000.0 * np.maximum(counts, 1))
    micro = np.floor(x + 0.5).astype(np.int64)  # x >= 0: half-away
    return np.where(counts > 0, micro, 0)


def _ntile(rank: np.ndarray, n: int, k: int) -> np.ndarray:
    """Closed-form NTILE(k): 0-based rank -> 1-based bucket; the first
    n % k buckets hold n // k + 1 rows (the SQL standard)."""
    big, r = n // k + 1, n % k
    head = rank < r * big
    small = max(n // k, 1)
    return np.where(head, rank // big,
                    r + (rank - r * big) // small).astype(np.int64) + 1


def perplexity_buckets(ds, logq: np.ndarray, *, text_col: str = "text",
                       lang_col: str = "lang", id_col: str = "doc_id",
                       n_buckets: int = 3, n_bins: int | None = None,
                       carry_cols: tuple = (),
                       max_group_rows: int | None = 50_000_000):
    """Return (id_col, lang[, carry_cols...], ppl_micro, bucket):
    bucket 1 = head (lowest perplexity) ... ``n_buckets`` = tail, per
    language. ``carry_cols`` ride through unchanged (for composition —
    text itself is dropped so only small columns shuffle)."""
    import ray

    logq_ref = ray.put(np.ascontiguousarray(logq, dtype=np.int64))

    def score(batch: pa.Table) -> pa.Table:
        lq = ray.get(logq_ref)
        texts = batch.column(text_col).to_pylist()
        micro = _ppl_micro_many([t or "" for t in texts], lq)
        cols = {id_col: batch.column(id_col),
                lang_col: batch.column(lang_col)}
        for c in carry_cols:
            cols[c] = batch.column(c)
        cols["ppl_micro"] = pa.array(micro, pa.int64())
        return pa.table(cols)

    # materialize: three consumers follow (bin-edge aggregate, count
    # pass, rank pass) — without this the scoring content pass would
    # re-execute for each. Blocks are 3 ints/doc, tiny.
    scored = ds.map_batches(score, batch_format="pyarrow",
                            num_cpus=1).materialize()

    from dqm_ray.functions.scan import _bin_edges, _bin_of

    edges = _bin_edges(scored, "ppl_micro")
    if edges is None:
        return scored.map_batches(
            lambda t: t.append_column(
                "bucket", pa.array(np.zeros(len(t), np.int64))),
            batch_format="pyarrow")
    lo, width, nb = edges
    # default: ride the adaptive bin count from _bin_edges; an explicit
    # n_bins rescales the width to keep indices inside [0, n_bins)
    if n_bins is None:
        n_bins = nb
    elif n_bins != nb:
        width = max((width * nb) // n_bins + 1, 1)

    def lang_bin(batch: pa.Table) -> pa.Table:
        m = batch.column("ppl_micro").to_numpy(zero_copy_only=False)
        return pa.table({
            lang_col: batch.column(lang_col),
            "bin": pa.array(_bin_of(m.astype(np.int64), lo, width),
                            pa.int64())})

    from dqm_ray.state.reduce import collect, grouped_aggregate

    # bounded driver artifact: n_langs x n_bins counters
    counts = collect(grouped_aggregate(scored, lang_bin, [lang_col, "bin"],
                                       {"c": "count"},
                                       what="perplexity_buckets"))
    per_lang: dict[str, np.ndarray] = {}
    for lang, b, c in zip(*(counts.column(x).to_pylist()
                            for x in (lang_col, "bin", "c"))):
        per_lang.setdefault(lang, np.zeros(n_bins, np.int64))[b] = c
    # skew guard (driver-side, free: the counts are already here): a
    # (lang, bin) group is sorted whole on one worker, so a
    # concentrated perplexity distribution — many docs sharing one
    # ppl_micro — can silently funnel a corpus-scale group to one task.
    # Fail actionably instead of OOMing the worker.
    if max_group_rows is not None:
        worst = max(((l, int(b), int(c)) for l, a in per_lang.items()
                     for b, c in enumerate(a) if c), key=lambda x: x[2],
                    default=None)
        if worst and worst[2] > max_group_rows:
            raise ValueError(
                f"perplexity_buckets skew: (lang={worst[0]}, bin={worst[1]}) "
                f"holds {worst[2]} rows > max_group_rows={max_group_rows}. "
                "Raise n_bins (spreads distinct values), raise "
                "max_group_rows if the worker can hold it, or pre-split "
                "the offending language upstream.")
    offsets = {l: np.concatenate(([0], np.cumsum(a)[:-1]))
               for l, a in per_lang.items()}
    totals = {l: int(a.sum()) for l, a in per_lang.items()}
    off_ref = ray.put((offsets, totals))

    def add_bin(batch: pa.Table) -> pa.Table:
        m = batch.column("ppl_micro").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bin", pa.array(_bin_of(m.astype(np.int64), lo, width),
                            pa.int64()))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        offs, tots = ray.get(off_ref)
        lang, b = df[lang_col].iloc[0], int(df["bin"].iloc[0])
        df = df.sort_values(["ppl_micro", id_col],
                            kind="mergesort").reset_index(drop=True)
        rank = offs[lang][b] + np.arange(len(df), dtype=np.int64)
        df["bucket"] = _ntile(rank, tots[lang], n_buckets)
        return df.drop(columns=["bin"])

    return scored.map_batches(add_bin, batch_format="pyarrow") \
        .groupby([lang_col, "bin"]) \
        .map_groups(assign, batch_format="pandas")
