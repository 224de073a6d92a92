"""Line-level boilerplate removal (C4 / RefinedWeb style): delete every
line whose exact text occurs in >= ``min_docs`` distinct documents —
license headers, nav chrome, generated banners.

Scale shape (TWO streaming content passes; content never enters a
shuffle):

1. **Count pass** — each batch splits its docs into lines,
   dictionary-encodes them (one Arrow C++ hash-table pass; only the
   DISTINCT lines are hashed — twice, with independent siphash keys,
   for a 128-bit combined fingerprint), dedupes per doc, and emits
   ``(part, h1, h2, n_docs)`` partials. The global merge is one
   vectorized lexsort+reduceat over the partials with the
   ``>= min_docs`` filter inside, run by
   :func:`~dqm_ray.state.reduce.reduce_partials`: up to
   ``SMALL_REDUCE_BYTES`` of partials in ONE remote task, whose
   lexsorted frequent pairs go straight to the object store (no
   shuffle, nothing on the driver). Past it, because most corpus lines
   are globally unique and partials barely compress, a 64-way
   hash-part groupby runs the same merge per part, and the driver
   collects the surviving fingerprints and puts them in the object
   store.
2. **Clean pass** — every batch reads the frequent 128-bit
   fingerprints from the object store (16 B per frequent line —
   smaller than the line text the previous 3-pass design shipped),
   re-encodes its distinct lines, probes the sorted pair set, filters
   the flattened line array and rebuilds the list offsets.

The separate exact-text verify pass of the earlier 3-pass design is
subsumed by the 128-bit fingerprint: counting and membership are both
keyed by (h1, h2), so a false removal needs two distinct lines agreeing
on BOTH independent 64-bit siphashes — p < n_distinct^2 / 2^129
(< 1e-20 even at 10^9 distinct lines). This is the same documented
trade :mod:`dqm_ray.functions.paragraphs` makes to keep text out of the
shuffle, and it removes one full content pass (3 -> 2).

``remove_boilerplate_lines_bucketed`` is the zero-BROADCAST scale path
(the broadcast above is bounded by n_lines/min_docs frequent lines —
loose at 100 TB): the count reducer emits the packed (doc, line_idx)
REMOVAL POSITIONS of frequent lines instead of fingerprints, positions
and docs are both written hive-bucketed by ``bucket_of(doc_id)``, and
one task per bucket cleans its docs against only its own removal subset
(vectorized searchsorted on int64 positions — no text probe at all).
Mirrors ``dedup_paragraphs_bucketed``.

Reference parity: the reference's remove_empty / make_same_size checks
normalize per-fragment payloads in place (src/Pipeline.cpp check loop);
here the normalization is corpus-global, which is exactly what Ray's
shuffle + broadcast primitives add over the single-process reference.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

POS_BITS = 20  # max 2^20 lines per doc (packed-position radix)
ID_BITS = 63 - POS_BITS  # ids in [-2^43, 2^43) beside it in one int64
_K1 = "a3f1c2d4e5b60798"  # independent 16-byte siphash keys
_K2 = "98706b5e4d2c1f3a"


def _line_arrays(batch: pa.Table, text_col: str):
    """Split ``text_col`` into per-doc line lists; return (list_array,
    flat_lines, row_index_per_line)."""
    text = batch.column(text_col).combine_chunks()
    lines = pc.split_pattern(text, "\n")
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    flat = pc.list_flatten(lines)
    counts = pc.list_value_length(lines).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    rows = np.repeat(np.arange(len(batch), dtype=np.int64), counts)
    return lines, flat, rows


def _packed_positions(ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``(id << POS_BITS) + line index within its doc`` per flat line,
    where ``rows`` (non-decreasing) maps each line to its doc's row in
    ``ids``. Ids may be negative (hashes viewed as int64): the decode
    ``packed >> POS_BITS`` is an arithmetic shift. Raises ``ValueError``
    when an id is outside [-2^43, 2^43) or a doc has more than 2^20
    lines, since either would collide with the positions of another
    doc."""
    if len(ids) and (int(ids.min()) < -(1 << ID_BITS)
                     or int(ids.max()) >= 1 << ID_BITS):
        raise ValueError(
            f"ids must lie in [-2^{ID_BITS}, 2^{ID_BITS}) to pack line "
            f"positions; got [{int(ids.min())}, {int(ids.max())}]")
    if not len(rows):
        return np.empty(0, np.int64)
    starts = np.r_[0, np.nonzero(np.diff(rows))[0] + 1]
    seg_len = np.diff(np.r_[starts, len(rows)])
    if int(seg_len.max()) > 1 << POS_BITS:
        raise ValueError(
            f"a doc has {int(seg_len.max())} lines; packed line positions "
            f"allow at most 2^{POS_BITS}")
    line_idx = np.arange(len(rows), dtype=np.int64) \
        - np.repeat(starts, seg_len)
    return (ids[rows] << POS_BITS) + line_idx


def _encode_lines2(flat: pa.Array):
    """(codes int64, h1 int64, h2 int64, dictionary) for a flat line
    array.

    One Arrow C++ ``dictionary_encode`` hash-table pass collapses the
    batch to its DISTINCT lines, and only that (much smaller) dictionary
    goes through ``pd.util.hash_array`` — per-line Python-object
    materialization over all ~60M corpus lines was the whole-corpus
    bottleneck, and a hand-rolled numpy byte-buffer kernel is worse on
    this host (fresh multi-hundred-MB temporaries page-fault at
    ~100 MB/s; see BASELINE.md perf notes). The siphash keys are fixed,
    so hashes are consistent across batches/processes. int64 bit-pattern
    (not uint64): Ray's aggregate path round-trips Python ints, where
    uint64 > 2^63 overflows."""
    if len(flat) == 0:
        z = np.empty(0, np.int64)
        return (z, z, z, flat)
    enc = pc.dictionary_encode(flat)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    dic = enc.dictionary
    arr = dic.to_numpy(zero_copy_only=False)
    h1 = pd.util.hash_array(arr, hash_key=_K1,
                            categorize=False).view(np.int64)
    h2 = pd.util.hash_array(arr, hash_key=_K2,
                            categorize=False).view(np.int64)
    return codes, h1, h2, dic


def _doc_distinct_counts(codes: np.ndarray, rows: np.ndarray,
                         dict_size: int):
    """Distinct-document count per dictionary code: dedupe (doc, code)
    pairs with one integer lexsort, then bincount the survivors.
    Returns (codes_present, n_docs) for codes with >= 1 doc."""
    if not len(codes):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    # pack (row, code) — row-major, not code-major — into one int64 and
    # single-key sort: ~2x faster again than the (code, row) pack
    # because ``rows`` is already non-decreasing (flat lines are in doc
    # order), so the packed array is nearly sorted and the code field
    # only needs bit_length(dict_size) low bits (both fit easily —
    # codes index a per-batch dictionary, rows index a per-batch row)
    bits = max(int(dict_size - 1).bit_length(), 1)
    if bits >= 63 or int(rows.max()) >= 1 << (63 - bits):
        raise ValueError(
            f"(row, code) pack overflows int64: {int(rows.max()) + 1} rows "
            f"need more than {63 - bits} bits beside {bits} code bits")
    packed = np.sort((rows << bits) | codes)
    first = np.ones(len(packed), dtype=bool)
    first[1:] = packed[1:] != packed[:-1]
    counts = np.bincount(packed[first] & ((1 << bits) - 1),
                         minlength=dict_size)
    uniq = np.nonzero(counts)[0].astype(np.int64)
    return uniq, counts[uniq].astype(np.int64)


def _reduce_pair_counts(h1: np.ndarray, h2: np.ndarray, n: np.ndarray,
                        min_docs: int):
    """Sum partial doc-counts per (h1, h2) pair; return the pairs
    crossing the threshold as (h1_keep, h2_keep)."""
    order = np.lexsort((h2, h1))
    h1s, h2s, ns = h1[order], h2[order], n[order]
    first = np.ones(len(h1s), dtype=bool)
    first[1:] = (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])
    starts = np.nonzero(first)[0]
    tot = (np.add.reduceat(ns, starts) if len(starts)
           else np.empty(0, np.int64))
    keep = tot >= min_docs
    return h1s[starts][keep], h2s[starts][keep]


def _probe_pairs(a1: np.ndarray, a2: np.ndarray,
                 h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Vectorized membership of (h1[i], h2[i]) in the pair set
    (a1, a2), which must be lexsorted by (a1, a2). Duplicate-a1 runs
    (two frequent lines sharing a 64-bit hash — vanishingly rare) fall
    back to a per-row scan of that run only."""
    out = np.zeros(len(h1), dtype=bool)
    if not len(a1) or not len(h1):
        return out
    lo = np.searchsorted(a1, h1, side="left")
    hi = np.searchsorted(a1, h1, side="right")
    single = hi - lo == 1
    li = np.minimum(lo, len(a1) - 1)
    out[single] = (a1[li[single]] == h1[single]) \
        & (a2[li[single]] == h2[single])
    for i in np.nonzero(hi - lo > 1)[0]:
        out[i] = h2[i] in a2[lo[i]:hi[i]]
    return out


def remove_boilerplate_lines(ds, *, text_col: str = "text",
                             id_col: str = "doc_id", min_len: int = 10,
                             min_docs: int = 10):
    """Return (id_col, text, n_removed): each doc with its boilerplate
    lines deleted and the count of deleted lines.

    Contract (mirrored by the SQL oracle up to the documented 2^-128
    fingerprint bound): lines are ``\\n`` splits; a line is boilerplate
    iff ``utf8_length(line) >= min_len`` and its exact text occurs in
    >= ``min_docs`` distinct docs; kept lines re-join with ``\\n``
    (docs losing every line become '').
    """
    import ray

    from dqm_ray.state.reduce import reduce_partials

    def count_partial(batch: pa.Table) -> pa.Table:
        _, flat, rows = _line_arrays(batch, text_col)
        codes, h1, h2, dic = _encode_lines2(flat)
        # length filter evaluated once per DISTINCT line, not per line
        long_enough = pc.greater_equal(pc.utf8_length(dic), min_len) \
            .to_numpy(zero_copy_only=False)
        m = long_enough[codes] if len(codes) else np.zeros(0, bool)
        cs, n_docs = _doc_distinct_counts(codes[m], rows[m], len(dic))
        return pa.table({
            "part": pa.array((h1[cs] & 63).astype(np.int32)),
            "h1": pa.array(h1[cs], pa.int64()),
            "h2": pa.array(h2[cs], pa.int64()),
            "n": pa.array(n_docs, pa.int64())})

    def small(partials: pa.Table):
        if not partials.num_rows:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        return _reduce_pair_counts(
            partials.column("h1").to_numpy(),
            partials.column("h2").to_numpy(),
            partials.column("n").to_numpy(), min_docs)

    # Most corpus lines are unique, so per-batch partials barely
    # compress and a full sort-groupby over them is the dominant cost.
    # Instead: 64-way hash-part groupby (sort key = tiny int32) and one
    # vectorized lexsort+reduceat merge per part, with the >= min_docs
    # filter INSIDE the reducer so only survivors leave the shuffle.
    def large(partials):
        def reduce_pairs(df: pd.DataFrame) -> pd.DataFrame:
            k1, k2 = _reduce_pair_counts(
                df["h1"].to_numpy(), df["h2"].to_numpy(),
                df["n"].to_numpy(), min_docs)
            return pd.DataFrame({"h1": k1, "h2": k2})

        freq = partials.groupby("part") \
            .map_groups(reduce_pairs, batch_format="pandas").to_pandas()
        # an all-filtered Dataset can surface as a 0-column DataFrame
        if "h1" in freq.columns and len(freq):
            fo = np.lexsort((freq["h2"].to_numpy(), freq["h1"].to_numpy()))
            return freq["h1"].to_numpy()[fo], freq["h2"].to_numpy()[fo]
        return np.empty(0, np.int64), np.empty(0, np.int64)

    freq_ref = reduce_partials(
        ds.map_batches(count_partial, batch_format="pyarrow"), small,
        large, what="remove_boilerplate_lines")

    def clean(batch: pa.Table) -> pa.Table:
        fa1, fa2 = ray.get(freq_ref)
        lines, flat, _ = _line_arrays(batch, text_col)
        codes, h1, h2, dic = _encode_lines2(flat)
        counts = pc.list_value_length(lines) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        # probe once per DISTINCT line (min_len re-check is free
        # collision armour: frequent fingerprints only come from
        # long-enough lines)
        rm_dict = _probe_pairs(fa1, fa2, h1, h2)
        if len(rm_dict):
            rm_dict &= pc.greater_equal(pc.utf8_length(dic), min_len) \
                .to_numpy(zero_copy_only=False)
        rm = rm_dict[codes] if len(codes) else np.zeros(0, bool)
        kept = flat.filter(pa.array(~rm))
        # removed-per-row via cumulative count of removals at row edges
        ends = np.cumsum(counts)
        rm_cum = np.concatenate(([0], np.cumsum(rm.astype(np.int64))))
        removed = rm_cum[ends] - rm_cum[ends - counts]
        new_counts = counts - removed
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(new_counts, out=offsets[1:])
        lst = pa.LargeListArray.from_arrays(pa.array(offsets, pa.int64()),
                                            kept)
        joined = pc.binary_join(lst, pa.scalar("\n", kept.type))
        return pa.table({
            id_col: batch.column(id_col),
            "text": joined.cast(pa.string()),
            "n_removed": pa.array(removed, pa.int64()),
        })

    return ds.map_batches(clean, batch_format="pyarrow")


def remove_boilerplate_lines_bucketed(ds, workdir: str, *,
                                      text_col: str = "text",
                                      id_col: str = "doc_id",
                                      min_len: int = 10,
                                      min_docs: int = 10,
                                      num_buckets: int = 32,
                                      num_parts: int | None = None):
    """Zero-broadcast boilerplate removal — identical semantics to
    :func:`remove_boilerplate_lines` but nothing is ever collected to
    the driver or broadcast, so the n_lines/min_docs frequent-set bound
    disappears. Requires an INTEGER ``id_col`` in [-2^43, 2^43) and docs of
    at most 2^20 lines (packed-position radix, as in paragraphs.py);
    anything outside raises ``ValueError``.

    Shape (mirrors ``dedup_paragraphs_bucketed``):

    1. docs written hive-bucketed by ``bucket_of(id)`` — one content
       write, no shuffle;
    2. signature pass emits (part, h1, h2, packed_pos) per long-enough
       line OCCURRENCE (24 B/line, like the paragraph signature pass);
       the per-part reducer counts distinct docs per fingerprint and,
       for pairs crossing ``min_docs``, emits every packed position in
       the group — the REMOVAL set, written hive-bucketed by doc
       bucket. Part count ``num_parts`` bounds reducer memory: size it
       so n_lines x 24 B / num_parts fits a worker heap.
    3. one task per bucket cleans its docs against only its own removal
       positions (int64 searchsorted — no text probe).

    Returns the same (id_col, text, n_removed) dataset.
    """
    import os
    import shutil

    import pyarrow.dataset as pads
    import ray.data as rd

    from dqm_ray.partitioning import num_parts as _auto_parts
    from dqm_ray.sources.bucketed import bucket_of

    # the sig pass parts by `h1 & (P-1)` — P must be a power of two
    num_parts = num_parts or (1 << (_auto_parts() - 1).bit_length())

    docs_dir = os.path.join(workdir, "docs")
    rm_dir = os.path.join(workdir, "removals")
    # reruns must not read a stale generation next to the new files
    # (write_parquet APPENDS uniquely-named files into existing dirs);
    # delete ONLY the subdirs this op owns, never the caller's dir
    for d in (docs_dir, rm_dir):
        shutil.rmtree(d, ignore_errors=True)

    def add_doc_bucket(batch: pa.Table) -> pa.Table:
        k = batch.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return batch.append_column(
            "bucket", pa.array(bucket_of(k, num_buckets), pa.int32()))

    ds.map_batches(add_doc_bucket, batch_format="pyarrow",
                   num_cpus=1).write_parquet(
        docs_dir, partition_cols=["bucket"])

    def sig_partial(batch: pa.Table) -> pa.Table:
        _, flat, rows = _line_arrays(batch, text_col)
        codes, h1, h2, dic = _encode_lines2(flat)
        long_enough = pc.greater_equal(pc.utf8_length(dic), min_len) \
            .to_numpy(zero_copy_only=False)
        m = long_enough[codes] if len(codes) else np.zeros(0, bool)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cs = codes[m]
        packed = _packed_positions(ids, rows)[m]
        return pa.table({
            "part": pa.array((h1[cs] & (num_parts - 1)).astype(np.int32)),
            "h1": pa.array(h1[cs], pa.int64()),
            "h2": pa.array(h2[cs], pa.int64()),
            "packed": pa.array(packed, pa.int64())})

    def reduce_removals(df: pd.DataFrame) -> pd.DataFrame:
        h1 = df["h1"].to_numpy()
        h2 = df["h2"].to_numpy()
        p = df["packed"].to_numpy()
        order = np.lexsort((h2, h1))
        h1s, h2s, ps = h1[order], h2[order], p[order]
        first = np.ones(len(h1s), dtype=bool)
        first[1:] = (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])
        gid = np.cumsum(first) - 1
        docs = ps >> POS_BITS
        # distinct docs per pair: dedupe (gid, doc), then bincount
        duniq = np.ones(len(ps), dtype=bool)
        do = np.lexsort((docs, gid))
        gd, dd = gid[do], docs[do]
        duniq[1:] = (gd[1:] != gd[:-1]) | (dd[1:] != dd[:-1])
        ndocs = np.bincount(gd[duniq], minlength=gid[-1] + 1 if len(gid)
                            else 0)
        keep = ndocs[gid] >= min_docs
        out = ps[keep]
        return pd.DataFrame({
            "packed": out,
            "bucket": bucket_of(out >> POS_BITS, num_buckets)
            .astype(np.int32)})

    ds.map_batches(sig_partial, batch_format="pyarrow", num_cpus=1) \
        .groupby("part") \
        .map_groups(reduce_removals, batch_format="pandas") \
        .write_parquet(rm_dir, partition_cols=["bucket"])

    def clean_bucket(batch: pa.Table) -> pa.Table:
        pieces = []
        for i in batch.column("id").to_pylist():
            db = os.path.join(docs_dir, f"bucket={i}")
            if not os.path.isdir(db):
                continue
            docs = pads.dataset(db).to_table()
            rb = os.path.join(rm_dir, f"bucket={i}")
            w = (np.sort(pads.dataset(rb).to_table()
                         .column("packed").to_numpy(zero_copy_only=False))
                 if os.path.isdir(rb) else np.empty(0, np.int64))
            lines, flat, rows = _line_arrays(docs, text_col)
            ids = docs.column(id_col).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            counts = pc.list_value_length(lines) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            packed = _packed_positions(ids, rows)
            if len(w):
                pos = np.searchsorted(w, packed)
                rm = (pos < len(w)) \
                    & (w[np.minimum(pos, len(w) - 1)] == packed)
            else:
                rm = np.zeros(len(packed), bool)
            kept = flat.filter(pa.array(~rm))
            ends = np.cumsum(counts)
            rm_cum = np.concatenate(([0],
                                     np.cumsum(rm.astype(np.int64))))
            removed = rm_cum[ends] - rm_cum[ends - counts]
            offsets = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(counts - removed, out=offsets[1:])
            lst = pa.LargeListArray.from_arrays(
                pa.array(offsets, pa.int64()), kept)
            joined = pc.binary_join(lst, pa.scalar("\n", kept.type))
            pieces.append(pa.table({
                id_col: docs.column(id_col),
                "text": joined.cast(pa.string()),
                "n_removed": pa.array(removed, pa.int64())}))
        if not pieces:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "text": pa.array([], pa.string()),
                             "n_removed": pa.array([], pa.int64())})
        return pa.concat_tables(pieces)

    return rd.range(num_buckets).map_batches(
        clean_bucket, batch_format="pyarrow", batch_size=1, num_cpus=1)
