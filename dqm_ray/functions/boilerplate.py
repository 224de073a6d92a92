"""Line-level boilerplate removal (C4 / RefinedWeb style): delete every
line whose exact text occurs in >= ``min_docs`` distinct documents —
license headers, nav chrome, generated banners.

Scale shape (TWO content passes over the input's blocks; content never
enters a shuffle):

1. **Count pass** — each block splits its docs into lines,
   dictionary-encodes them (one Arrow C++ hash-table pass; only the
   DISTINCT lines are hashed — twice, with independent siphash keys,
   for a 128-bit combined fingerprint), dedupes per doc, and emits
   ``(h1, h2, n_docs)`` partials. The global merge is one vectorized
   lexsort+reduceat over the partials with the ``>= min_docs`` filter
   inside, run by :func:`~dqm_ray.state.reduce.reduce_partials` in K
   ``h1``-keyed parts of plain Ray tasks (K = 1 up to
   ``SMALL_REDUCE_BYTES`` of partials); the lexsorted frequent pairs
   stay in the object store (no shuffle, nothing on the driver).
2. **Clean pass** — every block reads the frequent 128-bit
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

Scale bound: the frequent-pair set every clean task reads, 16 B per
frequent line (at most n_lines / min_docs of them).

Reference parity: the reference's remove_empty / make_same_size checks
normalize per-fragment payloads in place (src/Pipeline.cpp check loop);
here the normalization is corpus-global, which is exactly what Ray's
shuffle + broadcast primitives add over the single-process reference.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

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
    rows = np.repeat(np.arange(len(batch), dtype=np.int64),
                     _line_counts(lines))
    return lines, flat, rows


def _line_counts(lines: pa.Array) -> np.ndarray:
    """Lines per doc; a null text has none."""
    return pc.list_value_length(lines).fill_null(0) \
        .to_numpy(zero_copy_only=False).astype(np.int64)


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
    (docs losing every line become ''). A null text is a doc with no
    lines: it is kept with text null and ``n_removed`` 0. An empty
    input returns 0 rows with the output schema.
    """
    from dqm_ray.state.reduce import keyed_reduce_map

    return keyed_reduce_map(
        ds, functools.partial(_count_partial, text_col=text_col,
                              min_len=min_len),
        functools.partial(_frequent_pairs, min_docs=min_docs),
        functools.partial(_clean, text_col=text_col, id_col=id_col,
                          min_len=min_len),
        key="h1", what="remove_boilerplate_lines",
        fallback=pa.schema([(id_col, pa.int64()), (text_col, pa.string())]))


def _count_partial(batch: pa.Table, *, text_col: str,
                   min_len: int) -> pa.Table:
    _, flat, rows = _line_arrays(batch, text_col)
    codes, h1, h2, dic = _encode_lines2(flat)
    # length filter evaluated once per DISTINCT line, not per line
    long_enough = pc.greater_equal(pc.utf8_length(dic), min_len) \
        .to_numpy(zero_copy_only=False)
    m = long_enough[codes] if len(codes) else np.zeros(0, bool)
    cs, n_docs = _doc_distinct_counts(codes[m], rows[m], len(dic))
    return pa.table({
        "h1": pa.array(h1[cs], pa.int64()),
        "h2": pa.array(h2[cs], pa.int64()),
        "n": pa.array(n_docs, pa.int64())})


def _frequent_pairs(partials: pa.Table, *, min_docs: int) -> pa.Table:
    # most lines are unique, so partials barely compress: the >= min_docs
    # filter runs INSIDE the reduce so only frequent pairs leave it
    if not partials.num_rows:
        z = pa.array([], pa.int64())
        return pa.table({"h1": z, "h2": z})
    h1, h2 = _reduce_pair_counts(
        partials.column("h1").to_numpy(),
        partials.column("h2").to_numpy(),
        partials.column("n").to_numpy(), min_docs)
    return pa.table({"h1": h1, "h2": h2})


def _clean(batch: pa.Table, freq: tuple, *, text_col: str, id_col: str,
           min_len: int) -> pa.Table:
    fa1, fa2 = freq  # lexsorted frequent (h1, h2) pairs
    lines, flat, _ = _line_arrays(batch, text_col)
    codes, h1, h2, dic = _encode_lines2(flat)
    counts = _line_counts(lines)
    # probe once per DISTINCT line (min_len re-check is free collision
    # armour: frequent fingerprints only come from long-enough lines)
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
    lst = pa.LargeListArray.from_arrays(
        pa.array(offsets, pa.int64()), kept,
        mask=lines.is_null() if lines.null_count else None)
    joined = pc.binary_join(lst, pa.scalar("\n", kept.type))
    return pa.table({
        id_col: batch.column(id_col),
        "text": joined.cast(pa.string()),
        "n_removed": pa.array(removed, pa.int64()),
    })
