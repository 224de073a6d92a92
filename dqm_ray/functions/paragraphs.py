"""Cross-document paragraph-level deduplication (first-occurrence
wins) — the paragraph analog of exact document dedup, standard in web
corpus prep (C4 keeps one copy of every three-sentence span; here the
unit is the ``sep``-delimited paragraph).

Semantics: paragraphs are ``text.split(sep)`` in order; an occurrence
is REMOVED iff an identical paragraph occurred at a smaller global
``(doc_id, para_idx)`` position. Paragraphs shorter than
``min_dedup_chars`` (default 1 — empties) never participate. Cleaned
text re-joins kept paragraphs with ``sep``; every input doc appears in
the output (possibly with empty text; a null text has no paragraphs and
stays null).

Scale shape — content never enters a shuffle:

1. signature pass: per block, split + two independent 64-bit hashes
   per paragraph (128-bit combined — collision odds ~2^-128 per pair,
   documented trade for keeping text out of the shuffle) + packed
   position ``doc_id * 2^20 + para_idx``; the partials are only
   (h1, h2, packed) = 24 B/paragraph;
2. winners: the min packed position per (h1, h2), one row per DISTINCT
   paragraph, reduced by :func:`~dqm_ray.state.reduce.reduce_partials`
   in K ``h1``-keyed parts of plain Ray tasks; the sorted winner
   positions stay in the object store (no shuffle, no driver collect);
3. clean pass: re-split each doc, keep paragraphs whose packed
   position is in the winner set (vectorized searchsorted) or below
   the length floor; no re-hash needed — membership is by position.

Ids must lie in [-2^43, 2^43) and docs hold at most 2^20 paragraphs
(packed-position radix); anything outside raises ``ValueError``. The
bound left is the winner array every clean task reads, 8 B per distinct
paragraph. Reference parity: remove_empty + first-wins stream semantics
(python/dqm/dqm_utils.py remove_empty; exact-dedup contract in
functions/dedup.py).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

POS_BITS = 20  # max 2^20 paragraphs per doc (packed-position radix)
_H1_KEY = "0123456789abcdef"
_H2_KEY = "fedcba9876543210"


def _split_paragraphs(batch: pa.Table, text_col: str, sep: str):
    """(row_index, flat_paragraph_strings, para_idx_within_doc)."""
    parts = pc.split_pattern(batch.column(text_col).combine_chunks(), sep)
    flat = pc.list_flatten(parts)
    parent = pc.list_parent_indices(parts).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    starts = np.r_[0, np.nonzero(np.diff(parent))[0] + 1]
    seg_len = np.diff(np.r_[starts, len(parent)])
    idx = np.arange(len(parent), dtype=np.int64) \
        - np.repeat(starts, seg_len) if len(parent) else parent
    return parent, flat, idx


def dedup_paragraphs(ds, *, text_col: str = "text",
                     id_col: str = "doc_id", sep: str = "\n\n",
                     min_dedup_chars: int = 1):
    """Remove globally-duplicate paragraphs, first occurrence wins.

    Returns a Dataset with (id_col, text, n_kept, n_dropped); a null
    text stays null with ``n_kept`` and ``n_dropped`` 0, and an empty
    input returns 0 rows with that schema."""
    from dqm_ray.state.reduce import keyed_reduce_map

    return keyed_reduce_map(
        ds, functools.partial(_signatures, text_col=text_col, id_col=id_col,
                              sep=sep, min_dedup_chars=min_dedup_chars),
        _first_positions,
        functools.partial(_clean, text_col=text_col, id_col=id_col,
                          sep=sep, min_dedup_chars=min_dedup_chars),
        key="h1", what="dedup_paragraphs",
        fallback=pa.schema([(id_col, pa.int64()), (text_col, pa.string())]))


def _signatures(batch: pa.Table, *, text_col: str, id_col: str, sep: str,
                min_dedup_chars: int) -> pa.Table:
    from dqm_ray.functions.dedup import pack_positions

    parent, flat, idx = _split_paragraphs(batch, text_col, sep)
    lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    sel = lens >= min_dedup_chars
    flat_np = flat.to_numpy(zero_copy_only=False)[sel]
    ids = batch.column(id_col).to_numpy(zero_copy_only=False) \
        .astype(np.int64)[parent[sel]]
    h1 = pd.util.hash_array(flat_np, hash_key=_H1_KEY,
                            categorize=False).view(np.int64)
    h2 = pd.util.hash_array(flat_np, hash_key=_H2_KEY,
                            categorize=False).view(np.int64)
    return pa.table({"h1": pa.array(h1, pa.int64()),
                     "h2": pa.array(h2, pa.int64()),
                     "packed": pa.array(
                         pack_positions(ids, idx[sel], POS_BITS),
                         pa.int64())})


def _first_positions(partials: pa.Table) -> pa.Table:
    if not partials.num_rows:
        return pa.table({"packed": pa.array([], pa.int64())})
    mins = partials.group_by(["h1", "h2"]).aggregate([("packed", "min")])
    return pa.table({"packed": mins.column("packed_min")})


def _clean(batch: pa.Table, winners: tuple, *, text_col: str, id_col: str,
           sep: str, min_dedup_chars: int) -> pa.Table:
    from dqm_ray.functions.dedup import pack_positions
    from dqm_ray.state.reduce import sorted_member

    parent, flat, idx = _split_paragraphs(batch, text_col, sep)
    ids = batch.column(id_col).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    n = len(batch)
    lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    keep = (lens < min_dedup_chars) | sorted_member(
        winners[0], pack_positions(ids[parent], idx, POS_BITS))
    # rebuild a ListArray of kept paragraphs per row, then one Arrow
    # binary_join — no per-row Python; a null text stays null
    kept_counts = np.bincount(parent[keep], minlength=n)
    all_counts = np.bincount(parent, minlength=n)
    offsets = np.r_[0, np.cumsum(kept_counts)].astype(np.int32)
    text = batch.column(text_col)
    kept_lists = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()), flat.filter(pa.array(keep)),
        mask=text.is_null().combine_chunks() if text.null_count else None)
    texts = pc.binary_join(kept_lists, sep)
    # preserve every input column (text replaced in place) so the op
    # composes inside larger pipelines
    out = batch.set_column(batch.schema.get_field_index(text_col),
                           text_col, texts)
    return out.append_column(
        "n_kept", pa.array(kept_counts, pa.int64())) \
        .append_column("n_dropped",
                       pa.array(all_counts - kept_counts, pa.int64()))
