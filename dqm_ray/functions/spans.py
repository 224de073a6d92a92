"""Cross-document exact substring (span) deduplication — the
"dedup the repeated 50-char span, keep the page" operator from Lee et
al. 2021 (Deduplicating Training Data Makes Language Models Better),
re-expressed without suffix arrays:

- **anchors**: every doc's k-byte grams at stride-k positions (byte
  offsets 0, k, 2k, … within the doc) are fingerprinted; winner per
  fingerprint = the minimum packed ``(doc_id << 32 | pos)``. Any
  substring repeat of length >= 2k-1 is guaranteed to cover one full
  stride window, so anchoring at 1/k of positions loses no long
  repeat (the standard content-defined-chunking argument);
- **cut pass**: every doc probes ALL its overlapping grams against
  the winner map; a position whose gram has a winner strictly smaller
  than its own packed position is covered; the union of covered
  ``[p, p+k)`` spans is deleted (first occurrence — the winner itself
  — survives; repeats inside the SAME doc after the anchor are cut
  too). Docs shorter than k are never cut.

Scale shape: the anchor pass ships 16 B per k text bytes as compact
(gram, packed) partials (content never shuffles);
:func:`~dqm_ray.state.reduce.reduce_partials` takes the min packed
position per gram in K gram-keyed parts of plain Ray tasks and leaves
the sorted winner map (~16 B x distinct anchors) in the object store,
where every cut task reads it whole — that map is the bound left; the
cut pass is the scrub_spans diff+cumsum kernel over the raw buffer,
strings rebuilt zero-copy.

ids must lie in [-2^31, 2^31) and docs hold at most 2^32 bytes (packed
radix); anything outside raises ``ValueError``. Byte == codepoint
under the same ASCII precondition the gram-hash SQL oracle relies on
(decontam.py note).

Reference parity: make_same_size / remove_empty normalize payloads
in place (src/Pipeline.cpp check loop); span dedup is the
corpus-global version of in-place payload normalization.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DEFAULT_SPAN_K = 20
POS_BITS = 32  # max 2^32 bytes per doc (packed-position radix)


def _apply_cuts(text: pa.Array, rows: np.ndarray, locs: np.ndarray,
                k: int):
    """Delete the union of byte spans [loc, loc+k) (one per (row, loc)
    flag) from a string array via one diff+cumsum pass over the raw
    buffer, widened to whole characters (a character goes if any of its
    bytes is covered, so the output stays valid UTF-8); returns
    (cleaned LargeStringArray, removed_bytes_per_row)."""
    from dqm_ray.stages.rules import string_buffer_view

    view = string_buffer_view(text)
    if view is None and text.null_count:  # cut as '', keep the nulls
        cleaned, removed = _apply_cuts(text.fill_null(""), rows, locs, k)
        return pc.if_else(text.is_valid(), cleaned,
                          pa.scalar(None, cleaned.type)), removed
    if view is None:  # no rows, or not one byte: nothing to cut
        return text, np.zeros(len(text), np.int64)
    data, offs = view
    n = len(text)
    byte_lens = np.diff(offs)
    g_start = offs[:-1][rows] + locs
    delta = np.zeros(len(data) + k + 1, np.int64)
    np.add.at(delta, g_start, 1)
    np.add.at(delta, g_start + k, -1)
    cover = np.cumsum(delta[:len(data)]) > 0
    lead = (data & 0xC0) != 0x80  # not a UTF-8 continuation byte
    if not lead.all():
        char = np.cumsum(lead) - 1
        cut = np.zeros(len(data), bool)
        cut[char[cover]] = True
        cover = cut[char]
    kept = data[~cover]
    cumcov = np.zeros(len(data) + 1, np.int64)
    np.cumsum(cover.astype(np.int64), out=cumcov[1:])
    removed = cumcov[offs[1:]] - cumcov[offs[:-1]]
    new_offs = np.zeros(n + 1, np.int64)
    np.cumsum(byte_lens - removed, out=new_offs[1:])
    cleaned = pa.LargeStringArray.from_buffers(
        n, pa.py_buffer(new_offs.tobytes()), pa.py_buffer(kept.tobytes()))
    return cleaned, removed



def _gram_positions(batch: pa.Table, id_col: str, text_col: str, k: int):
    """Gram/packed/valid extraction shared by the anchor and cut passes.
    Returns (text, grams, doc_idx, local, packed, valid)."""
    from dqm_ray.functions.dedup import batch_gram_hashes, pack_positions
    from dqm_ray.stages.rules import string_buffer_view

    text = batch.column(text_col).combine_chunks()
    grams, starts, counts = batch_gram_hashes(text, k)
    n = len(batch)
    view = string_buffer_view(text)
    byte_lens = (np.diff(view[1]) if view is not None else
                 np.array([len((t or "").encode())
                           for t in text.to_pylist()], np.int64))
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    local = np.arange(len(grams), dtype=np.int64) \
        - np.repeat(starts, counts)
    ids = batch.column(id_col).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    packed = pack_positions(ids[doc_idx], local, POS_BITS)
    valid = byte_lens[doc_idx] >= k
    return text, grams, doc_idx, local, packed, valid


def dedup_spans(ds, *, id_col: str = "doc_id", text_col: str = "text",
                k: int = DEFAULT_SPAN_K, batch_size: int = 512):
    """Returns (id_col, text, n_cut): every doc with globally-repeated
    k-spans deleted (winner occurrence kept), and the cut byte count.
    A null text stays null with ``n_cut`` 0; an empty input returns 0
    rows with that schema. The cut runs ``batch_size`` rows at a time
    within each block."""
    from dqm_ray.state.reduce import keyed_reduce_map

    return keyed_reduce_map(
        ds, functools.partial(_anchor_partial, id_col=id_col,
                              text_col=text_col, k=k),
        _first_anchor,
        functools.partial(_cut, id_col=id_col, text_col=text_col, k=k,
                          batch_size=batch_size),
        key="gram", what="dedup_spans",
        fallback=pa.schema([(id_col, pa.int64()), (text_col, pa.string())]))


def _anchor_partial(batch: pa.Table, *, id_col: str, text_col: str,
                    k: int) -> pa.Table:
    _, grams, _, local, packed, valid = _gram_positions(
        batch, id_col, text_col, k)
    m = valid & (local % k == 0)
    return pa.table({
        "gram": pa.array(grams[m].view(np.int64), pa.int64()),
        "packed": pa.array(packed[m], pa.int64()),
    })


def _first_anchor(partials: pa.Table) -> pa.Table:
    if not partials.num_rows:
        z = pa.array([], pa.int64())
        return pa.table({"gram": z, "w": z})
    mins = partials.group_by("gram").aggregate([("packed", "min")])
    return pa.table({"gram": mins.column("gram"),
                     "w": mins.column("packed_min")})


def _cut(block: pa.Table, winners: tuple, *, id_col: str, text_col: str,
         k: int, batch_size: int) -> pa.Table:
    gs, ws = winners  # sorted grams, their min packed positions
    out = []
    # one slice even at 0 rows: the empty-input path needs the schema
    for start in range(0, max(block.num_rows, 1), batch_size):
        batch = block.slice(start, batch_size)
        text, grams, doc_idx, local, packed, valid = _gram_positions(
            batch, id_col, text_col, k)
        g = grams.view(np.int64)
        flag = np.zeros(len(g), bool)
        if len(g) and len(gs):
            pos = np.minimum(np.searchsorted(gs, g), len(gs) - 1)
            flag = (gs[pos] == g) & (ws[pos] < packed) & valid
        cleaned, removed = _apply_cuts(text, doc_idx[flag], local[flag], k)
        # preserve every input column (text replaced in place) so the op
        # composes inside larger pipelines (the paragraphs contract)
        out.append(batch.set_column(
            batch.schema.get_field_index(text_col), text_col,
            cleaned.cast(pa.string()))
            .append_column("n_cut", pa.array(removed, pa.int64())))
    return pa.concat_tables(out)
