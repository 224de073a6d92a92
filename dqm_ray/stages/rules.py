"""Stateless heuristic quality rules — vectorized Arrow/numpy.

Semantics (the contract validated against :mod:`dqm_ray.oracle`):
per-row line-length stats, alphanumeric fraction, duplicate-line ratio,
autogenerated-file markers, emptiness — computed over the leading
``cfg.analyze_prefix_chars`` characters (max_frames truncation analog,
reference include/dqm/Decoder.hpp:57-60), then mapped to drop reasons in
``cfg.enabled_rules`` order (named-check registry analog, reference
include/dqm/Pipeline.hpp:98-143).

Runs as plain ``map_batches`` tasks with ``batch_format="pyarrow"`` —
no Python loop over rows anywhere in this module.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from dqm_ray.config import QualityConfig


def is_ascii_batch(arr: pa.Array) -> bool:
    """One numpy max over the raw utf8 buffer (~2 ms / 75 MB): True iff
    the whole column is 7-bit ASCII with no nulls — the gate for the
    byte==codepoint fast paths below. False (the safe answer) whenever
    the buffer view is unavailable."""
    view = string_buffer_view(arr)
    if view is None:
        return len(arr) == 0 and arr.null_count == 0
    data, _ = view
    return len(data) == 0 or int(data.max()) < 128


def prefix_slice(content: pa.Array, n_chars: int,
                 ascii_ok: bool) -> pa.Array:
    """First ``n_chars`` CHARACTERS of each row. ASCII batches slice
    bytes (binary_slice — no utf8 walk, ~5x faster) and re-view as
    string without revalidation; byte==char makes it exact.

    Identity fast path: when no row exceeds ``n_chars`` BYTES the slice
    is a no-op (chars <= bytes holds for utf8 too), so return the input
    zero-copy instead of re-copying every data buffer — at the default
    64 KiB analysis prefix this skips the copy for whole typical
    batches."""
    if len(content) and (pc.max(pc.binary_length(content)).as_py() or 0) <= n_chars:
        return content
    if ascii_ok:
        lb = content if pa.types.is_large_binary(content.type) \
            else content.cast(pa.large_binary())
        return pc.binary_slice(lb, 0, n_chars).view(pa.large_string())
    return pc.utf8_slice_codeunits(content, 0, n_chars)


def _prefix(content: pa.Array, cfg: QualityConfig,
            ascii_ok: bool = False) -> pa.Array:
    return prefix_slice(content, cfg.analyze_prefix_chars, ascii_ok)


# lookup table: 1 for ASCII alphanumeric bytes
_ALNUM_TABLE = np.zeros(256, dtype=np.uint8)
for _c in (*range(ord("0"), ord("9") + 1), *range(ord("A"), ord("Z") + 1),
           *range(ord("a"), ord("z") + 1)):
    _ALNUM_TABLE[_c] = 1


def string_buffer_view(arr: pa.Array) -> tuple[np.ndarray, np.ndarray] | None:
    """(bytes, rebased offsets) view of a (Large)StringArray's utf8 data,
    or None when nulls/empties make the fast path unusable."""
    if arr.null_count or len(arr) == 0:
        return None
    large = pa.types.is_large_string(arr.type)
    otype = np.int64 if large else np.int32
    _, buf_offsets, buf_data = arr.buffers()
    offs = np.frombuffer(buf_offsets, dtype=otype, count=len(arr) + 1,
                         offset=arr.offset * np.dtype(otype).itemsize) \
        .astype(np.int64)
    if buf_data is None:
        return None
    data = np.frombuffer(buf_data, dtype=np.uint8)[offs[0]:offs[-1]]
    return data, offs - offs[0]


def segment_counts(flags: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Per-segment sums of a 0/1 byte-flag array.

    ``np.add.reduceat`` over uint8 runs a scalar ufunc inner loop
    (~250 MB/s here); this instead sums interior bytes 8 lanes at a
    time through a uint64 word view — one reduceat over 8x fewer
    elements, blocks capped at 255 words so no uint8 lane can
    overflow — and folds each segment's <=7 unaligned head/tail bytes
    with seven masked gathers (~2.7 GB/s, 11x). Flags MUST be 0/1;
    empty segments -> 0.
    """
    n = len(offs) - 1
    if n == 0:
        return np.zeros(0, np.int64)
    total = int(offs[-1])
    if total == 0 or len(flags) == 0:
        return np.zeros(n, np.int64)

    # pad to whole words plus one guard word (keeps every reduceat
    # index, including discarded block-end sentinels, in bounds)
    pad = (-total) % 8 + 8
    f = np.empty(total + pad, np.uint8)
    f[:total] = flags[:total]
    f[total:] = 0
    words = f.view(np.uint64)

    starts_b = np.asarray(offs[:-1], dtype=np.int64)
    ends_b = np.asarray(offs[1:], dtype=np.int64)
    starts_w = (starts_b + 7) >> 3  # first fully-covered word
    ends_w = ends_b >> 3            # one past last fully-covered word

    counts = np.zeros(n, np.int64)

    # head/tail partial bytes (<= 7 on each side of the aligned span)
    hend = np.minimum(starts_w << 3, ends_b)
    tstart = np.maximum(ends_w << 3, hend)
    head_len = hend - starts_b
    tail_len = ends_b - tstart
    lim = total - 1
    for j in range(7):
        hmask = head_len > j
        if hmask.any():
            counts += np.where(hmask, f[np.minimum(starts_b + j, lim)], 0)
        tmask = tail_len > j
        if tmask.any():
            counts += np.where(tmask, f[np.minimum(tstart + j, lim)], 0)

    # interior full words, lane-parallel, <=255-word blocks
    m = np.maximum(ends_w - starts_w, 0)
    nb = (m + 254) // 255
    rows_with = np.flatnonzero(nb)
    if len(rows_with):
        reps = nb[rows_with]
        tot_blocks = int(reps.sum())
        row_of_block = np.repeat(rows_with, reps)
        cum = np.concatenate(([0], np.cumsum(reps)))
        within = np.arange(tot_blocks, dtype=np.int64) \
            - np.repeat(cum[:-1], reps)
        bstart = starts_w[row_of_block] + within * 255
        bend = np.minimum(bstart + 255, ends_w[row_of_block])
        # interleaved [start, end) pairs; odd (gap) entries discarded
        idx = np.empty(2 * tot_blocks, np.int64)
        idx[0::2] = bstart
        idx[1::2] = bend
        wsums = np.ascontiguousarray(np.add.reduceat(words, idx)[0::2])
        block_counts = wsums.view(np.uint8).reshape(-1, 8) \
            .sum(axis=1, dtype=np.int64)
        counts += np.bincount(row_of_block, weights=block_counts,
                              minlength=n).astype(np.int64)
    return counts


def ascii_class_count(arr: pa.Array, table: np.ndarray = _ALNUM_TABLE) -> np.ndarray:
    """Per-row count of bytes whose class flag is set — a single
    memory-bandwidth pass over the raw utf8 buffer (equivalent to
    count_substring_regex('[A-Za-z0-9]') for single-byte classes, ~40×
    faster). Falls back to the regex kernel when nulls are present."""
    view = string_buffer_view(arr)
    if view is None:
        return pc.count_substring_regex(arr, "[A-Za-z0-9]") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
    data, offs = view
    if table is _ALNUM_TABLE:
        # range compares beat the 256-entry gather ~1.6x (the gather's
        # byte-granular LUT reads defeat vectorization); uint8 wraparound
        # folds each two-sided range into one subtract + one compare
        # (letters case-folded via |0x20), ~half the memory passes of
        # the naive six-compare form
        letters = (np.bitwise_or(data, np.uint8(0x20)) - np.uint8(97)) \
            < np.uint8(26)
        digits = (data - np.uint8(48)) < np.uint8(10)
        flags = (letters | digits).view(np.uint8)
    else:
        flags = table[data]
    return segment_counts(flags, offs)


def line_stats(prefix: pa.Array,
               ascii_ok: bool = False) -> dict[str, np.ndarray]:
    """Per-row n_lines / max / mean line length and duplicate-line ratio,
    via one split + reduceat over the flattened line lengths."""
    split = pc.split_pattern(prefix, "\n")
    if isinstance(split, pa.ChunkedArray):
        split = split.combine_chunks()
    flat = split.flatten()
    length_kernel = pc.binary_length if ascii_ok else pc.utf8_length
    lens = length_kernel(flat).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    offsets = np.asarray(split.offsets)
    starts, ends = offsets[:-1].astype(np.int64), offsets[1:].astype(np.int64)
    counts = ends - starts  # split always yields >= 1 element per row
    max_len = np.maximum.reduceat(lens, starts) if len(lens) else np.zeros(0, np.int64)
    tot_len = np.add.reduceat(lens, starts) if len(lens) else np.zeros(0, np.int64)
    mean_len = tot_len / counts

    # duplicate-line ratio: unique lines per row via C++ dictionary codes
    # (exact string identity — no hash-collision caveat). One combined
    # (row, code) int64 key sorted IN PLACE: because row dominates the
    # key, sorting never moves a value across its row segment, so the
    # original reduceat boundaries still delimit each row — a value
    # sort + first-flag reduceat replaces argsort + two permutation
    # gathers + bincount (~2x on the dup path).
    n = len(counts)
    if len(lens):
        row_ids = np.repeat(np.arange(n, dtype=np.int64), counts)
        codes = np.asarray(pc.dictionary_encode(flat).indices, dtype=np.int64)
        key = row_ids * (codes.max() + 2) + codes
        key.sort()
        first = np.empty(len(key), dtype=np.uint8)
        first[0] = 1
        np.not_equal(key[1:], key[:-1], out=first[1:].view(bool))
        uniq = segment_counts(first, offsets.astype(np.int64))
    else:
        uniq = np.zeros(0, np.int64)
    dup_ratio = 1.0 - uniq / counts
    return {
        "n_lines": counts,
        "max_line_len": max_len,
        "mean_line_len": mean_len,
        "dup_line_ratio": dup_ratio,
    }


def reasons_from_masks(masks: list[tuple[str, np.ndarray]],
                       n_rows: int | None = None) -> pa.ListArray:
    """Build a list<string> reasons column from ordered (name, bool-mask)
    pairs, fully vectorized. With no masks (all rules disabled) emits
    ``n_rows`` empty lists — callers append this to an n-row table."""
    if not masks:
        return pa.ListArray.from_arrays(
            np.zeros((n_rows or 0) + 1, np.int32), pa.array([], pa.string()))
    names = [m[0] for m in masks]
    mat = np.stack([m[1] for m in masks], axis=1)  # (n_rows, n_rules) row-major
    flat = mat.ravel()
    rule_idx = np.nonzero(flat)[0] % len(names)
    values = pa.array(np.array(names, dtype=object)[rule_idx], pa.string())
    counts = mat.sum(axis=1)
    offsets = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), values)


def heuristic_rules_batch(batch: pa.Table, *, cfg: QualityConfig) -> pa.Table:
    """Append metric columns + `rule_reasons` (list<string>) to the batch."""
    content = batch.column("content").combine_chunks()
    ascii_ok = is_ascii_batch(content)
    prefix = _prefix(content, cfg, ascii_ok)
    stats = line_stats(prefix, ascii_ok)

    if ascii_ok:  # byte == codepoint: lengths come free from offsets
        prefix_len = pc.binary_length(prefix) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        n_chars = pc.binary_length(content)
    else:
        prefix_len = pc.utf8_length(prefix) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        n_chars = pc.utf8_length(content)
    alnum = ascii_class_count(prefix)
    alnum_frac = np.where(prefix_len > 0, alnum / np.maximum(prefix_len, 1), 0.0)
    is_empty = pc.equal(
        pc.utf8_length(pc.utf8_trim_whitespace(prefix)), 0
    ).to_numpy(zero_copy_only=False)

    head = prefix_slice(prefix, cfg.autogen_scan_chars, ascii_ok)
    import re as _re

    autogen_pat = "|".join(_re.escape(m) for m in cfg.autogen_markers)
    has_autogen = pc.match_substring_regex(head, autogen_pat) \
        .to_numpy(zero_copy_only=False)

    rule_masks = {
        "empty": is_empty,
        "long_lines": stats["max_line_len"] > cfg.max_line_len,
        "mean_line_len": ~is_empty & (stats["mean_line_len"] > cfg.max_mean_line_len),
        "low_alnum": ~is_empty & (alnum_frac < cfg.min_alnum_frac),
        "dup_lines": (stats["n_lines"] >= cfg.dup_min_lines)
                     & (stats["dup_line_ratio"] > cfg.max_dup_line_ratio),
        "autogen": has_autogen,
    }
    ordered = [(name, rule_masks[name]) for name in cfg.enabled_rules]
    if cfg.custom_rules:
        from dqm_ray.registry import apply_custom_rules

        ordered += apply_custom_rules(batch, cfg.custom_rules, cfg)

    out = batch
    out = out.append_column("n_chars", n_chars.cast(pa.int64()))
    out = out.append_column("n_lines", pa.array(stats["n_lines"], pa.int64()))
    out = out.append_column("max_line_len", pa.array(stats["max_line_len"], pa.int64()))
    out = out.append_column("mean_line_len", pa.array(stats["mean_line_len"], pa.float64()))
    out = out.append_column("alnum_frac", pa.array(alnum_frac, pa.float64()))
    out = out.append_column("dup_line_ratio", pa.array(stats["dup_line_ratio"], pa.float64()))
    out = out.append_column("is_empty", pa.array(is_empty))
    out = out.append_column("has_autogen", pa.array(has_autogen))
    out = out.append_column("rule_reasons",
                            reasons_from_masks(ordered, len(batch)))
    return out


def add_partition_id(batch: pa.Table, *, num_partitions: int) -> pa.Table:
    """Deterministic partition key: hash64(repo) % num_partitions
    (FIXTURES.md F1). Keys the per-partition metrics; NOT python's
    randomized hash()."""
    repo = batch.column("repo").to_numpy(zero_copy_only=False)
    pid = (pd.util.hash_array(repo) % num_partitions).astype(np.int32)
    return batch.append_column("partition_id", pa.array(pid, pa.int32()))
