"""Lineage + integrity alerts — sha256-of-content per row, invariant
check against a reference column, partition-level alerts, fail-fast.

Reference roles:
- per-window invariant checks that warn (check_timestamps_aligned,
  include/dqm/Pipeline.hpp:78-95) or abort (check_empty,
  include/dqm/Pipeline.hpp:45-55);
- ers Issue raising (include/dqm/Issues.hpp).

A sha256 mismatch versus the per-row invariant column writes alert rows
to ``alert_dir`` (so the alert survives the crash) and then RAISES, which
Ray propagates and the job fails fast — mirroring check_empty's
short-circuit. In ``run_quality_filewise`` the failure cancels the
call's other shard tasks, but cooperatively: a sibling inside one long
native call (a parquet write, an Arrow kernel) delays the raise until
that call returns (``state/tasks.py::wait_all``). sha256 itself has no Arrow kernel; the loop is a
C-accelerated hashlib call per row (~1 µs/row) over encoded bytes.
"""

from __future__ import annotations

import hashlib
import os
import uuid

import pyarrow as pa
import pyarrow.compute as pc


class LineageError(RuntimeError):
    """Raised on sha256 invariant mismatch → job fails fast."""


def sha256_column(content: pa.Array) -> pa.Array:
    return pa.array(_sha256_rows(content, _HASH.hexdigest), pa.string())


def sha256_digests(content: pa.Array) -> pa.Array:
    """:func:`sha256_column` as 32-byte binary digests: half the size."""
    return pa.array(_sha256_rows(content, _HASH.digest), pa.binary(32))


_HASH = type(hashlib.sha256())


def _sha256_rows(content: pa.Array, out) -> list:
    binary = content.cast(pa.large_binary())
    if isinstance(binary, pa.ChunkedArray):
        binary = binary.combine_chunks()
    sha = hashlib.sha256
    # zero-copy per-row hashing: sha256 reads memoryview slices of the
    # shared data buffer directly (the as_py() path materialized a
    # Python bytes copy of every row first)
    if binary.null_count == 0 and len(binary) and binary.buffers()[2]:
        import numpy as np

        off = np.frombuffer(binary.buffers()[1], np.int64)[
            binary.offset:binary.offset + len(binary) + 1].tolist()
        mv = memoryview(binary.buffers()[2])
        return [out(sha(mv[s:e])) for s, e in zip(off[:-1], off[1:])]
    return [out(sha(v.as_py())) if v.is_valid else None for v in binary]


def lineage_batch(batch: pa.Table, *, ref_column: str | None = None,
                  alert_dir: str | None = None,
                  fail_fast: bool = True) -> pa.Table:
    """Append `sha256` (hex of utf-8 content). If ``ref_column`` names an
    existing column, verify equality; on mismatch write alert rows and
    raise :class:`LineageError` (or just append `lineage_ok` when
    ``fail_fast=False``)."""
    content = batch.column("content").combine_chunks()
    digest = sha256_column(content)
    out = batch.append_column("sha256", digest)
    if ref_column and ref_column in batch.column_names:
        ok = pc.equal(digest, batch.column(ref_column).combine_chunks())
        n_bad = len(batch) - pc.sum(ok.cast(pa.int64())).as_py()
        if n_bad:
            bad = out.filter(pc.invert(ok))
            alerts = bad.select(
                [c for c in ("repo", "path", "commit", "partition_id", "sha256",
                             ref_column) if c in bad.column_names])
            if alert_dir:
                os.makedirs(alert_dir, exist_ok=True)
                import pyarrow.parquet as pq
                pq.write_table(
                    alerts, os.path.join(alert_dir, f"alert-{uuid.uuid4().hex}.parquet"))
            if fail_fast:
                first = alerts.slice(0, 3).to_pylist()
                raise LineageError(
                    f"sha256 lineage mismatch on {n_bad} row(s); first: {first}")
        out = out.append_column("lineage_ok", ok)
    return out
