"""Keyed reduce of compact partials — the one reduce of the dedup family
— and :func:`keyed_reduce_map`, which runs such an op on plain Ray tasks
over the input's block refs: ``Dataset`` in and out, no Ray Data
execution (its executor polls at 0.1 s; a shuffle costs ~1 s on one CPU
however few rows it moves) and no driver collect inside.

Per block one task emits compact partials — combined counters or winner
keys, never content — and their ``(rows, bytes)``; plain Ray tasks
reduce them, the way the reference reduces each window inside one
worker and ships only the result (plugins/DQMProcessor.cpp:541-556);
then one task per block filters or rewrites it against the reduced
value. The reduce is split into K hash parts, K the smallest power of
two that keeps ``partial_bytes / K`` at or under ``SMALL_REDUCE_BYTES``:

- K = 1: one task concatenates every partial block and reduces it;
- K > 1: one split task per partial block cuts it into K parts by its
  hashed key, K tasks reduce one part each, and one task concatenates
  the K results.

Either way the value — the result columns as numpy arrays, sorted by
all of them — stays in the object store and the keep tasks take it as
an argument. The bound left is that value, which every keep task reads
whole: its size is the caller's (winner ids, frequent lines), not K's.
"""

from __future__ import annotations

import logging
from typing import Callable

import numpy as np
import pyarrow as pa
import ray

from dqm_ray.state.tasks import wait_all

# Partial bytes (the map tasks' table nbytes) one reduce task takes at most.
# Set by the task's memory, which reserves none: it concatenates and
# then sorts or hashes its partials, so its private RSS grows by 2.3x
# (exact_dedup) to 2.9x (boilerplate) the partial bytes. Its peak VmRSS
# read 0.6-0.7 GiB at 128 MiB and 1.0-1.3 GiB at 256 MiB
# (tools/reduce_sweep.py, 1-CPU Ray session). Unmeasured: the K and
# budget at which parallel parts beat one task on many CPUs.
SMALL_REDUCE_BYTES = 128 << 20

_FIB = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio, odd

log = logging.getLogger("dqm_ray")


def _concat(blocks) -> pa.Table:
    tables = [b for b in blocks if b.num_rows]
    # no rows at all (an emptied input) reduce a 0-column, 0-row table
    return pa.concat_tables(tables) if tables else pa.table({})


def _sorted(table: pa.Table) -> tuple:
    """The columns of ``table`` as numpy arrays, sorted by all of them,
    first column first (a tuple of arrays reads back from the object
    store faster than a Table)."""
    table = table.sort_by([(c, "ascending") for c in table.column_names])
    return tuple(c.to_numpy() for c in table.columns)


def _key_bits(column: pa.ChunkedArray) -> np.ndarray:
    """uint64 per row: an integer key as is, a string or binary key's
    first 8 bytes (a sha256 hex digest's first 8 digits); null -> 0."""
    if pa.types.is_integer(column.type):
        return column.fill_null(0).to_numpy().astype(np.int64) \
            .view(np.uint64)
    arr = column.cast(pa.large_binary()).combine_chunks()
    if not len(arr):
        return np.empty(0, np.uint64)
    offs = np.frombuffer(arr.buffers()[1], np.int64)[
        arr.offset:arr.offset + len(arr) + 1]
    data = np.frombuffer(arr.buffers()[2] or b"", np.uint8)
    data = np.concatenate([data, np.zeros(8, np.uint8)])
    take = offs[:-1, None] + np.arange(8)
    prefix = np.where(take < offs[1:, None], data[take], 0)
    prefix[~arr.is_valid().to_numpy(zero_copy_only=False)] = 0
    return np.ascontiguousarray(prefix.astype(np.uint8)).view("<u8")[:, 0]


@ray.remote
def _split_block(block: pa.Table, key: str, bits: int):
    """Cut one partial block into ``2^bits`` parts by its hashed key.
    The key is multiplied by an odd constant and its top bits pick the
    part, so keys with weak low bits (polynomial gram hashes) still
    spread evenly. A 0-row block (it may lack the key column) goes to
    every part as is."""
    if not block.num_rows:
        return [block] * (1 << bits)
    with np.errstate(over="ignore"):
        part = ((_key_bits(block.column(key)) * _FIB)
                >> np.uint64(64 - bits)).astype(np.int64)
    order = np.argsort(part, kind="stable")
    ends = np.cumsum(np.bincount(part, minlength=1 << bits))
    return [block.take(order[s:e]) for s, e in zip(np.r_[0, ends[:-1]],
                                                    ends)]


@ray.remote(num_returns=2)
def _reduce_blocks(reduce: Callable[[pa.Table], pa.Table], *blocks):
    return None, _sorted(reduce(_concat(blocks)))


@ray.remote
def _reduce_part(reduce: Callable[[pa.Table], pa.Table], *blocks):
    return reduce(_concat(blocks))


@ray.remote(num_returns=2)
def _combine(*parts: pa.Table):
    return None, _sorted(pa.concat_tables(parts))


def reduce_partials(partials: list, meta: list,
                    reduce: Callable[[pa.Table], pa.Table], *,
                    key: str, what: str):
    """Reduce the partial blocks ``partials``, whose ``(rows, bytes)``
    are ``meta``; return ``(ref, rows)``: a ref to the reduced columns
    and the number of partial rows.

    ``reduce(table)`` takes partials that hold every row of each key it
    sees (0 rows for an empty input, then possibly with no columns) and
    returns a table with a fixed schema. ``key`` names the partials'
    hashed key column (integer, or string/binary read by its first 8
    bytes); equal keys land in one part. The value is a tuple of numpy
    arrays, one per result column: the concatenated results sorted by
    all their columns, first column first. K, the
    partial rows and the partial bytes are logged at INFO on the
    ``dqm_ray`` logger. A failed task raises here.
    """
    rows = sum(r for r, _ in meta)
    nbytes = sum(b for _, b in meta)
    k = 1
    while nbytes > k * SMALL_REDUCE_BYTES:
        k *= 2
    log.info("reduce_partials %s: k=%d partial_rows=%d partial_bytes=%d",
             what, k, rows, nbytes)
    if k == 1:
        done, value = _reduce_blocks.remote(reduce, *partials)
    else:
        bits = k.bit_length() - 1
        splits = [_split_block.options(num_returns=k).remote(b, key, bits)
                  for b in partials]
        done, value = _combine.remote(*[
            _reduce_part.remote(reduce, *[s[i] for s in splits])
            for i in range(k)])
    ray.get(done)  # raises a reduce error here; the value stays remote
    return value, rows


@ray.remote(num_returns=2)
def _partial_task(partial: Callable[[pa.Table], pa.Table],
                  block: pa.Table):
    # Ray Data calls no map function on a 0-row block (it may have no
    # columns): its partial is a 0-row, 0-column table
    out = partial(block) if block.num_rows else pa.table({})
    return out, (out.num_rows, out.nbytes)


@ray.remote
def _keep_task(keep: Callable[[pa.Table, tuple], pa.Table],
               block: pa.Table, value: tuple):
    return keep(block, value) if block.num_rows else pa.table({})


def keyed_reduce_map(ds, partial: Callable[[pa.Table], pa.Table],
                     reduce: Callable[[pa.Table], pa.Table],
                     keep: Callable[[pa.Table, tuple], pa.Table], *,
                     key: str, what: str, fallback: pa.Schema):
    """``keep(block, value)`` for every block of ``ds``, where ``value``
    is :func:`reduce_partials` of ``partial(block)`` over all blocks;
    returns the output Dataset (``rd.from_arrow_refs``, which waits for
    the keep tasks). ``to_arrow_refs`` is O(1) on a materialized input;
    a lazy input runs once and its blocks stay in the object store until
    the keep tasks have read them. A 0-row block runs neither function.
    When the partials have no rows the output also holds ``keep`` of a
    0-row table of ``ds``'s schema (or ``fallback``, see
    :func:`_empty_batch`), so an emptied input keeps the output schema.
    A failed map task raises here as its original exception class, once
    the other map tasks have ended."""
    import ray.data as rd

    blocks = ds.to_arrow_refs()
    pairs = [_partial_task.remote(partial, b) for b in blocks]
    value, rows = reduce_partials(
        [p for p, _ in pairs], wait_all([m for _, m in pairs]), reduce,
        key=key, what=what)
    out = [_keep_task.remote(keep, b, value) for b in blocks]
    if not rows:
        out.append(ray.put(keep(_empty_batch(ds, fallback),
                                ray.get(value))))
    return rd.from_arrow_refs(out)


def _empty_batch(ds, fallback: pa.Schema) -> pa.Table:
    """A 0-row table of ``ds``'s schema, or of ``fallback`` when no
    block of ``ds`` has one (a filter that kept no rows). A pandas-block
    column whose dtype has no Arrow type (``object``) takes its type
    from ``fallback``, or null when ``fallback`` does not name it."""
    schema = ds.schema()
    if schema is None:
        return fallback.empty_table()
    if isinstance(schema.base_schema, pa.Schema):
        return schema.base_schema.empty_table()
    known = dict(zip(fallback.names, fallback.types))
    return pa.schema([
        (name, t if isinstance(t, pa.DataType)
         else known.get(name, pa.null()))
        for name, t in zip(schema.names, schema.types)]).empty_table()


def sorted_member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Vectorized ``keys[i] in sorted_keys`` by one searchsorted."""
    if not len(sorted_keys):
        return np.zeros(len(keys), bool)
    idx = np.minimum(np.searchsorted(sorted_keys, keys),
                     len(sorted_keys) - 1)
    return sorted_keys[idx] == keys
