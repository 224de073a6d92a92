"""The one hash-part step of every keyed op — the dedup family's reduce,
the per-key windows, the co-location joins — and the steps that run
such an op on plain Ray tasks over the input's block refs: no Ray Data
execution (its executor polls at 0.1 s; a shuffle costs ~1 s on one CPU
however few rows it moves) and no driver collect inside.

Every step runs one task per group of input blocks, a group per CPU
or per ``SMALL_REDUCE_BYTES`` of input (:func:`_groups`). Per group
one task emits compact partials — combined counters, winner keys or
candidate rows, never content — and their ``(rows, bytes)``
(:func:`map_blocks`); plain Ray tasks reduce them (:func:`map_reduce`),
the way the reference reduces each window inside one worker and ships
only the result (plugins/DQMProcessor.cpp:541-556); then one task per
group filters or rewrites its blocks against the reduced value
(:func:`keyed_reduce_map`, ``Dataset`` in and out), or emits the rows
of a second reduce (MinHash's candidate band rows).

The part step takes one or more sides of mapped blocks, K the smallest
power of two that keeps ``bytes / K`` at or under
``SMALL_REDUCE_BYTES`` (raised towards the cluster's CPU count while
every part keeps ``MIN_PART_BYTES``); one split task per mapped block
cuts it into K parts by its hashed key (at K = 1 nothing is cut), and
part i runs one function over every side's part i. Its three callers:

- :func:`reduce_partials` combines the K part results into one value —
  the distinct result rows as numpy arrays, sorted by all columns —
  that stays in the object store (at K = 1 reduce and sort are one
  task). The keep tasks take it as an argument; its size is the
  caller's (winner ids, frequent lines), not K's. The near-dup pairs
  are such a value too: MinHash's (one task over them labels their
  components), SimHash's and the embedding sign buckets';
- :func:`keyed_parts` (``Dataset`` sides in, ``Dataset`` out) returns
  the K part outputs as they are: the windows, the co-location joins,
  ``canonical_docs`` and ``corpus_diff``;
- :func:`grouped_aggregate` (``Dataset`` in and out), the one
  Sum/Count/Min/Max ``GROUP BY`` (the reference's fill/merge
  accumulator split, src/algs/STD.cpp:21-27) on :func:`keyed_parts`,
  an Arrow ``group_by`` partial per block: the relational and
  stream queries' aggregates, the term, n-gram and histogram counts
  (``text``, ``lm``, ``quantiles``, ``sketch``), ``ccnet``'s and
  ``scan``'s bin counts, the sampling strata and ``skew``'s per-key
  moments.
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
# (tools/reduce_sweep.py, 1-CPU Ray session); an asof_join part, whose
# parts carry both sides' full rows, 0.8-0.9 GiB (0.58 GiB private) at
# 128 MiB.
SMALL_REDUCE_BYTES = 128 << 20

# Bytes a part keeps at least when K is raised to use the cluster's CPUs.
# In a 1-CPU session, going from one part to two (a split task per
# block) added 45-155 ms of work to 1.5-12 MiB queries at sf0.1, each
# further part 10-35 ms; an asof_join part runs ~25 MiB/s
# (tools/reduce_sweep.py), so an 8 MiB part is ~0.3 s of work.
# Unmeasured: wall time on many CPUs (these figures come from a
# one-core host).
MIN_PART_BYTES = 8 << 20

_FIB = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio, odd

log = logging.getLogger("dqm_ray")


def _concat(blocks) -> pa.Table:
    # no rows at all (an emptied input) give a 0-row table of the
    # blocks' schema; 0 columns only when no block has one; types are
    # unified (a column all null in one block is null-typed there)
    tables = [b for b in blocks if b.num_rows] or \
        [b for b in blocks if b.num_columns][:1]
    return pa.concat_tables(tables, promote_options="permissive") \
        if tables else pa.table({})


def _sorted(table: pa.Table) -> tuple:
    """The distinct rows of ``table`` as numpy arrays, one per column,
    sorted by all columns, first column first (a tuple of arrays reads
    back from the object store faster than a Table). Two parts may emit
    the same row, e.g. a near-dup pair found in buckets of both; it is
    kept once."""
    table = table.sort_by([(c, "ascending") for c in table.column_names])
    cols = [c.to_numpy() for c in table.columns]
    if cols and len(cols[0]) > 1:
        same = np.ones(len(cols[0]) - 1, bool)
        for c in cols:
            same &= c[1:] == c[:-1]
        if same.any():
            cols = [c[np.r_[True, ~same]] for c in cols]
    return tuple(cols)


def key_bits(column: pa.ChunkedArray) -> np.ndarray:
    """uint64 per row: an integer key as is, a timestamp as its int64,
    any other key (string, binary, float, date, decimal) the pandas hash
    of its whole value; null -> the same value on every row."""
    if pa.types.is_timestamp(column.type):
        column = column.cast(pa.int64())
    if pa.types.is_integer(column.type):
        return column.fill_null(0).to_numpy().astype(np.int64) \
            .view(np.uint64)
    import pandas as pd

    return pd.util.hash_array(column.to_numpy(zero_copy_only=False))


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
        part = ((key_bits(block.column(key)) * _FIB)
                >> np.uint64(64 - bits)).astype(np.int64)
    order = np.argsort(part, kind="stable")
    ends = np.cumsum(np.bincount(part, minlength=1 << bits))
    return [block.take(order[s:e]) for s, e in zip(np.r_[0, ends[:-1]],
                                                    ends)]


@ray.remote(num_returns=2)
def _reduce_blocks(reduce: Callable[[pa.Table], pa.Table], *blocks):
    return None, _sorted(reduce(_concat(blocks)))


@ray.remote
def _part_task(fn: Callable, sizes: list, *blocks):
    sides, i = [], 0
    for n in sizes:
        sides.append(_concat(blocks[i:i + n]))
        i += n
    return fn(*sides)


@ray.remote(num_returns=2)
def _combine(*parts: pa.Table):
    return None, _sorted(pa.concat_tables(parts))


def _cpus() -> int:
    return int(ray.cluster_resources().get("CPU", 1))


def _k_for(nbytes: int, cpus: int) -> int:
    """The smallest power of two K that keeps ``nbytes / K`` at or under
    ``SMALL_REDUCE_BYTES``, raised to the largest power of two at most
    ``cpus`` that leaves every part ``MIN_PART_BYTES``."""
    k = 1
    while nbytes > k * SMALL_REDUCE_BYTES or (
            2 * k <= cpus and nbytes >= 2 * k * MIN_PART_BYTES):
        k *= 2
    return k


def _k_of(meta: list, what: str) -> tuple[int, int]:
    """K for blocks of ``(rows, bytes)`` ``meta`` on this cluster, and
    their rows; K, the rows and the bytes are logged at INFO on the
    ``dqm_ray`` logger."""
    rows = sum(r for r, _ in meta)
    nbytes = sum(b for _, b in meta)
    k = _k_for(nbytes, _cpus() if nbytes >= 2 * MIN_PART_BYTES else 1)
    log.info("reduce_partials %s: k=%d partial_rows=%d partial_bytes=%d",
             what, k, rows, nbytes)
    return k, rows


def _part_tasks(fn: Callable, sides: list, k: int, key: str) -> list:
    """K tasks, part i running ``fn`` over every side's part i of the
    block refs ``sides`` (a list per side) cut by ``key``."""
    if k > 1:
        bits = k.bit_length() - 1
        cuts = [[_split_block.options(num_returns=k).remote(b, key, bits)
                 for b in side] for side in sides]
        parts = [[[c[i] for c in side] for side in cuts]
                 for i in range(k)]
    else:
        parts = [sides]
    return [_part_task.remote(fn, [len(s) for s in part],
                              *[b for s in part for b in s])
            for part in parts]


def reduce_partials(partials: list, meta: list,
                    reduce: Callable[[pa.Table], pa.Table], *,
                    key: str, what: str):
    """Reduce the partial blocks ``partials``, whose ``(rows, bytes)``
    are ``meta``; return ``(ref, rows)``: a ref to the reduced columns
    and the number of partial rows.

    The part step of ``reduce`` over one side, whose K results are
    combined into one value: a tuple of numpy arrays, one per result
    column, holding the distinct rows of the concatenated results
    sorted by all their columns, first column first. ``key`` names the
    partials' hashed key column (see :func:`key_bits`). At K = 1 one
    task reduces and sorts. A failed task raises here.
    """
    k, rows = _k_of(meta, what)
    if k == 1:
        done, value = _reduce_blocks.remote(reduce, *partials)
    else:
        done, value = _combine.remote(
            *_part_tasks(reduce, [partials], k, key))
    ray.get(done)  # raises a reduce error here; the value stays remote
    return value, rows


@ray.remote(num_returns=2)
def _group_task(fn: Callable, empty: pa.Table, n_args: int, *args):
    # a 0-row block without a schema runs as ``empty``
    blocks = [b if b.num_columns else empty for b in args[n_args:]]
    out = _concat([fn(b, *args[:n_args]) if b.num_columns
                   else pa.table({}) for b in blocks])
    return out, (out.num_rows, out.nbytes)


def map_blocks(fn: Callable, groups: list, *args,
               empty: pa.Table = pa.table({})) -> tuple[list, list]:
    """One task per group of block refs (:func:`dataset_blocks`) runs
    ``fn(block, *args)`` on each of its blocks in turn (an arg that is a
    ref, like a reduced value, arrives resolved); returns the output
    refs, one table per group, and the refs of their ``(rows, bytes)``.
    A 0-row block runs ``fn`` too, so its output has the op's schema;
    one with no columns runs it on ``empty`` (a 0-row table of the
    input's schema) instead, or gives a 0-column table when ``empty``
    has none."""
    pairs = [_group_task.remote(fn, empty, len(args), *args, *group)
             for group in groups]
    return [p for p, _ in pairs], [m for _, m in pairs]


def map_reduce(groups: list, partial: Callable[[pa.Table], pa.Table],
               reduce: Callable[[pa.Table], pa.Table], *, key: str,
               what: str, empty: pa.Table = pa.table({})):
    """:func:`reduce_partials` of ``partial(block)`` over the groups of
    block refs ``groups`` (``empty`` as in :func:`map_blocks`); returns
    its ``(ref, partial rows)``. A failed map task raises here as its
    original exception class, once the other map tasks have ended."""
    partials, meta = map_blocks(partial, groups, empty=empty)
    return reduce_partials(partials, wait_all(meta), reduce, key=key,
                           what=what)


def keyed_reduce_map(ds, partial: Callable[[pa.Table], pa.Table],
                     reduce: Callable[[pa.Table], pa.Table],
                     keep: Callable[[pa.Table, tuple], pa.Table], *,
                     key: str, what: str, fallback: pa.Schema):
    """``keep(block, value)`` for every block of ``ds``, where ``value``
    is :func:`map_reduce` of ``partial`` and ``reduce`` over its blocks;
    returns the output Dataset (``rd.from_arrow_refs``, which waits for
    the keep tasks), one block per group of :func:`dataset_blocks`: the
    map and the keep step run one task per group, the same groups. A
    lazy input runs once and its blocks stay in the object store until
    the keep tasks have read them. Every output block has ``keep``'s
    schema, an emptied input's too."""
    import ray.data as rd

    groups, empty = dataset_blocks(ds, fallback)
    value, _ = map_reduce(groups, partial, reduce, key=key, what=what,
                          empty=empty)
    out, _ = map_blocks(keep, groups, value, empty=empty)
    return rd.from_arrow_refs(out)


def keyed_parts(sides: list, fn: Callable, *, key: str, what: str):
    """The part step over Dataset sides: ``sides`` is a list of
    ``(ds, prep)``, ``prep(block)`` projecting or tagging one block of
    ``ds`` into the rows its parts take (with a ``key`` column). Every
    side's prepped blocks are cut into the same K hash parts by ``key``,
    K from their summed bytes; part i runs
    ``fn(side0_part_i, side1_part_i, ...)``. Each side's part is one
    table with every row of each key it holds (0 rows with the side's
    schema when it has none); ``fn`` returns one schema for any input.
    Returns the Dataset of the K outputs (``rd.from_arrow_refs``, which
    waits for them), neither made distinct nor sorted: a join may emit
    equal rows. A failed map task raises here as its original exception
    class."""
    import ray.data as rd

    outs, metas = [], []
    for ds, prep in sides:
        groups, empty = dataset_blocks(ds)
        out, meta = map_blocks(prep, groups, empty=empty)
        outs.append(out)
        metas.extend(meta)
    k, _ = _k_of(wait_all(metas), what)
    return rd.from_arrow_refs(_part_tasks(fn, outs, k, key))


def grouped_aggregate(ds, prep: Callable[[pa.Table], pa.Table],
                      keys: list, aggs: dict, *, what: str,
                      finish: Callable[[pa.Table], pa.Table] | None = None):
    """SQL ``SELECT keys, aggs ... GROUP BY keys`` over ``ds`` on
    :func:`keyed_parts`: ``aggs`` maps each output column to ``"count"``
    (its group's rows) or to ``"sum"``, ``"min"`` or ``"max"`` of the
    column of that name in ``prep(block)``, which projects one block of
    ``ds`` into the rows to group. Each block's partial is an Arrow
    ``group_by`` of its prepped rows; the parts, cut on ``keys[0]``,
    merge the partials (count and sum add, min and max keep theirs) and
    then run ``finish(table)``, if given, once over every group the part
    holds, so a ``finish`` that groups by ``keys[0]`` sees whole groups.
    A part takes every group of its ``keys[0]`` values, so ``keys[0]``
    must not be a low-cardinality column (a language) when the later
    keys are unbounded (a hash): put the unbounded key first, as K is
    set from the partial bytes as if they spread evenly. Null keys form
    one group each, as in SQL. Returns the Dataset of the part outputs,
    the keys first; an emptied input gives 0 rows of that schema."""
    names = list(aggs)
    block_aggs = [([], "count_all") if op == "count" else (name, op)
                  for name, op in aggs.items()]
    part_aggs = [(name, "sum" if op == "count" else op)
                 for name, op in aggs.items()]

    def partial(block: pa.Table) -> pa.Table:
        return _group_by(prep(block), keys, block_aggs, names)

    def part(partials: pa.Table) -> pa.Table:
        out = _group_by(partials, keys, part_aggs, names)
        return finish(out) if finish else out

    return keyed_parts([(ds, partial)], part, key=keys[0], what=what)


def _group_by(table: pa.Table, keys: list, aggs: list,
              names: list) -> pa.Table:
    # pyarrow 16's group_by over several keys, one of them a string, can
    # split a group that has a null key into several; such a key column
    # is grouped by its dictionary indices instead (null an entry of its
    # own, so the indices hold none) and decoded after
    import pyarrow.compute as pc

    dicts = {}
    if len(keys) > 1:
        for k in keys:
            if table.column(k).null_count:
                enc = pc.dictionary_encode(table.column(k).combine_chunks(),
                                           null_encoding="encode")
                dicts[k] = enc.dictionary
                table = table.set_column(table.schema.get_field_index(k),
                                         k, enc.indices)
    out = table.group_by(keys, use_threads=False).aggregate(aggs)
    labels = ["count_all" if not c else f"{c}_{op}" for c, op in aggs]
    return pa.table([dicts[k].take(out.column(k)) if k in dicts
                     else out.column(k) for k in keys]
                    + [out.column(lb) for lb in labels],
                    names=[*keys, *names])


def run_starts(*cols: np.ndarray) -> np.ndarray:
    """True where a row of the sorted ``cols`` starts a new run of equal
    values: one vectorized pass over every group a part holds."""
    new = np.zeros(len(cols[0]), bool)
    new[:1] = True
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    return new


def collect(ds) -> pa.Table:
    """The rows of a keyed op's output ``ds`` (materialized) as one
    Arrow table on the driver, read from its block refs."""
    return _concat(ray.get(ds.to_arrow_refs()))


def dataset_blocks(ds, fallback: pa.Schema = pa.schema([])
                   ) -> tuple[list, pa.Table]:
    """``ds``'s block refs in groups (:func:`_groups`) and a 0-row table
    of its schema (see :func:`_empty_batch`); a ``ds`` with no block
    gives that table as its one block, so an emptied input still maps to
    the op's schema. A lazy ``ds`` runs once: materialized, its bytes
    and schema come from the blocks' metadata."""
    from ray.data.dataset import MaterializedDataset

    if not isinstance(ds, MaterializedDataset):
        ds = ds.materialize()
    empty = _empty_batch(ds, fallback)
    return _groups(ds.to_arrow_refs() or [ray.put(empty)],
                   ds.size_bytes() or 0), empty


def _groups(blocks: list, nbytes: int) -> list:
    """``blocks`` (``nbytes`` in all) cut into n runs of consecutive
    blocks, n = min(blocks, max(CPUs, ceil(nbytes / SMALL_REDUCE_BYTES)))
    — a task per CPU, and no group past a task's budget on even blocks."""
    n = min(len(blocks), max(_cpus(), -(-nbytes // SMALL_REDUCE_BYTES)))
    cuts = [len(blocks) * i // n for i in range(n + 1)]
    return [blocks[a:b] for a, b in zip(cuts, cuts[1:])]


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
