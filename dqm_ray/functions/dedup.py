"""Deduplication family — exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Scale shapes (SURVEY §4.2): the heavy step of every variant is ONE
hash-keyed ``groupby`` over compact signature rows (ids + 64-bit
hashes), never over content. Signatures are computed vectorized inside
``map_batches``; candidate verification joins only candidate pairs;
connected components run as iterative min-label propagation expressed
with groupbys (driver union-find only when the candidate-pair set is
provably small, which it is at any dup rate worth deduping).

Exact dedup mirrors the reference's frame dedup — first-wins on a key
tuple via a set (include/dqm/ChannelMap.hpp:76-89) — as a per-batch
min-id combine and one keyed reduce of the partials
(:mod:`dqm_ray.state.reduce`).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa

from dqm_ray.partitioning import num_parts as _auto_parts

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """First-wins exact dedup: one row per distinct text, winner = min id.

    Shape (content never enters a shuffle, no per-group Python), on
    plain Ray tasks over ``ds``'s blocks
    (:func:`~dqm_ray.state.reduce.keyed_reduce_map`):
    1. one content pass emits compact (id, binary sha256) rows, combined
       per block to one (min id, sha256) row per distinct text;
    2. :func:`~dqm_ray.state.reduce.reduce_partials` takes the min id
       per sha256 in K sha-keyed parts of plain Ray tasks and leaves the
       sorted winner ids (8 B per DISTINCT text) in the object store —
       no shuffle, nothing collected on the driver;
    3. every block of the original dataset keeps the rows whose id is
       in the winner array (searchsorted in place).

    sha256 as the equality key makes hash-equal ≡ text-equal for any
    realistic corpus (2^128 birthday bound), matching the GROUP BY text
    oracle — a 64-bit hash provably collides near 10^9-10^10 docs. A
    null text is a text of its own: the min id of the null-text docs
    wins. An empty input returns 0 rows with the input's schema.
    Scale bound: the winner array lives in the object store, 8 B x
    distinct docs, and every block reads it zero-copy; past ~10^10
    distinct docs swap step 3 for an id-keyed shuffle join of winners
    against the corpus (one content shuffle) or a sorted-parquet merge.
    """
    from dqm_ray.state.reduce import keyed_reduce_map

    return keyed_reduce_map(
        ds, functools.partial(_sha_min_ids, text_col=text_col,
                              id_col=id_col),
        functools.partial(_min_id_per_sha, id_col=id_col),
        functools.partial(_keep_ids, col=id_col), key="__sha",
        what="exact_dedup",
        fallback=pa.schema([(id_col, pa.int64()), (text_col, pa.string())]))


def _sha_min_ids(batch: pa.Table, *, text_col: str,
                 id_col: str) -> pa.Table:
    from dqm_ray.stages.lineage import sha256_digests

    sha = sha256_digests(batch.column(text_col).combine_chunks())
    mins = pa.table({id_col: batch.column(id_col), "__sha": sha}) \
        .group_by("__sha").aggregate([(id_col, "min")])
    return pa.table({id_col: mins.column(f"{id_col}_min"),
                     "__sha": mins.column("__sha")})


def _min_id_per_sha(partials: pa.Table, *, id_col: str) -> pa.Table:
    if not partials.num_rows:
        return pa.table({"w": pa.array([], pa.int64())})
    mins = partials.group_by("__sha").aggregate([(id_col, "min")])
    return pa.table({"w": mins.column(f"{id_col}_min").cast(pa.int64())})


def _keep_ids(batch: pa.Table, value: tuple, *, col: str) -> pa.Table:
    from dqm_ray.state.reduce import sorted_member

    vals = batch.column(col).to_numpy(zero_copy_only=False)
    return batch.filter(pa.array(sorted_member(value[0], vals)))


def pack_positions(ids: np.ndarray, pos: np.ndarray,
                   pos_bits: int) -> np.ndarray:
    """``(ids << pos_bits) + pos`` in one int64 per element: a global
    position that orders by (id, pos). Ids may be negative (hashes
    viewed as int64). Raises ``ValueError`` when an id is outside
    [-2^(63-pos_bits), 2^(63-pos_bits)) or a position outside
    [0, 2^pos_bits), since either would collide with another doc's
    positions."""
    id_bits = 63 - pos_bits
    if len(ids) and (int(ids.min()) < -(1 << id_bits)
                     or int(ids.max()) >= 1 << id_bits):
        raise ValueError(
            f"ids must lie in [-2^{id_bits}, 2^{id_bits}) to pack "
            f"positions; got [{int(ids.min())}, {int(ids.max())}]")
    if len(pos) and (int(pos.min()) < 0 or int(pos.max()) >= 1 << pos_bits):
        raise ValueError(
            f"positions must lie in [0, 2^{pos_bits}) to pack them; got "
            f"[{int(pos.min())}, {int(pos.max())}]")
    return (ids.astype(np.int64) << pos_bits) + pos


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1

# 8-bit popcount lookup (vectorized Hamming distance)
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                          axis=1).sum(axis=1).astype(np.int64)


def _perm_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    return a, b


def _char_shingle_hashes(text: str, k: int) -> np.ndarray:
    """Per-doc k-gram byte hashes via the same rolling kernel as the
    batch path (used by ngram_jaccard and as the null-row fallback)."""
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    if len(data) < k:
        return np.array([_poly_hash(data)], dtype=np.uint64)
    return np.unique(_rolling_gram_hashes(data, k))


_POLY_P = np.uint64(0x100000001B3)  # FNV-ish odd multiplier


def _poly_hash(b: np.ndarray) -> np.uint64:
    """Polynomial uint64 hash of a short byte segment (matches the
    rolling recurrence for len == k)."""
    h = np.uint64(0)
    with np.errstate(over="ignore"):  # wraparound is the definition
        for x in b.astype(np.uint64):
            h = h * _POLY_P + x
    return h


def _rolling_gram_hashes(data: np.ndarray, k: int) -> np.ndarray:
    """Hash of every k-byte gram of `data` (rolling polynomial, uint64
    wraparound) — one vectorized pass over the raw buffer, no string
    slicing. Same kernel shape as text.fingerprint_batch. In-place
    multiply-add per step: two temporaries total instead of 2k
    buffer-sized allocations. (A log-passes doubling scheme measured
    no faster here — the kernel is memory-bound, ~70 MB/s of text per
    core either way.)"""
    d = data.astype(np.uint64)
    if len(d) < k:
        return np.zeros(0, np.uint64)
    g = d[: len(d) - k + 1].copy()
    for j in range(1, k):
        g *= _POLY_P
        g += d[j: len(d) - k + 1 + j]
    return g


def _multirange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated arange(starts[i], starts[i]+counts[i]) — vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, np.int64)
    cum = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) + np.repeat(
        starts.astype(np.int64) - np.concatenate(([0], cum[:-1])), counts)


def batch_gram_hashes(text, k: int):
    """All k-byte-gram rolling hashes for every doc of a batch, straight
    off the raw utf8 buffer (zero per-doc string slicing). A doc shorter
    than k bytes contributes one whole-doc hash (empty doc → 0), matching
    the SQL oracle's grams CTE. Returns ``(grams, starts, counts)``:
    doc i's grams are ``grams[starts[i] : starts[i] + counts[i]]``
    (duplicates included — callers needing set semantics dedupe)."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    n = len(text)
    empty = (np.zeros(0, np.uint64), np.zeros(0, np.int64),
             np.zeros(0, np.int64))
    if n == 0:
        return empty
    from dqm_ray.stages.rules import string_buffer_view

    view = string_buffer_view(text)
    if view is None:  # null rows present: rare per-doc fallback
        per = []
        for t in text.to_pylist():
            d = np.frombuffer((t or "").encode("utf-8"), dtype=np.uint8)
            per.append(_rolling_gram_hashes(d, k) if len(d) >= k
                       else np.array([_poly_hash(d)], np.uint64))
        counts = np.array([len(p) for p in per], np.int64)
        starts = np.zeros(n, np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        return np.concatenate(per), starts, counts
    data, offs = view
    g = _rolling_gram_hashes(data, k)
    lens = np.diff(offs)
    long_counts = np.maximum(lens - k + 1, 0)
    counts = np.where(lens >= k, long_counts, 1)  # short row: 1 gram
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    allg = np.empty(int(counts.sum()), dtype=np.uint64)
    long_rows = lens >= k
    # gram i of row r lives at g[offs[r] + i] — gather row-major
    allg[_multirange(starts[long_rows], long_counts[long_rows])] = \
        g[_multirange(offs[:-1][long_rows], long_counts[long_rows])]
    for i in np.nonzero(~long_rows)[0]:  # rare: docs shorter than k
        allg[starts[i]] = _poly_hash(data[offs[i]:offs[i + 1]])
    return allg, starts, counts


def minhash_signature(shingle_hashes: np.ndarray, a: np.ndarray,
                      b: np.ndarray) -> np.ndarray:
    """Multiply-add (mod 2^64 wraparound) hashing, min over shingles per
    permutation. The multiply-shift family mixes the high-order bits that
    the min ordering depends on; dropping the Mersenne modulo makes the
    kernel a pure uint64 fused multiply-add (~25x faster than the 2D
    broadcast + modulo formulation)."""
    x = shingle_hashes.astype(np.uint64)
    out = np.empty(len(a), dtype=np.uint64)
    for j in range(len(a)):
        out[j] = (a[j] * x + b[j]).min()
    return out


class MinHashStage:
    """Actor-pool stage: emits (id, band, band_hash) rows — one per LSH
    band per document. Permutation tables built once per actor."""

    def __init__(self, *, id_col: str = "doc_id", text_col: str = "text",
                 num_perm: int = 128, bands: int = 16, shingle_k: int = 5,
                 seed: int = 7):
        assert num_perm % bands == 0
        self.id_col, self.text_col = id_col, text_col
        self.num_perm, self.bands, self.k = num_perm, bands, shingle_k
        self.rows_per_band = num_perm // bands
        self.a, self.b = _perm_params(num_perm, seed)

    def signature(self, text: str) -> np.ndarray:
        return minhash_signature(_char_shingle_hashes(text, self.k),
                                 self.a, self.b)

    def signatures_batch(self, text: pa.Array) -> np.ndarray:
        """Vectorized minhash for a whole batch straight off the raw
        utf8 byte buffer: rolling k-gram hashes for every doc in one
        pass (zero per-doc string slicing — the round-1 CPU bottleneck),
        permutations applied in chunked matrix ops (bounded memory),
        per-doc minima via reduceat over doc segments."""
        if not isinstance(text, (pa.Array, pa.ChunkedArray)):
            text = pa.array(list(text), pa.large_string())
        n = len(text)
        if n == 0:
            return np.zeros((0, self.num_perm), np.uint64)
        allg, starts, counts = batch_gram_hashes(text, self.k)
        # 1D multiply-add + segment-min per permutation (2D broadcast
        # layout measured 25x slower), applied per ~32K-gram doc chunk:
        # num_perm passes over a cache-resident segment instead of the
        # whole gram array, so 32 workers don't saturate DRAM (same fix
        # as the decontam probe; single-core 1.4x, multi-worker more)
        sigs = np.empty((n, self.num_perm), dtype=np.uint64)
        target = 32768
        total = len(allg)
        d0 = 0
        while d0 < n:
            d1 = d0 + 1
            gsum = int(counts[d0])
            while d1 < n and gsum + counts[d1] <= target:
                gsum += int(counts[d1])
                d1 += 1
            g0 = int(starts[d0])
            g1 = int(starts[d1]) if d1 < n else total
            seg = allg[g0:g1]
            segstarts = (starts[d0:d1] - g0).astype(np.int64)
            for j in range(self.num_perm):
                v = self.a[j] * seg + self.b[j]
                sigs[d0:d1, j] = np.minimum.reduceat(v, segstarts)
            d0 = d1
        return sigs

    def bucket_keys(self, sigs: np.ndarray) -> np.ndarray:
        """(n, bands) int64 bucket keys. Band hash = polynomial combine
        of the band's signature rows (uint64 wraparound) —
        SQL-expressible, so the DuckDB oracle can reproduce the exact
        bucketing. The band index is mixed into one combined key: rare
        cross-band collisions only add candidate pairs, which the
        Jaccard verify step filters — never lose true pairs."""
        n = len(sigs)
        band_views = sigs.reshape(n, self.bands, self.rows_per_band)
        band_hash = band_views[:, :, 0].copy()
        for r in range(1, self.rows_per_band):
            band_hash = band_hash * _POLY_P + band_views[:, :, r]
        band_off = (np.arange(self.bands, dtype=np.uint64)
                    * np.uint64(0x9E3779B97F4A7C15))
        return (band_hash + band_off).view(np.int64)

    def doc_table(self, batch: pa.Table) -> pa.Table:
        """One COMPACT row per doc: (id, sig, bucket_keys) — the sig is
        stored once, not once per band (16x smaller materialization than
        band rows with ride-along signatures)."""
        ids = batch.column(self.id_col)
        n = len(batch)
        sigs = self.signatures_batch(
            batch.column(self.text_col).combine_chunks())
        bks = self.bucket_keys(sigs)
        return pa.table({
            self.id_col: ids,
            "sig": pa.FixedSizeListArray.from_arrays(
                pa.array(sigs.ravel(), pa.uint64()), self.num_perm),
            "bucket_keys": pa.FixedSizeListArray.from_arrays(
                pa.array(bks.ravel(), pa.int64()), self.bands),
        })

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        n = len(batch)
        sigs = self.signatures_batch(
            batch.column(self.text_col).combine_chunks())
        bucket_key = self.bucket_keys(sigs).ravel()
        out_ids = np.repeat(ids, self.bands)
        # signature rides along per band row (num_perm × 8 B — compact vs
        # shipping text) so bucket groups can estimate Jaccard locally
        sig_rep = np.repeat(sigs, self.bands, axis=0)
        return pa.table({
            self.id_col: pa.array(out_ids),
            "bucket_key": pa.array(bucket_key, pa.int64()),
            "sig": pa.FixedSizeListArray.from_arrays(
                pa.array(sig_rep.ravel(), pa.uint64()), self.num_perm),
        })


_MINHASH_CACHE: dict = {}


def _minhash_stage(**params) -> "MinHashStage":
    key = tuple(sorted(params.items()))
    stage = _MINHASH_CACHE.get(key)
    if stage is None:
        stage = MinHashStage(**params)
        _MINHASH_CACHE[key] = stage
    return stage


def _minhash_sig_fn(batch: pa.Table, **params) -> pa.Table:
    """Task-pool twin of MinHashStage: stage built once per worker
    process (keyed by params), reused by every task landing there."""
    return _minhash_stage(**params)(batch)


def _minhash_doc_fn(batch: pa.Table, **params) -> pa.Table:
    """Task-pool twin of MinHashStage.doc_table (compact per-doc rows)."""
    return _minhash_stage(**params).doc_table(batch)


def _explode_bands(batch: pa.Table, *, id_col: str,
                   with_sig: bool) -> pa.Table:
    """Per-doc rows → per-band rows. Slim form ships (id, bucket_key)
    only — 16 B x bands per doc through every shuffle; the wide form
    repeats the signature per band (the beyond-broadcast fallback)."""
    bk_col = batch.column("bucket_keys")
    if isinstance(bk_col, pa.ChunkedArray):
        bk_col = bk_col.combine_chunks()
    bands = bk_col.type.list_size
    ids = np.repeat(
        batch.column(id_col).to_numpy(zero_copy_only=False), bands)
    bks = bk_col.flatten().to_numpy(zero_copy_only=False)
    cols = {id_col: pa.array(ids),
            "bucket_key": pa.array(bks, pa.int64())}
    if with_sig:
        sig_col = batch.column("sig")
        if isinstance(sig_col, pa.ChunkedArray):
            sig_col = sig_col.combine_chunks()
        num_perm = sig_col.type.list_size
        mat = sig_col.flatten().to_numpy(zero_copy_only=False) \
            .reshape(len(batch), num_perm)
        rep = np.repeat(mat, bands, axis=0)
        cols["sig"] = pa.FixedSizeListArray.from_arrays(
            pa.array(rep.ravel(), pa.uint64()), num_perm)
    return pa.table(cols)


def keep_multi_member_buckets(ds, key: str):
    """Anti-singleton filter: keep the rows whose ``key`` occurs in more
    than one row. Per-block (key, count) partials are summed by
    :func:`~dqm_ray.state.reduce.reduce_partials` and the sorted
    multi-member keys stay in the object store for the filter tasks.
    This is what makes bucket-grouped pair extraction scale — at
    realistic dup rates almost every bucket is a singleton and never
    reaches the (per-group Python) pair stage."""
    from dqm_ray.state.reduce import keyed_reduce_map

    return keyed_reduce_map(
        ds, functools.partial(_count_keys, key=key),
        functools.partial(_multi_member, key=key),
        functools.partial(_keep_ids, col=key), key=key,
        what="keep_multi_member_buckets",
        fallback=pa.schema([(key, pa.int64())]))


def _count_keys(batch: pa.Table, *, key: str) -> pa.Table:
    # count on the key column alone: 16 B per distinct key per block
    # even when the input rows are wide (e.g. ride-along signatures)
    keys, n = np.unique(batch.column(key).to_numpy(), return_counts=True)
    return pa.table({key: pa.array(keys), "n": pa.array(n, pa.int64())})


def _multi_member(partials: pa.Table, *, key: str) -> pa.Table:
    if not partials.num_rows:
        return pa.table({key: pa.array([], pa.int64())})
    import pyarrow.compute as pc

    tot = partials.group_by(key).aggregate([("n", "sum")])
    return tot.filter(pc.greater(tot["n_sum"], 1)).select([key])


def _bucket_pairs(ids: np.ndarray, sigs: np.ndarray):
    """Star + representative pairs for one bucket (ids ascending)."""
    nothing = (np.zeros(0, np.int64), np.zeros(0, np.int64),
               np.zeros(0, np.float64))
    if len(ids) < 2:
        return nothing
    uniq, first, inv = np.unique(sigs, axis=0, return_index=True,
                                 return_inverse=True)
    rep = ids[first]  # ids ascending → first occurrence = min id of group
    star_mask = np.arange(len(ids)) != first[inv]
    sa, sb = rep[inv][star_mask], ids[star_mask]
    se = np.ones(len(sa), np.float64)
    if len(uniq) >= 2:
        ia, ib = np.triu_indices(len(uniq), k=1)
        est = (uniq[ia] == uniq[ib]).mean(axis=1)
        ra, rb = rep[ia], rep[ib]
        return (np.concatenate([sa, np.minimum(ra, rb)]),
                np.concatenate([sb, np.maximum(ra, rb)]),
                np.concatenate([se, est]))
    return sa, sb, se


def _pairs_from_sorted(ids_all: np.ndarray, bk: np.ndarray,
                       sig_all: np.ndarray) -> pd.DataFrame:
    """Bucket loop over (bucket_key, id)-sorted rows: contiguous numpy
    slices per bucket, one DataFrame out."""
    out_a, out_b, out_e = [], [], []
    if len(ids_all):
        bounds = np.nonzero(np.concatenate(
            ([True], bk[1:] != bk[:-1], [True])))[0]
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s < 2:
                continue
            a, b, est = _bucket_pairs(ids_all[s:e], sig_all[s:e])
            out_a.append(a); out_b.append(b); out_e.append(est)
    if not out_a:
        return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                             "id_b": pd.Series(dtype="int64"),
                             "est_jaccard": pd.Series(dtype="float64")})
    return pd.DataFrame({"id_a": np.concatenate(out_a),
                         "id_b": np.concatenate(out_b),
                         "est_jaccard": np.concatenate(out_e)})


def _pairs_from_part(df: pd.DataFrame, id_col: str) -> pd.DataFrame:
    """Candidate pairs for a whole HASH-PART of buckets in one call —
    many tiny bucket groups per map_groups invocation instead of one
    (per-group dispatch over 10k+ tiny groups is the documented
    many-tiny-groups pathology). Signatures ride along in the rows."""
    df = df.drop_duplicates(subset=["bucket_key", id_col]) \
        .sort_values(["bucket_key", id_col])
    sig_all = np.stack(df["sig"].to_numpy()) if len(df) else \
        np.zeros((0, 0), np.uint64)
    return _pairs_from_sorted(df[id_col].to_numpy(),
                              df["bucket_key"].to_numpy(), sig_all)


def _pairs_from_part_bcast(df: pd.DataFrame, id_col: str,
                           sig_ref) -> pd.DataFrame:
    """Broadcast-signature variant: rows carry only (id, bucket_key);
    each part gathers its signatures from the ray.put (ids, matrix)
    pair — zero-copy plasma views, one searchsorted per part."""
    import ray

    ids_sorted, mat = ray.get(sig_ref)
    df = df.drop_duplicates(subset=["bucket_key", id_col]) \
        .sort_values(["bucket_key", id_col])
    ids_all = df[id_col].to_numpy()
    sig_all = mat[np.searchsorted(ids_sorted, ids_all)] if len(df) else \
        np.zeros((0, 0), np.uint64)
    return _pairs_from_sorted(ids_all, df["bucket_key"].to_numpy(),
                              sig_all)


def connected_components(pairs, *, id_a: str = "id_a", id_b: str = "id_b",
                         num_buckets: int = 32, max_iter: int = 50):
    """Distributed connected components by iterative min-label
    propagation: every round each node adopts the minimum label among
    itself and its neighbors, expressed as a partitioned hash join
    (adjacency x labels, bucket-grouped — no per-node groups) followed by
    ``groupby(node).min(label)``. Converges in O(graph diameter) rounds;
    each round shuffles only compact (node, label) int64 rows, and the
    monotone non-increasing label sum detects convergence with one cheap
    aggregate per round.

    Returns a Dataset (node, label) over every node that appears in
    ``pairs``; label = the component's minimum node id (the same
    representative the driver union-find picks).
    """
    from ray.data.aggregate import Sum

    from dqm_ray.functions.joins import partitioned_hash_join

    def to_adj(batch: pa.Table) -> pa.Table:
        a = batch.column(id_a).to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch.column(id_b).to_numpy(zero_copy_only=False).astype(np.int64)
        # both directions: messages flow to each endpoint
        return pa.table({"nbr": pa.array(np.concatenate([a, b])),
                         "node": pa.array(np.concatenate([b, a]))})

    adj = pairs.map_batches(to_adj, batch_format="pyarrow").materialize()

    def fix_init(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "node": batch.column("node"),
            "label": pc.min_element_wise(batch.column("node"),
                                         batch.column("min(nbr)")),
        })

    # seed = min(self, neighbors): the first propagation round, fused
    labels = adj.groupby("node").min("nbr") \
        .map_batches(fix_init, batch_format="pyarrow").materialize()
    prev_sum = None
    for _ in range(max_iter):
        lab_by_nbr = labels.map_batches(
            lambda t: pa.table({"nbr": t.column("node"),
                                "label": t.column("label")}),
            batch_format="pyarrow")
        msgs = partitioned_hash_join(adj, lab_by_nbr, on="nbr",
                                     num_buckets=num_buckets)
        contrib = msgs.map_batches(
            lambda t: t.select(["node", "label"]), batch_format="pyarrow")
        labels = labels.union(contrib).groupby("node").min("label")
        labels = labels.map_batches(
            lambda t: pa.table({"node": t.column("node"),
                                "label": t.column("min(label)")}),
            batch_format="pyarrow").materialize()
        # overflow-proof exact sum: full-range int64 labels can overflow
        # a single int64 accumulator, so sum the high and low 32-bit
        # halves separately — the pair encodes the exact big-int sum
        def split32(t: pa.Table) -> pa.Table:
            lab = t.column("label").to_numpy(zero_copy_only=False)
            return pa.table({"hi": pa.array(lab >> 32),
                             "lo": pa.array(lab & 0xFFFFFFFF)})
        agg = labels.map_batches(split32, batch_format="pyarrow") \
            .aggregate(Sum("hi", alias_name="hi"),
                       Sum("lo", alias_name="lo"))
        s = (agg["hi"], agg["lo"])
        if s == prev_sum:  # labels non-increasing ⇒ equal sum = converged
            break
        prev_sum = s
    return labels


def minhash_lsh_dedup(ds, *, id_col: str = "doc_id", text_col: str = "text",
                      num_perm: int = 128, bands: int = 16, shingle_k: int = 5,
                      threshold: float = 0.8, concurrency=None,
                      batch_size: int = 512,
                      cc_pair_threshold: int = 2_000_000,
                      broadcast_sig_limit: int = 2_000_000):
    """Near-dup detection: shingle → minhash → band → bucket groupby →
    candidate pairs → signature-Jaccard verify → connected components.

    Banding default is 8 rows/band (128 perms / 16 bands) — tuned for
    threshold≈0.8: recall ≈95% at sim 0.8 while only ~6% of sim-0.5
    pairs ever become candidates. 4 rows/band (the textbook example)
    floods buckets on template-heavy corpora where everything is ~50%
    similar: measured 45x slower end-to-end on a 200k-file code corpus.

    Components run driver-side (union-find) only when the verified pair
    count is ≤ ``cc_pair_threshold``; above it they run through the
    distributed min-label propagation (:func:`connected_components`), so
    the driver never holds an unbounded pair set.

    Returns (dup_table, pairs): dup_table maps id → group representative
    (min id of its component); only ids in some near-dup component appear.
    """
    import ray

    # elastic task pool with a per-worker-process stage cache (the same
    # amortization as an actor pool — permutation tables built once per
    # worker — without fixed-pool spin-up or sizing; `concurrency`
    # optionally caps it). One content pass emits COMPACT per-doc rows
    # (sig stored once, not once per band). At extreme scale, write
    # per_doc to parquet instead of materialize and read twice.
    params = dict(id_col=id_col, text_col=text_col, num_perm=num_perm,
                  bands=bands, shingle_k=shingle_k)
    per_doc = ds.map_batches(
        functools.partial(_minhash_doc_fn, **params),
        batch_format="pyarrow", batch_size=batch_size, num_cpus=1,
        **({"concurrency": concurrency} if concurrency else {})) \
        .materialize()
    n_docs = per_doc.count()

    # ≤ broadcast_sig_limit docs (default 2M ≈ 2 GB at 128 perms): ship
    # ONLY (id, bucket_key) rows through the bucket shuffles and gather
    # signatures per part from one ray.put broadcast — 16 B x bands per
    # doc moves instead of the 1 KB signature per band row (measured 3x
    # end-to-end on a 200k-file corpus). Beyond the limit, fall back to
    # the classic LSH ride-along (sig repeated per band row), which
    # never broadcasts anything doc-proportional.
    broadcast = n_docs <= broadcast_sig_limit
    band_rows = per_doc.map_batches(
        functools.partial(_explode_bands, id_col=id_col,
                          with_sig=not broadcast),
        batch_format="pyarrow")
    band_rows = keep_multi_member_buckets(band_rows, "bucket_key")

    if broadcast:
        ids_parts, sig_parts = [], []
        for b in per_doc.select_columns([id_col, "sig"]) \
                .iter_batches(batch_size=8192, batch_format="pyarrow"):
            ids_parts.append(
                b.column(id_col).to_numpy(zero_copy_only=False))
            sig_col = b.column("sig")
            if isinstance(sig_col, pa.ChunkedArray):
                sig_col = sig_col.combine_chunks()
            sig_parts.append(
                sig_col.flatten().to_numpy(zero_copy_only=False)
                .reshape(len(b), num_perm))
        ids_arr = np.concatenate(ids_parts) if ids_parts else \
            np.zeros(0, np.int64)
        mat = np.concatenate(sig_parts) if sig_parts else \
            np.zeros((0, num_perm), np.uint64)
        order = np.argsort(ids_arr, kind="stable")
        sig_ref = ray.put((ids_arr[order], mat[order]))
        pair_fn = functools.partial(_pairs_from_part_bcast,
                                    id_col=id_col, sig_ref=sig_ref)
    else:
        pair_fn = functools.partial(_pairs_from_part, id_col=id_col)

    def add_part(batch: pa.Table, n_parts: int = _auto_parts()) -> pa.Table:
        k = batch.column("bucket_key").to_numpy(zero_copy_only=False)
        part = (pd.util.hash_array(k.astype(np.int64))
                % n_parts).astype(np.int32)
        return batch.append_column("part", pa.array(part, pa.int32()))

    # co-locate buckets by hash-part (64 groups), extract pairs for a
    # whole part per call — same shuffle volume, none of the per-tiny-
    # group dispatch cost
    pairs = band_rows.map_batches(add_part, batch_format="pyarrow") \
        .groupby("part").map_groups(pair_fn, batch_format="pandas")
    # signature-estimated Jaccard is a pure function of the pair, so the
    # same pair surfacing from several bands carries the same estimate —
    # filter before any dedup/collect
    verified = pairs.map_batches(
        lambda df: df[df["est_jaccard"] >= threshold],
        batch_format="pandas").materialize()
    n_pairs = verified.count()

    if n_pairs > cc_pair_threshold:
        # distributed components; collect only (node, label) — one row
        # per DUPLICATE doc, far smaller than the pair set
        labels = connected_components(verified)
        lab = labels.to_pandas().sort_values("node")
        dup_table = pa.table({
            id_col: pa.array(lab["node"].to_numpy(np.int64)),
            "dup_group": pa.array(lab["label"].to_numpy(np.int64)),
        })
        return dup_table, verified

    pairs_df = verified.to_pandas()
    if len(pairs_df):
        pairs_df = pairs_df.drop_duplicates(["id_a", "id_b"],
                                            ignore_index=True)

    # union-find on the (small) verified pair set
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in zip(pairs_df.get("id_a", []), pairs_df.get("id_b", [])):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    members = sorted({x for p in zip(pairs_df.get("id_a", []),
                                     pairs_df.get("id_b", [])) for x in p})
    rep = {m: find(m) for m in members}
    dup_table = pa.table({
        id_col: pa.array(members, pa.int64()),
        "dup_group": pa.array([rep[m] for m in members], pa.int64()),
    })
    return dup_table, pairs_df


def canonical_docs(ds, dup_table: pa.Table, *, id_col: str = "doc_id",
                   text_col: str = "text",
                   n_parts: int | None = None):
    """Cluster canonicalization: for every near-dup cluster in
    ``dup_table`` (id → dup_group, e.g. minhash_lsh_dedup's output),
    select the member to KEEP by quality instead of first-wins —
    argmax (quality_score DESC, id ASC) — the curation step that turns
    a dedup pass into a best-copy policy. Returns one row per cluster:
    (dup_group, canonical_id, quality_score, n_members).

    Scale shape: the member→group map broadcasts once (bounded by the
    dup-member count — the same artifact minhash already produced); ONE
    content pass scores only member rows and reduces each batch to one
    candidate row per (cluster ∩ batch); the final merge is the 64-way
    hash-part reduce (vectorized lexsort-first per part, no per-tiny-
    group map_groups dispatch). Only (group, id, score, n) rows ever
    shuffle."""
    import ray

    from dqm_ray.functions.text import quality_score_batch

    n_parts = n_parts or _auto_parts()
    mids = dup_table.column(id_col).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    mgrp = dup_table.column("dup_group") \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(mids, kind="stable")
    ref = ray.put((mids[order], mgrp[order]))

    def partial(batch: pa.Table) -> pa.Table:
        m_ids, m_grp = ray.get(ref)
        bids = batch.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if len(m_ids):
            pos = np.minimum(np.searchsorted(m_ids, bids), len(m_ids) - 1)
            member = m_ids[pos] == bids
        else:
            member = np.zeros(len(bids), bool)
        sub = batch.filter(pa.array(member))
        if sub.num_rows == 0:
            return pa.table({
                "dup_group": pa.array([], pa.int64()),
                "cand_id": pa.array([], pa.int64()),
                "cand_score": pa.array([], pa.float64()),
                "n": pa.array([], pa.int64()),
                "part": pa.array([], pa.int32())})
        scored = quality_score_batch(sub, text_col=text_col)
        s = scored.column("quality_score") \
            .to_numpy(zero_copy_only=False)
        sids = bids[member]
        g = m_grp[pos[member]]
        o = np.lexsort((sids, -s, g))     # g, then score desc, then id
        gg, ss, ii = g[o], s[o], sids[o]
        first = np.ones(len(gg), bool)
        first[1:] = gg[1:] != gg[:-1]
        starts = np.nonzero(first)[0]
        n = np.diff(np.r_[starts, len(gg)])
        return pa.table({
            "dup_group": pa.array(gg[first], pa.int64()),
            "cand_id": pa.array(ii[first], pa.int64()),
            "cand_score": pa.array(ss[first], pa.float64()),
            "n": pa.array(n, pa.int64()),
            "part": pa.array((pd.util.hash_array(gg[first])
                              % n_parts).astype(np.int32)),
        })

    def reduce_part(df: pd.DataFrame) -> pd.DataFrame:
        g = df["dup_group"].to_numpy()
        s = df["cand_score"].to_numpy()
        i = df["cand_id"].to_numpy()
        n = df["n"].to_numpy()
        o = np.lexsort((i, -s, g))
        gg, ss, ii, nn = g[o], s[o], i[o], n[o]
        first = np.ones(len(gg), bool)
        first[1:] = gg[1:] != gg[:-1]
        starts = np.nonzero(first)[0]
        tot = np.add.reduceat(nn, starts) if len(starts) else \
            np.empty(0, np.int64)
        return pd.DataFrame({
            "dup_group": gg[first],
            "canonical_id": ii[first],
            "quality_score": ss[first],
            "n_members": tot.astype(np.int64)})

    return ds.map_batches(partial, batch_format="pyarrow", num_cpus=1) \
        .groupby("part") \
        .map_groups(reduce_part, batch_format="pandas")


# ---------------------------------------------------------------------------
# SimHash near-dup
# ---------------------------------------------------------------------------


def _token_poly_hashes(flat: pa.Array) -> np.ndarray:
    """Per-token polynomial byte hash (h = h*P + byte, uint64 wrap) over
    the flat token array's raw buffer — vectorized by byte POSITION
    (iterations = max token length, not token count), and the same
    SQL-expressible family as the k-gram kernel, so the DuckDB oracle
    reproduces simhash bitwise. Empty tokens hash to 0."""
    from dqm_ray.stages.rules import string_buffer_view

    n = len(flat)
    view = string_buffer_view(flat) if n else None
    if view is None:
        return np.array([
            _poly_hash(np.frombuffer((t or "").encode(), np.uint8))
            for t in flat.to_pylist()], dtype=np.uint64) \
            if n else np.zeros(0, np.uint64)
    data, offs = view
    d = data.astype(np.uint64)
    lens = np.diff(offs)
    starts = offs[:-1]
    h = np.zeros(n, dtype=np.uint64)
    for step in range(int(lens.max()) if n else 0):
        m = lens > step
        h[m] = h[m] * _POLY_P + d[starts[m] + step]
    return h


def simhash_batch(batch: pa.Table, *, text_col: str = "text",
                  ngram: int = 3) -> pa.Table:
    """Append a 64-bit SimHash over token n-grams: sign-sum of gram
    hashes. Near-dups have small Hamming distance. Fully vectorized:
    Arrow regex split → flat token hash → rolling n-gram combine →
    reduceat over row segments."""
    import pyarrow.compute as pc

    text = batch.column(text_col).combine_chunks()
    n = len(batch)
    toks = pc.split_pattern_regex(pc.utf8_lower(text), "[^a-z0-9_]+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.flatten()
    # regex split can yield empty-string tokens at row edges; hash anyway
    # (consistent across docs, so it cancels in comparisons)
    th = _token_poly_hashes(flat)
    offsets = np.asarray(toks.offsets, dtype=np.int64)
    counts = np.diff(offsets)

    # rolling n-gram hash over the FLAT token-hash array; grams that
    # straddle row boundaries are masked out below
    P1, P2 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xC2B2AE3D27D4EB4F)
    if len(th) >= ngram:
        g = th[: len(th) - ngram + 1] * P1
        for j in range(1, ngram):
            g = g + th[j: len(th) - ngram + 1 + j] * (P2 ** np.uint64(j))
    else:
        g = np.zeros(0, np.uint64)

    gram_row = np.repeat(np.arange(n), counts)[: len(g)]
    valid = np.zeros(len(g), dtype=bool)
    if len(g):
        # gram starting at flat index i is valid iff i+ngram-1 is in the
        # same row as i
        end_row = np.repeat(np.arange(n), counts)
        idx = np.arange(len(g))
        valid = end_row[np.minimum(idx + ngram - 1, len(end_row) - 1)] == gram_row
        valid &= (idx + ngram - 1) < len(end_row)
    gv, rows = g[valid], gram_row[valid]

    out = np.zeros(n, dtype=np.uint64)
    if len(gv):
        bits = np.unpackbits(gv.view(np.uint8).reshape(-1, 8), axis=1,
                             bitorder="little").astype(np.int64)
        signed = 2 * bits - 1  # (n_grams, 64)
        order = np.argsort(rows, kind="stable")
        rows_s, signed_s = rows[order], signed[order]
        starts = np.searchsorted(rows_s, np.arange(n))
        row_has = np.bincount(rows_s, minlength=n) > 0
        acc = np.zeros((n, 64), dtype=np.int64)
        seg_starts = starts[row_has]
        acc[row_has] = np.add.reduceat(signed_s, seg_starts, axis=0)
        bitvals = (np.uint64(1) << np.arange(64, dtype=np.uint64))
        out = ((acc > 0) * bitvals[None, :]).sum(axis=1).astype(np.uint64)
    return batch.append_column("simhash", pa.array(out, pa.uint64()))


def simhash_candidates(ds, *, id_col: str = "doc_id", text_col: str = "text",
                       max_hamming: int = 3):
    """Simhash near-dup candidates via 4-block banding (any pair within
    Hamming ≤ 3 of a 64-bit hash shares at least one identical 16-bit
    block — pigeonhole). Returns pandas pairs with exact Hamming."""
    sh = ds.map_batches(functools.partial(simhash_batch, text_col=text_col),
                        batch_format="pyarrow")
    sh = sh.select_columns([id_col, "simhash"])

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        h = batch.column("simhash").to_numpy(zero_copy_only=False)
        parts = []
        for blk in range(4):
            block = (h >> np.uint64(16 * blk)) & np.uint64(0xFFFF)
            bucket_key = (block + np.uint64(blk + 1) * np.uint64(0x10000)) \
                .view(np.int64)
            parts.append(pa.table({
                id_col: pa.array(np.asarray(ids)),
                "bucket_key": pa.array(bucket_key, pa.int64()),
                "simhash": pa.array(h),
            }))
        return pa.concat_tables(parts)

    exploded = sh.map_batches(explode, batch_format="pyarrow").materialize()
    exploded = keep_multi_member_buckets(exploded, "bucket_key")

    def add_part(batch: pa.Table, n_parts: int = _auto_parts()) -> pa.Table:
        k = batch.column("bucket_key").to_numpy(zero_copy_only=False)
        part = (pd.util.hash_array(k.astype(np.int64))
                % n_parts).astype(np.int32)
        return batch.append_column("part", pa.array(part, pa.int32()))

    def pairs_part(df: pd.DataFrame) -> pd.DataFrame:
        """All candidate pairs for a hash-part of buckets in one call
        (per-tiny-group map_groups dispatch is the documented
        pathology); per-bucket work is contiguous numpy slices."""
        df = df.drop_duplicates(subset=["bucket_key", id_col]) \
            .sort_values(["bucket_key", id_col])
        ids_all = df[id_col].to_numpy()
        h_all = df["simhash"].to_numpy().astype(np.uint64)
        bk = df["bucket_key"].to_numpy()
        out_a, out_b, out_h = [], [], []
        if len(df):
            bounds = np.nonzero(np.concatenate(
                ([True], bk[1:] != bk[:-1], [True])))[0]
            for s, e in zip(bounds[:-1], bounds[1:]):
                if e - s < 2:
                    continue
                ids, h = ids_all[s:e], h_all[s:e]
                ia, ib = np.triu_indices(len(ids), k=1)
                x = h[ia] ^ h[ib]
                # vectorized popcount via 8-bit lookup over the bytes
                ham = _POPCOUNT[x.view(np.uint8).reshape(len(x), 8)] \
                    .sum(axis=1).astype(np.int64)
                out_a.append(ids[ia]); out_b.append(ids[ib]); out_h.append(ham)
        if not out_a:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64"),
                                 "hamming": pd.Series(dtype="int64")})
        return pd.DataFrame({"id_a": np.concatenate(out_a),
                             "id_b": np.concatenate(out_b),
                             "hamming": np.concatenate(out_h)})

    cand = exploded.map_batches(add_part, batch_format="pyarrow") \
        .groupby("part").map_groups(pairs_part,
                                    batch_format="pandas").to_pandas()
    if len(cand):
        cand = cand.groupby(["id_a", "id_b"], as_index=False)["hamming"].min()
        cand = cand[cand["hamming"] <= max_hamming]
    return cand


# ---------------------------------------------------------------------------
# n-gram Jaccard (exact, for verification of candidate pairs)
# ---------------------------------------------------------------------------


def ngram_jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    sa = set(_char_shingle_hashes(text_a, k).tolist())
    sb = set(_char_shingle_hashes(text_b, k).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


# ---------------------------------------------------------------------------
# embedding-cosine near-dup
# ---------------------------------------------------------------------------


def embedding_near_dup(ds, *, id_col: str = "vec_id",
                       emb_col: str = "embedding",
                       threshold: float = 0.95, planes: int = 12,
                       seed: int = 13):
    """Near-dup by cosine ≥ threshold: random-hyperplane sign buckets
    (LSH) → exact cosine verify within buckets. Vectors are compared only
    inside their sign-bucket (plus nothing else — pairs straddling a
    hyperplane can be missed; raise `planes`/repeat with another seed for
    higher recall; this is the documented LSH trade-off)."""

    def bucketize(batch: pa.Table, planes_ref=None) -> pa.Table:
        emb = np.stack(batch.column(emb_col).to_numpy(zero_copy_only=False))
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((emb.shape[1], planes))
        signs = (emb @ h) > 0
        bucket = np.zeros(len(emb), dtype=np.int64)
        for b in range(planes):
            bucket |= signs[:, b].astype(np.int64) << b
        out = pa.table({
            id_col: batch.column(id_col),
            "bucket": pa.array(bucket),
            emb_col: batch.column(emb_col),
        })
        return out

    bucketed = ds.map_batches(bucketize, batch_format="pyarrow")

    def verify(group: pd.DataFrame) -> pd.DataFrame:
        if len(group) < 2:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64"),
                                 "cosine": pd.Series(dtype="float64")})
        g = group.sort_values(id_col)
        ids = g[id_col].to_numpy()
        emb = np.stack(g[emb_col].to_numpy()).astype(np.float64)
        norm = np.linalg.norm(emb, axis=1, keepdims=True)
        emb = emb / np.maximum(norm, 1e-12)
        sim = emb @ emb.T
        ia, ib = np.triu_indices(len(ids), k=1)
        mask = sim[ia, ib] >= threshold
        return pd.DataFrame({"id_a": ids[ia[mask]], "id_b": ids[ib[mask]],
                             "cosine": sim[ia[mask], ib[mask]]})

    return bucketed.groupby("bucket").map_groups(verify, batch_format="pandas")
