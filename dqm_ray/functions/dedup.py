"""Deduplication family — exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Scale shapes (SURVEY §4.2): the heavy step of every variant is ONE
hash-keyed reduce over compact signature rows (ids + 64-bit hashes),
never over content. Signatures are computed vectorized inside
``map_batches``; exact, MinHash, SimHash and embedding near-dup then
reduce on plain Ray tasks over the block refs
(:mod:`dqm_ray.state.reduce`); only candidate band rows carry a MinHash
signature; MinHash's connected components run in one task over its
verified pairs, which never reach the driver.

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
import ray

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
    """MinHash signatures and LSH band bucket keys; ``doc_table`` emits
    one compact (id, sig, bucket_keys) row per document. Permutation
    tables are built once per instance (one per worker process, see
    ``_minhash_stage``)."""

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


_MINHASH_CACHE: dict = {}


def _minhash_stage(**params) -> "MinHashStage":
    key = tuple(sorted(params.items()))
    stage = _MINHASH_CACHE.get(key)
    if stage is None:
        stage = MinHashStage(**params)
        _MINHASH_CACHE[key] = stage
    return stage


def _minhash_doc_fn(batch: pa.Table, **params) -> pa.Table:
    """Task-pool twin of MinHashStage.doc_table (compact per-doc rows)."""
    return _minhash_stage(**params).doc_table(batch)


def _matrix(col) -> np.ndarray:
    """The rows of a list column of equal-length vectors as one
    matrix."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(len(col), -1) if len(col) else flat.reshape(0, 0)


def _explode_bands(batch: pa.Table, *, id_col: str) -> pa.Table:
    """Per-doc rows → slim (id, bucket_key) band rows: 16 B x bands per
    doc (a ``sig`` column is not carried)."""
    bk_col = batch.column("bucket_keys")
    if isinstance(bk_col, pa.ChunkedArray):
        bk_col = bk_col.combine_chunks()
    bands = bk_col.type.list_size
    ids = np.repeat(
        batch.column(id_col).to_numpy(zero_copy_only=False), bands)
    bks = bk_col.flatten().to_numpy(zero_copy_only=False)
    return pa.table({id_col: pa.array(ids),
                     "bucket_key": pa.array(bks, pa.int64())})


def _count_band_keys(batch: pa.Table, *, id_col: str) -> pa.Table:
    return _count_keys(_explode_bands(batch, id_col=id_col),
                       key="bucket_key")


def _candidate_bands(batch: pa.Table, multi: tuple, *,
                     id_col: str) -> pa.Table:
    """The band rows of per-doc ``batch`` whose bucket key is in the
    sorted multi-member keys ``multi[0]``, each with its doc's
    signature: only candidate rows carry the ~1 KB signature."""
    from dqm_ray.state.reduce import sorted_member

    bands = _explode_bands(batch, id_col=id_col)
    rows = np.nonzero(sorted_member(
        multi[0], bands.column("bucket_key").to_numpy()))[0]
    doc = rows // batch.schema.field("bucket_keys").type.list_size
    return bands.take(rows).append_column("sig",
                                          batch.column("sig").take(doc))


def _count_keys(batch: pa.Table, *, key: str) -> pa.Table:
    # 16 B per distinct key per block
    keys, n = np.unique(batch.column(key).to_numpy(), return_counts=True)
    return pa.table({key: pa.array(keys), "n": pa.array(n, pa.int64())})


def _multi_member(partials: pa.Table, *, key: str) -> pa.Table:
    if not partials.num_rows:
        return pa.table({key: pa.array([], pa.int64())})
    import pyarrow.compute as pc

    tot = partials.group_by(key).aggregate([("n", "sum")])
    return tot.filter(pc.greater(tot["n_sum"], 1)).select([key])


# Pairs a near-dup reduce makes and verifies at once: whatever its
# buckets hold, a part's pair memory is one chunk (for MinHash two
# 16 MiB gathers of 128-perm signatures) plus the pairs it keeps. The
# MinHash pair reduce of a K = 1 part of 113.7 MiB (114,675 rows in
# buckets of 2-4, `tools/reduce_sweep.py minhash`, a one-core host)
# peaked at 564-572 MiB VmRSS, 362-371 MiB RssAnon.
PAIR_CHUNK = 1 << 14

# The most representative pairs one MinHash bucket may give: a bucket
# of u distinct signatures gives u(u-1)/2 of them, and no K splits it.
# On one bucket of 5,793 distinct 128-perm signatures (16.8M pairs,
# one core) the pass verified 0.87M pairs/s, so the bound caps one
# bucket at ~19 s of one task; when every pair passes the threshold,
# the kept pairs and their sort add ~0.9 GiB of RssAnon.
MAX_BUCKET_PAIRS = 1 << 24


def _run_pairs(keys: np.ndarray):
    """Index pairs ``(i, j)``, ``i < j``, of every two rows in the same
    run of equal sorted ``keys`` (a bucket), ``PAIR_CHUNK`` at a time:
    row i leads its pairs with the later rows of its run, and one
    searchsorted maps each pair number back to its row, with no loop
    over the buckets and no bucket too large for one chunk."""
    from dqm_ray.state.reduce import run_starts

    sizes = np.diff(np.flatnonzero(np.r_[run_starts(keys), True]))
    after = np.repeat(np.cumsum(sizes), sizes) - np.arange(len(keys)) - 1
    lead = np.cumsum(after) - after  # the number of row i's first pair
    total = int(after.sum())
    for lo in range(0, total, PAIR_CHUNK):
        p = np.arange(lo, min(lo + PAIR_CHUNK, total))
        i = np.searchsorted(lead, p, side="right") - 1
        yield i, i + 1 + p - lead[i]


def _lsh_pairs(ids: np.ndarray, bk: np.ndarray, sig: np.ndarray,
               threshold: float) -> pa.Table:
    """Every star and representative pair of candidate band rows (id,
    bucket key, signature row of ``sig``) with ``est_jaccard`` >=
    ``threshold``, in any order; a doc counts once per bucket. In each
    bucket, docs with equal signatures form a group whose
    representative is its min id: each other member pairs with it at
    1.0 (star), and every two groups pair their representatives, min id
    first, at the share of equal permutations (representative). One
    vectorized pass: the groups are runs of equal records in one stable
    sort of the (bucket key, signature) rows viewed as fixed-width
    records, an exact equality. A bucket of more than
    ``MAX_BUCKET_PAIRS`` representative pairs raises ``ValueError``
    before any is made."""
    from dqm_ray.state.reduce import run_starts

    order = np.lexsort((ids, bk))
    first = order[run_starts(bk[order], ids[order])]
    ids, bk = ids[first], bk[first]
    n, perms = len(first), sig.shape[1]
    # one (bucket key, signature) record per row, the signature copied
    # in slices straight from ``sig``; the estimates read it from here
    rec = np.empty((n, perms + 1), np.uint64)
    rec[:, 0] = bk.view(np.uint64)
    for s in range(0, n, PAIR_CHUNK):
        rec[s:s + PAIR_CHUNK, 1:] = sig[first[s:s + PAIR_CHUNK]]
    # rows are (bucket, id)-sorted and the sort is stable, so a group's
    # first row has its min id; equal neighbours are found a chunk at a
    # time, with no sorted copy of the records
    by_rec = np.argsort(rec.view(np.dtype((np.void, rec.itemsize *
                                           (perms + 1)))).ravel(),
                        kind="stable")
    new = np.ones(n, bool)
    for s in range(1, n, PAIR_CHUNK):
        o = by_rec[s - 1:s + PAIR_CHUNK]
        new[s:s + len(o) - 1] = (rec[o[1:]] != rec[o[:-1]]).any(axis=1)
    rep = by_rec[new]
    rep_of = np.empty(n, np.int64)
    rep_of[by_rec] = rep[np.cumsum(new) - 1]
    star = rep_of != np.arange(n)
    rep = np.sort(rep)  # the groups in (bucket, representative) order
    u = np.diff(np.flatnonzero(np.r_[run_starts(bk[rep]), True]))
    u = int(u.max(initial=0))
    if u * (u - 1) // 2 > MAX_BUCKET_PAIRS:
        raise ValueError(
            f"minhash_lsh_dedup: a bucket of {u} distinct signatures "
            f"gives {u * (u - 1) // 2} representative pairs, past the "
            f"bound of MAX_BUCKET_PAIRS = {MAX_BUCKET_PAIRS}")

    def kept(a, b, est):
        keep = est >= threshold
        return a[keep], b[keep], est[keep]

    out = [kept(ids[rep_of[star]], ids[star], np.ones(int(star.sum())))]
    for left, right in _run_pairs(bk[rep]):
        left, right = rep[left], rep[right]
        out.append(kept(ids[left], ids[right], np.count_nonzero(
            rec[left, 1:] == rec[right, 1:], axis=1) / perms))
    a, b, est = (np.concatenate(c) for c in zip(*out))
    return pa.table({"id_a": pa.array(a, pa.int64()),
                     "id_b": pa.array(b, pa.int64()),
                     "est_jaccard": pa.array(est, pa.float64())})


def _verified_pairs(rows: pa.Table, *, id_col: str,
                    threshold: float) -> pa.Table:
    """Pairs with signature Jaccard >= ``threshold`` among candidate band
    rows (id, bucket_key, sig) that hold every row of each bucket they
    see (:func:`_lsh_pairs`)."""
    if not rows.num_rows:
        return _lsh_pairs(np.zeros(0, np.int64), np.zeros(0, np.int64),
                          np.zeros((0, 0), np.uint64), threshold)
    return _lsh_pairs(rows.column(id_col).to_numpy(),
                      rows.column("bucket_key").to_numpy(),
                      _matrix(rows.column("sig")), threshold)


def min_id_components(id_a: np.ndarray, id_b: np.ndarray):
    """Connected components of the undirected edges ``(id_a[i],
    id_b[i])``: returns ``(nodes, group, rounds)``, every node once in
    ascending order, the min id of its component, and the rounds run.

    Root hooking over dense node indices, so any int64 id works: each
    round hooks the larger root of every edge that joins two roots onto
    the smaller one (``np.minimum.at``), then jumps every pointer to its
    root; it stops when no edge joins two roots. Hooking roots rather
    than labels moves a whole tree per hook, so a long path needs no
    round per link: a shuffled chain of 2M nodes took 14 rounds (~2 s
    on one core)."""
    nodes, dense = np.unique(np.r_[id_a, id_b], return_inverse=True)
    u, v = dense[:len(id_a)], dense[len(id_a):]
    root = np.arange(len(nodes))
    rounds = 0
    while True:
        ru, rv = root[u], root[v]
        cross = ru != rv
        if not cross.any():
            return nodes, nodes[root], rounds
        u, v, ru, rv = u[cross], v[cross], ru[cross], rv[cross]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        rounds += 1


@ray.remote(num_returns=2)
def _pairs_and_groups(value: tuple, id_col: str):
    """The verified pairs (the reduced columns ``value``) as one table,
    and their dup_table: one row per doc in a pair, with the min id of
    its component."""
    pairs = pa.table(dict(zip(["id_a", "id_b", "est_jaccard"], value)))
    nodes, group, _ = min_id_components(value[0], value[1])
    return pairs, pa.table({id_col: pa.array(nodes, pa.int64()),
                            "dup_group": pa.array(group, pa.int64())})


def minhash_lsh_dedup(ds, *, id_col: str = "doc_id", text_col: str = "text",
                      num_perm: int = 128, bands: int = 16, shingle_k: int = 5,
                      threshold: float = 0.8, concurrency=None,
                      batch_size: int = 512):
    """Near-dup detection: shingle → minhash → band → bucket reduce →
    candidate pairs → signature-Jaccard verify → connected components.

    Banding default is 8 rows/band (128 perms / 16 bands) — tuned for
    threshold≈0.8: recall ≈95% at sim 0.8 while only ~6% of sim-0.5
    pairs ever become candidates. 4 rows/band (the textbook example)
    floods buckets on template-heavy corpora where everything is ~50%
    similar: measured 45x slower end-to-end on a 200k-file code corpus.

    Shape (:mod:`dqm_ray.state.reduce`, plain Ray tasks over the
    per-doc blocks; no shuffle, no signature on the driver):
    1. one content pass emits one compact (id, sig, bucket_keys) row
       per doc;
    2. the anti-singleton band filter: per-block (bucket key, count)
       partials reduce to the sorted multi-member bucket keys;
    3. per block, the band rows in a multi-member bucket — at realistic
       dup rates a small share of all band rows — with their doc's
       signature;
    4. one reduce keyed on the bucket key turns those rows into the
       distinct verified (id_a, id_b, est_jaccard) pairs, one
       vectorized pass per part (:func:`_lsh_pairs`), ``PAIR_CHUNK``
       pairs made and verified at a time; a bucket of more than
       ``MAX_BUCKET_PAIRS`` representative pairs raises ``ValueError``;
    5. one task over the pairs, which the reduce left in the object
       store, labels their components (:func:`min_id_components`).
       Only its dup_table reaches the driver.

    Returns (dup_table, pairs): dup_table maps id → group representative
    (min id of its component); only ids in some near-dup component
    appear. pairs is a Dataset of the distinct verified pairs (int64
    id_a < id_b, float64 est_jaccard).
    """
    import ray.data as rd

    from dqm_ray.state.reduce import (dataset_blocks, map_blocks, map_reduce,
                                      reduce_partials)
    from dqm_ray.state.tasks import wait_all

    # elastic task pool with a per-worker-process stage cache (the same
    # amortization as an actor pool — permutation tables built once per
    # worker — without fixed-pool spin-up or sizing; `concurrency`
    # optionally caps it)
    params = dict(id_col=id_col, text_col=text_col, num_perm=num_perm,
                  bands=bands, shingle_k=shingle_k)
    per_doc, empty = dataset_blocks(ds.map_batches(
        functools.partial(_minhash_doc_fn, **params),
        batch_format="pyarrow", batch_size=batch_size, num_cpus=1,
        **({"concurrency": concurrency} if concurrency else {})))
    multi, _ = map_reduce(
        per_doc, functools.partial(_count_band_keys, id_col=id_col),
        functools.partial(_multi_member, key="bucket_key"),
        key="bucket_key", what="minhash_bands", empty=empty)
    cands, meta = map_blocks(
        functools.partial(_candidate_bands, id_col=id_col), per_doc, multi,
        empty=empty)
    value, _ = reduce_partials(
        cands, wait_all(meta),
        functools.partial(_verified_pairs, id_col=id_col,
                          threshold=threshold),
        key="bucket_key", what="minhash_lsh_dedup")
    pairs, dup_table = _pairs_and_groups.remote(value, id_col)
    return ray.get(dup_table), rd.from_arrow_refs([pairs])


def canonical_docs(ds, dup_table: pa.Table, *, id_col: str = "doc_id",
                   text_col: str = "text"):
    """Cluster canonicalization: for every near-dup cluster in
    ``dup_table`` (id → dup_group, e.g. minhash_lsh_dedup's output),
    select the member to KEEP by quality instead of first-wins —
    argmax (quality_score DESC, id ASC) — the curation step that turns
    a dedup pass into a best-copy policy. Returns one row per cluster:
    (dup_group, canonical_id, quality_score, n_members).

    Scale shape: the member→group map broadcasts once (bounded by the
    dup-member count — the same artifact minhash already produced); ONE
    content pass scores only member rows and reduces each block to one
    candidate row per (cluster ∩ block); the final merge is a keyed
    reduce on ``dup_group`` (:func:`~dqm_ray.state.reduce.keyed_parts`:
    vectorized lexsort-first per hash part, no per-tiny-group
    dispatch). Only (group, id, score, n) rows leave the map tasks."""
    from dqm_ray.functions.text import quality_score_batch
    from dqm_ray.state.reduce import keyed_parts, sorted_member

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
        member = sorted_member(m_ids, bids)
        if not member.any():
            return pa.table({
                "dup_group": pa.array([], pa.int64()),
                "cand_id": pa.array([], pa.int64()),
                "cand_score": pa.array([], pa.float64()),
                "n": pa.array([], pa.int64())})
        scored = quality_score_batch(batch.filter(pa.array(member)),
                                     text_col=text_col)
        s = scored.column("quality_score") \
            .to_numpy(zero_copy_only=False)
        sids = bids[member]
        g = m_grp[np.searchsorted(m_ids, sids)]
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
        })

    def reduce_part(t: pa.Table) -> pa.Table:
        g, s, i, n = (t.column(c).to_numpy()
                      for c in ("dup_group", "cand_score", "cand_id", "n"))
        o = np.lexsort((i, -s, g))
        gg, ss, ii, nn = g[o], s[o], i[o], n[o]
        first = np.ones(len(gg), bool)
        first[1:] = gg[1:] != gg[:-1]
        starts = np.nonzero(first)[0]
        return pa.table({
            "dup_group": gg[first],
            "canonical_id": ii[first],
            "quality_score": ss[first],
            "n_members": np.add.reduceat(nn, starts).astype(np.int64)})

    return keyed_parts([(ds, partial)], reduce_part, key="dup_group",
                       what="canonical_docs")


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


def _simhash_bands(batch: pa.Table, *, id_col: str) -> pa.Table:
    """(id, bucket_key, simhash) rows, one per 16-bit block of each
    doc's simhash; the block index is mixed into the bucket key."""
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    h = batch.column("simhash").to_numpy(zero_copy_only=False)
    blocks = [((h >> np.uint64(16 * blk)) & np.uint64(0xFFFF))
              + np.uint64(blk + 1) * np.uint64(0x10000) for blk in range(4)]
    return pa.table({
        id_col: pa.array(np.tile(ids, 4)),
        "bucket_key": pa.array(np.concatenate(blocks).view(np.int64)),
        "simhash": pa.array(np.tile(h, 4), pa.uint64())})


def _hamming_pairs(rows: pa.Table, *, id_col: str,
                   max_hamming: int) -> pa.Table:
    """Pairs within ``max_hamming`` among simhash band rows that hold
    every row of each bucket they see; a doc counts once per bucket.
    Singleton buckets are dropped before the per-bucket loop."""
    out = [(np.zeros(0, np.int64),) * 3]
    if rows.num_rows:
        ids = rows.column(id_col).to_numpy()
        bk = rows.column("bucket_key").to_numpy()
        h = rows.column("simhash").to_numpy()
        order = np.lexsort((ids, bk))
        ids, bk, h = ids[order], bk[order], h[order]
        first = np.r_[True, (ids[1:] != ids[:-1]) | (bk[1:] != bk[:-1])]
        ids, bk, h = ids[first], bk[first], h[first]
        bounds = np.nonzero(np.r_[True, bk[1:] != bk[:-1], True])[0]
        multi = np.diff(bounds) >= 2
        for s, e in zip(bounds[:-1][multi], bounds[1:][multi]):
            ia, ib = np.triu_indices(e - s, k=1)
            x = h[s:e][ia] ^ h[s:e][ib]
            # vectorized popcount via 8-bit lookup over the bytes
            ham = _POPCOUNT[x.view(np.uint8).reshape(len(x), 8)].sum(axis=1)
            m = ham <= max_hamming
            out.append((ids[s:e][ia][m], ids[s:e][ib][m], ham[m]))
    a, b, ham = (np.concatenate(c).astype(np.int64) for c in zip(*out))
    return pa.table({"id_a": a, "id_b": b, "hamming": ham})


def simhash_candidates(ds, *, id_col: str = "doc_id", text_col: str = "text",
                       max_hamming: int = 3):
    """Simhash near-dup candidates via 4-block banding (any pair within
    Hamming ≤ 3 of a 64-bit hash shares at least one identical 16-bit
    block — pigeonhole). One content pass emits the band rows on plain
    Ray tasks over its blocks and one reduce keyed on the bucket key
    emits the pairs (:func:`~dqm_ray.state.reduce.map_reduce`). Returns
    a pandas frame of the distinct pairs: int64 ``id_a`` < ``id_b`` and
    their exact ``hamming`` (0 rows with the same columns when there is
    no pair)."""
    from dqm_ray.state.reduce import dataset_blocks, map_reduce

    groups, empty = dataset_blocks(ds.map_batches(
        functools.partial(simhash_batch, text_col=text_col),
        batch_format="pyarrow").select_columns([id_col, "simhash"]))
    pairs, _ = map_reduce(
        groups, functools.partial(_simhash_bands, id_col=id_col),
        functools.partial(_hamming_pairs, id_col=id_col,
                          max_hamming=max_hamming),
        key="bucket_key", what="simhash_candidates", empty=empty)
    return pd.DataFrame(dict(zip(["id_a", "id_b", "hamming"],
                                 ray.get(pairs))))


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
    higher recall; this is the documented LSH trade-off).

    One content pass emits (id, bucket, embedding) rows per block and
    one reduce keyed on the bucket verifies every pair within each
    bucket (:func:`~dqm_ray.state.reduce.map_reduce`). Returns a pandas
    frame of the distinct pairs: int64 ``id_a`` < ``id_b`` and float64
    ``cosine`` (0 rows with the same columns when there is no pair)."""
    from dqm_ray.state.reduce import dataset_blocks, map_reduce

    groups, empty = dataset_blocks(ds)
    value, _ = map_reduce(
        groups,
        functools.partial(_sign_buckets, id_col=id_col, emb_col=emb_col,
                          planes=planes, seed=seed),
        functools.partial(_cosine_pairs, id_col=id_col, emb_col=emb_col,
                          threshold=threshold),
        key="bucket", what="embedding_near_dup", empty=empty)
    return pd.DataFrame(dict(zip(["id_a", "id_b", "cosine"],
                                 ray.get(value))))


def _sign_buckets(batch: pa.Table, *, id_col: str, emb_col: str,
                  planes: int, seed: int) -> pa.Table:
    """(id, bucket, embedding) rows: the bucket packs the signs of the
    embedding's dot with ``planes`` seeded random hyperplanes."""
    emb = _matrix(batch.column(emb_col))
    h = np.random.default_rng(seed).standard_normal((emb.shape[1], planes))
    signs = (emb @ h) > 0
    return pa.table({
        id_col: batch.column(id_col),
        "bucket": pa.array((signs.astype(np.int64)
                            << np.arange(planes)).sum(axis=1)),
        emb_col: batch.column(emb_col)})


def _cosine_pairs(rows: pa.Table, *, id_col: str, emb_col: str,
                  threshold: float) -> pa.Table:
    """Pairs with cosine >= ``threshold`` among (id, bucket, embedding)
    rows that hold every row of each bucket they see: every two rows of
    a bucket (:func:`_run_pairs`, a chunk at a time), the dot of their
    unit vectors."""
    out = [(np.zeros(0, np.int64),) * 2 + (np.zeros(0),)]
    if rows.num_rows:
        ids = rows.column(id_col).to_numpy()
        bucket = rows.column("bucket").to_numpy()
        order = np.lexsort((ids, bucket))
        ids, bucket = ids[order], bucket[order]
        emb = _matrix(rows.column(emb_col)).astype(np.float64)[order]
        unit = emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True),
                                1e-12)
        for left, right in _run_pairs(bucket):
            cos = np.einsum("ij,ij->i", unit[left], unit[right])
            keep = cos >= threshold
            out.append((ids[left[keep]], ids[right[keep]], cos[keep]))
    a, b, cos = (np.concatenate(c) for c in zip(*out))
    return pa.table({"id_a": pa.array(a, pa.int64()),
                     "id_b": pa.array(b, pa.int64()),
                     "cosine": pa.array(cos, pa.float64())})
