"""Incremental exact dedup against a PERSISTED corpus index.

Production corpora grow by crawls/snapshots: each ingest must drop
documents already present in everything ingested before, without
re-reading the old corpus. The index is the prior corpus reduced to
128-bit content signatures (two independent 64-bit hashes — same
trade as functions/paragraphs.py: collision odds ~2^-128, and text
never leaves its task), hive-bucketed by signature so an ingest
touches each bucket pair exactly once.

Scale shape:

* ``build_dedup_index``: one content pass; writes (h1, h2) bucketed
  by ``bucket_of(h1)`` (sources/bucketed.py — the shared layout hash)
  with an atomic tmp+rename publish; 16 B/doc on disk.
* ``incremental_dedup``: one content pass writes the NEW side's
  (h1, h2, id) signatures into the same bucket layout (24 B/doc, no
  content); then ONE TASK PER BUCKET reads both sides' bucket
  directories and computes survivors = first-occurrence-per-signature
  within new, minus signatures present in the index (vectorized
  pandas drop_duplicates + indicator merge — no per-group Python);
  surviving ids are broadcast sorted (8 B/doc kept) and the content
  stream is filtered by searchsorted membership. Content never enters
  a shuffle; the only all-to-all is the 24 B/doc signature write.

Growing the index after an accepted ingest = appending the new
bucket files to the index layout (same bucket function, so buckets
stay aligned). Reference parity: the flagship's skip-finished-shards
resume (pipelines/quality.py) applied across corpus generations
rather than within one run.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from dqm_ray.sources.bucketed import bucket_of

_H1_KEY = "16fe5057a823cd4c"
_H2_KEY = "c4d23a1807fe65b9"


def text_hash128(texts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h1 = pd.util.hash_array(texts, hash_key=_H1_KEY,
                            categorize=False).view(np.int64)
    h2 = pd.util.hash_array(texts, hash_key=_H2_KEY,
                            categorize=False).view(np.int64)
    return h1, h2


def _signatures(batch: pa.Table, text_col: str, id_col: str | None,
                num_buckets: int) -> pa.Table:
    texts = batch.column(text_col).to_numpy(zero_copy_only=False)
    h1, h2 = text_hash128(texts)
    cols = {"h1": pa.array(h1, pa.int64()),
            "h2": pa.array(h2, pa.int64()),
            "bucket": pa.array(bucket_of(h1, num_buckets), pa.int32())}
    if id_col is not None:
        cols[id_col] = batch.column(id_col)
    return pa.table(cols)


def build_dedup_index(ds, index_dir: str, *, text_col: str = "text",
                      num_buckets: int = 32) -> str:
    """One content pass -> bucketed signature index; atomic publish."""
    tmp = index_dir + f".tmp{os.getpid()}"

    def sig(batch: pa.Table) -> pa.Table:
        return _signatures(batch, text_col, None, num_buckets)

    ds.map_batches(sig, batch_format="pyarrow", num_cpus=1) \
        .write_parquet(tmp, partition_cols=["bucket"])
    # publish: swap the old generation aside, rename in, then delete
    # (os.replace cannot overwrite a non-empty directory)
    old = index_dir + f".old{os.getpid()}"
    if os.path.isdir(index_dir):
        os.replace(index_dir, old)
    os.replace(tmp, index_dir)
    if os.path.isdir(old):
        import shutil

        shutil.rmtree(old)
    return index_dir


def incremental_dedup(ds, index_dir: str, *, text_col: str = "text",
                      id_col: str = "doc_id", num_buckets: int = 32,
                      workdir: str | None = None):
    """Keep rows of ``ds`` whose text is (a) absent from the index and
    (b) the first occurrence (min id) within ``ds``. Returns the
    filtered Dataset (all input columns)."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from dqm_ray.state.broadcast import Broadcast

    # pid-suffixed default: two concurrent ingests against the same
    # index must not rmtree/replace each other's layouts mid-read
    workdir = workdir or (index_dir.rstrip("/")
                          + f"_ingest.{os.getpid()}")
    tmp = workdir + f".tmp{os.getpid()}"

    def sig(batch: pa.Table) -> pa.Table:
        return _signatures(batch, text_col, id_col, num_buckets)

    ds.map_batches(sig, batch_format="pyarrow", num_cpus=1) \
        .write_parquet(tmp, partition_cols=["bucket"])
    if os.path.isdir(workdir):
        import shutil

        shutil.rmtree(workdir)
    os.replace(tmp, workdir)

    def survivors_one(batch: pa.Table) -> pa.Table:
        out = []
        for i in batch.column("id").to_pylist():
            nb = os.path.join(workdir, f"bucket={i}")
            if not os.path.isdir(nb):
                continue
            new = pads.dataset(nb).to_table().to_pandas()
            new = new.sort_values(id_col).drop_duplicates(["h1", "h2"],
                                                          keep="first")
            ib = os.path.join(index_dir, f"bucket={i}")
            if os.path.isdir(ib):
                idx = pads.dataset(ib).to_table().to_pandas() \
                    .drop_duplicates(["h1", "h2"])
                m = new.merge(idx[["h1", "h2"]], on=["h1", "h2"],
                              how="left", indicator=True)
                new = m[m["_merge"] == "left_only"]
            out.append(new[id_col].to_numpy().astype(np.int64))
        ids = (np.concatenate(out) if out else np.empty(0, np.int64))
        return pa.table({id_col: pa.array(ids, pa.int64())})

    kept = np.sort(np.concatenate(
        [b.column(id_col).to_numpy(zero_copy_only=False)
         for b in rd.range(num_buckets)
         .map_batches(survivors_one, batch_format="pyarrow",
                      batch_size=1, num_cpus=1)
         .iter_batches(batch_size=1 << 16, batch_format="pyarrow")]
        or [np.empty(0, np.int64)]))
    bc = Broadcast(kept)

    def keep_fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        w = bc.value
        pos = np.searchsorted(w, ids)
        mask = (pos < len(w)) & (w[np.minimum(pos, len(w) - 1)] == ids)
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep_fn, batch_format="pyarrow", num_cpus=1)


# ---------------------------------------------------------------------------
# incremental NEAR-dup ingest: a persisted MinHash+LSH band index
# ---------------------------------------------------------------------------

def _sig_lookup(sig_dir: str, want_ids: np.ndarray, id_col: str):
    """Load one sbucket's (id, sig) parquet and return the sig matrix
    rows for ``want_ids`` (ids are unique within a generation)."""
    import pyarrow.dataset as pads

    t = pads.dataset(sig_dir).to_table()
    ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    sig_col = t.column("sig")
    if isinstance(sig_col, pa.ChunkedArray):
        sig_col = sig_col.combine_chunks()
    num_perm = sig_col.type.list_size
    mat = sig_col.flatten().to_numpy(zero_copy_only=False) \
        .reshape(len(t), num_perm)
    order = np.argsort(ids, kind="stable")
    pos = np.searchsorted(ids[order], want_ids)
    return mat[order[pos]]


def _write_minhash_layout(ds, out_dir: str, *, text_col: str,
                          id_col: str, num_buckets: int, params: dict):
    """One content pass -> two hive layouts under ``out_dir``:
    ``bands/bucket=*`` holds slim (id, bucket_key) band rows bucketed
    by bucket_of(bucket_key); ``sigs/sbucket=*`` holds one compact
    (id, sig) row per doc bucketed by bucket_of(id). 16 B x bands +
    8 B x num_perm per doc on disk; content never shuffles."""
    import functools

    from dqm_ray.functions.dedup import _explode_bands, _minhash_doc_fn

    docs = ds.map_batches(
        functools.partial(_minhash_doc_fn, id_col=id_col,
                          text_col=text_col, **params),
        batch_format="pyarrow", num_cpus=1).materialize()

    def band_rows(batch: pa.Table) -> pa.Table:
        t = _explode_bands(batch, id_col=id_col)
        bk = t.column("bucket_key").to_numpy(zero_copy_only=False)
        return t.append_column(
            "bucket", pa.array(bucket_of(bk, num_buckets), pa.int32()))

    docs.map_batches(band_rows, batch_format="pyarrow", num_cpus=1) \
        .write_parquet(os.path.join(out_dir, "bands"),
                       partition_cols=["bucket"])

    def sig_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            id_col: batch.column(id_col),
            "sig": batch.column("sig"),
            "sbucket": pa.array(bucket_of(ids, num_buckets), pa.int32()),
        })

    docs.map_batches(sig_rows, batch_format="pyarrow", num_cpus=1) \
        .write_parquet(os.path.join(out_dir, "sigs"),
                       partition_cols=["sbucket"])


def build_neardup_index(ds, index_dir: str, *, text_col: str = "text",
                        id_col: str = "doc_id", num_buckets: int = 32,
                        num_perm: int = 128, bands: int = 16,
                        shingle_k: int = 5, seed: int = 7) -> str:
    """Persist the MinHash+LSH state of a corpus so later ingests can
    near-dup against it without re-reading the old content — the
    near-dup twin of :func:`build_dedup_index`. Atomic publish."""
    import shutil

    params = dict(num_perm=num_perm, bands=bands, shingle_k=shingle_k,
                  seed=seed)
    tmp = index_dir + f".tmp{os.getpid()}"
    _write_minhash_layout(ds, tmp, text_col=text_col, id_col=id_col,
                          num_buckets=num_buckets, params=params)
    old = index_dir + f".old{os.getpid()}"
    if os.path.isdir(index_dir):
        os.replace(index_dir, old)
    os.replace(tmp, index_dir)
    if os.path.isdir(old):
        shutil.rmtree(old)
    return index_dir


def incremental_neardup(ds, index_dir: str, *, text_col: str = "text",
                        id_col: str = "doc_id", threshold: float = 0.8,
                        num_buckets: int = 32, num_perm: int = 128,
                        bands: int = 16, shingle_k: int = 5,
                        seed: int = 7, workdir: str | None = None):
    """Keep rows of ``ds`` with NO verified near-duplicate (signature
    Jaccard >= ``threshold``) in the persisted index. Within-batch
    near-dups are NOT collapsed (compose minhash_lsh_dedup upstream for
    that); the contract is ingest-vs-corpus, like incremental_dedup.

    Scale shape: one content pass writes the new side's band + sig
    layouts (same bucket function as the index, so buckets align); one
    task per band bucket joins the two slim band files into candidate
    (new, old) pairs; two bounded group stages attach the two
    signatures by their sig buckets (the pair stream carries at most
    one signature at a time); verified dup ids broadcast sorted and
    the content stream filters by membership. Content never shuffles;
    the signature matrices move only for candidate pairs."""
    import shutil

    import pyarrow.dataset as pads
    import ray.data as rd

    from dqm_ray.state.broadcast import Broadcast

    params = dict(num_perm=num_perm, bands=bands, shingle_k=shingle_k,
                  seed=seed)
    # pid-suffixed default: two concurrent ingests against the same
    # index must not rmtree/replace each other's layouts mid-read
    workdir = workdir or (index_dir.rstrip("/")
                          + f"_ingest.{os.getpid()}")
    tmp = workdir + f".tmp{os.getpid()}"
    _write_minhash_layout(ds, tmp, text_col=text_col, id_col=id_col,
                          num_buckets=num_buckets, params=params)
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    os.replace(tmp, workdir)

    def pairs_one(batch: pa.Table) -> pa.Table:
        out_n, out_o = [], []
        for i in batch.column("id").to_pylist():
            nb = os.path.join(workdir, "bands", f"bucket={i}")
            ib = os.path.join(index_dir, "bands", f"bucket={i}")
            if not (os.path.isdir(nb) and os.path.isdir(ib)):
                continue
            new = pads.dataset(nb).to_table().to_pandas()
            idx = pads.dataset(ib).to_table().to_pandas()
            m = new.merge(idx, on="bucket_key", suffixes=("_new", "_old"))
            if len(m):
                p = m[[f"{id_col}_new", f"{id_col}_old"]] \
                    .drop_duplicates()
                out_n.append(p[f"{id_col}_new"].to_numpy(np.int64))
                out_o.append(p[f"{id_col}_old"].to_numpy(np.int64))
        nn = np.concatenate(out_n) if out_n else np.empty(0, np.int64)
        oo = np.concatenate(out_o) if out_o else np.empty(0, np.int64)
        return pa.table({
            "new_id": pa.array(nn, pa.int64()),
            "old_id": pa.array(oo, pa.int64()),
            "sb_new": pa.array(bucket_of(nn, num_buckets), pa.int32()),
        })

    pairs = rd.range(num_buckets).map_batches(
        pairs_one, batch_format="pyarrow", batch_size=1, num_cpus=1)

    def attach_new(t: pa.Table) -> pa.Table:
        sb = int(t.column("sb_new")[0].as_py())
        want = t.column("new_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        mat = _sig_lookup(os.path.join(workdir, "sigs", f"sbucket={sb}"),
                          want, id_col)
        oo = t.column("old_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "new_id": t.column("new_id"),
            "old_id": t.column("old_id"),
            "sig_new": pa.FixedSizeListArray.from_arrays(
                pa.array(mat.ravel(), pa.uint64()), mat.shape[1]),
            "sb_old": pa.array(bucket_of(oo, num_buckets), pa.int32()),
        })

    def verify_old(t: pa.Table) -> pa.Table:
        sb = int(t.column("sb_old")[0].as_py())
        want = t.column("old_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        mat_old = _sig_lookup(
            os.path.join(index_dir, "sigs", f"sbucket={sb}"), want,
            id_col)
        sig_col = t.column("sig_new")
        if isinstance(sig_col, pa.ChunkedArray):
            sig_col = sig_col.combine_chunks()
        mat_new = sig_col.flatten().to_numpy(zero_copy_only=False) \
            .reshape(len(t), mat_old.shape[1])
        # same IEEE compare as the SQL oracle: n_equal / num_perm
        e = (mat_new == mat_old).sum(axis=1) / float(num_perm)
        dup = t.column("new_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)[e >= threshold]
        return pa.table({"new_id": pa.array(np.unique(dup), pa.int64())})

    dup_rows = pairs.groupby("sb_new") \
        .map_groups(attach_new, batch_format="pyarrow") \
        .groupby("sb_old") \
        .map_groups(verify_old, batch_format="pyarrow") \
        .take_all()
    dups = np.sort(np.unique(np.array(
        [r["new_id"] for r in dup_rows], dtype=np.int64)))
    bc = Broadcast(dups)

    def keep_fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        w = bc.value
        if len(w):
            pos = np.searchsorted(w, ids)
            is_dup = (pos < len(w)) & (w[np.minimum(pos, len(w) - 1)]
                                       == ids)
        else:
            is_dup = np.zeros(len(ids), bool)
        return batch.filter(pa.array(~is_dup))

    return ds.map_batches(keep_fn, batch_format="pyarrow", num_cpus=1)


def corpus_diff(old_ds, new_ds, *, id_col: str = "doc_id",
                text_col: str = "text"):
    """Generation diff report: per id, status in
    {added, removed, changed, same} between two corpus snapshots —
    the audit step between ingests (what did this crawl actually do?).

    Scale shape: each side collapses to (id, h1, h2, side) — 25 B/doc,
    content never leaves its map task — and one lexsorted pass per hash
    part keyed on id (:func:`~dqm_ray.state.reduce.keyed_parts`) emits
    the verdicts (ids are unique per side, so runs have length 1 or 2; a
    64-bit-pair hash equality stands in for text equality at the
    documented 2^-128 bound). Returns (id_col, status)."""
    from dqm_ray.state.reduce import keyed_parts

    def sig_side(side: int):
        def f(batch: pa.Table) -> pa.Table:
            texts = batch.column(text_col).to_numpy(zero_copy_only=False)
            h1, h2 = text_hash128(texts)
            ids = batch.column(id_col).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            return pa.table({
                id_col: pa.array(ids, pa.int64()),
                "h1": pa.array(h1, pa.int64()),
                "h2": pa.array(h2, pa.int64()),
                "side": pa.array(np.full(len(ids), side, np.int8)),
            })
        return f

    def verdicts(old: pa.Table, new: pa.Table) -> pa.Table:
        t = pa.concat_tables([old, new])
        ids, side, h1, h2 = (t.column(c).to_numpy()
                             for c in (id_col, "side", "h1", "h2"))
        o = np.lexsort((side, ids))
        ids, side, h1, h2 = ids[o], side[o], h1[o], h2[o]
        first = np.ones(len(ids), bool)
        first[1:] = ids[1:] != ids[:-1]
        starts = np.nonzero(first)[0]
        lens = np.diff(np.r_[starts, len(ids)])
        status = np.empty(len(starts), object)
        solo = lens == 1
        status[solo & (side[starts] == 0)] = "removed"
        status[solo & (side[starts] == 1)] = "added"
        pair = ~solo
        ps = starts[pair]
        same = (h1[ps] == h1[ps + 1]) & (h2[ps] == h2[ps + 1])
        status[pair] = np.where(same, "same", "changed")
        return pa.table({id_col: ids[starts],
                         "status": pa.array(status, pa.string())})

    return keyed_parts([(old_ds, sig_side(0)), (new_ds, sig_side(1))],
                       verdicts, key=id_col, what="corpus_diff")
