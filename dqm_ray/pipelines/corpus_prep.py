"""End-to-end LLM corpus preparation: the round-2 operators composed
into one pipeline with a single equivalent SQL program (the composed
analog of pipelines/docprep.py, which chains the round-1 ops).

Stages, in order:

1. Unicode canonicalization (functions/text.py normalize_text_batch)
   — equivalent byte sequences must be identical before any hashing;
2. cross-doc paragraph dedup, first occurrence wins
   (functions/paragraphs.py) — strips boilerplate shared across docs;
3. quality gate: tokenize the CLEANED text, keep docs with
   >= min_tokens tokens (drops now-empty shells);
4. exact document dedup on cleaned text (functions/dedup.py);
5. domain-mixture epoch resampling (functions/sampling.py)
   keyed on ``lang``;
6. training-sequence packing over the (doc_id, epoch) order
   (functions/scan.py) — global token offsets and seq_id.

Total content passes: normalize+signature (1), clean (2), tokenize/
gate (fused with 2's output), sha256 (3) — everything else moves
counters, signatures or ids. The shuffles are: paragraph-signature
groupby, sha groupby, and the 256-row scan spine. Reference parity:
the reference's chained module pipeline (fake_app_confgen.py module
chain; src/DQMModule.cxx run loop) — here the chain is the corpus
lifecycle itself.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

EPOCH_RADIX = 8  # max ceil(weight) supported by the packing key


def corpus_prep(ds, *, weights: dict, mix_seed: int = 11,
                budget: int = 2048, min_tokens: int = 5,
                lang_col: str = "lang", id_col: str = "doc_id",
                text_col: str = "text"):
    """Run the full prep chain; returns a Dataset with
    (doc_id, lang, epoch, n_tokens, token_offset, seq_id)."""
    from dqm_ray.functions.dedup import exact_dedup
    from dqm_ray.functions.paragraphs import dedup_paragraphs
    from dqm_ray.functions.sampling import mixture_resample
    from dqm_ray.functions.scan import ordered_prefix_sum
    from dqm_ray.functions.text import (normalize_text_batch,
                                        token_count_batch)

    assert all(int(np.ceil(w)) < EPOCH_RADIX for w in weights.values())

    ds = ds.map_batches(normalize_text_batch, batch_format="pyarrow") \
        .drop_columns(["n_chars_norm"])
    ds = dedup_paragraphs(ds, text_col=text_col, id_col=id_col) \
        .drop_columns(["n_kept", "n_dropped"])

    def gate(batch: pa.Table) -> pa.Table:
        batch = token_count_batch(batch, text_col=text_col)
        n = batch.column("n_tokens").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(n >= min_tokens)) \
            .drop_columns(["n_ws_tokens"])

    ds = ds.map_batches(gate, batch_format="pyarrow")
    ds = exact_dedup(ds, text_col=text_col, id_col=id_col)
    ds = ds.drop_columns([text_col])  # content done; ids+counters only
    ds = mixture_resample(ds, key_col=id_col, stratum_col=lang_col,
                          weights=weights, seed=mix_seed)

    def pack_key(batch: pa.Table) -> pa.Table:
        d = batch.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        e = batch.column("epoch").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "_pk", pa.array(d * EPOCH_RADIX + e, pa.int64()))

    out = ordered_prefix_sum(ds.map_batches(pack_key,
                                            batch_format="pyarrow"),
                             order_col="_pk", value_col="n_tokens",
                             out_col="token_offset")

    def seq(batch: pa.Table) -> pa.Table:
        off = batch.column("token_offset") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "seq_id", pa.array(off // budget, pa.int64()))

    return out.map_batches(seq, batch_format="pyarrow") \
        .drop_columns(["_pk"])


def write_training_shards(prep_ds, out_dir: str, *,
                          seqs_per_shard: int = 1024):
    """Materialize corpus_prep output as hive-partitioned training
    shards: ``out_dir/shard=<seq_id // seqs_per_shard>/``. Contiguous
    seq ranges land in the same directory, so a training job reads
    shards in order with no further shuffle, a failed prep run can
    skip already-complete shard directories on rerun, and each shard
    is small enough to re-emit atomically — the flagship's per-shard
    resume contract (pipelines/quality.py: a shard whose output exists
    is skipped) applied to the training-set layout."""
    import pyarrow as pa

    def add_shard(batch: pa.Table) -> pa.Table:
        s = batch.column("seq_id").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "shard", pa.array(s // seqs_per_shard, pa.int64()))

    prep_ds.map_batches(add_shard, batch_format="pyarrow") \
        .write_parquet(out_dir, partition_cols=["shard"])
    return out_dir
