"""The keyed reduce (dqm_ray/state/reduce.py): the ops on it (the dedup
family, the grouped aggregate) give their naive twin's output at K = 1
and at K > 1 with no driver-side collect, and a reduce task that dies
is retried or raises at the call site."""

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from conftest import _first_wins_twin, _spans_twin, _union_find_groups

SPAN_K = 10


def _exact_twin(df: pd.DataFrame) -> pd.DataFrame:
    return df[df["doc_id"].isin(df.groupby("text")["doc_id"].min())]


def _minhash_twin(df: pd.DataFrame, threshold: float = 0.8) -> pd.DataFrame:
    """Naive twin of minhash_lsh_dedup's dup_table: every pair of docs
    that share a band bucket and whose signatures agree on at least
    ``threshold`` of the permutations is an edge; union-find labels
    each component by its min id."""
    from dqm_ray.functions.dedup import MinHashStage

    stage = MinHashStage()
    sigs = {d: stage.signature(t) for d, t in zip(df["doc_id"], df["text"])}
    keys = stage.bucket_keys(np.stack(list(sigs.values())))
    buckets = {}
    for d, row in zip(sigs, keys):
        for k in row:
            buckets.setdefault(int(k), []).append(int(d))
    edges = {(a, b) for members in buckets.values()
             for a in members for b in members
             if a < b and (sigs[a] == sigs[b]).mean() >= threshold}
    return _union_find_groups(edges)


def _simhash_twin(df: pd.DataFrame, max_hamming: int) -> pd.DataFrame:
    """Naive twin of simhash_candidates: every pair of docs that share
    one of the four 16-bit blocks of their simhash and differ in at
    most ``max_hamming`` bits."""
    from dqm_ray.functions.dedup import simhash_batch

    h = simhash_batch(pa.table({"text": df["text"].tolist()}))["simhash"]
    docs = sorted(zip(df["doc_id"].tolist(), h.to_pylist()))
    rows = []
    for i, (a, ha) in enumerate(docs):
        for b, hb in docs[i + 1:]:
            ham = bin(ha ^ hb).count("1")
            share = any((ha >> s) & 0xFFFF == (hb >> s) & 0xFFFF
                        for s in (0, 16, 32, 48))
            if share and ham <= max_hamming:
                rows.append((a, b, ham))
    return pd.DataFrame(np.array(rows, np.int64).reshape(-1, 3),
                        columns=["id_a", "id_b", "hamming"])


def _byte_histograms():
    """texts -> an 8-dim float32 embedding per text, its bytes counted
    by value mod 8: copies embed equal, other docs close but not equal.
    Built in a function so Ray pickles it by value."""
    def embed(texts) -> np.ndarray:
        return np.stack([
            np.bincount(np.frombuffer(t.encode(), np.uint8) % 8,
                        minlength=8) for t in texts]).astype(np.float32)

    return embed


def _embedded(ds):
    """``ds`` with an ``embedding`` column of :func:`_byte_histograms`
    of its texts."""
    hist = _byte_histograms()

    def embed(batch: pa.Table) -> pa.Table:
        emb = hist(batch["text"].to_pylist())
        return batch.append_column("embedding", pa.FixedSizeListArray
                                   .from_arrays(pa.array(emb.ravel()), 8))

    return ds.map_batches(embed, batch_format="pyarrow")


def _embedding_twin(df: pd.DataFrame, threshold: float,
                    planes: int) -> pd.DataFrame:
    """Naive twin of embedding_near_dup: every two docs whose embeddings
    have the same signs against the seed-13 hyperplanes and a cosine of
    their unit vectors >= ``threshold``."""
    emb = _byte_histograms()(df["text"]).astype(np.float64)
    h = np.random.default_rng(13).standard_normal((8, planes))
    sign = [tuple(row @ h > 0) for row in emb]
    unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    ids = df["doc_id"].to_numpy()
    rows = [(min(ids[i], ids[j]), max(ids[i], ids[j]),
             float(unit[i] @ unit[j]))
            for i in range(len(ids)) for j in range(i + 1, len(ids))
            if sign[i] == sign[j] and unit[i] @ unit[j] >= threshold]
    return pd.DataFrame({
        "id_a": np.array([r[0] for r in rows], np.int64),
        "id_b": np.array([r[1] for r in rows], np.int64),
        "cosine": np.array([r[2] for r in rows], np.float64)})


def _sites(boilerplate_twin, paragraphs_twin):
    """what -> (run the op on a Dataset, naive twin of the input frame)."""
    from dqm_ray.functions.boilerplate import remove_boilerplate_lines
    from dqm_ray.functions.dedup import (embedding_near_dup, exact_dedup,
                                         minhash_lsh_dedup,
                                         simhash_candidates)
    from dqm_ray.functions.paragraphs import dedup_paragraphs
    from dqm_ray.functions.spans import dedup_spans

    return {
        "exact_dedup": (exact_dedup, _exact_twin),
        "remove_boilerplate_lines": (
            lambda ds: remove_boilerplate_lines(ds, min_len=10,
                                                min_docs=20),
            lambda df: boilerplate_twin(df, 10, 20)),
        "dedup_paragraphs": (
            lambda ds: dedup_paragraphs(ds, sep="\n"),
            lambda df: paragraphs_twin(df, sep="\n")),
        "dedup_spans": (
            lambda ds: dedup_spans(ds, k=SPAN_K),
            lambda df: _spans_twin(df, SPAN_K)),
        "minhash_lsh_dedup": (
            lambda ds: minhash_lsh_dedup(ds)[0].to_pandas(),
            _minhash_twin),
        # these inputs have no pair at Hamming 1-4 (only exact copies
        # at 0, then 5 and up), so 8 puts pairs on both sides of the cut
        "simhash_candidates": (
            lambda ds: simhash_candidates(ds, max_hamming=8),
            lambda df: _simhash_twin(df, max_hamming=8)),
        "embedding_near_dup": (
            lambda ds: embedding_near_dup(_embedded(ds), id_col="doc_id",
                                          threshold=0.998, planes=3),
            lambda df: _embedding_twin(df, 0.998, 3)),
    }


# the two ends of dataset_blocks' grouping: every block in one task, and
# one task per block
GROUPINGS = {
    "one group": lambda blocks, nbytes: [blocks],
    "one block per group": lambda blocks, nbytes: [[b] for b in blocks],
}


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    by = ["id_a", "id_b"] if "id_a" in df else "doc_id"
    return df.sort_values(by).reset_index(drop=True)


def _collect(out) -> pd.DataFrame:
    """The rows of a Dataset ``out`` with its columns even at 0 rows (Ray
    Data's ``to_pandas`` drops the columns of an all-empty Dataset); a
    frame as it is."""
    import ray

    if isinstance(out, pd.DataFrame):
        return out
    return pa.concat_tables(ray.get(out.to_arrow_refs())).to_pandas()


def test_empty_block_keeps_output_schema(ray_session, dup_docs,
                                         at_k1_and_k4):
    """A 0-row block among the input blocks: at K = 1 and K = 4 every
    output block of the four dedup-family ops, ``sessionize`` and
    ``asof_join`` (a part with no rows too) has the op's columns, so
    the output's Arrow refs concatenate."""
    import ray
    import ray.data as rd

    from dqm_ray.functions.boilerplate import remove_boilerplate_lines
    from dqm_ray.functions.dedup import exact_dedup
    from dqm_ray.functions.joins import asof_join
    from dqm_ray.functions.paragraphs import dedup_paragraphs
    from dqm_ray.functions.spans import dedup_spans
    from dqm_ray.functions.windows import sessionize

    t = dup_docs(400, 0.5, seed=9)
    docs = [t.slice(0, 200), t.slice(0, 0), t.slice(200)]
    rng = np.random.default_rng(9)
    ev = pa.table({
        "user_id": pa.array(rng.integers(0, 3, 300), pa.int64()),
        "ts": pa.array(rng.integers(0, 10**10, 300), pa.timestamp("us")),
        "event_id": pa.array(np.arange(300), pa.int64())})
    events = [ev.slice(0, 150), ev.slice(0, 0), ev.slice(150)]
    ops = {
        "exact_dedup": lambda: exact_dedup(rd.from_arrow(docs)),
        "remove_boilerplate_lines": lambda: remove_boilerplate_lines(
            rd.from_arrow(docs), min_len=10, min_docs=20),
        "dedup_paragraphs": lambda: dedup_paragraphs(rd.from_arrow(docs),
                                                     sep="\n"),
        "dedup_spans": lambda: dedup_spans(rd.from_arrow(docs), k=SPAN_K),
        "sessionize": lambda: sessionize(rd.from_arrow(events)),
        "asof_join": lambda: asof_join(rd.from_arrow(events),
                                       rd.from_arrow(events[::-1]),
                                       by="user_id", on="ts"),
    }
    for what, op in ops.items():
        for out in at_k1_and_k4(op, what):
            tables = ray.get(out.to_arrow_refs())
            assert all(b.num_columns for b in tables), what
            assert len(pa.concat_tables(tables)) == out.count(), what


@pytest.mark.parametrize("dup_rate", [0.0, 0.5, 0.95])
def test_dedup_family_k_parity(ray_session, dup_docs, reduce_at_budget,
                               monkeypatch, boilerplate_twin,
                               paragraphs_twin, dup_rate):
    """Each site runs at K = 1 and at a budget of a third of its partial
    bytes (K = 4) on blocks with a 0-row and a 0-column one among them,
    with all blocks in one group and with one block per group, while
    ``Dataset.to_pandas``, ``iter_batches`` and ``groupby`` raise on the
    driver; all four outputs equal the naive twin (for
    minhash_lsh_dedup its dup_table, for simhash_candidates its
    pairs)."""
    import ray.data as rd

    import dqm_ray.state.reduce as reduce_mod
    from dqm_ray.state.reduce import SMALL_REDUCE_BYTES

    t = dup_docs(600, dup_rate, seed=int(dup_rate * 100) + 2)
    blocks = [t.slice(0, 250), t.slice(0, 0), t.slice(250, 250),
              pa.table({}), t.slice(500)]
    df = t.to_pandas()

    def on_driver(*a, **k):
        raise AssertionError("driver-side collect or shuffle")

    for what, (op, twin) in _sites(boilerplate_twin,
                                   paragraphs_twin).items():
        expected = _canon(twin(df))
        for grouping, groups in GROUPINGS.items():
            with monkeypatch.context() as m:
                for name in ("to_pandas", "iter_batches", "groupby"):
                    m.setattr(rd.Dataset, name, on_driver)
                m.setattr(reduce_mod, "_groups", groups)
                run = lambda: _materialized(op(rd.from_arrow(blocks)))  # noqa
                one, k1, nbytes, _ = reduce_at_budget(SMALL_REDUCE_BYTES,
                                                      run, what)
                four, k4, _, _ = reduce_at_budget(nbytes // 3, run, what)
            assert (k1, k4) == (1, 4), (what, grouping)
            for out in (one, four):
                got = _canon(_collect(out))
                pd.testing.assert_frame_equal(got, expected[got.columns],
                                              obj=f"{what}, {grouping}")


def test_dedup_family_emptied_input_keeps_schema(ray_session, dup_docs,
                                                 monkeypatch,
                                                 boilerplate_twin,
                                                 paragraphs_twin):
    """An emptied input (every block filtered to 0 rows) gives each site
    0 rows with the columns and types a non-empty input gives, with all
    blocks in one group and with one block per group."""
    import ray.data as rd

    import dqm_ray.state.reduce as reduce_mod

    t = dup_docs(300, 0.5, seed=14)
    blocks = [t.slice(0, 100), t.slice(0, 0), t.slice(100)]
    for what, (op, _) in _sites(boilerplate_twin,
                                paragraphs_twin).items():
        full = _collect(_materialized(op(rd.from_arrow(blocks))))
        for grouping, groups in GROUPINGS.items():
            monkeypatch.setattr(reduce_mod, "_groups", groups)
            emptied = rd.from_arrow(blocks).map_batches(
                lambda b: b.slice(0, 0), batch_format="pyarrow")
            got = _collect(_materialized(op(emptied)))
            assert len(got) == 0 and len(full) > 0, (what, grouping)
            assert got.dtypes.to_dict() == full.dtypes.to_dict(), \
                (what, grouping)


def _materialized(out):
    import ray.data as rd

    return out.materialize() if isinstance(out, rd.Dataset) else out


def _partials():
    """Three partial blocks as ``reduce_partials`` takes them: their
    refs and their ``(rows, bytes)``."""
    import ray

    rng = np.random.default_rng(5)
    tables = [
        pa.table({"key": pa.array(rng.integers(0, 500, 2000), pa.int64()),
                  "n": pa.array(rng.integers(1, 4, 2000), pa.int64())})
        for _ in range(3)]
    return ([ray.put(t) for t in tables],
            [(t.num_rows, t.nbytes) for t in tables])


def _reducers(marker: str = ""):
    """(sum per key, the same with the first attempt that has rows
    exiting its worker, the same exiting on every attempt). Built in a
    function so Ray pickles them by value: workers cannot import a test
    module."""
    def sum_per_key(partials: pa.Table) -> pa.Table:
        if not partials.num_rows:
            return pa.table({"key": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        return partials.group_by("key").aggregate([("n", "sum")]) \
            .rename_columns(["key", "n"])

    def exit_once(partials: pa.Table) -> pa.Table:
        if partials.num_rows and not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)
        return sum_per_key(partials)

    def exit_always(partials: pa.Table) -> pa.Table:
        if partials.num_rows:
            os._exit(1)
        return sum_per_key(partials)

    return sum_per_key, exit_once, exit_always


def test_reduce_task_worker_exit_is_retried(ray_session, reduce_at_budget,
                                            tmp_path):
    """The one reduce task (K = 1), then one part task (K = 4), exits
    its worker on the first attempt; Ray's retry gives the clean run's
    value."""
    import ray

    from dqm_ray.state.reduce import SMALL_REDUCE_BYTES, reduce_partials

    partials, meta = _partials()
    sum_per_key, _, _ = _reducers()
    keys, n = ray.get(reduce_partials(partials, meta, sum_per_key,
                                      key="key", what="clean")[0])
    assert len(keys) == 500 and n.sum() == sum(
        pa.compute.sum(t["n"]).as_py() for t in ray.get(partials))
    nbytes = sum(b for _, b in meta)
    for budget, k in ((SMALL_REDUCE_BYTES, 1), (nbytes // 3, 4)):
        marker = str(tmp_path / f"exited-k{k}")
        _, exit_once, _ = _reducers(marker)
        (ref, rows), got_k, _, _ = reduce_at_budget(
            budget, lambda: reduce_partials(partials, meta, exit_once,
                                            key="key", what="flaky"),
            "flaky")
        assert got_k == k and rows == 6000 and os.path.exists(marker)
        got_keys, got_n = ray.get(ref)
        assert (got_keys == keys).all() and (got_n == n).all()


@pytest.mark.parametrize("k", [1, 4])
def test_reduce_task_failing_every_attempt_raises(ray_session,
                                                  reduce_at_budget, k):
    """A reduce (K = 1) or part task (K = 4) that exits on every attempt
    raises at the reduce_partials call site once Ray's retries run
    out."""
    import ray

    from dqm_ray.state.reduce import SMALL_REDUCE_BYTES, reduce_partials

    partials, meta = _partials()
    _, _, exit_always = _reducers()
    budget = (SMALL_REDUCE_BYTES if k == 1
              else sum(b for _, b in meta) // 3)
    with pytest.raises(ray.exceptions.RayError):
        reduce_at_budget(
            budget, lambda: reduce_partials(partials, meta, exit_always,
                                            key="key", what="dying"),
            "dying")


def test_exact_dedup_binary_key(ray_session, dup_docs, reduce_at_budget):
    """exact_dedup's partials key on the 32-byte sha256: the logged
    partial bytes are at least 35% under those of the same partials
    keyed on the 64-char hex digest, and the output equals the
    first-wins twin at K = 1 and K = 4, null-text group included."""
    import ray.data as rd

    from dqm_ray.functions.dedup import exact_dedup
    from dqm_ray.stages.lineage import sha256_column
    from dqm_ray.state.reduce import SMALL_REDUCE_BYTES

    t = dup_docs(600, 0.5, seed=21)
    texts = t.column("text").to_pylist()
    for i in (0, 7, 300):
        texts[i] = None
    t = t.set_column(1, "text", pa.array(texts, pa.string()))
    blocks = [t.slice(0, 250), t.slice(250, 250), t.slice(500)]
    # the same per-block partials, keyed on the hex digest: one row per
    # distinct text of a block either way
    hex_bytes = sum(
        pa.table({"doc_id": b["doc_id"],
                  "__sha": sha256_column(b["text"].combine_chunks())})
        .group_by("__sha").aggregate([("doc_id", "min")]).nbytes
        for b in blocks)
    run = lambda: exact_dedup(rd.from_arrow(blocks)).materialize()  # noqa
    one, k1, nbytes, _ = reduce_at_budget(SMALL_REDUCE_BYTES, run,
                                          "exact_dedup")
    four, k4, _, _ = reduce_at_budget(nbytes // 3, run, "exact_dedup")
    assert (k1, k4) == (1, 4)
    assert nbytes <= 0.65 * hex_bytes, (nbytes, hex_bytes)
    expected = _canon(_first_wins_twin(t.to_pandas()))
    for out in (one, four):
        pd.testing.assert_frame_equal(_canon(_collect(out)), expected)


def test_wait_all_cancels_siblings_on_first_failure(ray_session, tmp_path):
    """The shared wait loop: the first failed task raises as its original
    class; the other tasks are cancelled and have ended when it
    returns, so none of them writes its file."""
    import ray

    from dqm_ray.state.tasks import wait_all

    @ray.remote
    def sleepy(path):
        # short sleeps: a cancel interrupts a task between bytecodes
        for _ in range(3000):
            time.sleep(0.01)
        open(path, "w").close()

    @ray.remote
    def boom():
        time.sleep(0.5)
        raise KeyError("boom")

    siblings = [sleepy.remote(str(tmp_path / f"s{i}")) for i in range(3)]
    t0 = time.perf_counter()
    with pytest.raises(KeyError):
        wait_all(siblings + [boom.remote()])
    assert time.perf_counter() - t0 < 20
    ready, _ = ray.wait(siblings, num_returns=3, timeout=0)
    assert len(ready) == 3
    with pytest.raises(ray.exceptions.TaskCancelledError):
        ray.get(siblings[0])
    assert not list(tmp_path.iterdir())


def test_exact_dedup_map_task_error_raises_at_call_site(
        ray_session, dup_docs, monkeypatch):
    """A map task of exact_dedup that raises (a block of its group lacks
    the id column) raises at the call as the original exception class,
    and every map task of the call has ended by then: the 9 blocks run
    in 1 group (on 1 CPU), in 3 (on 3 CPUs; the bad block with two good
    ones) and in 9, one per block (on 64 CPUs)."""
    import ray
    import ray.data as rd

    import dqm_ray.state.reduce as reduce_mod
    from dqm_ray.functions.dedup import exact_dedup

    waited = []
    real = reduce_mod.wait_all

    def spy(refs):
        waited.append(list(refs))
        return real(refs)

    monkeypatch.setattr(reduce_mod, "wait_all", spy)
    t = dup_docs(4000, 0.3, seed=4)
    bad = ray.put(t.slice(0, 10).drop_columns(["doc_id"]))
    good = [ray.put(t.slice(i, 500)) for i in range(0, 4000, 500)]
    for cpus, groups in ((1, 1), (3, 3), (64, 9)):
        monkeypatch.setattr(reduce_mod, "_cpus", lambda c=cpus: c)
        waited.clear()
        with pytest.raises(KeyError):
            exact_dedup(rd.from_arrow_refs([bad] + good))
        refs, = waited
        assert len(refs) == groups
        ready, _ = ray.wait(refs, num_returns=len(refs), timeout=0)
        assert len(ready) == len(refs)


def _counting(path: str):
    """A ``map_batches`` UDF that passes its batch on and appends a line
    to ``path`` per call. Built in a function so Ray pickles it by
    value."""
    def count(batch: pa.Table) -> pa.Table:
        with open(path, "a") as f:
            f.write("call\n")
        return batch

    return count


def test_lazy_input_runs_once(ray_session, dup_docs, tmp_path):
    """A lazy input (an upstream ``map_batches`` that counts its calls)
    runs once per block through exact_dedup and through both sides of
    anti_join: the keyed reduce materializes it once and reads its
    schema and bytes from the blocks' metadata, with no second run of
    its first block."""
    import ray.data as rd

    from dqm_ray.functions.dedup import exact_dedup
    from dqm_ray.functions.joins import anti_join

    t = dup_docs(400, 0.5, seed=12)
    blocks = [t.slice(i, 100) for i in range(0, 400, 100)]

    def lazy(name):
        return rd.from_arrow(blocks).map_batches(
            _counting(str(tmp_path / name)), batch_format="pyarrow",
            batch_size=None)

    exact_dedup(lazy("exact"))
    anti_join(lazy("left"), lazy("right"), on="doc_id")
    calls = {p.name: len(p.read_text().splitlines())
             for p in tmp_path.iterdir()}
    assert calls == {"exact": 4, "left": 4, "right": 4}


def test_group_of_blocks_with_differing_types(ray_session):
    """Blocks of one group whose column types differ (a column all null
    in one block is null-typed) give one output block of the unified
    type, as separate blocks did."""
    import ray.data as rd

    from dqm_ray.functions.dedup import exact_dedup
    from dqm_ray.state.reduce import collect

    b1 = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                   "text": ["a b", "a b"], "note": ["x", "y"]})
    b2 = pa.table({"doc_id": pa.array([3, 4], pa.int64()),
                   "text": ["c d", "e f"], "note": pa.nulls(2)})
    out = collect(exact_dedup(rd.from_arrow([b1, b2])).materialize())
    assert out.column("doc_id").to_pylist() == [1, 3, 4]
    assert out.schema.field("note").type == pa.string()


def test_map_task_worker_exit_is_retried(ray_session, dup_docs, tmp_path):
    """A map task whose worker exits on its first attempt (marker file)
    is retried by Ray: the op's output equals a clean run's."""
    import functools

    import ray.data as rd

    from dqm_ray.functions.dedup import (_keep_ids, _min_id_per_sha,
                                         _sha_min_ids)
    from dqm_ray.state.reduce import keyed_reduce_map

    marker = str(tmp_path / "exited")

    def exit_once(batch: pa.Table) -> pa.Table:
        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)
        return _sha_min_ids(batch, text_col="text", id_col="doc_id")

    t = dup_docs(600, 0.5, seed=8)
    ds = rd.from_arrow([t.slice(0, 300), t.slice(300)])
    out = keyed_reduce_map(
        ds, exit_once, functools.partial(_min_id_per_sha, id_col="doc_id"),
        functools.partial(_keep_ids, col="doc_id"), key="__sha",
        what="exact_dedup", fallback=t.schema)
    assert os.path.exists(marker)
    pd.testing.assert_frame_equal(_canon(_collect(out)),
                                  _canon(_first_wins_twin(t.to_pandas())))


def test_oversized_doc_through_exact_then_boilerplate(ray_session, dup_docs,
                                                      boilerplate_twin):
    """One 33.6 MiB doc of 800k lines sits in a block next to small docs,
    and its copy in another block: exact_dedup -> remove_boilerplate_lines
    gives the naive twins' output (the copy goes, and the big doc loses
    its banner lines that are frequent among the winners)."""
    import ray.data as rd

    from dqm_ray.functions.boilerplate import remove_boilerplate_lines
    from dqm_ray.functions.dedup import exact_dedup

    small = dup_docs(200, 0.3, seed=31)
    big = "\n".join(
        f"shared banner line number {i % 12:02d}" if i % 1000 == 0
        else f"line {i:08d} of the one oversized document"
        for i in range(800_000))
    assert len(big) >= 32 << 20
    docs = pa.table({"doc_id": pa.array([10_000, 10_001], pa.int64()),
                     "text": pa.array([big, big], pa.string())})
    blocks = [pa.concat_tables([small.slice(0, 100), docs.slice(0, 1)]),
              pa.concat_tables([docs.slice(1, 1), small.slice(100)])]

    out = remove_boilerplate_lines(exact_dedup(rd.from_arrow(blocks)),
                                   min_len=10, min_docs=20)
    got = _canon(_collect(out))
    expected = boilerplate_twin(
        _first_wins_twin(pa.concat_tables(blocks).to_pandas()), 10, 20)
    assert 10_001 not in set(got["doc_id"])
    assert expected.loc[expected["doc_id"] == 10_000, "n_removed"].item()
    pd.testing.assert_frame_equal(got, _canon(expected))


def test_key_bits_hash_the_whole_value():
    """Keys that differ only past their first 8 bytes, and float, date,
    bool and decimal keys, spread over all four parts of a split."""
    import datetime
    import decimal

    from dqm_ray.state.reduce import _FIB, key_bits

    n = 4000
    cols = [
        pa.chunked_array([[f"user-{i:06d}" for i in range(n)]]),
        pa.chunked_array([[i / 7 for i in range(n)]]),
        pa.chunked_array([[datetime.date(2000, 1, 1)
                           + datetime.timedelta(days=i) for i in range(n)]]),
        pa.chunked_array([[decimal.Decimal(i) / 100 for i in range(n)]]),
    ]
    for col in cols:
        with np.errstate(over="ignore"):
            part = (key_bits(col) * _FIB) >> np.uint64(62)
        share = np.bincount(part.astype(np.int64), minlength=4) / n
        assert share.min() > 0.2, (col.type, share)
    bools = key_bits(pa.chunked_array([[True, False, None]]))
    assert len(set(bools.tolist())) == 3


def test_k_rule_bytes_then_cpus():
    """K keeps every part at or under SMALL_REDUCE_BYTES, and rises
    towards the CPU count only while every part keeps MIN_PART_BYTES."""
    from dqm_ray.state.reduce import MIN_PART_BYTES, SMALL_REDUCE_BYTES
    from dqm_ray.state.reduce import _k_for as k

    assert k(0, 64) == 1
    assert k(2 * MIN_PART_BYTES - 1, 64) == 1
    assert k(2 * MIN_PART_BYTES, 1) == 1
    assert k(2 * MIN_PART_BYTES, 64) == 2
    assert k(8 * MIN_PART_BYTES, 4) == 4
    assert k(8 * MIN_PART_BYTES, 6) == 4
    assert k(8 * MIN_PART_BYTES, 64) == 8
    assert k(SMALL_REDUCE_BYTES, 1) == 1
    assert k(SMALL_REDUCE_BYTES + 1, 1) == 2
    assert k(5 * SMALL_REDUCE_BYTES, 2) == 8


def test_group_rule_bytes_then_cpus(monkeypatch):
    """The blocks run in n = min(blocks, max(CPUs, ceil(bytes /
    SMALL_REDUCE_BYTES))) groups of consecutive blocks, in order, whose
    sizes differ by at most one block."""
    import dqm_ray.state.reduce as reduce_mod
    from dqm_ray.state.reduce import SMALL_REDUCE_BYTES as budget
    from dqm_ray.state.reduce import _groups

    blocks = list(range(9))
    for cpus, nbytes, n in ((1, 0, 1), (1, budget, 1), (1, budget + 1, 2),
                            (4, budget, 4), (4, 6 * budget, 6),
                            (64, 0, 9), (1, 100 * budget, 9)):
        monkeypatch.setattr(reduce_mod, "_cpus", lambda c=cpus: c)
        groups = _groups(blocks, nbytes)
        assert len(groups) == n, (cpus, nbytes)
        assert sum(groups, []) == blocks
        assert max(map(len, groups)) - min(map(len, groups)) <= 1
    assert _groups(["only"], 0) == [["only"]]


def _grouped_input(n: int = 4000, seed: int = 9) -> pa.Table:
    """(a, b, v, w): 70% of rows share a = "hot"; a and b hold nulls."""
    rng = np.random.default_rng(seed)
    a = np.where(rng.random(n) < 0.7, "hot",
                 rng.choice(["x", "y", "z", "null"], n))
    return pa.table({
        "a": pa.array([None if x == "null" else x for x in a], pa.string()),
        "b": pa.array(rng.integers(0, 5, n), pa.int64(),
                      mask=rng.random(n) < 0.05),
        "v": pa.array(rng.integers(-50, 1000, n), pa.int64()),
        "w": pa.array(rng.normal(size=n), pa.float64()),
    })


def _grouped_ops(a_rows: dict):
    """(prep, finish) for the grouped-aggregate tests; ``finish`` adds
    ``a_rows``, the rows of each ``a`` group it holds, and fails unless
    that is every row ``a_rows`` gives. Built in a function so Ray
    pickles them by value."""
    def prep(block: pa.Table) -> pa.Table:
        return pa.table({"a": block["a"], "b": block["b"], "s": block["v"],
                         "lo": block["w"], "hi": block["w"]})

    def finish(t: pa.Table) -> pa.Table:
        per_a = t.group_by("a", use_threads=False).aggregate([("n", "sum")])
        seen = dict(zip(per_a["a"].to_pylist(), per_a["n_sum"].to_pylist()))
        assert all(seen[k] == a_rows[k] for k in seen), (seen, a_rows)
        return t.append_column("a_rows", pa.array(
            [seen[k] for k in t["a"].to_pylist()], pa.int64()))

    return prep, finish


AGGS = {"n": "count", "s": "sum", "lo": "min", "hi": "max"}


def _grouped_twin(df: pd.DataFrame) -> pd.DataFrame:
    df = df.assign(a=df["a"].fillna(NULL))
    out = df.groupby(["a", "b"], dropna=False).agg(
        n=("v", "size"), s=("v", "sum"), lo=("w", "min"), hi=("w", "max")) \
        .reset_index()
    out["a_rows"] = out["a"].map(df["a"].value_counts())
    out["b"] = out["b"].astype("Int64")
    return out


NULL = "<null>"


def _canon_grouped(t: pa.Table) -> pd.DataFrame:
    df = t.to_pandas()
    df["a"] = df["a"].fillna(NULL)
    df["b"] = df["b"].astype("Int64")
    return df.sort_values(["a", "b"], na_position="first",
                          ignore_index=True)


def test_grouped_aggregate_matches_pandas_at_k1_and_k4(ray_session,
                                                       at_k1_and_k4):
    """count, sum, min and max over (a, b) — a hot a, null a and b, 0-row
    blocks between the data — equal pandas' GROUP BY (nulls one group
    each) at K = 1 and K = 4, and ``finish`` sees every row of each a."""
    import ray.data as rd

    from dqm_ray.state.reduce import collect, grouped_aggregate

    t = _grouped_input()
    df = t.to_pandas()
    prep, finish = _grouped_ops({
        None if a == NULL else a: n
        for a, n in df["a"].fillna(NULL).value_counts().items()})
    blocks = [t.slice(0, 0), t.slice(0, 1500), t.slice(0, 0),
              t.slice(1500, 2000), t.slice(3500), t.slice(0, 0)]

    def run():
        return collect(grouped_aggregate(
            rd.from_arrow(blocks), prep, ["a", "b"], AGGS,
            what="grouped_test", finish=finish))

    want = _grouped_twin(df).sort_values(["a", "b"], na_position="first",
                                         ignore_index=True)
    for got in at_k1_and_k4(run, "grouped_test"):
        assert got.schema.types == [pa.string(), pa.int64(), pa.int64(),
                                    pa.int64(), pa.float64(), pa.float64(),
                                    pa.int64()]
        pd.testing.assert_frame_equal(_canon_grouped(got), want[list(
            got.column_names)], check_dtype=False)


def test_grouped_aggregate_empty_input_keeps_schema(ray_session):
    """An emptied input (every block 0 rows) gives 0 rows with the
    schema a non-empty input gives."""
    import ray.data as rd

    from dqm_ray.state.reduce import collect, grouped_aggregate

    t = _grouped_input(200)
    prep, _ = _grouped_ops({})
    full = collect(grouped_aggregate(rd.from_arrow(t), prep, ["a", "b"],
                                     AGGS, what="grouped_full"))
    emptied = rd.from_arrow([t.slice(0, 100), t.slice(100)]).map_batches(
        lambda b: b.slice(0, 0), batch_format="pyarrow")
    none = collect(grouped_aggregate(emptied, prep, ["a", "b"], AGGS,
                                     what="grouped_empty"))
    assert none.num_rows == 0 and full.num_rows > 0
    assert none.schema == full.schema
