"""The keyed reduce of the dedup family (dqm_ray/state/reduce.py): the
five ops on it give their naive twin's output at K = 1 and at K > 1
with no driver-side collect, and a reduce task that dies is retried or
raises at the call site."""

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from conftest import _first_wins_twin

SPAN_K = 10


def _exact_twin(df: pd.DataFrame) -> pd.DataFrame:
    return df[df["doc_id"].isin(df.groupby("text")["doc_id"].min())]


def _multi_member_twin(df: pd.DataFrame) -> pd.DataFrame:
    return df[df["key"].duplicated(keep=False)]


def _spans_twin(df: pd.DataFrame, k: int) -> pd.DataFrame:
    """Naive span dedup over byte strings: winner per k-gram = the min
    (doc_id, offset) among stride-k anchors of docs >= k bytes; every
    gram of such a doc whose winner is earlier than itself is cut."""
    docs = {d: t.encode() for d, t in zip(df["doc_id"], df["text"])}
    winner = {}
    for d, b in sorted(docs.items()):
        for p in range(0, len(b) - k + 1, k) if len(b) >= k else ():
            winner.setdefault(b[p:p + k], (d, p))
    texts, cuts = [], []
    for d, b in docs.items():
        cover = np.zeros(len(b), bool)
        for p in range(len(b) - k + 1) if len(b) >= k else ():
            if winner.get(b[p:p + k], (d, p)) < (d, p):
                cover[p:p + k] = True
        texts.append(bytes(np.frombuffer(b, np.uint8)[~cover]).decode())
        cuts.append(int(cover.sum()))
    return df.assign(text=texts, n_cut=np.array(cuts, np.int64))


def _sites(boilerplate_twin, paragraphs_twin):
    """what -> (run the op on a Dataset, naive twin of the input frame)."""
    from dqm_ray.functions.boilerplate import remove_boilerplate_lines
    from dqm_ray.functions.dedup import exact_dedup, keep_multi_member_buckets
    from dqm_ray.functions.paragraphs import dedup_paragraphs
    from dqm_ray.functions.spans import dedup_spans

    return {
        "exact_dedup": (exact_dedup, _exact_twin),
        "remove_boilerplate_lines": (
            lambda ds: remove_boilerplate_lines(ds, min_len=10,
                                                min_docs=20),
            lambda df: boilerplate_twin(df, 10, 20)),
        "keep_multi_member_buckets": (
            lambda ds: keep_multi_member_buckets(ds, "key"),
            _multi_member_twin),
        "dedup_paragraphs": (
            lambda ds: dedup_paragraphs(ds.drop_columns(["key"]), sep="\n"),
            lambda df: paragraphs_twin(df, sep="\n")),
        "dedup_spans": (
            lambda ds: dedup_spans(ds.drop_columns(["key"]), k=SPAN_K),
            lambda df: _spans_twin(df.drop(columns=["key"]), SPAN_K)),
    }


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values("doc_id").reset_index(drop=True)


def _collect(ds) -> pd.DataFrame:
    """The rows of ``ds`` with its columns even at 0 rows (Ray Data's
    ``to_pandas`` drops the columns of an all-empty Dataset)."""
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs())).to_pandas()


@pytest.mark.parametrize("dup_rate", [0.0, 0.5, 0.95])
def test_dedup_family_k_parity(ray_session, dup_docs, reduce_at_budget,
                               monkeypatch, boilerplate_twin,
                               paragraphs_twin, dup_rate):
    """Each site runs at K = 1 and at a budget of a third of its partial
    bytes (K = 4) while ``Dataset.to_pandas``, ``iter_batches`` and
    ``groupby`` raise on the driver; both outputs equal the naive
    twin."""
    import ray.data as rd

    from dqm_ray.state.reduce import SMALL_REDUCE_BYTES

    t = dup_docs(600, dup_rate, seed=int(dup_rate * 100) + 2)
    key = pd.util.hash_array(t.column("text").to_numpy(zero_copy_only=False))
    t = t.append_column("key", pa.array(key.view(np.int64)))
    blocks = [t.slice(0, 250), t.slice(250, 250), t.slice(500)]
    df = t.to_pandas()

    def on_driver(*a, **k):
        raise AssertionError("driver-side collect or shuffle")

    for what, (op, twin) in _sites(boilerplate_twin,
                                   paragraphs_twin).items():
        with monkeypatch.context() as m:
            for name in ("to_pandas", "iter_batches", "groupby"):
                m.setattr(rd.Dataset, name, on_driver)
            run = lambda: op(rd.from_arrow(blocks)).materialize()  # noqa
            one, k1, nbytes, _ = reduce_at_budget(SMALL_REDUCE_BYTES, run,
                                                  what)
            four, k4, _, _ = reduce_at_budget(nbytes // 3, run, what)
        assert (k1, k4) == (1, 4), what
        expected = _canon(twin(df))
        for out in (one, four):
            got = _canon(_collect(out))
            pd.testing.assert_frame_equal(got, expected[got.columns],
                                          obj=what)


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
    """A map task of exact_dedup that raises (its block lacks the id
    column) raises at the call as the original exception class, and
    every map task of the call has ended by then."""
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
    with pytest.raises(KeyError):
        exact_dedup(rd.from_arrow_refs([bad] + good))
    refs, = waited
    assert len(refs) == 9
    ready, _ = ray.wait(refs, num_returns=len(refs), timeout=0)
    assert len(ready) == len(refs)


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
