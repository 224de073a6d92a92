import collections
import logging
import os
import re
import sys
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# heap-reuse malloc tuning (see bench.py) — workers inherit at spawn
os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", str(1 << 30))
os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", str(1 << 30))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def corpus_table():
    from dqm_ray.corpus import generate_corpus

    return generate_corpus(500, seed=11)


@pytest.fixture(scope="session")
def cfg():
    from dqm_ray.config import QualityConfig

    return QualityConfig()


def _docs_at_dup_rate(n: int, dup_rate: float, seed: int) -> pa.Table:
    """``n`` multi-line docs, ``dup_rate`` of them exact copies of
    others, under shuffled ids. Lines mix per-doc text with a small pool
    of shared banner lines, so boilerplate removal has work too."""
    rng = np.random.default_rng(seed)
    n_src = n - round(n * dup_rate)
    banners = [f"shared banner line number {i:02d}" for i in range(12)]
    texts = []
    for i in range(n_src):
        lines = [f"unique body {i} {rng.integers(1 << 30)}"]
        lines += list(rng.choice(banners, size=rng.integers(0, 4),
                                 replace=False))
        texts.append("\n".join(rng.permutation(lines)))
    texts += [texts[i] for i in rng.integers(0, n_src, n - n_src)]
    texts = [texts[i] for i in rng.permutation(n)]
    return pa.table({"doc_id": pa.array(rng.permutation(n) * 3 + 1,
                                        pa.int64()),
                     "text": pa.array(texts, pa.string())})


@pytest.fixture
def dup_docs():
    """``dup_docs(n, dup_rate, seed)`` -> (doc_id, text) table."""
    return _docs_at_dup_rate


_REDUCE_LOG = re.compile(r"reduce_partials (\S+): k=(\d+) "
                         r"partial_rows=(\d+) partial_bytes=(\d+)")


@pytest.fixture
def reduce_at_budget(monkeypatch, caplog):
    """``reduce_at_budget(budget, fn, what)`` runs ``fn()`` with
    ``SMALL_REDUCE_BYTES = budget`` and returns (output, K, partial
    bytes, seconds), read from the one reduce record of ``what`` that
    ``fn`` logs."""
    import dqm_ray.state.reduce as reduce_mod

    caplog.set_level(logging.INFO, logger="dqm_ray")

    def run(budget: int, fn, what: str):
        monkeypatch.setattr(reduce_mod, "SMALL_REDUCE_BYTES", budget)
        caplog.clear()
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        (k, nbytes), = [
            (int(m.group(2)), int(m.group(4))) for m in
            (_REDUCE_LOG.match(r.getMessage()) for r in caplog.records
             if r.name == "dqm_ray") if m and m.group(1) == what]
        return out, k, nbytes, dt

    return run


@pytest.fixture
def at_k1_and_k4(reduce_at_budget):
    """``at_k1_and_k4(fn, what)`` -> (output at K = 1, output at K = 4):
    ``fn()`` run at the default budget, then at a third of the bytes its
    reduce record of ``what`` logged; both K are read from that
    record."""
    from dqm_ray.state.reduce import SMALL_REDUCE_BYTES

    def run(fn, what: str):
        one, k1, nbytes, _ = reduce_at_budget(SMALL_REDUCE_BYTES, fn, what)
        four, k4, _, _ = reduce_at_budget(nbytes // 3, fn, what)
        assert (k1, k4) == (1, 4), what
        return one, four

    return run


def _boilerplate_twin(df: pd.DataFrame, min_len: int,
                      min_docs: int) -> pd.DataFrame:
    """Naive twin of remove_boilerplate_lines: a line is boilerplate
    iff it has >= ``min_len`` characters and occurs in >= ``min_docs``
    docs (rows); a null text has no lines and stays null."""
    docs_per_line = collections.Counter()
    for t in df["text"]:
        if t is not None:
            docs_per_line.update(set(t.split("\n")))
    boiler = {ln for ln, n in docs_per_line.items()
              if n >= min_docs and len(ln) >= min_len}
    texts, removed = [], []
    for t in df["text"]:
        lines = [] if t is None else t.split("\n")
        kept = [ln for ln in lines if ln not in boiler]
        texts.append(None if t is None else "\n".join(kept))
        removed.append(len(lines) - len(kept))
    return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(), "text": texts,
                         "n_removed": np.array(removed, np.int64)}) \
        .sort_values("doc_id").reset_index(drop=True)


def _first_wins_twin(df: pd.DataFrame) -> pd.DataFrame:
    """Naive twin of exact_dedup: the rows of the min doc_id per distinct
    text, the null texts one group of their own. A Python set, not a
    pandas groupby: pandas compares object keys as C strings, so texts
    that differ only after a NUL ('' and '\\x00') would be one key."""
    seen, winners = set(), []
    for did, t in sorted(zip(df["doc_id"], df["text"]), key=lambda r: r[0]):
        if t not in seen:
            seen.add(t)
            winners.append(did)
    return df[df["doc_id"].isin(winners)]


def _union_find_groups(edges) -> pd.DataFrame:
    """(doc_id, dup_group) for every node of ``edges``, the group being
    the min id of its connected component."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    nodes = sorted(parent)
    return pd.DataFrame({"doc_id": np.array(nodes, np.int64),
                         "dup_group": np.array([find(x) for x in nodes],
                                               np.int64)})


def _paragraphs_twin(df: pd.DataFrame, sep: str = "\n\n") -> pd.DataFrame:
    """Naive twin of dedup_paragraphs: a sequential seen-set over
    (doc_id, paragraph index) order; empty paragraphs never
    participate; a null text has no paragraphs and stays null."""
    seen = set()
    rows = []
    for did, t in sorted(zip(df["doc_id"], df["text"]),
                         key=lambda r: r[0]):
        if t is None:
            rows.append((did, None, 0, 0))
            continue
        kept, nd = [], 0
        for p in t.split(sep):
            if len(p) < 1:
                kept.append(p)
                continue
            if p in seen:
                nd += 1
            else:
                seen.add(p)
                kept.append(p)
        rows.append((did, sep.join(kept), len(kept), nd))
    return pd.DataFrame(rows,
                        columns=["doc_id", "text", "n_kept", "n_dropped"])


def _spans_twin(df: pd.DataFrame, k: int) -> pd.DataFrame:
    """Naive twin of dedup_spans over byte strings: winner per k-gram =
    the min (doc_id, offset) among stride-k anchors of docs >= k bytes;
    every gram of such a doc whose winner is earlier than itself is
    cut, and a character goes if any of its bytes is cut. A null text
    stays null with 0 cut; ``n_cut`` counts the bytes removed."""
    docs = {d: None if t is None else t.encode()
            for d, t in zip(df["doc_id"], df["text"])}
    winner = {}
    for d, b in sorted((d, b) for d, b in docs.items() if b is not None):
        for p in range(0, len(b) - k + 1, k) if len(b) >= k else ():
            winner.setdefault(b[p:p + k], (d, p))
    texts, cuts = [], []
    for d, b in docs.items():
        if b is None:
            texts.append(None)
            cuts.append(0)
            continue
        cover = np.zeros(len(b), bool)
        for p in range(len(b) - k + 1) if len(b) >= k else ():
            if winner.get(b[p:p + k], (d, p)) < (d, p):
                cover[p:p + k] = True
        raw = np.frombuffer(b, np.uint8)
        char = np.cumsum((raw & 0xC0) != 0x80)
        cover = np.isin(char, char[cover])
        texts.append(bytes(raw[~cover]).decode())
        cuts.append(int(cover.sum()))
    return df.assign(text=texts, n_cut=np.array(cuts, np.int64))


@pytest.fixture
def boilerplate_twin():
    """``boilerplate_twin(df, min_len, min_docs)`` -> expected frame."""
    return _boilerplate_twin


@pytest.fixture
def paragraphs_twin():
    """``paragraphs_twin(df, sep="\\n\\n")`` -> expected frame."""
    return _paragraphs_twin


def _bucket_pairs(ids: np.ndarray, sigs: np.ndarray):
    """Star + representative pairs for one bucket (ids ascending): the
    per-bucket loop body that dedup._lsh_pairs vectorizes."""
    nothing = (np.zeros(0, np.int64), np.zeros(0, np.int64),
               np.zeros(0, np.float64))
    if len(ids) < 2:
        return nothing
    uniq, first, inv = np.unique(sigs, axis=0, return_index=True,
                                 return_inverse=True)
    inv = inv.ravel()
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


def _lsh_pairs_twin(ids: np.ndarray, bk: np.ndarray,
                    sig: np.ndarray) -> pd.DataFrame:
    """Naive twin of dedup._lsh_pairs: per bucket, its docs once each in
    id order, then one np.unique over the bucket's signatures; the
    pairs sorted by all columns."""
    out = [(np.zeros(0, np.int64), np.zeros(0, np.int64),
            np.zeros(0, np.float64))]
    for key in np.unique(bk):
        in_bucket = np.flatnonzero(bk == key)
        doc_ids, first = np.unique(ids[in_bucket], return_index=True)
        out.append(_bucket_pairs(doc_ids, sig[in_bucket[first]]))
    a, b, est = (np.concatenate(c) for c in zip(*out))
    return pd.DataFrame({"id_a": a, "id_b": b, "est_jaccard": est}) \
        .sort_values(["id_a", "id_b", "est_jaccard"], ignore_index=True)
