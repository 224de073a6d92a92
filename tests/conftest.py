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


@pytest.fixture
def boilerplate_twin():
    """``boilerplate_twin(df, min_len, min_docs)`` -> expected frame."""
    return _boilerplate_twin


@pytest.fixture
def paragraphs_twin():
    """``paragraphs_twin(df, sep="\\n\\n")`` -> expected frame."""
    return _paragraphs_twin
