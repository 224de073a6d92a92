"""Seeded benchmark inputs, their expected outputs, and an on-disk cache.

Every input row comes from ``dqm_ray.corpus.generate_corpus``; this
module only selects, re-shards and (for ``filter_unicode``) appends one
non-ASCII comment line. Pattern counts are fixed per workload (largest
remainder over the FIXTURES-F1 weights) so that every seed gives the
same amount of work, while contents, keys and row order follow the
seed.

Expected outputs are computed once per (workload, seed) and cached next
to the inputs under ``dqmbench/.cache``, keyed by workload, seed,
``dqm_ray.corpus.CORPUS_VERSION`` and :data:`GEN_VERSION`:

- ``filter_*``: ``dqm_ray.oracle.label_table`` labels (keep, sha256,
  scrubbed-content digest). ``filter_unicode`` reuses the cached
  ``filter_code`` labels of the same seed and labels only its changed
  rows.
- ``dedup_docs``: a naive pandas/Python twin of ``exact_dedup`` followed
  by ``remove_boilerplate_lines(min_len=10, min_docs=10)``.

Run as ``python3 -m dqmbench.inputs --workload <name> --seed <n>`` from
the repository root to build one cache entry.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import multiprocessing
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from dqmbench.checks import FILTER_KEY, digest

GEN_VERSION = 1  # bump when this module's generation or labels change

WORKLOADS = ("filter_code", "filter_unicode", "dedup_docs")
N_SHARDS = 8
FILTER_ROWS = 2000
UNICODE_ROW_FRAC = 0.01  # per shard, rounded up: every batch non-ASCII
NON_ASCII_LINES = ("# naïve café au lait", "// größe ändern",
                   "/* 日本語のコメント */", "# ☃ déjà vu", "-- Ωmega ≤ ∞")
DOC_ROWS = 6000
DOC_DUP_FRAC = 0.30
DOC_MAX_CHARS = 64 << 10
BOILERPLATE_MIN_LEN = 10
BOILERPLATE_MIN_DOCS = 10
LABEL_WORKERS = 4
LABEL_CHUNKS = 16


def cache_root() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), ".cache")


def entry_dir(workload: str, seed: int) -> str:
    from dqm_ray.corpus import CORPUS_VERSION

    return os.path.join(
        cache_root(), f"{workload}-s{seed}-c{CORPUS_VERSION}-g{GEN_VERSION}")


class Inputs:
    """One cached entry: input shard paths, expected table, input facts."""

    def __init__(self, path: str):
        self.dir = path
        with open(os.path.join(path, "facts.json")) as f:
            self.facts = json.load(f)
        self.paths = [os.path.join(path, "shards", n)
                      for n in self.facts["shards"]]

    def expected(self) -> pa.Table:
        return pq.read_table(os.path.join(self.dir, "expected.parquet"))


def load(workload: str, seed: int) -> Inputs | None:
    path = entry_dir(workload, seed)
    if not os.path.exists(os.path.join(path, "facts.json")):
        return None
    return Inputs(path)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def pattern_targets(n: int, patterns) -> dict[str, int]:
    """Exact per-pattern row counts summing to ``n`` (largest remainder)."""
    names = [p for p, _ in patterns]
    w = np.array([x for _, x in patterns], dtype=np.float64)
    raw = w / w.sum() * n
    counts = np.floor(raw).astype(np.int64)
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[: n - int(counts.sum())]] += 1
    return dict(zip(names, counts.tolist()))


def stratified_corpus(n: int, seed: int, *, exclude=(),
                      max_chars: int | None = None) -> pa.Table:
    """``n`` corpus rows with fixed pattern counts, in seeded order.

    Draws chunks from ``generate_corpus`` (chunk ``k`` uses seed
    ``seed * 1000 + k`` and a disjoint ``row_offset``, so keys stay
    unique) and keeps each pattern's first rows up to its target."""
    from dqm_ray.corpus import PATTERNS, generate_corpus

    targets = pattern_targets(
        n, [p for p in PATTERNS if p[0] not in exclude])
    need = dict(targets)
    chunk = max(256, n // 2)
    parts = []
    for k in range(1000):
        if not any(need.values()):
            break
        t = generate_corpus(chunk, seed=seed * 1000 + k,
                            row_offset=k * chunk)
        pats = t.column("pattern").to_pylist()
        lens = (t.column("content").to_pylist() if max_chars is not None
                else None)
        take = []
        for i, p in enumerate(pats):
            if need.get(p, 0) and (lens is None or len(lens[i]) < max_chars):
                need[p] -= 1
                take.append(i)
        parts.append(t.take(pa.array(take, pa.int64())))
    else:
        raise RuntimeError(f"pattern targets not met after 1000 chunks: {need}")
    table = pa.concat_tables(parts)
    order = np.random.default_rng([seed, 0]).permutation(table.num_rows)
    return table.take(pa.array(order, pa.int64()))


def _write_shards(table: pa.Table, out_dir: str, prefix: str) -> list[str]:
    os.makedirs(os.path.join(out_dir, "shards"))
    per = math.ceil(table.num_rows / N_SHARDS)
    names = []
    for s in range(N_SHARDS):
        name = f"{prefix}_{s:04d}.parquet"
        pq.write_table(table.slice(s * per, per),
                       os.path.join(out_dir, "shards", name))
        names.append(name)
    return names


def _text_facts(texts: list[str], patterns: list[str] | None) -> dict:
    sizes = [len(t.encode("utf-8")) for t in texts]
    total = sum(sizes)
    huge = sum(b for b, p in zip(sizes, patterns or []) if p == "huge")
    return {
        "rows": len(texts),
        "text_bytes": total,
        "text_mb": total / 1e6,
        "huge_byte_share": huge / total if total else 0.0,
        "non_ascii_row_share": sum(not t.isascii() for t in texts)
        / len(texts),
        "distinct": len(set(texts)),
        "dup_rate": 1.0 - len(set(texts)) / len(texts),
    }


def _label_chunk(table: pa.Table) -> list[tuple[bool, str, str]]:
    from dqm_ray.config import QualityConfig
    from dqm_ray.oracle import label_table

    return [(r["keep"], r["sha256"], digest(r["scrubbed_content"]))
            for r in label_table(table, QualityConfig())]


def _filter_expected(table: pa.Table) -> pa.Table:
    """Oracle labels per row. ``label_table`` is a per-row Python loop
    (~4 ms/row, 50 ms on a long-line row), so row chunks are labelled
    in a small spawn pool when this process may use several CPUs."""
    n_chunks = min(LABEL_CHUNKS, table.num_rows)
    per = math.ceil(table.num_rows / max(1, n_chunks))
    chunks = [table.slice(i, per) for i in range(0, table.num_rows, per)]
    workers = min(LABEL_WORKERS, len(os.sched_getaffinity(0)), len(chunks))
    if workers > 1:
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(workers) as pool:
            parts = pool.map(_label_chunk, chunks, chunksize=1)
    else:
        parts = [_label_chunk(c) for c in chunks]
    keep, sha, scrubbed = zip(*[r for part in parts for r in part])
    return pa.table({
        **{c: table.column(c) for c in FILTER_KEY},
        "keep": pa.array(keep, pa.bool_()),
        "sha256": pa.array(sha, pa.string()),
        "scrubbed_digest": pa.array(scrubbed, pa.string()),
    })


def build_filter_code(seed: int, out_dir: str) -> dict:
    corpus = stratified_corpus(FILTER_ROWS, seed)
    patterns = corpus.column("pattern").to_pylist()
    table = corpus.drop_columns(["pattern"])
    expected = _filter_expected(table).append_column(
        "pattern", corpus.column("pattern"))
    pq.write_table(expected, os.path.join(out_dir, "expected.parquet"))
    facts = _text_facts(table.column("content").to_pylist(), patterns)
    facts["shards"] = _write_shards(table, out_dir, "code_files")
    return facts


def build_filter_unicode(seed: int, out_dir: str) -> dict:
    """The ``filter_code`` corpus of the same seed with one non-ASCII
    comment line appended to ``ceil(1%)`` of the rows of every shard,
    so every 8192-row batch leaves the ASCII fast paths."""
    base = ensure("filter_code", seed)
    table = pa.concat_tables(pq.read_table(p) for p in base.paths)
    base_expected = base.expected()
    rng = np.random.default_rng([seed, 1])
    per = math.ceil(table.num_rows / N_SHARDS)
    contents = table.column("content").to_pylist()
    changed = []
    for s in range(N_SHARDS):
        lo, hi = s * per, min(table.num_rows, (s + 1) * per)
        k = math.ceil(UNICODE_ROW_FRAC * (hi - lo))
        for i in sorted(rng.choice(hi - lo, size=k, replace=False)):
            line = NON_ASCII_LINES[int(rng.integers(len(NON_ASCII_LINES)))]
            contents[lo + int(i)] += line + "\n"
            changed.append(lo + int(i))
    table = table.set_column(table.column_names.index("content"), "content",
                             pa.array(contents, pa.large_string()))
    idx = pa.array(changed, pa.int64())
    relabeled = _filter_expected(table.take(idx))
    cols = {}
    for c in ("keep", "sha256", "scrubbed_digest"):
        vals = base_expected.column(c).to_pylist()
        for i, v in zip(changed, relabeled.column(c).to_pylist()):
            vals[i] = v
        cols[c] = pa.array(vals, base_expected.schema.field(c).type)
    expected = pa.table({**{c: table.column(c) for c in FILTER_KEY}, **cols,
                         "pattern": base_expected.column("pattern")})
    pq.write_table(expected, os.path.join(out_dir, "expected.parquet"))
    facts = _text_facts(contents, base_expected.column("pattern").to_pylist())
    facts["changed_rows"] = len(changed)
    facts["shards"] = _write_shards(table, out_dir, "code_files")
    return facts


def dedup_twin(doc_ids: list[int], texts: list[str], *,
               min_len: int = BOILERPLATE_MIN_LEN,
               min_docs: int = BOILERPLATE_MIN_DOCS):
    """Naive twin of exact_dedup → remove_boilerplate_lines: winner =
    min doc_id per distinct text; a line (``\\n`` split) is boilerplate
    iff it has >= ``min_len`` characters and occurs in >= ``min_docs``
    winner docs; kept lines re-join with ``\\n``. Returns (winner ids,
    cleaned texts, removed-line counts), sorted by doc id."""
    import pandas as pd

    df = pd.DataFrame({"doc_id": doc_ids, "text": texts})
    win = df.groupby("text", sort=False)["doc_id"].min().sort_values()
    split = [t.split("\n") for t in win.index]
    docs_per_line = collections.Counter()
    for lines in split:
        docs_per_line.update(set(lines))
    boiler = {ln for ln, n in docs_per_line.items()
              if n >= min_docs and len(ln) >= min_len}
    cleaned, removed = [], []
    for lines in split:
        kept = [ln for ln in lines if ln not in boiler]
        cleaned.append("\n".join(kept))
        removed.append(len(lines) - len(kept))
    return win.to_list(), cleaned, removed


def build_dedup_docs(seed: int, out_dir: str) -> dict:
    """~``DOC_ROWS`` short docs: corpus rows under 64 KiB (no ``huge``
    pattern) plus ``DOC_DUP_FRAC`` planted exact copies, all under a
    seeded permutation of doc ids."""
    n_src = DOC_ROWS - round(DOC_ROWS * DOC_DUP_FRAC)
    src = stratified_corpus(n_src, seed, exclude=("huge",),
                            max_chars=DOC_MAX_CHARS)
    texts = src.column("content").to_pylist()
    rng = np.random.default_rng([seed, 2])
    texts += [texts[i] for i in rng.integers(0, n_src, DOC_ROWS - n_src)]
    texts = [texts[i] for i in rng.permutation(DOC_ROWS)]
    ids = rng.permutation(DOC_ROWS).tolist()
    table = pa.table({"doc_id": pa.array(ids, pa.int64()),
                      "text": pa.array(texts, pa.string())})
    win, cleaned, removed = dedup_twin(ids, texts)
    pq.write_table(pa.table({
        "doc_id": pa.array(win, pa.int64()),
        "text_digest": pa.array([digest(t) for t in cleaned], pa.string()),
        "n_removed": pa.array(removed, pa.int64()),
    }), os.path.join(out_dir, "expected.parquet"))
    facts = _text_facts(texts, None)
    facts["winners"] = len(win)
    facts["lines_removed"] = sum(removed)
    facts["shards"] = _write_shards(table, out_dir, "docs")
    return facts


_GENERATORS = {"filter_code": build_filter_code,
             "filter_unicode": build_filter_unicode,
             "dedup_docs": build_dedup_docs}


def ensure(workload: str, seed: int) -> Inputs:
    """Load the cache entry, building it first if it is missing. The
    entry is built in a scratch directory and renamed into place, so a
    killed build never leaves a half entry behind."""
    found = load(workload, seed)
    if found is not None:
        return found
    final = entry_dir(workload, seed)
    tmp = f"{final}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        facts = _GENERATORS[workload](seed, tmp)
        facts.update(workload=workload, seed=seed, gen_version=GEN_VERSION)
        with open(os.path.join(tmp, "facts.json"), "w") as f:
            json.dump(facts, f, indent=1)
        try:
            os.replace(tmp, final)
        except OSError:  # a concurrent build published first
            if load(workload, seed) is None:
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return Inputs(final)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    ensure(args.workload, args.seed)


if __name__ == "__main__":
    main()
