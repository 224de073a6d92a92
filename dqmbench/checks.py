"""Output checks for every benchmark pass.

Each checker compares one pass's output with the expected table that
``dqmbench.inputs`` computed independently of the engine (the
``dqm_ray.oracle`` labels for the filter workloads, a naive pandas twin
for the dedup workload) and returns a list of problems; an empty list
means the output is correct. Checkers are pure functions of two Arrow
tables, so the planted-wrong-output tests run without Ray.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

FILTER_KEY = ("repo", "path", "commit")
MAX_REPORTED = 5


def digest(text: str) -> str:
    """sha256 hex of a text's utf-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def column_digests(col) -> list[str]:
    """sha256 hex of every value of a string column, hashed straight
    from the Arrow data buffer (no per-row Python strings)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if arr.null_count:
        raise ValueError("null text in output")
    arr = arr.cast(pa.large_binary())
    offsets = memoryview(arr.buffers()[1]).cast("q")[
        arr.offset:arr.offset + len(arr) + 1]
    data = arr.buffers()[2]
    mv = memoryview(data) if data is not None else memoryview(b"")
    return [hashlib.sha256(mv[offsets[i]:offsets[i + 1]]).hexdigest()
            for i in range(len(arr))]


def _report(problems: list[str], n_bad: int, what: str) -> None:
    if n_bad > MAX_REPORTED:
        problems.append(f"... {n_bad - MAX_REPORTED} more {what}")


def check_filter(expected: pa.Table, output: pa.Table) -> list[str]:
    """Quality-filter output vs oracle labels, per (repo, path, commit):
    the same key set, and equal ``keep``, ``sha256`` of the original
    content, and scrubbed ``content`` (compared by digest)."""
    want = {}
    for row in expected.select([*FILTER_KEY, "keep", "sha256",
                                "scrubbed_digest"]).to_pylist():
        want[(row["repo"], row["path"], row["commit"])] = (
            row["keep"], row["sha256"], row["scrubbed_digest"])
    keys = list(zip(*(output.column(c).to_pylist() for c in FILTER_KEY)))
    keep = output.column("keep").to_pylist()
    sha = output.column("sha256").to_pylist()
    content = column_digests(output.column("content"))
    problems: list[str] = []
    if len(keys) != len(want):
        problems.append(f"{len(keys)} output rows, expected {len(want)}")
    seen = set()
    n_bad = 0
    for key, k, s, c in zip(keys, keep, sha, content):
        ref = want.get(key)
        if ref is None or key in seen:
            what = "unexpected" if ref is None else "duplicate"
            bad = f"{what} row {key}"
        elif (k, s, c) != ref:
            fields = [n for n, a, b in zip(("keep", "sha256", "content"),
                                           (k, s, c), ref) if a != b]
            bad = f"row {key}: wrong {', '.join(fields)}"
        else:
            bad = None
        seen.add(key)
        if bad:
            n_bad += 1
            if n_bad <= MAX_REPORTED:
                problems.append(bad)
    _report(problems, n_bad, "wrong rows")
    missing = len(want.keys() - seen)
    if missing:
        problems.append(f"{missing} expected rows missing")
    return problems


def check_dedup(expected: pa.Table, output: pa.Table) -> list[str]:
    """exact_dedup → remove_boilerplate_lines output vs the naive twin:
    exactly one row per distinct text under its min ``doc_id`` (the
    expected winner set), each with the expected cleaned text (by
    digest) and ``n_removed``."""
    want = {d: (t, n) for d, t, n in zip(
        expected.column("doc_id").to_pylist(),
        expected.column("text_digest").to_pylist(),
        expected.column("n_removed").to_pylist())}
    ids = output.column("doc_id").to_pylist()
    texts = column_digests(output.column("text"))
    removed = output.column("n_removed").to_pylist()
    problems: list[str] = []
    if len(ids) != len(want):
        problems.append(f"{len(ids)} output docs, expected {len(want)} "
                        "distinct texts")
    seen = set()
    n_bad = 0
    for d, t, n in zip(ids, texts, removed):
        ref = want.get(d)
        if ref is None:
            bad = f"doc {d} is not a winner (min doc_id of its text)"
        elif d in seen:
            bad = f"doc {d} emitted twice"
        elif (t, n) != ref:
            bad = (f"doc {d}: wrong "
                   + ("cleaned text" if t != ref[0] else "n_removed"))
        else:
            bad = None
        seen.add(d)
        if bad:
            n_bad += 1
            if n_bad <= MAX_REPORTED:
                problems.append(bad)
    _report(problems, n_bad, "wrong docs")
    missing = sorted(want.keys() - seen)
    if missing:
        problems.append(f"{len(missing)} winners missing, e.g. doc "
                        f"{missing[0]}")
    return problems
