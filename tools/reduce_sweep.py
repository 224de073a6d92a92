"""Measure the keyed reduce's part step (``state.reduce``) as the
bytes grow: wall seconds of the whole reduce, the K it chose, the
output rows and the peak RSS of every task that ran the op's part
function (VmRSS and private RssAnon, sampled every 5 ms from the start
of the call — the task's concatenated parts are already resident then).

It runs synthetic blocks with the schema each op's map tasks emit
(generated inside Ray tasks in 64k-row blocks, 16k for minhash, so the
driver holds none of them) through that op's own part function and key
(``reduce_partials`` for the first three, the part tasks of
``keyed_parts`` for asof_join):

- ``exact_dedup``: (doc_id, 32-byte sha256), a third of the keys
  repeated;
- ``boilerplate``: (h1, h2, n), 2% of the pairs a shared pool;
- ``minhash``: the pair reduce of ``minhash_lsh_dedup`` over candidate
  band rows (doc_id, bucket_key, 128-perm uint64 signature, ~1 KB a
  row) in buckets of 2-4 members, a third of them exact copies and the
  rest differing in 10% or 30% of their permutations. Unlike the other
  two, its output (pairs) can grow faster than its input;
- ``asof_join``: a co-partition site whose parts carry the full rows of
  both sides, as ``asof_prior_view`` projects them: left (event_id,
  user_id, ts), right (event_id, user_id, ts, view_ts), half the blocks
  each, 2^20 users over one year.

One JSON line per measurement. Run one op and one size per process for
a fresh set of workers (worker reuse carries RSS over between runs).

Usage: python tools/reduce_sweep.py OP MIB[,MIB...] [--reps N]
           [--num-cpus N]
"""

from __future__ import annotations

import argparse
import glob
import json
import logging
import os
import re
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import ray  # noqa: E402

BLOCK_ROWS = 1 << 16


def _status() -> dict:
    out = {}
    with open("/proc/self/status") as f:
        for line in f:
            k, _, v = line.partition(":")
            if k in ("VmRSS", "RssAnon"):
                out[k] = int(v.split()[0]) >> 10
    return out


def _sampled(reduce, out_dir: str):
    """``reduce`` plus an RSS sampler thread; each call writes one JSON
    file (pid, rows, start and peak MiB) to ``out_dir``."""
    def run(*tables: pa.Table) -> pa.Table:
        start = _status()
        peak = dict(start)
        stop = threading.Event()

        def sample():
            while not stop.is_set():
                for k, v in _status().items():
                    peak[k] = max(peak[k], v)
                time.sleep(0.005)

        th = threading.Thread(target=sample, daemon=True)
        th.start()
        value = reduce(*tables)
        stop.set()
        th.join()
        for k, v in _status().items():
            peak[k] = max(peak[k], v)
        path = os.path.join(out_dir, f"{os.getpid()}-{time.time_ns()}.json")
        with open(path, "w") as f:
            json.dump({"rows": sum(t.num_rows for t in tables),
                       "out": value.num_rows,
                       "start": start, "peak": peak}, f)
        return value

    return run


def _gen_exact(batch):
    import hashlib

    out = []
    for b in batch["id"]:
        rng = np.random.default_rng(int(b))
        keys = rng.integers(0, 1 << 62, BLOCK_ROWS)
        keys[: BLOCK_ROWS // 3] %= 1 << 16
        sha = [hashlib.sha256(int(k).to_bytes(8, "little")).digest()
               for k in keys]
        out.append(pa.table({
            "doc_id": pa.array(rng.integers(0, 1 << 40, BLOCK_ROWS)),
            "__sha": pa.array(sha, pa.binary(32))}))
    return pa.concat_tables(out)


def _gen_lines(batch):
    out = []
    for b in batch["id"]:
        rng = np.random.default_rng(int(b))
        h1 = rng.integers(-(1 << 62), 1 << 62, BLOCK_ROWS)
        h2 = rng.integers(-(1 << 62), 1 << 62, BLOCK_ROWS)
        shared = BLOCK_ROWS // 50
        h1[:shared] %= 256
        h2[:shared] = h1[:shared] * 7
        out.append(pa.table({
            "h1": pa.array(h1), "h2": pa.array(h2),
            "n": pa.array(rng.integers(1, 3, BLOCK_ROWS))}))
    return pa.concat_tables(out)


def _gen_minhash(batch):
    num_perm = 128
    out = []
    for b in batch["id"]:
        rng = np.random.default_rng(int(b))
        # 16k rows (~16 MiB) a block, so sizes near the budget are reachable
        sizes = rng.integers(2, 5, BLOCK_ROWS // 8)
        sizes = sizes[: np.searchsorted(np.cumsum(sizes), BLOCK_ROWS // 4)]
        bucket = np.repeat(np.arange(len(sizes)), sizes)
        n = len(bucket)
        sig = rng.integers(0, 1 << 63, (len(sizes), num_perm),
                           dtype=np.uint64)[bucket]
        rate = rng.choice([0.0, 0.1, 0.3], n)[:, None]
        edit = rng.random((n, num_perm)) < rate
        sig[edit] = rng.integers(0, 1 << 63, int(edit.sum()), np.uint64)
        out.append(pa.table({
            "doc_id": pa.array(rng.integers(0, 1 << 40, n)),
            "bucket_key": pa.array(rng.integers(-(1 << 62), 1 << 62,
                                                len(sizes))[bucket]),
            "sig": pa.FixedSizeListArray.from_arrays(
                pa.array(sig.ravel(), pa.uint64()), num_perm)}))
    return pa.concat_tables(out)


def _gen_asof(batch):
    """Even ids: a left (click) block; odd ids: a right (view) block."""
    out = []
    for b in batch["id"]:
        rng = np.random.default_rng(int(b))
        ts = pa.array(rng.integers(0, 365 * 86_400 * 10**6, BLOCK_ROWS),
                      pa.timestamp("us"))
        cols = {"event_id": pa.array(rng.integers(0, 1 << 40, BLOCK_ROWS)),
                "user_id": pa.array(rng.integers(0, 1 << 20, BLOCK_ROWS)),
                "ts": ts}
        if b % 2:
            cols["view_ts"] = ts
        out.append(pa.table(cols))
    return pa.concat_tables(out)


_OPS = {"exact_dedup": (_gen_exact, "exact_dedup"),
        "boilerplate": (_gen_lines, "remove_boilerplate_lines"),
        "minhash": (_gen_minhash, "minhash_lsh_dedup"),
        "asof_join": (_gen_asof, "asof_join")}


@ray.remote(num_returns=2)
def _gen_block(gen, i: int):
    """Partial block ``i`` and its (rows, bytes), as an op's map task
    returns them."""
    block = gen({"id": [i]})
    return block, (block.num_rows, block.nbytes)


def _reduce_fn(op: str):
    """The (function, key) pair ``op`` hands to ``reduce_partials`` (for
    minhash, its pair reduce), or for asof_join to ``keyed_parts``."""
    import ray.data as rd

    import dqm_ray.state.reduce as reduce_mod

    target = _OPS[op][1]
    captured = {}
    step = "keyed_parts" if op == "asof_join" else "reduce_partials"
    real = getattr(reduce_mod, step)

    def capture(*args, key, what):
        if what == target:
            captured.update(reduce=args[-1], key=key)
        return real(*args, key=key, what=what)

    tiny = rd.from_arrow(pa.table({"doc_id": pa.array([1]),
                                   "text": pa.array(["x"])}))
    setattr(reduce_mod, step, capture)
    try:
        if op == "asof_join":
            from dqm_ray.functions.joins import asof_join
            views = _gen_asof({"id": [1]}).slice(0, 10)
            asof_join(rd.from_arrow(views.drop_columns(["view_ts"])),
                      rd.from_arrow(views), by="user_id", on="ts",
                      tiebreak="event_id")
        elif op == "exact_dedup":
            from dqm_ray.functions.dedup import exact_dedup
            exact_dedup(tiny)
        elif op == "minhash":
            from dqm_ray.functions.dedup import minhash_lsh_dedup
            minhash_lsh_dedup(tiny)
        else:
            from dqm_ray.functions.boilerplate import (
                remove_boilerplate_lines)
            remove_boilerplate_lines(tiny, min_len=10, min_docs=10)
    finally:
        setattr(reduce_mod, step, real)
    return captured["reduce"], captured["key"]


class _LastK(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.k = None

    def emit(self, record):
        m = re.search(r" k=(\d+) ", record.getMessage())
        if m:
            self.k = int(m.group(1))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("op", choices=sorted(_OPS))
    ap.add_argument("mib")
    ap.add_argument("--reps", type=int, default=2)
    ap.add_argument("--num-cpus", type=int, default=os.cpu_count())
    args = ap.parse_args()

    os.environ["PYTHONPATH"] = ROOT
    ray.init(address="local", num_cpus=args.num_cpus,
             include_dashboard=False, logging_level="ERROR")
    import ray.data as rd

    from dqm_ray.state.reduce import (_k_of, _part_tasks, log,
                                      reduce_partials)

    rd.DataContext.get_current().enable_progress_bars = False
    last_k = _LastK()
    log.addHandler(last_k)
    log.setLevel(logging.INFO)
    reduce, key = _reduce_fn(args.op)
    gen = _OPS[args.op][0]
    block_bytes = (gen({"id": [0]}).nbytes + gen({"id": [1]}).nbytes) / 2
    try:
        for mib in (float(m) for m in args.mib.split(",")):
            nblocks = max(1, round(mib * (1 << 20) / block_bytes))
            pairs = [_gen_block.remote(gen, i) for i in range(nblocks)]
            parts = [p for p, _ in pairs]
            meta = ray.get([m for _, m in pairs])
            for rep in range(args.reps):
                rec = {"op": args.op,
                       "mib": round(sum(b for _, b in meta) / (1 << 20), 1),
                       "rows": sum(r for r, _ in meta), "rep": rep}
                with tempfile.TemporaryDirectory() as tmp:
                    t0 = time.perf_counter()
                    if args.op == "asof_join":
                        refs = _part_tasks(
                            _sampled(reduce, tmp), [parts[0::2], parts[1::2]],
                            _k_of(meta, args.op)[0], key)
                    else:
                        refs = [reduce_partials(parts, meta,
                                                _sampled(reduce, tmp),
                                                key=key, what=args.op)[0]]
                    ray.wait(refs, num_returns=len(refs), fetch_local=False)
                    rec["s"] = round(time.perf_counter() - t0, 3)
                    tasks = []
                    for path in glob.glob(os.path.join(tmp, "*.json")):
                        with open(path) as f:
                            tasks.append(json.load(f))
                rec.update(
                    k=last_k.k, reduce_tasks=len(tasks),
                    peak_rss=max(t["peak"]["VmRSS"] for t in tasks),
                    peak_anon=max(t["peak"]["RssAnon"] for t in tasks),
                    task_rows=sorted(t["rows"] for t in tasks),
                    out_rows=sum(t["out"] for t in tasks))
                print(json.dumps(rec), flush=True)
                del refs
            del parts, pairs
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
