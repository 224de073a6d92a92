"""Measure ``state.reduce.reduce_partials`` as the partial bytes grow:
wall seconds of the whole reduce, the K it chose, and the peak RSS of
every task that ran the op's reduce function (VmRSS and private
RssAnon, sampled every 5 ms from the start of the call — the task's
concatenated partials are already resident then).

It reduces synthetic partials with the schema each op's combine emits
(generated inside Ray tasks in 64k-row blocks, so the driver holds none
of them) through that op's own reduce function and key:

- ``exact_dedup``: (doc_id, 32-byte sha256), a third of the keys
  repeated;
- ``boilerplate``: (h1, h2, n), 2% of the pairs a shared pool.

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
    def run(table: pa.Table) -> pa.Table:
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
        value = reduce(table)
        stop.set()
        th.join()
        for k, v in _status().items():
            peak[k] = max(peak[k], v)
        path = os.path.join(out_dir, f"{os.getpid()}-{time.time_ns()}.json")
        with open(path, "w") as f:
            json.dump({"rows": table.num_rows, "start": start,
                       "peak": peak}, f)
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


@ray.remote(num_returns=2)
def _gen_block(gen, i: int):
    """Partial block ``i`` and its (rows, bytes), as an op's map task
    returns them."""
    block = gen({"id": [i]})
    return block, (block.num_rows, block.nbytes)


def _reduce_fn(op: str):
    """The (reduce, key) pair ``op`` hands to ``reduce_partials``."""
    import ray.data as rd

    import dqm_ray.state.reduce as reduce_mod

    captured = {}
    real = reduce_mod.reduce_partials

    def capture(partials, meta, reduce, *, key, what):
        captured.update(reduce=reduce, key=key)
        return real(partials, meta, reduce, key=key, what=what)

    tiny = rd.from_arrow(pa.table({"doc_id": pa.array([1]),
                                   "text": pa.array(["x"])}))
    reduce_mod.reduce_partials = capture
    try:
        if op == "exact_dedup":
            from dqm_ray.functions.dedup import exact_dedup
            exact_dedup(tiny)
        else:
            from dqm_ray.functions.boilerplate import (
                remove_boilerplate_lines)
            remove_boilerplate_lines(tiny, min_len=10, min_docs=10)
    finally:
        reduce_mod.reduce_partials = real
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
    ap.add_argument("op", choices=("exact_dedup", "boilerplate"))
    ap.add_argument("mib")
    ap.add_argument("--reps", type=int, default=2)
    ap.add_argument("--num-cpus", type=int, default=os.cpu_count())
    args = ap.parse_args()

    os.environ["PYTHONPATH"] = ROOT
    ray.init(address="local", num_cpus=args.num_cpus,
             include_dashboard=False, logging_level="ERROR")
    import ray.data as rd

    from dqm_ray.state.reduce import log, reduce_partials

    rd.DataContext.get_current().enable_progress_bars = False
    last_k = _LastK()
    log.addHandler(last_k)
    log.setLevel(logging.INFO)
    reduce, key = _reduce_fn(args.op)
    gen = _gen_exact if args.op == "exact_dedup" else _gen_lines
    probe = gen({"id": [0]})
    row_bytes = probe.nbytes / probe.num_rows
    try:
        for mib in (float(m) for m in args.mib.split(",")):
            nblocks = max(1, round(mib * (1 << 20) / row_bytes / BLOCK_ROWS))
            pairs = [_gen_block.remote(gen, i) for i in range(nblocks)]
            parts = [p for p, _ in pairs]
            meta = ray.get([m for _, m in pairs])
            for rep in range(args.reps):
                rec = {"op": args.op,
                       "mib": round(sum(b for _, b in meta) / (1 << 20), 1),
                       "rows": sum(r for r, _ in meta), "rep": rep}
                with tempfile.TemporaryDirectory() as tmp:
                    t0 = time.perf_counter()
                    value, _ = reduce_partials(parts, meta,
                                               _sampled(reduce, tmp),
                                               key=key, what=args.op)
                    ray.wait([value], fetch_local=False)
                    rec["s"] = round(time.perf_counter() - t0, 3)
                    tasks = []
                    for path in glob.glob(os.path.join(tmp, "*.json")):
                        with open(path) as f:
                            tasks.append(json.load(f))
                rec.update(
                    k=last_k.k, reduce_tasks=len(tasks),
                    peak_rss=max(t["peak"]["VmRSS"] for t in tasks),
                    peak_anon=max(t["peak"]["RssAnon"] for t in tasks),
                    task_rows=sorted(t["rows"] for t in tasks))
                print(json.dumps(rec), flush=True)
                del value
            del parts, pairs
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
