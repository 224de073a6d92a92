"""Measure both paths of ``state.reduce.reduce_partials`` as the partial
bytes grow: wall seconds of the one-task (small) path and of the
caller's shuffle (large) path, and the reduce task's RSS (VmRSS and
private RssAnon, sampled every 5 ms inside the task).

It reduces synthetic partials with the schema each op's combine emits
(generated inside Ray tasks in 64k-row blocks, so the driver holds none
of them) through that op's own small/large reduce functions:

- ``exact_dedup``: (doc_id, hex sha256), a third of the keys repeated;
- ``boilerplate``: (part, h1, h2, n), 2% of the pairs a shared pool.

One JSON line per measurement. Run one op and one size per process for
a fresh reduce worker (worker reuse carries RSS over between runs).

Usage: python tools/reduce_sweep.py OP MIB[,MIB...] [--reps N]
           [--paths small,large] [--num-cpus N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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


@ray.remote(num_returns=2)
def _reduce_blocks_sampled(small, *blocks):
    """``state.reduce._reduce_blocks`` plus an RSS sampler thread."""
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
    tables = [b for b in blocks if b.num_rows]
    table = pa.concat_tables(tables) if tables else pa.table({})
    value = small(table)
    stop.set()
    th.join()
    for k, v in _status().items():
        peak[k] = max(peak[k], v)
    return {"start": start, "peak": peak}, value


def _gen_exact(batch):
    import hashlib

    out = []
    for b in batch["id"]:
        rng = np.random.default_rng(int(b))
        keys = rng.integers(0, 1 << 62, BLOCK_ROWS)
        keys[: BLOCK_ROWS // 3] %= 1 << 16
        sha = [hashlib.sha256(int(k).to_bytes(8, "little")).hexdigest()
               for k in keys]
        out.append(pa.table({
            "doc_id": pa.array(rng.integers(0, 1 << 40, BLOCK_ROWS)),
            "__sha": pa.array(sha, pa.string())}))
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
            "part": pa.array((h1 & 63).astype(np.int32)),
            "h1": pa.array(h1), "h2": pa.array(h2),
            "n": pa.array(rng.integers(1, 3, BLOCK_ROWS))}))
    return pa.concat_tables(out)


def _reduce_fns(op: str):
    """The (small, large) pair ``op`` hands to ``reduce_partials``."""
    import ray.data as rd

    import dqm_ray.state.reduce as reduce_mod

    captured = {}
    real = reduce_mod.reduce_partials

    def capture(partials, small, large, *, what):
        captured.update(small=small, large=large)
        return ray.put(None)

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
    return captured["small"], captured["large"]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("op", choices=("exact_dedup", "boilerplate"))
    ap.add_argument("mib")
    ap.add_argument("--reps", type=int, default=2)
    ap.add_argument("--paths", default="small,large")
    ap.add_argument("--num-cpus", type=int, default=os.cpu_count())
    args = ap.parse_args()

    os.environ["PYTHONPATH"] = ROOT
    ray.init(address="local", num_cpus=args.num_cpus,
             include_dashboard=False, logging_level="ERROR")
    import ray.data as rd

    import dqm_ray.state.reduce as reduce_mod

    rd.DataContext.get_current().enable_progress_bars = False
    small, large = _reduce_fns(args.op)
    gen = _gen_exact if args.op == "exact_dedup" else _gen_lines
    probe = gen({"id": [0]})
    row_bytes = probe.nbytes / probe.num_rows
    paths = args.paths.split(",")
    try:
        for mib in (float(m) for m in args.mib.split(",")):
            nblocks = max(1, round(mib * (1 << 20) / row_bytes / BLOCK_ROWS))
            parts = rd.range(nblocks, override_num_blocks=nblocks) \
                .map_batches(gen, batch_size=1, batch_format="numpy") \
                .materialize()
            for rep in range(args.reps):
                for path in paths if rep % 2 == 0 else paths[::-1]:
                    rec = {"op": args.op,
                           "mib": round(parts.size_bytes() / (1 << 20), 1),
                           "rows": parts.count(), "path": path, "rep": rep}
                    t0 = time.perf_counter()
                    if path == "small":
                        done, value = _reduce_blocks_sampled.remote(
                            small, *parts.to_arrow_refs())
                        info = ray.get(done)
                        rec.update(start_rss=info["start"]["VmRSS"],
                                   peak_rss=info["peak"]["VmRSS"],
                                   start_anon=info["start"]["RssAnon"],
                                   peak_anon=info["peak"]["RssAnon"])
                    else:
                        reduce_mod.SMALL_REDUCE_BYTES = -1
                        value = reduce_mod.reduce_partials(
                            parts, small, large, what=args.op)
                    ray.wait([value], fetch_local=False)
                    rec["s"] = round(time.perf_counter() - t0, 3)
                    print(json.dumps(rec), flush=True)
                    del value
            del parts
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
