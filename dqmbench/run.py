"""Benchmark entry point.

    python3 dqmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Inputs come from ``--seed`` (cached under
``dqmbench/.cache``); the load is a closed loop, one pass at a time from
this single driver process, in a fresh local Ray session with
``num_cpus`` = the CPUs this process may run on.

``--trace 0`` starts :data:`N_SETUPS` sessions in turn; each is set up
(start, worker import probe, untimed warm-up pass — the ``setup_s``
sample) and then timed for an equal share of ``--seconds``. It reports
the end-to-end metrics. ``--trace 1`` sets up once, then runs traced
passes for ``--seconds`` and reports the per-layer metrics.
Every pass has a deadline and its output is checked; a pass that
raises, misses its deadline or is wrong counts as failed and the run
goes on. The last stdout line is the result object; the line before it
carries the host context and input facts, which are also written with
the spans to ``dqmbench/.work/runs``. A run that cannot start exits 2
with one line naming the cause on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

T_START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from dqmbench import session as sess  # noqa: E402
from dqmbench.inputs import WORKLOADS  # noqa: E402
from dqmbench.session import SetupError  # noqa: E402

N_SETUPS = 3
MIN_ROUNDS_PER_SESSION = 2
RSS_ROUNDS_PER_SESSION = 2
MIN_TRACED_ROUNDS = 3
PASS_DEADLINE_S = 30.0
LOOP_CUTOFF_S = 140.0  # no pass starts later than this into the run
RUN_DEADLINE_S = 170.0  # watchdog; the run must end within 180 s
INPUT_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"pass_s": "s", "rows_per_s": "rows/s",
                    "text_mb_per_s": "MB/s", "setup_s": "s",
                    "driver_peak_rss_mb": "MB"}


def _watchdog() -> threading.Timer:
    def fire():
        print(f"dqmbench: run exceeded {RUN_DEADLINE_S:.0f} s; killing the "
              "Ray session and exiting", file=sys.stderr, flush=True)
        for pid in sess.session_processes():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        os._exit(3)

    t = threading.Timer(RUN_DEADLINE_S - (time.perf_counter() - T_START),
                        fire)
    t.daemon = True
    t.start()
    return t


def preflight() -> str:
    """The checkout must hold the dqm_ray package this run measures."""
    if not os.path.isfile(os.path.join(ROOT, "dqm_ray", "__init__.py")):
        raise SetupError(f"no dqm_ray package under the checkout root {ROOT}")
    try:
        import dqm_ray
    except ImportError as e:
        raise SetupError(f"cannot import dqm_ray: {e}") from e
    path = os.path.realpath(dqm_ray.__file__)
    if not path.startswith(os.path.realpath(ROOT) + os.sep):
        raise SetupError(f"dqm_ray resolves to {path}, outside {ROOT}")
    return path


def ensure_inputs(workload: str, seed: int):
    """Cached inputs, generated in a child process when missing so the
    driver never holds the corpus or the oracle labels."""
    from dqmbench import inputs

    found = inputs.load(workload, seed)
    if found is not None:
        return found, False
    cmd = [sys.executable, "-m", "dqmbench.inputs", "--workload", workload,
           "--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=INPUT_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise SetupError(f"input generation took over "
                         f"{INPUT_TIMEOUT_S:.0f} s") from e
    found = inputs.load(workload, seed)
    if proc.returncode != 0 or found is None:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise SetupError(f"input generation failed (exit {proc.returncode}): "
                         f"{tail}")
    return found, True


class Runner:
    def __init__(self, args, workload, session):
        self.args = args
        self.workload = workload
        self.session = session
        self.records: list[dict] = []

    def attempt(self, fn, tracer, kind: str, rss: bool = False) -> dict:
        """One pass with a deadline, then its output check (untimed)."""
        self.workload.prepare()
        cpu0 = sess.cpu_times()
        if rss and not sess.reset_peak_rss():
            raise SetupError("cannot reset peak RSS via /proc/self/clear_refs")
        box: dict = {}

        def target():
            t0 = time.perf_counter()
            try:
                fn(tracer)
            except Exception:  # a raising pass is counted, not fatal
                box["error"] = traceback.format_exc(limit=3)
            box["seconds"] = time.perf_counter() - t0

        th = threading.Thread(target=target, daemon=True)
        th.start()
        th.join(PASS_DEADLINE_S)
        rec = {"kind": kind}
        if th.is_alive():
            rec.update(ok=False, seconds=PASS_DEADLINE_S, timed_out=True,
                       error=f"missed its {PASS_DEADLINE_S:.0f} s deadline")
        else:
            rec["seconds"] = box["seconds"]
            if rss:
                rec["peak_rss_mb"] = sess.peak_rss_mb()
            rec["steal_pct"] = sess.steal_pct(cpu0, sess.cpu_times())
            if "error" in box:
                rec.update(ok=False, error=box["error"])
            else:
                try:
                    problems = self.workload.check()
                except Exception:  # unreadable output is a wrong output
                    problems = [traceback.format_exc(limit=2)]
                rec.update(ok=not problems, problems=problems[:6])
        self.records.append(rec)
        if rec.get("timed_out"):
            # the stuck pass dies with its session; start a fresh one
            self.session.stop()
            self.session.start()
            self.session.probe()
        return rec

    def loop(self, fns, tracer, seconds: float, min_rounds: int,
             rss_rounds: int = 0) -> None:
        """Closed loop: run ``fns`` in turn for ``seconds`` (at least
        ``min_rounds`` rounds), one pass at a time. Peak RSS is taken
        over the first ``rss_rounds`` rounds only, so it does not grow
        with how many passes fit in the window."""
        t0 = time.perf_counter()
        rounds = 0
        while rounds < min_rounds or time.perf_counter() - t0 < seconds:
            if time.perf_counter() - T_START > LOOP_CUTOFF_S:
                break
            for fn in fns:
                self.attempt(fn, tracer, "timed", rss=rounds < rss_rounds)
            rounds += 1

    def untraced(self) -> tuple[dict, dict]:
        """:data:`N_SETUPS` sessions, each set up, warmed and then timed
        for an equal share of ``--seconds``; ``pass_s`` is the median of
        the pooled passes of all sessions."""
        from dqmbench.trace import NullTracer

        null = NullTracer()
        setups = []
        for _ in range(N_SETUPS):
            t0 = time.perf_counter()
            self.session.start()
            self.session.probe()
            t_ready = time.perf_counter() - t0
            warm = self.attempt(self.workload.run, null, "warmup")
            setups.append(t_ready + warm["seconds"])
            self.loop([self.workload.run], null,
                      self.args.seconds / N_SETUPS, MIN_ROUNDS_PER_SESSION,
                      rss_rounds=RSS_ROUNDS_PER_SESSION)
            self.session.stop()
        timed = [r for r in self.records if r["kind"] == "timed"]
        ok = [r["seconds"] for r in timed if r["ok"]]
        pass_s = statistics.median(ok or [r["seconds"] for r in timed])
        facts = self.workload.facts
        values = {
            "pass_s": pass_s,
            "rows_per_s": facts["rows"] / pass_s,
            "text_mb_per_s": facts["text_mb"] / pass_s,
            "setup_s": statistics.median(setups),
            "driver_peak_rss_mb": max(r["peak_rss_mb"] for r in timed
                                      if "peak_rss_mb" in r),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
        return metrics, {"setup_s": setups}

    def traced(self) -> tuple[dict, dict]:
        from dqmbench.trace import NullTracer, Tracer, record_to_pandas
        from dqmbench.workloads import LAYER_METRICS, full_layer_metrics

        tracer = Tracer()
        self.session.start()
        self.session.probe()
        fns = self.workload.traced_passes()
        for fn in fns:
            self.attempt(fn, NullTracer(), "warmup")
        with record_to_pandas(tracer):
            self.loop(fns, tracer, self.args.seconds, MIN_TRACED_ROUNDS)
        values = full_layer_metrics(self.workload, tracer)
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k]}
                   for k, v in values.items()}
        runs_dir = os.path.join(ROOT, sess.WORK_DIR, "runs")
        os.makedirs(runs_dir, exist_ok=True)
        trace_path = os.path.join(
            runs_dir, f"{self.args.workload}-s{self.args.seed}-spans.json")
        tracer.dump(trace_path)
        return metrics, {"spans": os.path.relpath(trace_path, ROOT)}


def main() -> int:
    ap = argparse.ArgumentParser(description="dqm_ray benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    _watchdog()
    sess.exit_on_sigterm()
    os.chdir(ROOT)
    session = None
    try:
        dqm_path = preflight()
        sess.prepare_env(ROOT)
        inputs, generated = ensure_inputs(args.workload, args.seed)
        from dqmbench import workloads

        work_dir = os.path.join(ROOT, sess.WORK_DIR)
        workload = workloads.WORKLOADS[args.workload](inputs, work_dir)
        session = sess.RaySession(ROOT)
        runner = Runner(args, workload, session)
        metrics, extra = runner.traced() if args.trace else runner.untraced()
    except SetupError as e:
        print(f"dqmbench: setup failed: {e}", file=sys.stderr, flush=True)
        return 2
    finally:
        if session is not None:
            session.stop()
    failed = sum(not r["ok"] for r in runner.records)
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "inputs": {k: v for k, v in inputs.facts.items() if k != "shards"},
        "inputs_generated_now": generated,
        "host": sess.host_context(ROOT),
        "dqm_ray": dqm_path,
        "failed_frac": failed / len(runner.records),
        "passes": runner.records,
        "killed_leftover_pids": session.killed,
        "run_s": time.perf_counter() - T_START,
        **extra,
    }
    runs_dir = os.path.join(ROOT, sess.WORK_DIR, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    result = {"correct": failed == 0, "attempted": len(runner.records),
              "failed": failed, "metrics": metrics}
    with open(os.path.join(runs_dir, f"{args.workload}-s{args.seed}"
                           f"-t{args.trace}.json"), "w") as f:
        json.dump({"context": context, "result": result}, f, indent=1)
    print(json.dumps({"context": {k: v for k, v in context.items()
                                  if k != "passes"}}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
