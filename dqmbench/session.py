"""Local Ray session lifecycle and host context for one benchmark run.

Every run starts its own local Ray session (``RAY_ADDRESS`` is ignored)
whose temp dir lives inside the checkout, probes that a worker imports
this checkout's ``dqm_ray``, and on shutdown waits for every process the
session started, killing any that outlive ``ray.shutdown``.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil
import signal
import sys
import time

WORK_DIR = os.path.join("dqmbench", ".work")
OBJECT_STORE_BYTES = 512 << 20
PROBE_TIMEOUT_S = 60.0
EXIT_WAIT_S = 10.0


class SetupError(RuntimeError):
    """The run cannot start; the message names the cause."""


def prepare_env(root: str) -> None:
    """Environment every Ray process of the run inherits. Set before
    ``ray.init``: workers are spawned with the driver's environment."""
    os.environ.pop("RAY_ADDRESS", None)
    # heap reuse for big numpy/Arrow temporaries, as bench.py does
    os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", str(1 << 30))
    os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", str(1 << 30))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p])
    tmp = os.path.join(root, WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"


def ray_temp_dir(root: str) -> str:
    """Ray's temp dir inside the checkout, spelled through
    ``/proc/<pid>/cwd`` so its AF_UNIX socket paths stay under the
    107-byte limit however deep the checkout is (the driver's cwd is the
    checkout root and outlives every session process)."""
    if os.path.realpath(os.getcwd()) != os.path.realpath(root):
        raise SetupError(f"cwd must be the checkout root {root}")
    return f"/proc/{os.getpid()}/cwd/{WORK_DIR}/ray"


def _env_int(name: str) -> int:
    try:
        return max(0, int(os.environ.get(name, "").split(",")[0]))
    except ValueError:
        return 0


def num_cpus() -> int:
    """What ``nproc`` prints: ``OMP_NUM_THREADS`` if set, else the CPUs
    this process may run on, capped by ``OMP_THREAD_LIMIT``."""
    n = _env_int("OMP_NUM_THREADS") or len(os.sched_getaffinity(0))
    limit = _env_int("OMP_THREAD_LIMIT")
    return min(n, limit) if limit else n


def session_processes() -> set[int]:
    """Pids of this run's Ray processes: every live descendant of this
    process, plus any process whose command line names this run's Ray
    temp dir (agents orphaned when a session start is interrupted)."""
    marker = f"/proc/{os.getpid()}/cwd/{WORK_DIR}/ray".encode()
    parent, named = {}, set()
    for d in glob.glob("/proc/[0-9]*"):
        pid = int(d.rsplit("/", 1)[1])
        try:
            with open(f"{d}/stat") as f:
                parent[pid] = int(f.read().rsplit(")", 1)[1].split()[1])
            with open(f"{d}/cmdline", "rb") as f:
                if marker in f.read():
                    named.add(pid)
        except (OSError, IndexError, ValueError):
            continue
    out, todo = set(), [os.getpid()]
    while todo:
        p = todo.pop()
        kids = [c for c, pp in parent.items() if pp == p]
        out.update(kids)
        todo += kids
    return (out | named) - {os.getpid()}


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def exit_on_sigterm() -> None:
    """Make SIGTERM raise SystemExit in the main thread, so the run's
    ``finally`` stops the Ray session instead of leaving its processes
    behind. ``ray.init`` installs a handler that aborts the driver, so
    this is called again after every ``ray.init``."""
    signal.signal(signal.SIGTERM,
                  lambda signum, _frame: sys.exit(128 + signum))


class RaySession:
    """One local Ray session; ``stop`` is safe to call more than once."""

    def __init__(self, root: str):
        self.root = root
        self.started: set[int] = set()
        self.killed: list[int] = []
        self.session_dir: str | None = None

    def start(self) -> None:
        import logging

        import ray

        before = session_processes()
        try:
            ray.init(address="local", num_cpus=num_cpus(),
                     include_dashboard=False, logging_level="ERROR",
                     log_to_driver=False, _temp_dir=ray_temp_dir(self.root),
                     object_store_memory=OBJECT_STORE_BYTES)
        except Exception as e:  # any init failure ends the run
            raise SetupError(f"ray.init failed: {type(e).__name__}: {e}") \
                from e
        exit_on_sigterm()
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        self.started |= session_processes() - before
        try:
            self.session_dir = \
                ray._private.worker._global_node.get_session_dir_path()
        except AttributeError:  # private API moved: keep the logs
            self.session_dir = None

    def probe(self) -> str:
        """Check that a worker imports ``dqm_ray`` from this checkout
        within a deadline; a worker that cannot would otherwise hang or
        run some other copy."""
        import ray

        def where():
            import dqm_ray

            return os.path.realpath(dqm_ray.__file__)

        try:
            path = ray.get(ray.remote(num_cpus=0)(where).remote(),
                           timeout=PROBE_TIMEOUT_S)
        except ray.exceptions.GetTimeoutError as e:
            raise SetupError(f"worker import probe timed out after "
                             f"{PROBE_TIMEOUT_S:.0f} s") from e
        except ray.exceptions.RayError as e:
            raise SetupError(f"a Ray worker cannot import dqm_ray: {e}") from e
        want = os.path.realpath(os.path.join(self.root, "dqm_ray"))
        if not path.startswith(want + os.sep):
            raise SetupError(f"Ray workers import dqm_ray from {path}, "
                             f"not from this checkout ({want})")
        self.started |= session_processes()
        return path

    def stop(self) -> None:
        """Shut Ray down and wait for every process of the session to
        exit, killing what is still alive after :data:`EXIT_WAIT_S`."""
        import ray

        self.started |= session_processes()
        if ray.is_initialized():
            ray.shutdown()
        deadline = time.monotonic() + EXIT_WAIT_S
        while True:
            _reap()
            # rescan: a raylet whose start was interrupted can still
            # spawn agents, which then outlive it as orphans
            self.started |= session_processes()
            alive = [p for p in self.started if _alive(p)]
            if not alive:
                break
            if time.monotonic() >= deadline:
                for pid in alive:
                    self.killed.append(pid)
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            time.sleep(0.05)
        self.started = set()
        if self.session_dir and not self.killed:
            # a clean session's logs are not needed; keep them otherwise
            shutil.rmtree(self.session_dir, ignore_errors=True)
        self.session_dir = None


# ---------------------------------------------------------------------------
# host context (recorded, never gated)
# ---------------------------------------------------------------------------

def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies from the aggregate line of /proc/stat
    (steal is field 8)."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


def reset_peak_rss() -> bool:
    """Reset this process's VmHWM (Linux ``clear_refs`` code 5)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def source_digest(root: str) -> str:
    """sha256 over the relative paths and bytes of ``dqm_ray/**/*.py``,
    identifying the measured code without ``.git``."""
    h = hashlib.sha256()
    base = os.path.join(root, "dqm_ray")
    for path in sorted(glob.glob(os.path.join(base, "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def host_context(root: str) -> dict:
    import numpy
    import pyarrow
    import ray

    return {
        "nproc": num_cpus(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "dqm_ray_digest": source_digest(root),
    }
