"""The one wait loop over plain Ray tasks, shared by the quality runner
and the dedup family (one task per shard or block, no Ray Data
executor, which polls at 0.1 s: plugins/DQMProcessor.cpp:541-556 gives
each window to one worker the same way)."""

from __future__ import annotations

import ray


def wait_all(refs) -> list:
    """Block in ``ray.wait`` (no polling) until every task behind
    ``refs`` has ended; return their values in order. The first failed
    task cancels the unfinished ones, waits until they have ended and
    re-raises its error: a ``RayTaskError`` that is also an instance of
    the original class (``KeyError``, ``LineageError``, ...)."""
    todo = list(refs)
    try:
        while todo:
            done, todo = ray.wait(todo, num_returns=1)
            ray.get(done)  # a failed task raises here
    finally:
        if todo:  # a task failed or the wait was interrupted
            for ref in todo:
                ray.cancel(ref)
            ray.wait(todo, num_returns=len(todo))
    return ray.get(list(refs))
