"""Size-aware reduce of compact partials.

A Ray all-to-all shuffle has a fixed scheduling cost (~1 s on one CPU)
however few rows it moves. When the partials of a reduce are small —
per-batch combined counters or winner keys, never content — one remote
task reduces all of them instead, the way the reference reduces each
window's statistics inside one worker and ships only the result
(plugins/DQMProcessor.cpp:541-556). Past ``SMALL_REDUCE_BYTES`` the
caller's shuffle runs unchanged.

Either way the result is an ``ObjectRef`` that map stages read by
``ray.get`` inside their workers; on the small path it is produced in
the object store and never reaches the driver.
"""

from __future__ import annotations

import logging
from typing import Any, Callable

import pyarrow as pa
import ray

# Partial bytes (Ray block metadata) up to which one task reduces them.
# Set by the task's memory, which reserves none: it concatenates and
# then sorts or hashes all partials, so its private RSS grows by 2.3x
# (exact_dedup) to 2.9x (boilerplate) the partial bytes. Its peak VmRSS
# read 0.6-0.7 GiB at 128 MiB and 1.0-1.3 GiB at 256 MiB
# (tools/reduce_sweep.py, 1-CPU Ray session); on 1 CPU it beat the
# shuffle at every size. Unmeasured: the crossover on many CPUs.
SMALL_REDUCE_BYTES = 128 << 20

log = logging.getLogger("dqm_ray")


@ray.remote(num_returns=2)
def _reduce_blocks(small: Callable[[pa.Table], Any], *blocks: pa.Table):
    tables = [b for b in blocks if b.num_rows]
    # 0 blocks (an emptied input) reduce a 0-column, 0-row table
    table = pa.concat_tables(tables) if tables else pa.table({})
    return None, small(table)


def reduce_partials(partials, small: Callable[[pa.Table], Any],
                    large: Callable[[Any], Any], *, what: str):
    """Reduce the compact dataset ``partials`` to one value; return a
    ref to it.

    ``small(table)`` reduces all partials concatenated into one table
    (0 rows for an empty input) inside one remote task and returns the
    value. ``large(ds)`` is the shuffle fallback, run on the driver; its
    value is put in the object store. The path taken, the partial rows
    and the partial bytes are logged at INFO on the ``dqm_ray`` logger.
    """
    partials = partials.materialize()
    nbytes = partials.size_bytes() or 0  # None when there are 0 blocks
    rows = partials.count()
    path = "small" if nbytes <= SMALL_REDUCE_BYTES else "large"
    log.info("reduce_partials %s: path=%s partial_rows=%d "
             "partial_bytes=%d", what, path, rows, nbytes)
    if path == "large":
        return ray.put(large(partials))
    done, value = _reduce_blocks.remote(small, *partials.to_arrow_refs())
    ray.get(done)  # raises a reduce error here; the value stays remote
    return value
