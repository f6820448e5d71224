"""One worker pool per process for independent chunks of array work.

``run_chunks(count, work)`` computes ``work(0), ..., work(count - 1)`` and
returns them in index order.  The calling thread and min(usable CPUs,
count) - 1 pool threads take indices from one shared iterator, so the
chunks run on every usable CPU while numpy's ufuncs, gathers and random
fills release the GIL.  A chunk must depend on its index only (it writes
only its own slice of a shared output, or returns its part), so results
never depend on the number of threads or the order chunks finish in.  A
chunk's exception reaches the caller.

Users: the sphere-modulus estimators (``mazur._stream``), the all-sources
BFS (``graphs._bfs_all_sources``), the pairwise distortion
(``distortion.map_distortion`` and ``map_distortion_exact_sq``) and the
panel solves and trailing updates of the blocked Cholesky certificate of
lambda_2 (``spectral._factors``).  A chunk
calls no public banachgap name: a tracer that wraps public names keeps one
span stack, and spans opened on pool threads would misnest on it.

Pools: one per (process, worker count), made on first use and kept, so a
call starts no threads after the first; the process id keeps a forked
child off its parent's threads, which it lacks.  A call with no helpers
makes none.

Memory: glibc keeps what a pool thread frees in that thread's own arena,
out of the calling thread's reach, so every chunk held at once adds to the
process's peak.  The caller therefore runs chunks too, and callers keep a
chunk's temporaries small.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

_T = TypeVar("_T")

_POOLS: dict[tuple[int, int], ThreadPoolExecutor] = {}


def _pool(workers: int) -> ThreadPoolExecutor:
    key = (os.getpid(), workers)
    if key not in _POOLS:
        _POOLS[key] = ThreadPoolExecutor(max_workers=workers)
    return _POOLS[key]


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, so taskset counts)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_chunks(count: int, work: Callable[[int], _T]) -> list[_T]:
    """``[work(i) for i in range(count)]``, on the caller and the pool (see
    the module docstring).  Every helper has finished before this returns
    or raises, so no chunk still writes into the caller's arrays."""
    results: list = [None] * count
    todo = iter(range(count))

    def drain():
        for i in todo:  # next() on the shared iterator is atomic under the GIL
            results[i] = work(i)

    helpers = min(_usable_cpus(), count) - 1 if count > 1 else 0
    running = [_pool(helpers).submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        for job in running:
            job.result()
    return results
