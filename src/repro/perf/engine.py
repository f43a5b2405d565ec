"""Ordered process-pool map: the execution primitive behind SquatPhi's scale.

One primitive, one contract — **results come back in input order**, so a
parallel run merges to byte-identical output regardless of which worker
finished first:

* :func:`process_map` — CPU-bound fan-out over shards on a
  ``ProcessPoolExecutor``, the only one under ``repro``.  Every task is
  ``fn(context, shard)``: the caller's per-run state (the packed scan
  context, the training matrix, the extractor spec) travels once per
  worker through the pool initializer — inherited on fork, pickled on
  spawn — and only the shards travel per task.  Used by the snapshot
  scan, training, cross-validation, feature extraction, evasion
  measurement and the lifecycle diff.  Shard *work* is unordered across
  processes; shard *results* are merged in shard order.

It is also the one place that decides serial versus pool: with
``workers <= 1`` or nothing to parallelize it runs the *same* function
over the *same* shards in a plain loop, which is how the determinism
suite can assert serial and parallel runs byte-match.
:func:`work_shards` is the one chunking rule for callers that split a
flat work list.  The crawl has no pool at all: its domain groups run in
order on one thread, and ``crawl_workers`` only models the paper's
scheduler width (see :mod:`repro.web.crawler`).  Serving has no pool
either: :func:`~repro.serve.server.serve_load` runs every batch on one
engine.

Importing this module pins numpy's bundled OpenBLAS to one thread per
process (:func:`pin_blas_threads`): the program parallelizes with its
own pools, and BLAS threads on top of them only oversubscribe the cores.
"""

from __future__ import annotations

import ctypes
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")
C = TypeVar("C")


def pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS on one thread in this process.

    The library's own default is one thread per core.  The program's
    matrix products are small — a KNN fold's cosine matmul, for one — so
    waking and handing off to a second thread costs far more than the
    product: in ``pipeline --squats 400`` on a 2-core host that
    matmul took about 78 ms per call on two threads and 7 ms on one.  The
    setter is resolved from numpy's extension module, which links the
    bundled ``scipy_openblas``; a numpy built without it has no such
    symbol, and then nothing changes.  Forked pool workers inherit the
    setting and spawned ones re-import this module.
    """
    try:
        import numpy
        library = ctypes.CDLL(numpy._core._multiarray_umath.__file__)
        set_threads = library.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return
    set_threads(1)


pin_blas_threads()


def shard(items: Iterable[T], chunk_size: int) -> List[List[T]]:
    """Partition ``items`` into consecutive chunks of ``chunk_size``.

    Consecutive (not strided) so that concatenating per-shard results in
    shard order reproduces the serial iteration order exactly.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    shards: List[List[T]] = []
    current: List[T] = []
    for item in items:
        current.append(item)
        if len(current) >= chunk_size:
            shards.append(current)
            current = []
    if current:
        shards.append(current)
    return shards


def work_shards(items: Sequence[T], workers: int) -> List[List[T]]:
    """``items`` in about ``workers * 4`` consecutive shards.

    Four shards per worker let a fast worker pick up a slow one's share.
    The split depends only on ``len(items)`` and ``workers``, so per-shard
    results (and any per-shard cache-stats deltas) are the same on every
    run with the same knobs.
    """
    return shard(items, max(1, -(-len(items) // (workers * 4))))


# the running task's (fn, context) in a pool worker: set once per
# process by _install, read by every task the worker runs
_TASK: Optional[Tuple[Callable, Any]] = None


def _install(fn: Callable, context: Any) -> None:
    global _TASK
    _TASK = (fn, context)


def _run_task(item: Any) -> Any:
    fn, context = _TASK
    return fn(context, item)


def process_map(fn: Callable[[C, T], R], shards: Sequence[T], workers: int,
                *, context: C = None) -> List[R]:
    """``[fn(context, s) for s in shards]``, spread over ``workers`` processes.

    With ``workers <= 1`` or at most one shard this is that plain loop in
    this process.  Otherwise each pool worker receives ``fn`` and
    ``context`` once, through the pool initializer, and then only shards:
    on fork-start platforms (Linux before Python 3.14) the initializer's
    arguments are inherited, never pickled, so ``context`` may be any
    object; spawn and forkserver pickle them, so there ``fn`` must be a
    module-level function and ``context`` picklable (it may rebuild
    itself in ``__reduce__``).  Results come back in shard order.
    """
    if workers <= 1 or len(shards) <= 1:
        return [fn(context, item) for item in shards]
    with ProcessPoolExecutor(max_workers=workers, initializer=_install,
                             initargs=(fn, context)) as pool:
        return list(pool.map(_run_task, shards))
