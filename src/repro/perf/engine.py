"""Ordered process-pool map: the execution primitive behind SquatPhi's scale.

One primitive, one contract — **results come back in input order**, so a
parallel run merges to byte-identical output regardless of which worker
finished first:

* :func:`process_map` — CPU-bound fan-out over shards on a
  ``ProcessPoolExecutor``, the only one under ``repro``.  Used by the
  snapshot scan, where each worker gets the packed scan context once
  (inherited through a :class:`PoolSlot`, or rebuilt by
  ``initializer``) and then classifies whole id slices of registered
  domains, and by training, feature extraction and the lifecycle diff.
  Shard *work* is unordered across processes; shard *results* are
  merged in shard order.

It falls back to a plain serial loop when ``workers <= 1`` or there is
nothing to parallelize — the fallback runs the *same* function over the
*same* shards, which is how the determinism suite can assert serial and
parallel runs byte-match.  The crawl has no pool at all: its domain
groups run in order on one thread, and ``crawl_workers`` only models the
paper's scheduler width (see :mod:`repro.web.crawler`).  Serving has no
pool either: :func:`~repro.serve.server.serve_load` runs every batch on
one engine.

:class:`PoolSlot` holds per-process pool state that is too heavy to
ship per task; its one user is the packed scan's context: build it in
the parent, let fork share it, rebuild it on spawn.

Importing this module pins numpy's bundled OpenBLAS to one thread per
process (:func:`pin_blas_threads`): the program parallelizes with its
own pools, and BLAS threads on top of them only oversubscribe the cores.
"""

from __future__ import annotations

import ctypes
from concurrent.futures import ProcessPoolExecutor
from typing import (Callable, Generic, Iterable, List, Optional, Sequence,
                    Tuple, TypeVar)

T = TypeVar("T")
R = TypeVar("R")
S = TypeVar("S")


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


def process_map(fn: Callable[[T], R], shards: Sequence[T], workers: int,
                initializer: Optional[Callable] = None,
                initargs: Tuple = ()) -> List[R]:
    """Map ``fn`` over ``shards`` on a process pool, results in shard order.

    ``initializer(*initargs)`` runs once per worker process to set up
    per-process state (e.g. detector indices; see :class:`PoolSlot`), so
    the heavy index build is paid at most ``workers`` times, not
    ``len(shards)`` times.  With ``workers <= 1`` or a single shard,
    runs serially in this process — calling the initializer first so
    ``fn`` sees the same environment either way.
    """
    if workers <= 1 or len(shards) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(item) for item in shards]
    with ProcessPoolExecutor(max_workers=workers, initializer=initializer,
                             initargs=initargs) as pool:
        return list(pool.map(fn, shards))


class PoolSlot(Generic[S]):
    """One keyed slot of per-process pool state.

    The parent calls :meth:`ensure` *before* the pool starts, so
    fork-start platforms (Linux) hand every worker the finished state as
    copy-on-write pages.  The worker initializer calls :meth:`ensure`
    again with the key the parent shipped in its initargs: when the key
    matches the inherited slot nothing is rebuilt, otherwise (spawn-start
    platforms, or a stale inherited slot) the state is rebuilt from the
    picklable initargs.  Task functions then read :attr:`state`.

    Keys carry ``id()`` of live objects (the detector); the slot keeps a
    strong reference to the state, which must itself hold those objects,
    so a cached key can never alias a recycled address.  A slot keeps at
    most one state alive.
    """

    def __init__(self) -> None:
        self._key: Optional[Tuple] = None
        self._state: Optional[S] = None

    def ensure(self, key: Tuple, build: Callable[[], S]) -> S:
        """The state for ``key``: the cached one, or ``build()``'s."""
        if self._state is None or self._key != key:
            self._state = build()
            self._key = key
        return self._state

    @property
    def state(self) -> S:
        if self._state is None:
            raise RuntimeError("pool worker used before initialization")
        return self._state
