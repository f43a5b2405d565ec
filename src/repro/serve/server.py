"""The multi-worker serving front.

:func:`serve_load` drives a planned micro-batch stream through one
dispatch loop: poll the publisher, stamp the batch task with the current
generation, then run it — inline on the front's own engine at one worker,
or on a process pool with at most ``workers`` batches in flight.  Every
result, inline or pooled, goes through the same merge.  The pool's
worker protocol is the packed scan's:
the parent prebuilds a :class:`QueryEngine` (detector indices, scan
context, negative cache) in a :class:`~repro.perf.engine.PoolSlot`
before the pool starts, fork-start platforms hand it to every worker as
copy-on-write pages, and the per-worker initializer reduces to a key
comparison (spawn platforms rebuild from picklable initargs).  Batch
tasks ship only ``(generation, path, names, dispatch time)`` — workers
mmap the snapshot themselves, zero-copy.

Hot reload: before each dispatch the front polls the
:class:`~repro.serve.publisher.SnapshotPublisher` (when given one) and
re-targets newer generations; a worker seeing a task stamped with a new
generation reopens the published file and swaps its engine between
batches, so in-flight batches drain on the old mmap while new batches
open the new one.  Which *batch* is answered by which generation
depends on publish timing — but every verdict is pure in (name,
generation), so correctness is per-request checkable regardless
(see ``offline_verdicts``).

Latency accounting mixes two clocks on purpose: queueing delay
(``dispatch - arrival``) is simulated time from the batch plan, service
time is measured host time for the batch's vectorized classify.  Both
are throughput metadata — never inputs to a verdict.
"""

from __future__ import annotations

import contextlib
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.dns.packedzone import PackedZone
from repro.faults.clock import SimClock
from repro.perf.engine import PoolSlot
from repro.perf.report import KernelStats
from repro.serve.batcher import plan_batches
from repro.serve.engine import QueryEngine, Verdict
from repro.serve.loadgen import percentile
from repro.serve.negcache import NegativeVerdictCache


@dataclass
class ServeStats:
    """One serve run's accounting (throughput/latency metadata only)."""

    queries: int = 0
    batches: int = 0
    workers: int = 1
    max_batch: int = 1
    max_delay: float = 0.0
    wall_seconds: float = 0.0
    service_seconds: float = 0.0
    negcache_hits: int = 0
    generation_swaps: int = 0
    dropped: int = 0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    served_by_generation: Dict[int, int] = field(default_factory=dict)
    kernel: KernelStats = field(default_factory=KernelStats)

    @property
    def qps(self) -> float:
        return self.queries / max(self.wall_seconds, 1e-9)

    def as_dict(self) -> Dict[str, object]:
        return {
            "queries": self.queries, "batches": self.batches,
            "workers": self.workers, "max_batch": self.max_batch,
            "max_delay": self.max_delay,
            "wall_seconds": round(self.wall_seconds, 4),
            "service_seconds": round(self.service_seconds, 4),
            "qps": round(self.qps),
            "negcache_hits": self.negcache_hits,
            "generation_swaps": self.generation_swaps,
            "dropped": self.dropped,
            "p50_ms": round(self.p50_ms, 3), "p99_ms": round(self.p99_ms, 3),
            "served_by_generation": {str(gen): count for gen, count
                                     in sorted(self.served_by_generation.items())},
            "kernel_rows": self.kernel.rows,
            "fallbacks": dict(sorted(self.kernel.fallbacks.items())),
            "fallback_rate": round(self.kernel.fallback_rate, 6),
        }


# ----------------------------------------------------------------------
# pathspec plumbing: one snapshot path, or a newline-joined
# base+delta chain (the streaming publisher's current_chain) — kept as a
# single string so batch tasks stay trivially picklable
# ----------------------------------------------------------------------

def _zone_pathspec(zone) -> str:
    paths = zone.paths() if hasattr(zone, "paths") else [zone.ensure_file()]
    return "\n".join(str(path) for path in paths)


def _open_pathspec(pathspec: str):
    """mmap one snapshot, or a base+delta chain as a SegmentedZone."""
    paths = [entry for entry in pathspec.split("\n") if entry]
    if len(paths) == 1:
        return PackedZone.load(paths[0])
    from repro.dns.deltazone import SegmentedZone  # lazy: no import cycle
    return SegmentedZone.load_chain(paths[0], paths[1:])


# ----------------------------------------------------------------------
# pool plumbing: one parent-prebuilt engine per worker.  The key carries
# the cache-relevant config (detector identity, snapshot digest, negcache
# knobs) so a bench flipping the negcache between legs never reuses a
# mismatched engine.
# ----------------------------------------------------------------------
_POOL: PoolSlot[QueryEngine] = PoolSlot()


def _build_engine(detector, zone: PackedZone, generation: int,
                  use_negcache: bool, ttl: float,
                  capacity: int) -> QueryEngine:
    negcache = NegativeVerdictCache(ttl, capacity) if use_negcache else None
    return QueryEngine(detector, zone, generation=generation,
                       negcache=negcache)


def _serve_pool_init(catalog, generator, key: Tuple, path: str,
                     generation: int, use_negcache: bool, ttl: float,
                     capacity: int) -> None:
    def build() -> QueryEngine:
        from repro.squatting.detector import SquattingDetector  # lazy: no cycle
        return _build_engine(SquattingDetector(catalog, generator),
                             _open_pathspec(path), generation,
                             use_negcache, ttl, capacity)
    _POOL.ensure(key, build)


BatchTask = Tuple[int, str, Tuple[str, ...], float]
BatchResult = Tuple[List[Verdict], float, int, KernelStats]


def _serve_on(engine: QueryEngine, task: BatchTask) -> BatchResult:
    """(verdicts, service seconds, negcache hits, kernel delta) for one
    batch task ``(generation, pathspec, names, dispatch time)``; the
    engine first swaps to the task's generation if it is behind."""
    generation, path, names, now = task
    if engine.generation != generation:
        engine.reload(_open_pathspec(path), generation)
    hits_before = engine.stats.negcache_hits
    before = engine.stats.kernel.copy()
    started = time.perf_counter()
    verdicts = engine.lookup_batch(list(names), now=now)
    elapsed = time.perf_counter() - started
    return (verdicts, elapsed, engine.stats.negcache_hits - hits_before,
            engine.stats.kernel.delta(before))


def _serve_batch(task: BatchTask) -> BatchResult:
    """:func:`_serve_on` on this pool worker's engine."""
    return _serve_on(_POOL.state, task)


# ----------------------------------------------------------------------
# the serving front
# ----------------------------------------------------------------------

def serve_load(detector, zone: PackedZone,
               requests: Iterable[Tuple[float, str]],
               workers: int = 1, max_batch: int = 64,
               max_delay: float = 0.005,
               negcache: bool = True, negcache_ttl: float = 300.0,
               negcache_capacity: int = 1 << 16,
               publisher=None,
               on_dispatch: Optional[Callable[[int], None]] = None,
               clock: Optional[SimClock] = None,
               scorer=None) -> Tuple[List[Verdict], ServeStats]:
    """Serve a timestamped request stream; verdicts in request order.

    ``zone`` is the generation the server starts on; when ``publisher``
    is given, its ``CURRENT`` pointer is polled before every dispatch
    and strictly-newer generations are hot-swapped in.  ``on_dispatch``
    (batch index → None) runs before each poll — harnesses use it to
    publish mid-burst deterministically.  ``scorer`` is serial-only (it
    would have to be shipped to workers otherwise); pass ``workers=1``
    to use it.
    """
    if scorer is not None and workers > 1:
        raise ValueError("scorer requires workers=1 (not shipped to pools)")
    requests = list(requests)
    batches = plan_batches(requests, max_batch, max_delay)
    clock = clock if clock is not None else SimClock()
    stats = ServeStats(workers=workers, max_batch=max_batch,
                       max_delay=max_delay)
    stats.batches = len(batches)

    generation = zone.generation
    path = _zone_pathspec(zone) if batches and workers > 1 else ""
    swaps = 0

    def poll(index: int) -> None:
        nonlocal generation, path, swaps
        if on_dispatch is not None:
            on_dispatch(index)
        if publisher is not None:
            state = publisher.current_chain()
            if state is not None and state[0] > generation:
                generation, base, deltas = state
                path = "\n".join(str(p) for p in [base, *deltas])
                swaps += 1

    results: List[Optional[List[Verdict]]] = [None] * len(batches)
    latencies: List[float] = []

    def merge(index: int, result: BatchResult) -> None:
        verdicts, service, hits, kernel = result
        results[index] = verdicts
        stats.service_seconds += service
        stats.negcache_hits += hits
        stats.kernel.merge(kernel)
        batch = batches[index]
        latencies.extend((batch.dispatch_at - arrival + service) * 1e3
                         for arrival in batch.arrivals)

    started = time.perf_counter()
    with contextlib.ExitStack() as stack:
        if workers <= 1:
            engine = QueryEngine(
                detector, zone, generation=generation,
                negcache=NegativeVerdictCache(negcache_ttl, negcache_capacity)
                if negcache else None,
                scorer=scorer)
            pool = None
        else:
            key = (id(detector), zone.content_digest, bool(negcache),
                   float(negcache_ttl), int(negcache_capacity))
            _POOL.ensure(key, lambda: _build_engine(
                detector, zone, generation, negcache, negcache_ttl,
                negcache_capacity))
            initargs = (detector.catalog, detector.generator, key, path,
                        generation, negcache, negcache_ttl,
                        negcache_capacity)
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, initializer=_serve_pool_init,
                initargs=initargs))
        inflight: Dict[object, int] = {}
        next_index = 0
        while next_index < len(batches) or inflight:
            while next_index < len(batches) and len(inflight) < workers:
                index = next_index
                next_index += 1
                poll(index)
                batch = batches[index]
                clock.advance_to(batch.dispatch_at)
                task = (generation, path, batch.names, batch.dispatch_at)
                if pool is None:
                    merge(index, _serve_on(engine, task))
                else:
                    inflight[pool.submit(_serve_batch, task)] = index
            if inflight:
                done, _pending = wait(set(inflight),
                                      return_when=FIRST_COMPLETED)
                for future in done:
                    merge(inflight.pop(future), future.result())

    stats.wall_seconds = time.perf_counter() - started
    verdicts: List[Verdict] = []
    for chunk in results:
        verdicts.extend(chunk or ())
    stats.queries = len(verdicts)
    stats.dropped = len(requests) - len(verdicts)
    stats.generation_swaps = swaps
    for verdict in verdicts:
        stats.served_by_generation[verdict.generation] = \
            stats.served_by_generation.get(verdict.generation, 0) + 1
    stats.p50_ms = percentile(latencies, 50)
    stats.p99_ms = percentile(latencies, 99)
    return verdicts, stats
