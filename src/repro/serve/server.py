"""The serving front.

:func:`serve_load` drives a planned micro-batch stream through one loop
on one :class:`QueryEngine`: for each batch it polls the publisher,
advances the clock to the batch's dispatch time, runs the batch on the
engine, and merges the result.

Hot reload: before each dispatch the front polls the
:class:`~repro.serve.publisher.SnapshotPublisher` (when given one); when
a strictly newer generation is published, the engine reopens the
published file (or base+delta chain) and swaps to it before the batch
runs.  So batch *i* is answered by the newest generation published
before its dispatch, which depends only on the publish schedule.  Every
verdict is pure in (name, generation), so correctness is per-request
checkable regardless (see ``offline_verdicts``).

Latency accounting mixes two clocks on purpose: queueing delay
(``dispatch - arrival``) is simulated time from the batch plan, service
time is measured host time for the batch's vectorized classify.  Both
are throughput metadata — never inputs to a verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.dns.packedzone import PackedZone
from repro.faults.clock import SimClock
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
            "max_batch": self.max_batch, "max_delay": self.max_delay,
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


def _open_pathspec(pathspec: str):
    """mmap one snapshot, or a newline-joined base+delta chain (the
    streaming publisher's ``current_chain``) as a SegmentedZone."""
    paths = [entry for entry in pathspec.split("\n") if entry]
    if len(paths) == 1:
        return PackedZone.load(paths[0])
    from repro.dns.deltazone import SegmentedZone  # lazy: no import cycle
    return SegmentedZone.load_chain(paths[0], paths[1:])


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


def serve_load(detector, zone: PackedZone,
               requests: Iterable[Tuple[float, str]],
               max_batch: int = 64, max_delay: float = 0.005,
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
    publish mid-burst deterministically.  ``scorer`` is passed to the
    engine and becomes part of every verdict.
    """
    requests = list(requests)
    batches = plan_batches(requests, max_batch, max_delay)
    clock = clock if clock is not None else SimClock()
    stats = ServeStats(max_batch=max_batch, max_delay=max_delay)
    stats.batches = len(batches)
    started = time.perf_counter()
    engine = QueryEngine(
        detector, zone, generation=zone.generation,
        negcache=NegativeVerdictCache(negcache_ttl, negcache_capacity)
        if negcache else None,
        scorer=scorer)

    generation = zone.generation
    path = ""
    results: List[List[Verdict]] = []
    latencies: List[float] = []
    for index, batch in enumerate(batches):
        if on_dispatch is not None:
            on_dispatch(index)
        if publisher is not None:
            state = publisher.current_chain()
            if state is not None and state[0] > generation:
                generation, base, deltas = state
                path = "\n".join(str(p) for p in [base, *deltas])
                stats.generation_swaps += 1
        clock.advance_to(batch.dispatch_at)
        verdicts, service, hits, kernel = _serve_on(
            engine, (generation, path, batch.names, batch.dispatch_at))
        results.append(verdicts)
        stats.service_seconds += service
        stats.negcache_hits += hits
        stats.kernel.merge(kernel)
        latencies.extend((batch.dispatch_at - arrival + service) * 1e3
                         for arrival in batch.arrivals)

    stats.wall_seconds = time.perf_counter() - started
    verdicts = [verdict for chunk in results for verdict in chunk]
    stats.queries = len(verdicts)
    stats.dropped = len(requests) - len(verdicts)
    for verdict in verdicts:
        stats.served_by_generation[verdict.generation] = \
            stats.served_by_generation.get(verdict.generation, 0) + 1
    stats.p50_ms = percentile(latencies, 50)
    stats.p99_ms = percentile(latencies, 99)
    return verdicts, stats
