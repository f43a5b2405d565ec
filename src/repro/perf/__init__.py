"""Parallel execution engine + content-addressed capture cache.

The paper's system is explicitly at-scale: §3.1 scans a 224M-record DNS
snapshot, §3.2 crawls 657K domains with 5 machines × 20 browser
instances.  This package supplies the reproduction's execution engine for
that scale:

* :mod:`repro.perf.engine` — the sharded process-pool map every fan-out
  uses, which hands each task its run's context, decides serial versus
  pool, and merges results in shard order;
* :mod:`repro.perf.cache` — a content-addressed render/OCR/feature cache
  that lets duplicate page templates (parked pages, marketplace landers,
  template phishing kits) skip the expensive render → OCR → spell-correct
  → feature path entirely;
* :mod:`repro.perf.report` — :class:`PerfReport`, the run-level account of
  workers, stage timings, and cache effectiveness, printed by the CLI
  next to :class:`~repro.faults.resilience.CrawlHealth`.

Everything here preserves the repo's determinism contract: results and
snapshot digests are byte-identical for any worker count and for cache
on/off; only wall-clock timings and hit/miss split points are execution
metadata (see DESIGN.md, "The execution engine's determinism contract").
"""

from repro.perf.cache import CaptureCache
from repro.perf.engine import process_map, shard, work_shards
from repro.perf.report import CacheStats, PerfReport

__all__ = [
    "CacheStats",
    "CaptureCache",
    "PerfReport",
    "process_map",
    "shard",
    "work_shards",
]
