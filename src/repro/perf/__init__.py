"""Parallel execution engine + content-addressed capture cache.

The paper's system is explicitly at-scale: §3.1 scans a 224M-record DNS
snapshot, §3.2 crawls 657K domains with 5 machines × 20 browser
instances.  This package supplies the reproduction's execution engine for
that scale:

* :mod:`repro.perf.engine` — sharded process-pool maps (snapshot scan)
  with a serial fallback and a deterministic ordered merge, plus
  :class:`PoolSlot`, the per-process state of the packed scan's pool
  workers;
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
from repro.perf.engine import PoolSlot, process_map, shard
from repro.perf.report import CacheStats, PerfReport

__all__ = [
    "CacheStats",
    "CaptureCache",
    "PerfReport",
    "PoolSlot",
    "process_map",
    "shard",
]
