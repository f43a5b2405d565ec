"""Run-level performance accounting: workers, stage timings, cache yield.

:class:`PerfReport` is to throughput what
:class:`~repro.faults.resilience.CrawlHealth` is to reliability: a
structured, mergeable record the pipeline fills in as it runs and the CLI
prints at the end.  Wall-clock numbers and the hit/miss split are
*execution metadata* — they vary with hardware and scheduling — so none of
them participate in snapshot digests or determinism checks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple, TypeVar

C = TypeVar("C", bound="Counters")


@functools.lru_cache(maxsize=None)
def _counter_fields(cls: type) -> Tuple[Tuple[str, bool], ...]:
    """``(name, is_mapping)`` per dataclass field of ``cls``, resolved
    once per class.  A field is a mapping when its default factory is a
    ``dict`` subclass (``dict`` or ``Counter``)."""
    return tuple(
        (f.name, isinstance(f.default_factory, type)
         and issubclass(f.default_factory, dict))
        for f in fields(cls))


@dataclass
class Counters:
    """Base for additive run counters.

    Subclasses are dataclasses whose fields are all numbers or
    ``dict``/``Counter`` tallies.  Every operation here is derived from
    that field list, so adding a counter is one field declaration:
    numbers add, mappings add per key, and deltas drop zero entries.
    """

    def merge(self, other: Optional["Counters"]) -> None:
        """Add ``other``'s counters into this one (``None`` adds nothing)."""
        if other is not None:
            self.apply_delta(vars(other))

    def apply_delta(self, delta: Mapping[str, Any]) -> None:
        """Add a :meth:`state_dict`-style mapping onto these counters.

        The stage runner records each executed stage's delta in the run
        manifest; when a later run loads that stage from cache, replaying
        the delta keeps run-level counters identical to a run that
        executed every stage.  Absent names add nothing.
        """
        for name, mapping in _counter_fields(type(self)):
            value = delta.get(name)
            if not value:
                continue
            if mapping:
                mine = getattr(self, name)
                for key, count in value.items():
                    if count:
                        mine[key] = mine.get(key, 0) + count
            else:
                setattr(self, name, getattr(self, name) + value)

    def copy(self: C) -> C:
        out: Dict[str, Any] = {}
        for name, mapping in _counter_fields(type(self)):
            value = getattr(self, name)
            out[name] = type(value)(value) if mapping else value
        return type(self)(**out)

    def delta(self: C, before: C) -> C:
        """These counters minus an earlier snapshot of them."""
        out: Dict[str, Any] = {}
        for name, mapping in _counter_fields(type(self)):
            now, then = getattr(self, name), getattr(before, name)
            if mapping:
                out[name] = type(now)({
                    key: count - then.get(key, 0)
                    for key, count in now.items()
                    if count != then.get(key, 0)})
            else:
                out[name] = now - then
        return type(self)(**out)

    def state_dict(self) -> Dict[str, Any]:
        """Every nonzero counter at full precision, mappings as plain
        dicts.  Zero entries are omitted, so a delta's state dict is
        sparse and :meth:`apply_delta` rebuilds the counters from it."""
        out: Dict[str, Any] = {}
        for name, mapping in _counter_fields(type(self)):
            value = getattr(self, name)
            if value:
                out[name] = dict(value) if mapping else value
        return out


@dataclass
class CacheStats(Counters):
    """Hit/miss/bypass counters for every :class:`CaptureCache` layer.

    ``*_bypasses`` counts lookups that arrived while the cache was
    disabled (``--no-capture-cache``), so a run always shows how much
    traffic the cache *would* have seen.
    """

    render_hits: int = 0
    render_misses: int = 0
    render_bypasses: int = 0
    feature_hits: int = 0
    feature_misses: int = 0
    feature_bypasses: int = 0
    spell_hits: int = 0
    spell_misses: int = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _rate(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    @property
    def render_hit_rate(self) -> float:
        return self._rate(self.render_hits, self.render_misses)

    @property
    def feature_hit_rate(self) -> float:
        return self._rate(self.feature_hits, self.feature_misses)

    @property
    def spell_hit_rate(self) -> float:
        return self._rate(self.spell_hits, self.spell_misses)

    @property
    def any_hits(self) -> bool:
        return (self.render_hits + self.feature_hits + self.spell_hits) > 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "render_hits": self.render_hits,
            "render_misses": self.render_misses,
            "render_bypasses": self.render_bypasses,
            "render_hit_rate": round(self.render_hit_rate, 4),
            "feature_hits": self.feature_hits,
            "feature_misses": self.feature_misses,
            "feature_bypasses": self.feature_bypasses,
            "feature_hit_rate": round(self.feature_hit_rate, 4),
            "spell_hits": self.spell_hits,
            "spell_misses": self.spell_misses,
            "spell_hit_rate": round(self.spell_hit_rate, 4),
        }


@dataclass
class KernelStats(Counters):
    """Packed-scan kernel accounting (:mod:`repro.squatting.packedscan`):
    throughput metadata, never digest input.

    ``rows`` counts every label presented to the kernel (slice rows or
    query names), ``survivors`` the rows that survived the vector reject,
    ``fast_hits`` the candidate-join rows among them.
    ``homograph_assists`` counts unique labels the vector homograph
    matcher handed to the scalar bucket walk (multi-candidate buckets or
    length-changing confusables — still resolved without the full
    cascade).  ``fallbacks`` maps fallback reason -> row count for the
    rows that ran the per-domain Python classifier.
    """

    rows: int = 0
    survivors: int = 0
    fast_hits: int = 0
    homograph_assists: int = 0
    fallbacks: Dict[str, int] = field(default_factory=dict)

    @property
    def fallback_total(self) -> int:
        return sum(self.fallbacks.values())

    @property
    def fallback_rate(self) -> float:
        return self.fallback_total / self.rows if self.rows else 0.0

    def count_fallback(self, reason: str, n: int = 1) -> None:
        if n:
            self.fallbacks[reason] = self.fallbacks.get(reason, 0) + n

    def as_dict(self) -> Dict[str, object]:
        return {
            "rows": self.rows,
            "survivors": self.survivors,
            "fast_hits": self.fast_hits,
            "homograph_assists": self.homograph_assists,
            "fallbacks": dict(sorted(self.fallbacks.items())),
            "fallback_rate": self.fallback_rate,
        }


@dataclass
class PerfReport:
    """Execution profile of one pipeline run.

    Attributes:
        scan_workers: process-pool width used for the snapshot scan.
        crawl_workers: modelled crawl scheduler width (worker ids and
            per-worker job counts; the crawl itself runs on one thread).
        train_workers: process-pool width for forest trees and CV folds.
        extract_workers: process-pool width for feature extraction.
        cache_enabled: whether the capture cache was active.
        stage_seconds: wall-clock seconds per pipeline stage.
        cached_stages: stages served from the artifact store instead of
            executing (incremental re-runs); they charge no wall clock.
        pages_extracted: pages that went through feature extraction.
        extract_seconds: wall clock spent in extraction batches.
        trees_fitted: forest trees fitted (final models, not CV folds).
        folds_fitted: cross-validation folds fitted.
        train_seconds: wall clock spent fitting and cross-validating.
        registered_scanned: registered domains classified by the zone scan.
        scan_seconds: wall clock spent scanning the zone snapshot.
        scan_kernel / serve_kernel / stream_kernel: the packed-scan
            kernel's :class:`KernelStats` per front (batch scan, serving,
            streaming).
        peak_rss_kb: peak resident set size sampled after the run (KB).
        cache: the run's :class:`CacheStats` (shared with the cache object,
            so it is always current).
    """

    scan_workers: int = 1
    crawl_workers: int = 1
    train_workers: int = 1
    extract_workers: int = 1
    cache_enabled: bool = True
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    cached_stages: List[str] = field(default_factory=list)
    pages_extracted: int = 0
    extract_seconds: float = 0.0
    trees_fitted: int = 0
    folds_fitted: int = 0
    train_seconds: float = 0.0
    registered_scanned: int = 0
    scan_seconds: float = 0.0
    scan_kernel: KernelStats = field(default_factory=KernelStats)
    enrichments_done: int = 0
    enrich_seconds: float = 0.0
    hedges_fired: int = 0
    negcache_hits: int = 0
    negcache_misses: int = 0
    queries_served: int = 0
    serve_seconds: float = 0.0
    serve_batches: int = 0
    serve_swaps: int = 0
    serve_negcache_hits: int = 0
    serve_kernel: KernelStats = field(default_factory=KernelStats)
    stream_events: int = 0
    stream_seconds: float = 0.0
    stream_segments: int = 0
    stream_cached_segments: int = 0
    stream_compactions: int = 0
    stream_detections: int = 0
    stream_latency_p50: float = 0.0
    stream_kernel: KernelStats = field(default_factory=KernelStats)
    diff_pairs: int = 0
    diff_seconds: float = 0.0
    peak_rss_kb: int = 0
    cache: CacheStats = field(default_factory=CacheStats)

    def record_stage(self, stage: str, seconds: float) -> None:
        """Accumulate wall-clock time for a named stage."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def record_cached_stage(self, stage: str) -> None:
        """Note a stage whose artifacts were loaded instead of computed."""
        if stage not in self.cached_stages:
            self.cached_stages.append(stage)

    def record_extraction(self, pages: int, seconds: float) -> None:
        """Accumulate one feature-extraction batch."""
        self.pages_extracted += pages
        self.extract_seconds += seconds

    def record_training(self, trees: int, folds: int, seconds: float) -> None:
        """Accumulate one training pass (final fit + CV folds)."""
        self.trees_fitted += trees
        self.folds_fitted += folds
        self.train_seconds += seconds

    def record_scan(self, domains: int, seconds: float,
                    kernel: Optional[KernelStats] = None) -> None:
        """Accumulate one zone scan (registered domains classified).

        ``kernel`` is the scan's :class:`KernelStats` (None when no
        kernel ran) — throughput metadata only (the digest-ban contract
        lives in the stage runner's ``THROUGHPUT_FIELDS``)."""
        self.registered_scanned += domains
        self.scan_seconds += seconds
        self.scan_kernel.merge(kernel)

    def record_enrichment(self, tasks: int, seconds: float,
                          hedges_fired: int = 0,
                          negcache_hits: int = 0,
                          negcache_misses: int = 0) -> None:
        """Accumulate one bulk-enrichment run (resolver stats).

        ``seconds`` is host wall clock; the resolver's simulated seconds
        stay inside its own :class:`~repro.enrich.resolver.ResolverStats`.
        """
        self.enrichments_done += tasks
        self.enrich_seconds += seconds
        self.hedges_fired += hedges_fired
        self.negcache_hits += negcache_hits
        self.negcache_misses += negcache_misses

    def record_serving(self, stats) -> None:
        """Accumulate one serving burst (query front stats).

        ``stats`` is a :class:`~repro.serve.server.ServeStats`.  The
        serving negcache is a different cache from the resolver's
        (verdicts vs lookup results), so its hits are tracked apart.
        """
        self.queries_served += stats.queries
        self.serve_batches += stats.batches
        self.serve_seconds += stats.wall_seconds
        self.serve_swaps += stats.generation_swaps
        self.serve_negcache_hits += stats.negcache_hits
        self.serve_kernel.merge(stats.kernel)

    def record_streaming(self, stats) -> None:
        """Accumulate one streaming run (driver stats).

        ``stats`` is a :class:`~repro.stream.driver.StreamStats`; host
        wall clock and sim-clock detection latency both land here as
        throughput metadata — neither participates in any digest.
        """
        self.stream_events += stats.events
        self.stream_seconds += stats.wall_seconds
        self.stream_segments += stats.segments
        self.stream_cached_segments += stats.cached_segments
        self.stream_compactions += stats.compactions
        self.stream_detections += stats.detections
        self.stream_latency_p50 = stats.latency_p50
        self.stream_kernel.merge(stats.kernel)

    def record_lifecycle(self, pairs: int, seconds: float) -> None:
        """Accumulate one snapshot-diff fan-out (lifecycle analytics)."""
        self.diff_pairs += pairs
        self.diff_seconds += seconds

    def record_peak_rss(self) -> None:
        """Sample the process's peak resident set size (best effort).

        Uses :func:`resource.getrusage`, so the number is cumulative for
        the process — repeated calls keep the maximum.  No-op on platforms
        without the ``resource`` module.
        """
        try:
            import resource
            import sys
        except ImportError:  # pragma: no cover - non-POSIX platforms
            return
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, KB on Linux
            peak //= 1024
        self.peak_rss_kb = max(self.peak_rss_kb, int(peak))

    @property
    def extract_pages_per_second(self) -> float:
        return self.pages_extracted / self.extract_seconds if self.extract_seconds else 0.0

    @property
    def scan_domains_per_second(self) -> float:
        return self.registered_scanned / self.scan_seconds if self.scan_seconds else 0.0

    @property
    def enrichments_per_second(self) -> float:
        return self.enrichments_done / self.enrich_seconds if self.enrich_seconds else 0.0

    @property
    def serve_qps(self) -> float:
        return self.queries_served / self.serve_seconds if self.serve_seconds else 0.0

    @property
    def stream_events_per_second(self) -> float:
        return self.stream_events / self.stream_seconds if self.stream_seconds else 0.0

    @property
    def negcache_hit_rate(self) -> float:
        total = self.negcache_hits + self.negcache_misses
        return self.negcache_hits / total if total else 0.0

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "scan_workers": self.scan_workers,
            "crawl_workers": self.crawl_workers,
            "train_workers": self.train_workers,
            "extract_workers": self.extract_workers,
            "cache_enabled": self.cache_enabled,
            "stage_seconds": {k: round(v, 4)
                              for k, v in sorted(self.stage_seconds.items())},
            "total_seconds": round(self.total_seconds, 4),
            "cached_stages": list(self.cached_stages),
            "pages_extracted": self.pages_extracted,
            "extract_seconds": round(self.extract_seconds, 4),
            "trees_fitted": self.trees_fitted,
            "folds_fitted": self.folds_fitted,
            "train_seconds": round(self.train_seconds, 4),
            "registered_scanned": self.registered_scanned,
            "scan_seconds": round(self.scan_seconds, 4),
            "scan_domains_per_second": round(self.scan_domains_per_second, 1),
            "scan_kernel_rows": self.scan_kernel.rows,
            "scan_fallbacks": dict(sorted(self.scan_kernel.fallbacks.items())),
            "scan_fallback_rate": round(self.scan_kernel.fallback_rate, 6),
            "enrichments_done": self.enrichments_done,
            "enrich_seconds": round(self.enrich_seconds, 4),
            "enrichments_per_second": round(self.enrichments_per_second, 1),
            "hedges_fired": self.hedges_fired,
            "negcache_hits": self.negcache_hits,
            "negcache_misses": self.negcache_misses,
            "negcache_hit_rate": round(self.negcache_hit_rate, 4),
            "queries_served": self.queries_served,
            "serve_seconds": round(self.serve_seconds, 4),
            "serve_qps": round(self.serve_qps, 1),
            "serve_batches": self.serve_batches,
            "serve_swaps": self.serve_swaps,
            "serve_negcache_hits": self.serve_negcache_hits,
            "serve_kernel_rows": self.serve_kernel.rows,
            "serve_fallbacks": dict(sorted(self.serve_kernel.fallbacks.items())),
            "serve_fallback_rate": round(self.serve_kernel.fallback_rate, 6),
            "stream_events": self.stream_events,
            "stream_seconds": round(self.stream_seconds, 4),
            "stream_events_per_second": round(self.stream_events_per_second, 1),
            "stream_segments": self.stream_segments,
            "stream_cached_segments": self.stream_cached_segments,
            "stream_compactions": self.stream_compactions,
            "stream_detections": self.stream_detections,
            "stream_latency_p50": round(self.stream_latency_p50, 4),
            "stream_kernel_rows": self.stream_kernel.rows,
            "stream_fallbacks": dict(sorted(self.stream_kernel.fallbacks.items())),
            "stream_fallback_rate": round(self.stream_kernel.fallback_rate, 6),
            "diff_pairs": self.diff_pairs,
            "diff_seconds": round(self.diff_seconds, 4),
            "peak_rss_kb": self.peak_rss_kb,
            "cache": self.cache.to_dict(),
        }

    def format(self, timings: bool = True) -> str:
        """Human-readable multi-line report (CLI output).

        ``timings=False`` omits the wall-clock block so the output is
        deterministic for a given config (the CLI routes timings to
        stderr for exactly this reason — ``diff``-ing two runs' stdout
        must stay byte-identical).
        """
        lines = [
            "perf report",
            f"  scan workers:    {self.scan_workers}",
            f"  crawl workers:   {self.crawl_workers}",
            f"  train workers:   {self.train_workers}",
            f"  extract workers: {self.extract_workers}",
            f"  capture cache:   {'on' if self.cache_enabled else 'off'}",
        ]
        if timings and self.stage_seconds:
            lines.append("  stage seconds:")
            for stage, seconds in sorted(self.stage_seconds.items()):
                lines.append(f"    {stage}: {seconds:.2f}")
            lines.append(f"    total: {self.total_seconds:.2f}")
        stats = self.cache
        if self.cache_enabled:
            lines.append(
                f"  render cache:    {stats.render_hits} hits / "
                f"{stats.render_misses} misses "
                f"({100 * stats.render_hit_rate:.1f}%)")
            lines.append(
                f"  feature cache:   {stats.feature_hits} hits / "
                f"{stats.feature_misses} misses "
                f"({100 * stats.feature_hit_rate:.1f}%)")
            lines.append(
                f"  spell memo:      {stats.spell_hits} hits / "
                f"{stats.spell_misses} misses "
                f"({100 * stats.spell_hit_rate:.1f}%)")
        else:
            lines.append(
                f"  cache bypassed:  {stats.render_bypasses} render / "
                f"{stats.feature_bypasses} feature lookups")
        return "\n".join(lines)

    @staticmethod
    def _kernel_line(front: str, kernel: KernelStats) -> str:
        fallbacks = ", ".join(f"{reason}={count}" for reason, count
                              in sorted(kernel.fallbacks.items())) or "none"
        return (f"  {front} kernel: {kernel.rows} rows, "
                f"{100 * kernel.fallback_rate:.3f}% scalar fallback "
                f"({fallbacks})")

    def format_timings(self) -> str:
        """The wall-clock block alone ("" when no stage ran)."""
        if not self.stage_seconds and not self.cached_stages:
            return ""
        lines = ["perf timings (wall clock)"]
        for stage, seconds in sorted(self.stage_seconds.items()):
            lines.append(f"  {stage}: {seconds:.2f}s")
        for stage in self.cached_stages:
            lines.append(f"  {stage}: cached (artifact store)")
        lines.append(f"  total: {self.total_seconds:.2f}s")
        if self.pages_extracted:
            lines.append(
                f"  extraction: {self.pages_extracted} pages in "
                f"{self.extract_seconds:.2f}s "
                f"({self.extract_pages_per_second:.1f} pages/s)")
        if self.train_seconds:
            lines.append(
                f"  training: {self.trees_fitted} trees + "
                f"{self.folds_fitted} CV folds in {self.train_seconds:.2f}s")
        if self.registered_scanned:
            lines.append(
                f"  scan: {self.registered_scanned} registered domains in "
                f"{self.scan_seconds:.2f}s "
                f"({self.scan_domains_per_second:.0f} domains/s)")
        if self.scan_kernel.rows:
            lines.append(self._kernel_line("scan", self.scan_kernel))
        if self.enrichments_done:
            lines.append(
                f"  enrichment: {self.enrichments_done} lookups in "
                f"{self.enrich_seconds:.2f}s "
                f"({self.enrichments_per_second:.0f} lookups/s, "
                f"{self.hedges_fired} hedges, "
                f"{100 * self.negcache_hit_rate:.1f}% negcache hits)")
        if self.queries_served:
            lines.append(
                f"  serving: {self.queries_served} queries in "
                f"{self.serve_batches} batches, "
                f"{self.serve_seconds:.2f}s "
                f"({self.serve_qps:.0f} qps, "
                f"{self.serve_swaps} generation swaps, "
                f"{self.serve_negcache_hits} negcache hits)")
        if self.serve_kernel.rows:
            lines.append(self._kernel_line("serve", self.serve_kernel))
        if self.stream_events:
            lines.append(
                f"  streaming: {self.stream_events} events in "
                f"{self.stream_segments} segments "
                f"({self.stream_cached_segments} cached), "
                f"{self.stream_seconds:.2f}s "
                f"({self.stream_events_per_second:.0f} events/s, "
                f"{self.stream_compactions} compactions, "
                f"{self.stream_detections} detections, "
                f"p50 latency {self.stream_latency_p50:.2f}s sim)")
        if self.stream_kernel.rows:
            lines.append(self._kernel_line("stream", self.stream_kernel))
        if self.peak_rss_kb:
            lines.append(f"  peak RSS: {self.peak_rss_kb / 1024:.1f} MiB")
        return "\n".join(lines)
