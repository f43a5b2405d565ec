"""The streaming driver: ingest → delta-scan → (conditional compact).

This is the refactor's top layer — the loop that turns the one-shot
batch pipeline into an always-on incremental feed while keeping every
byte of the batch run's output contract:

* an :class:`~repro.phishworld.events.EventTapeConfig` yields a
  deterministic tape; a prefix builds the initial base snapshot and the
  rest streams through in fixed-size event windows;
* each window seals into a delta segment
  (:class:`~repro.dns.deltazone.DeltaSegmentBuilder`) and is scanned
  *alone* — scan work per flush is proportional to the delta, not the
  base — with the cached :class:`DetectorMatrices` reused across
  segments by forcing the base snapshot's label width;
* every ``compact_every`` segments the deltas fold into a new base
  (:func:`~repro.dns.deltazone.compact`) and the driver asserts the
  streaming match state is byte-identical to a from-scratch batch scan
  of the compacted union — the determinism contract, checked live at
  every compaction boundary;
* each segment runs through the content-addressed stage graph
  (``ingest`` → ``delta_scan``) under its own per-segment run id, so a
  killed driver resumes by loading cached per-segment artifacts from the
  :class:`~repro.stages.store.ArtifactStore` instead of re-scanning;
* when a :class:`~repro.serve.publisher.SnapshotPublisher` is attached,
  the base publishes first (so sealed deltas bind to the *stamped* base
  digest) and every segment publishes as a chain generation — the
  serving layer picks up new registrations between compactions via its
  existing hot-reload poll.

Latency accounting is sim-clock only: an ``add`` event's detection
latency is (segment flush time − event time), where the flush advances
the shared :class:`~repro.faults.clock.SimClock` to the window's last
event.  Events/sec is host wall clock.  Both are throughput metadata —
neither feeds a digest.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.dns.deltazone import (
    DeltaSegment,
    DeltaSegmentBuilder,
    _registered,
    compact,
)
from repro.dns.packedzone import PackedZone, pack_zone
from repro.durable import write_atomic
from repro.faults.clock import SimClock
from repro.perf.report import KernelStats
from repro.phishworld.events import (
    EventTapeConfig,
    ZoneEvent,
    apply_event,
    build_tape,
    digest_tape,
    replay_into_store,
)
from repro.serve.loadgen import percentile
from repro.squatting import packedscan
from repro.squatting.packedscan import PackedScanContext, packed_scan
from repro.stages.artifacts import digest_packed_zone, digest_squat_matches
from repro.stages.graph import Stage, StageGraph
from repro.stages.runner import run_keyed
from repro.stages.store import ArtifactStore

PathLike = Union[str, Path]


@dataclass
class StreamStats:
    """One streaming run's accounting (throughput metadata only)."""

    events: int = 0                 # streamed events (excludes base build)
    base_events: int = 0
    adds: int = 0
    removals: int = 0
    segments: int = 0
    cached_segments: int = 0        # segments loaded from the artifact store
    compactions: int = 0
    digest_checks: int = 0          # streaming-vs-batch equality assertions
    detections: int = 0             # newly matched registrations
    live_records: int = 0
    live_matches: int = 0
    wall_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)  # sim seconds
    # packed scans that actually ran (cached segments charge nothing)
    kernel: KernelStats = field(default_factory=KernelStats)

    @property
    def events_per_sec(self) -> float:
        return self.events / max(self.wall_seconds, 1e-9)

    @property
    def latency_p50(self) -> float:
        return percentile(self.latencies, 50)

    @property
    def latency_p95(self) -> float:
        return percentile(self.latencies, 95)

    def as_dict(self) -> Dict[str, object]:
        return {
            "events": self.events, "base_events": self.base_events,
            "adds": self.adds, "removals": self.removals,
            "segments": self.segments,
            "cached_segments": self.cached_segments,
            "compactions": self.compactions,
            "digest_checks": self.digest_checks,
            "detections": self.detections,
            "live_records": self.live_records,
            "live_matches": self.live_matches,
            "wall_seconds": round(self.wall_seconds, 4),
            "events_per_sec": round(self.events_per_sec, 1),
            "latency_p50_s": round(self.latency_p50, 4),
            "latency_p95_s": round(self.latency_p95, 4),
            "kernel_rows": self.kernel.rows,
            "fallbacks": dict(sorted(self.kernel.fallbacks.items())),
        }


@dataclass
class StreamOutcome:
    """What one driver run produced."""

    base: PackedZone                # newest base snapshot
    pending: List[DeltaSegment]     # deltas not yet folded into the base
    matches: List                   # live matches, union first-seen order
    match_digest: str
    tape_digest: str
    stats: StreamStats
    interrupted: bool = False


class StreamingDriver:
    """Drives one event tape through ingest → delta-scan → compact.

    The driver is restartable at segment granularity: give it a
    persistent :class:`ArtifactStore` and a killed run's completed
    segments replay from cache (``stats.cached_segments`` counts them),
    landing on the same bytes a never-killed run produces.
    """

    def __init__(self, detector, tape_config: Optional[EventTapeConfig] = None,
                 *, base_events: int = 400, segment_events: int = 120,
                 compact_every: int = 4, workers: int = 1,
                 delta_dir: Optional[PathLike] = None,
                 store: Optional[ArtifactStore] = None,
                 publisher=None, perf=None,
                 clock: Optional[SimClock] = None,
                 stream_id: str = "stream",
                 verify: bool = False) -> None:
        if segment_events <= 0:
            raise ValueError("segment_events must be positive")
        if compact_every <= 0:
            raise ValueError("compact_every must be positive")
        self.detector = detector
        self.tape_config = tape_config or EventTapeConfig()
        self.base_events = int(base_events)
        self.segment_events = int(segment_events)
        self.compact_every = int(compact_every)
        self.workers = int(workers)
        self.delta_dir = Path(delta_dir) if delta_dir is not None else None
        self.store = store if store is not None else ArtifactStore()
        self.publisher = publisher
        self.perf = perf
        self.clock = clock if clock is not None else SimClock()
        self.stream_id = stream_id
        self.verify = bool(verify)

        # streaming state (rebuilt by run())
        self._base: Optional[PackedZone] = None
        self._segments: List[DeltaSegment] = []
        self._union: Dict[str, None] = {}       # live names, ZoneStore order
        self._reg_count: Dict[str, int] = {}    # registered -> live names
        self._match_index: Dict[str, object] = {}   # registered -> SquatMatch
        self._width: Optional[int] = None

    # ------------------------------------------------------------------
    # union bookkeeping (ordered-dict semantics == ZoneStore)
    # ------------------------------------------------------------------
    def _ingest_event(self, event: ZoneEvent, stats: StreamStats) -> None:
        name = event.name.lower().rstrip(".")
        reg = _registered(name)
        if event.kind == "add":
            if name not in self._union:
                self._union[name] = None
                self._reg_count[reg] = self._reg_count.get(reg, 0) + 1
            stats.adds += 1
            return
        if name in self._union:
            del self._union[name]
            left = self._reg_count[reg] - 1
            if left:
                self._reg_count[reg] = left
            else:
                del self._reg_count[reg]
                # the registration is gone from the union: its verdict
                # must not survive into the next boundary digest
                self._match_index.pop(reg, None)
        stats.removals += 1

    def current_matches(self) -> List:
        """Live matches in the union's registered first-seen order.

        This is the order a batch scan over the compacted union emits,
        so ``digest_squat_matches`` over it is directly comparable."""
        seen: Set[str] = set()
        ordered: List = []
        for name in self._union:
            reg = _registered(name)
            if reg in seen:
                continue
            seen.add(reg)
            match = self._match_index.get(reg)
            if match is not None:
                ordered.append(match)
        return ordered

    # ------------------------------------------------------------------
    # per-segment stage graph
    # ------------------------------------------------------------------
    def _run_segment(self, seq: int, events: Sequence[ZoneEvent],
                     stats: StreamStats) -> bytes:
        base_digest = self._base.content_digest
        detector, workers, width = self.detector, self.workers, self._width

        def ingest(_inputs, _ctx):
            builder = DeltaSegmentBuilder()
            for event in events:
                apply_event(builder, event)
            return {"segment_bytes": builder.to_bytes(seq, base_digest)}

        def delta_scan(inputs, _ctx):
            segment = DeltaSegment.from_bytes(inputs["segment_bytes"])
            if segment.zone.n_records == 0:
                return {"segment_matches": []}
            matches = packed_scan(
                detector, segment.zone, workers=workers, width=width)
            stats.kernel.merge(packedscan.take_last_scan_stats())
            return {"segment_matches": matches}

        graph = StageGraph([
            Stage(name="ingest", compute=ingest,
                  outputs=("segment_bytes",),
                  digesters={"segment_bytes": lambda data: digest_packed_zone(
                      PackedZone.from_bytes(data))}),
            Stage(name="delta_scan", compute=delta_scan,
                  inputs=("segment_bytes",),
                  outputs=("segment_matches",),
                  digesters={"segment_matches": digest_squat_matches}),
        ])
        run_id = f"{self.stream_id}-seg-{seq:05d}"
        context = hashlib.sha256(
            f"{base_digest}\n{self._tape_digest}\n{seq}".encode()).hexdigest()
        outcome, cached = run_keyed(graph, self.store, run_id, context,
                                    perf=self.perf, clock=self.clock)
        stats.cached_segments += int(cached)
        seg_bytes = outcome.artifacts["segment_bytes"].payload
        seg_matches = outcome.artifacts["segment_matches"].payload
        self._absorb_matches(seg_matches, events, stats)
        return seg_bytes

    def _absorb_matches(self, seg_matches, events: Sequence[ZoneEvent],
                        stats: StreamStats) -> None:
        """Fold a segment's scan results into the live match index and
        charge sim-clock detection latency for newly matched regs."""
        flush_at = self.clock.now()
        newly: Set[str] = set()
        for match in seg_matches:
            reg = match.domain
            if reg not in self._reg_count:
                continue        # tombstoned inside the same window
            if reg not in self._match_index:
                newly.add(reg)
            self._match_index[reg] = match
        counted: Set[str] = set()
        for event in events:
            if event.kind != "add":
                continue
            reg = _registered(event.name.lower().rstrip("."))
            if reg in newly and reg not in counted:
                counted.add(reg)
                stats.latencies.append(flush_at - event.at)
        stats.detections += len(newly)

    # ------------------------------------------------------------------
    # compaction boundary
    # ------------------------------------------------------------------
    def _compact(self, stats: StreamStats) -> None:
        if self.verify:
            # re-check each segment's payload digest (the base was
            # verified at install); compact checks the chain binding
            for segment in self._segments:
                segment.verify()
        compacted = compact(self._base, self._segments)
        batch = packed_scan(self.detector, compacted, workers=self.workers)
        stats.kernel.merge(packedscan.take_last_scan_stats())
        streaming = self.current_matches()
        stream_digest = digest_squat_matches(streaming)
        batch_digest = digest_squat_matches(batch)
        stats.digest_checks += 1
        if stream_digest != batch_digest:
            raise RuntimeError(
                f"determinism contract broken at compaction boundary: "
                f"streaming match digest {stream_digest[:12]}… != batch "
                f"{batch_digest[:12]}… ({len(streaming)} vs {len(batch)} "
                f"matches)")
        stats.compactions += 1
        self._segments = []
        self._install_base(compacted)

    def _install_base(self, zone: PackedZone) -> None:
        if self.publisher is not None:
            # publish first, reopen from the published file: sealed
            # deltas must bind to the digest readers actually see
            _generation, path = self.publisher.publish(zone)
            zone = PackedZone.load(path)
        if self.verify:
            zone.verify()
        self._base = zone
        width = PackedScanContext(self.detector, zone).width
        self._width = width if self._width is None else max(self._width, width)

    # ------------------------------------------------------------------
    def run(self, limit_segments: Optional[int] = None) -> StreamOutcome:
        """Stream the whole tape; returns the final state and accounting.

        ``limit_segments`` stops after that many segments without the
        final compaction — the kill/resume harness's mid-stream crash.
        """
        stats = StreamStats()
        tape = build_tape(self.tape_config)
        self._tape_digest = digest_tape(tape)
        base_tape = tape[:self.base_events]
        stream_tape = tape[self.base_events:]
        stats.base_events = len(base_tape)

        # base snapshot: a plain batch build over the tape prefix
        self._union.clear()
        self._reg_count.clear()
        self._match_index.clear()
        self._segments = []
        self._width = None
        for event in base_tape:
            self._ingest_event(event, stats)
        stats.adds = stats.removals = 0     # base build is not streaming
        self._install_base(pack_zone(replay_into_store(base_tape)))
        if base_tape:
            self.clock.advance_to(base_tape[-1].at)
        for match in packed_scan(self.detector, self._base,
                                 workers=self.workers, width=self._width):
            self._match_index[match.domain] = match
        stats.kernel.merge(packedscan.take_last_scan_stats())

        interrupted = False
        started = time.perf_counter()
        seq = 0
        for start in range(0, len(stream_tape), self.segment_events):
            if limit_segments is not None and seq >= limit_segments:
                interrupted = True
                break
            seq += 1
            window = stream_tape[start:start + self.segment_events]
            for event in window:
                self._ingest_event(event, stats)
            self.clock.advance_to(window[-1].at)
            seg_bytes = self._run_segment(seq, window, stats)
            segment = DeltaSegment.from_bytes(seg_bytes)
            if self.verify:
                segment.verify()
            self._segments.append(segment)
            stats.events += len(window)
            stats.segments += 1
            if self.delta_dir is not None:
                write_atomic(self.delta_dir / f"seg-{seq:05d}.pzon", seg_bytes)
            if self.publisher is not None:
                self.publisher.publish_delta(seg_bytes)
            if seq % self.compact_every == 0:
                self._compact(stats)
        if self._segments and not interrupted:
            self._compact(stats)
        stats.wall_seconds = time.perf_counter() - started

        matches = self.current_matches()
        stats.live_records = len(self._union)
        stats.live_matches = len(matches)
        if self.perf is not None and hasattr(self.perf, "record_streaming"):
            self.perf.record_streaming(stats)
        return StreamOutcome(
            base=self._base, pending=list(self._segments),
            matches=matches, match_digest=digest_squat_matches(matches),
            tape_digest=self._tape_digest, stats=stats,
            interrupted=interrupted)
