"""Dated snapshot series: the longitudinal world the lifecycle study reads.

The paper freezes one zone instant; the longitudinal squatting studies
(PAPERS.md: combosquatting over time, registration→detection→
deregistration) observe a *sequence* of dated snapshots and measure the
churn between them.  This module replays one deterministic PR 8 event
tape — now with re-registration and parked→weaponized churn
(:class:`~repro.phishworld.events.EventTapeConfig`'s lifecycle shares) —
into a dated series of PZON packs:

* snapshot 0 packs the tape's ``base_events`` prefix; every later
  snapshot advances by ``events_per_snapshot`` events, sealed into a
  delta segment and folded with :func:`~repro.dns.deltazone.compact`,
  which is byte-identical to packing the replayed prefix from scratch
  (DESIGN.md §14) — so each dated pack is exactly the zone state at its
  cut point;
* every advance runs through the content-addressed stage graph under a
  per-snapshot run id (``{series_id}-snap-{index:03d}``) whose context
  digest binds the tape, the predecessor's pack digest, and the cut —
  re-running against the same :class:`~repro.stages.store.ArtifactStore`
  loads every unchanged snapshot from cache (``stats.cached_snapshots``)
  and a config change invalidates exactly the suffix it affects;
* dates are pure config arithmetic (``start_date + index *
  cadence_days``): no wall clock touches the series, so the same config
  always yields the same dated packs and the same
  :meth:`SnapshotSeries.series_digest`.

This pushes the artifact store through dozens of generations sharing
cached stages — the scale the incremental machinery had not yet seen.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.dns.deltazone import DeltaSegment, DeltaSegmentBuilder, compact
from repro.dns.packedzone import PackedZone, pack_zone
from repro.phishworld.events import (
    EventTapeConfig,
    ZoneEvent,
    apply_event,
    build_tape,
    digest_tape,
    replay_into_store,
)
from repro.stages.artifacts import digest_packed_zone
from repro.stages.graph import Stage, StageGraph
from repro.stages.runner import run_keyed
from repro.stages.store import ArtifactStore


@dataclass(frozen=True)
class SeriesConfig:
    """Scale/churn knobs for one deterministic dated series."""

    seed: int = 1803
    n_snapshots: int = 8
    base_events: int = 600          # tape prefix behind snapshot 0
    events_per_snapshot: int = 250  # churn window between snapshots
    start_date: str = "2018-03-01"  # ISO date of snapshot 0
    cadence_days: int = 7           # days between snapshots
    rate: float = 50.0
    remove_share: float = 0.16      # livelier takedowns than the default
    squat_share: float = 0.40
    reregister_share: float = 0.10
    weaponize_share: float = 0.08
    n_brands: int = 702

    def __post_init__(self) -> None:
        if self.n_snapshots < 1:
            raise ValueError("a series needs at least one snapshot")
        if self.events_per_snapshot < 1:
            raise ValueError("events_per_snapshot must be positive")
        _dt.date.fromisoformat(self.start_date)   # fail fast on bad dates

    @property
    def n_events(self) -> int:
        return self.base_events \
            + (self.n_snapshots - 1) * self.events_per_snapshot

    def tape_config(self) -> EventTapeConfig:
        return EventTapeConfig(
            seed=self.seed, n_events=self.n_events, rate=self.rate,
            remove_share=self.remove_share, squat_share=self.squat_share,
            reregister_share=self.reregister_share,
            weaponize_share=self.weaponize_share, n_brands=self.n_brands)

    def date_of(self, index: int) -> str:
        day = _dt.date.fromisoformat(self.start_date) \
            + _dt.timedelta(days=index * self.cadence_days)
        return day.isoformat()


@dataclass
class DatedSnapshot:
    """One dated zone state (``date`` is pure config arithmetic)."""

    index: int
    date: str
    zone: PackedZone
    events: int                     # cumulative tape events behind it
    cached: bool = False            # loaded from the artifact store

    @property
    def digest(self) -> str:
        return self.zone.content_digest


@dataclass
class SeriesStats:
    """One generation run's accounting (throughput metadata only)."""

    snapshots: int = 0
    cached_snapshots: int = 0
    events: int = 0
    wall_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {"snapshots": self.snapshots,
                "cached_snapshots": self.cached_snapshots,
                "events": self.events,
                "wall_seconds": round(self.wall_seconds, 4)}


@dataclass
class SnapshotSeries:
    """The generated dated series plus its provenance digests."""

    config: SeriesConfig
    snapshots: List[DatedSnapshot]
    tape_digest: str
    stats: SeriesStats = field(default_factory=SeriesStats)

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self) -> Iterator[DatedSnapshot]:
        return iter(self.snapshots)

    def __getitem__(self, index: int) -> DatedSnapshot:
        return self.snapshots[index]

    def pairs(self) -> Iterator[Tuple[DatedSnapshot, DatedSnapshot]]:
        """Consecutive snapshot pairs, the diff kernel's unit of work."""
        for older, newer in zip(self.snapshots, self.snapshots[1:]):
            yield older, newer

    @property
    def series_digest(self) -> str:
        """Canonical digest over the dated pack chain."""
        hasher = hashlib.sha256()
        hasher.update(b"snapshot-series\n")
        hasher.update(f"{self.tape_digest}\n".encode())
        for snap in self.snapshots:
            hasher.update(f"{snap.index}|{snap.date}|{snap.digest}\n"
                          .encode())
        return hasher.hexdigest()


def generate_series(config: Optional[SeriesConfig] = None, *,
                    store: Optional[ArtifactStore] = None,
                    perf=None, series_id: str = "series") -> SnapshotSeries:
    """Generate (or resume) the dated series for ``config``.

    Pure in the config: the same config yields the same dated packs and
    series digest whether computed fresh, resumed from a partially
    filled store, or re-run against a fully warm one.
    """
    config = config or SeriesConfig()
    store = store if store is not None else ArtifactStore()
    stats = SeriesStats()
    started = time.perf_counter()

    tape = build_tape(config.tape_config())
    tape_digest = digest_tape(tape)
    snapshots: List[DatedSnapshot] = []

    # snapshot 0: pack the tape prefix from scratch
    base_tape = tape[:config.base_events]

    def ingest_base(_inputs, _ctx):
        return {"snapshot_bytes": pack_zone(
            replay_into_store(base_tape)).to_bytes()}

    base_graph = StageGraph([
        Stage(name="ingest_base", compute=ingest_base,
              outputs=("snapshot_bytes",),
              digesters={"snapshot_bytes": lambda data: digest_packed_zone(
                  PackedZone.from_bytes(data))}),
    ])
    base_context = hashlib.sha256(
        f"{tape_digest}\n{config.base_events}\nbase".encode()).hexdigest()
    outcome, cached = run_keyed(
        base_graph, store, f"{series_id}-snap-000", base_context, perf)
    zone = PackedZone.from_bytes(outcome.artifacts["snapshot_bytes"].payload)
    snapshots.append(DatedSnapshot(
        index=0, date=config.date_of(0), zone=zone,
        events=len(base_tape), cached=cached))
    stats.snapshots += 1
    stats.cached_snapshots += int(cached)
    stats.events += len(base_tape)

    # later snapshots: seal the window into a delta, fold with compact()
    for index in range(1, config.n_snapshots):
        start = config.base_events \
            + (index - 1) * config.events_per_snapshot
        window: List[ZoneEvent] = tape[start:start
                                       + config.events_per_snapshot]
        prev = snapshots[-1].zone
        prev_digest = prev.content_digest

        def seal(_inputs, _ctx, window=window, seq=index,
                 base_digest=prev_digest):
            builder = DeltaSegmentBuilder()
            for event in window:
                apply_event(builder, event)
            return {"delta_bytes": builder.to_bytes(seq, base_digest)}

        def advance(inputs, _ctx, base=prev):
            delta = DeltaSegment.from_bytes(inputs["delta_bytes"])
            return {"snapshot_bytes": compact(base, [delta]).to_bytes()}

        graph = StageGraph([
            Stage(name="seal", compute=seal,
                  outputs=("delta_bytes",),
                  digesters={"delta_bytes": lambda data: digest_packed_zone(
                      PackedZone.from_bytes(data))}),
            Stage(name="advance", compute=advance,
                  inputs=("delta_bytes",),
                  outputs=("snapshot_bytes",),
                  digesters={"snapshot_bytes":
                             lambda data: digest_packed_zone(
                                 PackedZone.from_bytes(data))}),
        ])
        context = hashlib.sha256(
            f"{tape_digest}\n{prev_digest}\n{index}\n"
            f"{config.events_per_snapshot}".encode()).hexdigest()
        outcome, cached = run_keyed(
            graph, store, f"{series_id}-snap-{index:03d}", context, perf)
        zone = PackedZone.from_bytes(
            outcome.artifacts["snapshot_bytes"].payload)
        snapshots.append(DatedSnapshot(
            index=index, date=config.date_of(index), zone=zone,
            events=start + len(window), cached=cached))
        stats.snapshots += 1
        stats.cached_snapshots += int(cached)
        stats.events += len(window)

    stats.wall_seconds = time.perf_counter() - started
    return SnapshotSeries(config=config, snapshots=snapshots,
                          tape_digest=tape_digest, stats=stats)
