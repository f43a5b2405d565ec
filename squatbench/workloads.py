"""The four SquatPhi workloads: pipeline, scan, serve, stream.

Each workload is a class with the same shape:

* ``IMPORTS`` — the program modules it needs (their import time is the
  first part of ``setup_s``);
* ``synthesize()`` — the benchmark's own input synthesis from the seed
  (excluded from ``setup_s``);
* ``setup()`` — one repetition of the program work that precedes the
  first timed operation; it returns its program-work seconds;
* ``warmup()`` — untimed work that fills caches before the timed ops;
* ``op(index)`` — one timed operation, returning an :class:`OpResult`;
* ``check(results)`` — output checks against the repo's own oracles,
  raising :class:`CheckFailed` on any mismatch.

The amount of work is fixed by the seed and ``--seconds`` alone, never
by how fast the host runs it.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np


class CheckFailed(RuntimeError):
    """An output disagreed with its oracle: the run is void."""


@dataclass
class OpResult:
    seconds: float                   # busy seconds of this operation
    items: int                       # items the operation completed
    latencies: List[float] = field(default_factory=list)   # seconds
    counts: Dict[str, object] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)
    failed: int = 0


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - started


# ----------------------------------------------------------------------
# input synthesis (seeded; the program only ever sees these names)
# ----------------------------------------------------------------------
TLDS = ("com", "net", "org", "info")
_ALPHABET = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789",
                          dtype=np.uint8)


def organic_labels(n: int, rng) -> List[str]:
    """n random labels of 8..16 characters, ~2% with an inner hyphen."""
    width = 16
    lens = rng.integers(8, width + 1, size=n)
    mat = _ALPHABET[rng.integers(0, len(_ALPHABET), size=(n, width))]
    mat[np.arange(width)[None, :] >= lens[:, None]] = 0
    mat[np.nonzero(rng.random(n) < 0.02)[0], 3] = ord("-")
    return [raw.decode("ascii") for raw in mat.reshape(-1).view(f"S{width}")]


def squat_pool(catalog, rng, n_brands: int = 40) -> List[str]:
    """Squatting domains minted by the repo's generator for a seeded
    subset of brands (the inputs' positive class)."""
    from repro.squatting.generator import SquattingGenerator
    generator = SquattingGenerator()
    brands = list(catalog)
    picks = rng.choice(len(brands), size=min(n_brands, len(brands)),
                       replace=False)
    pool = set()
    for index in sorted(int(i) for i in picks):
        brand = brands[index]
        candidates = generator.candidates(brand, include_combo=True)
        for labels in candidates.labels.values():
            pool.update(f"{label}.{brand.tld or 'com'}" for label in labels)
        for domains in candidates.domains.values():
            pool.update(domains)
    return sorted(pool)


def synth_snapshot(n: int, catalog, rng, squat_share: float = 0.01,
                   survivor_share: float = 0.10,
                   www_share: float = 0.03) -> List[str]:
    """An n-record snapshot: organic names, ``squat_share`` squats, and
    ``survivor_share`` near-miss names built to survive the vector
    reject (hyphen-rich organics, brand-prefix combos, brand interiors
    rotated inside their homograph bucket)."""
    organic = organic_labels(n, rng)
    tlds = rng.integers(0, len(TLDS), size=n)
    names = [f"{label}.{TLDS[t]}" for label, t in zip(organic, tlds)]
    brands = [b.core_label for b in catalog if 4 <= len(b.core_label) <= 14]
    squats = squat_pool(catalog, rng)
    roll = rng.random(n)
    kind = rng.integers(0, 3, size=n)
    bidx = rng.integers(0, len(brands), size=n)
    for pos in np.nonzero(roll < squat_share)[0]:
        names[pos] = squats[pos % len(squats)]
    near = np.nonzero((roll >= squat_share)
                      & (roll < squat_share + survivor_share))[0]
    for pos in near:
        label, tld, brand = organic[pos], TLDS[tlds[pos]], brands[bidx[pos]]
        if kind[pos] == 0:
            names[pos] = f"{label[:3]}-{label[3:6]}-{label[6:]}".strip("-") \
                + f".{tld}"
        elif kind[pos] == 1:
            names[pos] = f"{brand[:4]}{label[:6]}.{tld}"
        else:
            mid = brand[1:-1]
            names[pos] = f"{brand[0]}{mid[1:]}{mid[0]}{brand[-1]}.{tld}"
    for pos in np.nonzero(rng.random(n) < www_share)[0]:
        names[pos] = f"www.{names[pos]}"
    return names


def match_line(match) -> str:
    return f"{match.domain}|{match.brand}|{match.squat_type.value}|" \
        f"{match.detail}"


def _digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def tree_bytes(root: Path, suffix: str = "") -> int:
    total = 0
    for path in root.rglob(f"*{suffix}"):
        if path.is_file():
            total += path.stat().st_size
    return total


# ----------------------------------------------------------------------
class Workload:
    name = ""
    IMPORTS: tuple = ()

    def __init__(self, seed: int, seconds: int, scratch: Path) -> None:
        # ``span(name, fn, *args)`` calls fn; the traced run swaps in
        # the tracer's recorder for set-up steps no public function wraps
        self.span = lambda _name, fn, *args, **kwargs: fn(*args, **kwargs)
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.rng = np.random.default_rng(seed)

    def n_ops(self) -> int:
        raise NotImplementedError

    def synthesize(self) -> None:
        pass

    def setup(self, rep: int) -> float:
        raise NotImplementedError

    def warmup(self) -> None:
        pass

    def op(self, index: int) -> OpResult:
        raise NotImplementedError

    def check(self, results: List[OpResult]) -> None:
        pass

    def layer_counters(self, results: List[OpResult]) -> Dict[str, float]:
        """Per-op layer counters read from the program's public stats."""
        return {}


# ----------------------------------------------------------------------
class PipelineWorkload(Workload):
    """Closed loop, one caller: fresh ``SquatPhi`` + ``.run()`` per op."""

    name = "pipeline"
    IMPORTS = ("repro.core", "repro.core.pipeline", "repro.phishworld.world")
    SQUATS = 400          # the CLI's ``pipeline --squats`` default
    OP_SECONDS = 7.0      # nominal op cost on the reference host

    def n_ops(self) -> int:
        return max(3, round(self.seconds / self.OP_SECONDS))

    def setup(self, rep: int) -> float:
        from repro.phishworld.world import WorldConfig, build_world
        squats = self.SQUATS
        # the CLI's sizing rule (``cli.cmd_pipeline``): a bare
        # WorldConfig(n_squat_domains=...) can crash on its defaults
        config = WorldConfig(
            seed=self.seed,
            n_organic_domains=squats,
            n_squat_domains=squats,
            n_phish_domains=max(4, squats // 12),
            phishtank_reports=max(40, squats // 3),
            packed_zone=True,
        )
        self.world, seconds = timed(build_world, config)
        return seconds

    def op(self, index: int) -> OpResult:
        from repro.core import PipelineConfig, SquatPhi
        started = time.perf_counter()
        # every pool at one worker; the matrices cache is never cleared,
        # so its growth across ops shows in peak_rss_mb
        pipeline = SquatPhi(self.world, PipelineConfig(
            cv_folds=5, rf_trees=15, crawl_workers=1, scan_workers=1,
            train_workers=1, extract_workers=1, enrich_workers=1))
        result = pipeline.run(follow_up_snapshots=True)
        seconds = time.perf_counter() - started
        summary = result.summary()
        perf = pipeline.perf
        cache = perf.cache
        return OpResult(
            seconds=seconds,
            items=self.world.zone.n_registered,
            latencies=[seconds],
            counts={
                "squat_matches": len(result.squat_matches),
                "verified": len(summary["verified_domains"]),
                "verified_digest": _digest(summary["verified_domains"]),
                "snapshot_digest": _digest(summary["snapshot_digests"]),
            },
            extra={
                "web.pages": sum(len(s.results)
                                 for s in result.crawl_snapshots),
                "features.pages": perf.pages_extracted,
                "features.render_hit_share": cache.render_hit_rate,
                "features.feature_hit_share": cache.feature_hit_rate,
                "features.spell_hit_share": cache.spell_hit_rate,
                "ml.trees": perf.trees_fitted,
                "ml.folds": perf.folds_fitted,
                "enrich.lookups": perf.enrichments_done,
            })

    def check(self, results: List[OpResult]) -> None:
        first = results[0].counts
        require(first["verified"] > 0, "pipeline verified no domain")
        for result in results[1:]:
            require(result.counts == first,
                    "pipeline verified domains / snapshot digests differ "
                    "across iterations")

    def layer_counters(self, results):
        return {k: float(v) for k, v in results[-1].extra.items()
                if k != "traced"}


# ----------------------------------------------------------------------
class _PackedSnapshotWorkload(Workload):
    """Shared set-up: catalog, pack + save + mmap load, detector, and the
    detector-matrices warm-up for the snapshot's label width."""

    N_RECORDS = 0
    SURVIVOR_SHARE = 0.03

    def synthesize(self) -> None:
        from repro.brands import build_paper_catalog
        self.names = synth_snapshot(self.N_RECORDS, build_paper_catalog(),
                                    self.rng,
                                    survivor_share=self.SURVIVOR_SHARE)

    def setup(self, rep: int) -> float:
        from repro.brands import build_paper_catalog
        from repro.dns.packedzone import PackedZone, PackedZoneBuilder
        from repro.squatting.detector import SquattingDetector
        from repro.squatting.packedscan import PackedScanContext
        path = self.scratch / f"{self.name}-{rep}.pzon"

        def pack():
            builder = PackedZoneBuilder()
            for name in self.names:
                builder.add_name(name)
            builder.build().save(path)

        started = time.perf_counter()
        catalog = build_paper_catalog()
        self.span("dns.pack", pack)
        zone = PackedZone.load(path)
        detector = SquattingDetector(catalog)
        PackedScanContext(detector, zone)        # matrices warm-up
        seconds = time.perf_counter() - started
        self.zone, self.detector = zone, detector
        return seconds


class ScanWorkload(_PackedSnapshotWorkload):
    """Batch: repeated single-worker ``packed_scan`` passes over an mmap'd
    snapshot."""

    name = "scan"
    IMPORTS = ("repro.brands", "repro.dns.packedzone", "repro.dns.zone",
               "repro.squatting.detector", "repro.squatting.packedscan",
               "repro.stages")
    N_RECORDS = 100_000
    SURVIVOR_SHARE = 0.03        # the stated near-miss minority
    OP_SECONDS = 1.0
    ORACLE_STRIDE = 97           # every 97th name goes to the dict oracle

    def n_ops(self) -> int:
        return max(21, round(self.seconds / self.OP_SECONDS))

    def op(self, index: int) -> OpResult:
        from repro.squatting import packedscan
        from repro.stages import digest_squat_matches
        matches, seconds = timed(packedscan.packed_scan, self.detector,
                                 self.zone, workers=1)
        stats = packedscan.take_last_scan_stats()
        self.last_matches = matches
        return OpResult(
            seconds=seconds, items=self.zone.n_registered,
            latencies=[seconds],
            counts={"digest": digest_squat_matches(matches),
                    "matches": len(matches), "rows": stats.rows,
                    "survivors": stats.survivors})

    def check(self, results: List[OpResult]) -> None:
        from repro.dns.zone import ZoneStore
        first = results[0].counts
        for result in results[1:]:
            require(result.counts == first, "scan pass digest differs "
                    "from the first pass")
        sample = ZoneStore()
        for name in self.names[::self.ORACLE_STRIDE]:
            sample.add_name(name)
        wanted = set(sample.registered_domains())
        expected = sorted(match_line(m) for m in self.detector.scan(sample))
        got = sorted(match_line(m) for m in self.last_matches
                     if m.domain in wanted)
        require(expected == got, "packed scan disagrees with the "
                "dict-backed serial oracle on the fixed subsample")
        require(len(expected) > 0, "oracle subsample holds no squat")


# ----------------------------------------------------------------------
class ServeWorkload(_PackedSnapshotWorkload):
    """Open loop: a fixed request stream at a fixed offered rate, batched
    by ``plan_batches`` and replayed in virtual time through one engine."""

    name = "serve"
    IMPORTS = ("repro.brands", "repro.dns.packedzone",
               "repro.squatting.detector", "repro.squatting.packedscan",
               "repro.serve")
    N_RECORDS = 50_000
    REQUESTS = 40_000            # per replay
    OFFERED_QPS = 20_000.0       # ~1/3 of one engine's capacity here
    MAX_BATCH = 64               # serve_load defaults
    MAX_DELAY = 0.005
    OP_SECONDS = 1.0
    ORACLE_STRIDE = 32

    def n_ops(self) -> int:
        return max(4, round(self.seconds / self.OP_SECONDS))

    def synthesize(self) -> None:
        from repro.brands import build_paper_catalog
        from repro.serve import synth_requests
        super().synthesize()
        registered = [n[4:] if n.startswith("www.") else n
                      for n in self.names[::7]]
        squats = squat_pool(build_paper_catalog(), self.rng)
        self.requests = synth_requests(
            self.REQUESTS, self.OFFERED_QPS,
            seed=int(self.rng.integers(0, 2**31)),
            registered=registered, squats=squats)

    def warmup(self) -> None:
        self.op(-1)

    def op(self, index: int) -> OpResult:
        from repro.serve import NegativeVerdictCache, QueryEngine, \
            plan_batches
        batches = plan_batches(self.requests, self.MAX_BATCH,
                               self.MAX_DELAY)
        engine = QueryEngine(self.detector, self.zone,
                             negcache=NegativeVerdictCache())
        free = 0.0
        busy = 0.0
        latencies: List[float] = []
        waits: List[float] = []
        verdicts = []
        missing = 0
        for batch in batches:
            started = time.perf_counter()
            out = engine.lookup_batch(batch.names, now=batch.dispatch_at)
            service = time.perf_counter() - started
            start = max(batch.dispatch_at, free)
            free = start + service
            busy += service
            waits.append(start - batch.dispatch_at)
            latencies.extend(free - arrival for arrival in batch.arrivals)
            missing += sum(1 for v in out if v is None)
            verdicts.extend(out)
        stats = engine.stats
        span = free - self.requests[0][0]
        self.last_verdicts = verdicts
        return OpResult(
            seconds=busy, items=len(verdicts) - missing,
            latencies=latencies, failed=missing,
            counts={"batches": stats.batches,
                    "negcache_hits": stats.negcache_hits,
                    "queries": stats.queries},
            extra={"waits": waits, "busy": busy, "span": span})

    def check(self, results: List[OpResult]) -> None:
        from repro.serve import digest_verdicts, offline_verdicts
        first = results[0].counts
        for result in results[1:]:
            require(result.counts == first, "serve replay counts differ")
        sample = slice(None, None, self.ORACLE_STRIDE)
        names = [name for _, name in self.requests][sample]
        expected = digest_verdicts(offline_verdicts(
            self.detector, self.zone, names))
        require(digest_verdicts(self.last_verdicts[sample]) == expected,
                "served verdicts disagree with offline_verdicts")


# ----------------------------------------------------------------------
class StreamWorkload(Workload):
    """Writes beside reads: one ``StreamingDriver`` run per op over a
    fixed event tape with an on-disk store, publisher and delta dir."""

    name = "stream"
    IMPORTS = ("repro.brands", "repro.dns.deltazone", "repro.dns.packedzone",
               "repro.phishworld.events", "repro.serve.publisher",
               "repro.squatting.detector", "repro.squatting.packedscan",
               "repro.stages", "repro.stream.driver")
    BASE_EVENTS = 400            # StreamingDriver default
    SEGMENT_EVENTS = 60
    COMPACT_EVERY = 4            # driver default: 25% of segments queue
    SEGMENTS = 48                # per run, a multiple of COMPACT_EVERY
    OFFERED_EVENTS_PER_S = 500.0
    OP_SECONDS = 4.0

    def n_ops(self) -> int:
        return max(5, round(self.seconds / self.OP_SECONDS))

    def synthesize(self) -> None:
        from repro.phishworld.events import EventTapeConfig
        self.tape_config = EventTapeConfig(
            seed=int(self.rng.integers(0, 2**31)),
            n_events=self.BASE_EVENTS + self.SEGMENTS * self.SEGMENT_EVENTS)

    def setup(self, rep: int) -> float:
        from repro.brands import build_paper_catalog
        from repro.dns.packedzone import pack_zone
        from repro.phishworld.events import build_tape, replay_into_store
        from repro.squatting.detector import SquattingDetector
        from repro.squatting.packedscan import PackedScanContext
        started = time.perf_counter()
        detector = SquattingDetector(build_paper_catalog())
        tape = build_tape(self.tape_config)
        base = pack_zone(replay_into_store(tape[:self.BASE_EVENTS]))
        PackedScanContext(detector, base)        # matrices warm-up
        seconds = time.perf_counter() - started
        self.detector, self.tape = detector, tape
        return seconds

    def warmup(self) -> None:
        # one full driver run: compaction widths build their detector
        # matrices once per process, and that is set-up, not service
        self.op(-1)

    def op(self, index: int) -> OpResult:
        from repro.serve.publisher import SnapshotPublisher
        from repro.squatting.packedscan import packed_scan
        from repro.stages import ArtifactStore, digest_squat_matches
        from repro.stream.driver import StreamingDriver

        marks: List[tuple] = []

        class TimingPublisher(SnapshotPublisher):
            """Stamps each publish: a segment (or compaction) is complete
            when the driver hands it to the publisher.  The publish itself
            — two fsync'd atomic writes — is timed on its own."""

            def publish(self, zone):
                entered = time.perf_counter()
                out = super().publish(zone)
                marks.append(("base", entered, time.perf_counter()))
                return out

            def publish_delta(self, segment_bytes):
                entered = time.perf_counter()
                out = super().publish_delta(segment_bytes)
                marks.append(("delta", entered, time.perf_counter()))
                return out

        root = self.scratch / f"stream-{index}"
        shutil.rmtree(root, ignore_errors=True)
        driver = StreamingDriver(
            self.detector, self.tape_config,
            base_events=self.BASE_EVENTS,
            segment_events=self.SEGMENT_EVENTS,
            compact_every=self.COMPACT_EVERY, workers=1,
            delta_dir=root / "deltas",
            store=ArtifactStore(root / "store"),
            publisher=TimingPublisher(root / "publish"))
        outcome = driver.run()
        stats = outcome.stats
        schedule = self._schedule(marks)
        batch = digest_squat_matches(packed_scan(self.detector,
                                                 outcome.base, workers=1))
        result = OpResult(
            seconds=schedule["busy"], items=schedule["events"],
            latencies=schedule["latencies"],
            counts={"segments": stats.segments,
                    "compactions": stats.compactions,
                    "digest_checks": stats.digest_checks,
                    "detections": stats.detections,
                    "match_digest": outcome.match_digest,
                    "tape_digest": outcome.tape_digest},
            extra=dict(schedule, pending=len(outcome.pending),
                       batch_digest=batch,
                       bytes_written=tree_bytes(root, ".pzon"),
                       store_bytes=tree_bytes(root / "store")))
        shutil.rmtree(root, ignore_errors=True)
        return result

    def _schedule(self, marks) -> Dict[str, object]:
        """Virtual-time replay of the measured segment service times.

        Segment k's service runs from the end of the previous publish to
        the start of its own ``publish_delta``; a compaction runs from
        there to the start of the compacted base's ``publish``.  Publish
        time is kept out of both: its fsyncs swing between 0.4 and 12 ms
        with the host disk's state, and are reported as
        ``stream.publish_p50_ms`` instead.  Segment 1 shares its interval
        with the driver's base build and scan, so it is a warm-up and
        the timed stream starts after it.  Each later segment starts at
        the later of its due time (its last event, rescaled to the
        offered rate) and the server's previous finish, compaction
        included; its latency runs from the due time.
        """
        stream = self.tape[self.BASE_EVENTS:]
        t0, t1 = stream[0].at, stream[-1].at
        scale = (len(stream) / self.OFFERED_EVENTS_PER_S) / (t1 - t0)
        seg = self.SEGMENT_EVENTS
        due = [(stream[min(k * seg + seg, len(stream)) - 1].at - t0) * scale
               for k in range((len(stream) + seg - 1) // seg)]
        services: List[float] = []
        compactions: Dict[int, float] = {}
        previous = marks[0][2]
        for kind, entered, left in marks[1:]:
            if kind == "delta":
                services.append(entered - previous)
            else:
                compactions[len(services) - 1] = entered - previous
            previous = left
        free = due[1]
        latencies, waits, backlog = [], [], 0
        for k in range(1, len(services)):
            start = max(due[k], free)
            waiting = sum(1 for j in range(k, len(due)) if due[j] <= start)
            backlog = max(backlog, waiting)
            finish = start + services[k]
            latencies.append(finish - due[k])
            waits.append(start - due[k])
            free = finish + compactions.get(k, 0.0)
        timed = {k: c for k, c in compactions.items() if k >= 1}
        return {"busy": sum(services[1:]) + sum(timed.values()),
                "events": seg * (len(services) - 1),
                "latencies": latencies, "waits": waits, "backlog": backlog,
                "services": services[1:],
                "compactions": [timed[k] for k in sorted(timed)],
                "publishes": [left - entered
                              for _, entered, left in marks[1:]]}

    def check(self, results: List[OpResult]) -> None:
        first = results[0].counts
        require(first["digest_checks"] > 0, "stream made no digest check")
        require(first["segments"] == self.SEGMENTS, "stream segment count")
        for result in results:
            require(result.counts == first, "stream counts differ across "
                    "driver runs")
            require(result.extra["pending"] == 0, "stream left deltas")
            require(result.extra["batch_digest"] == first["match_digest"],
                    "final stream match digest != packed_scan over the "
                    "compacted union")


WORKLOADS = {w.name: w for w in
             (PipelineWorkload, ScanWorkload, ServeWorkload, StreamWorkload)}
