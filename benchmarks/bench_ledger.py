"""One bench ledger: every subsystem speedup gate, one row schema.

The paper's system is at-scale — a 224M-record snapshot scan (§3.1) and
a 657K-domain crawl (§3.2) — so each subsystem of the reproduction
claims a speedup or a memory win over its reference path.  Every claim
is bound by the determinism contract: workers, caches, batching, faults
and representation are throughput knobs that never change an output
byte.  This harness measures all of them, one layer per subsystem:

* ``scaling``     — full pipeline runs at crawl workers x capture cache;
  the tuned run (8 workers + cache) >= 2x the serial uncached one
  (crawl workers are a modelled scheduler width, so only the cache can
  move this ratio);
* ``training``    — the learning core serial vs ``min(4, cpu_count)``
  train/extract workers (digests only);
* ``zone_scale``  — dict-backed vs packed mmap scans of a synthetic
  snapshot; the packed store >= 4x less resident memory, and a
  survivor-heavy mix (built to defeat the vector reject) under 1%
  Python fallback in the kernel;
* ``enrichment``  — the event-loop resolver vs the serial oracle under
  fault weather; >= 3x at 5% faults;
* ``serving``     — batched queries vs scalar lookups; >= 3x QPS, and a
  mid-burst hot reload that drops nothing and answers each batch from
  the newest generation published before its dispatch;
* ``streaming``   — the streamed match state vs a from-scratch batch
  scan, and delta-scan latency sublinear in base size;
* ``incremental`` — fresh vs resume vs retrain walks over one artifact
  store; retrain >= 1.2x fresh;
* ``lifecycle``   — the packed snapshot-diff kernel vs the dict-set
  oracle; >= 5x at the 10^6-record pair.

Each layer yields rows and gates in two fixed schemas:

* row  — ``layer, leg, scale, records, seconds, rate, peak_rss_mb,
  digest``: ``records`` counts the layer's unit of work, ``rate`` is
  records per second of the leg's timed region, and ``peak_rss_mb`` is
  the high-water mark of the layer's own process when the leg finished
  (the zone-scale memory legs report the measured store's resident
  delta instead);
* gate — ``layer, gate, measured, bound, ok``: every digest-equality
  check (measured is the number of distinct digests) and every floor.

``SCALES`` holds every layer's sizes, floors and attempt counts.  Floors
need default-scale inputs to time stably, so ``--smoke`` runs small
inputs with the equality gates only.  Each layer runs in its own child
process, so no earlier layer's heap skews its clocks or its peak RSS.
The ledger file is written once with every layer, keeping any other
top-level section already in it; then the process exits 1 if any gate
failed::

    PYTHONPATH=src python benchmarks/bench_ledger.py [--smoke] [--out PATH]
    PYTHONPATH=src python -m pytest benchmarks/bench_ledger.py -k serving
"""

import contextlib
import hashlib
import json
import multiprocessing
import operator
import os
import resource
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.analysis.lifecycle import (diff_chain_digest, diff_series,
                                      diff_series_serial)
from repro.analysis.render import table
from repro.brands import build_paper_catalog
from repro.core import PipelineConfig, SquatPhi
from repro.dns.deltazone import DeltaSegmentBuilder
from repro.dns.packedzone import PackedZone, PackedZoneBuilder, pack_zone
from repro.dns.zone import ZoneStore
from repro.dns.zonediff import diff_packed, diff_serial
from repro.enrich import EnrichResolver, default_backends, enrich_serial
from repro.faults.plan import FaultPlan
from repro.phishworld.events import (EventTapeConfig, apply_event,
                                     build_tape, replay_into_store)
from repro.phishworld.geoip import GeoIPRegistry
from repro.phishworld.series import SeriesConfig, generate_series
from repro.phishworld.whois import WhoisRegistry
from repro.phishworld.world import WorldConfig, build_world
from repro.serve import (QueryEngine, SnapshotPublisher, digest_verdicts,
                         offline_verdicts, plan_batches, serve_load,
                         synth_requests)
from repro.squatting import packedscan
from repro.squatting.detector import SquattingDetector
from repro.squatting.generator import SquattingGenerator
from repro.squatting.packedscan import PackedScanContext, packed_scan
from repro.stages import (ArtifactStore, digest_cv_reports,
                          digest_detections, digest_squat_matches)
from repro.stream import StreamingDriver

from exhibits import print_exhibit
from timing import best_of, gc_paused, merge_best

_SMALL_WORLD = dict(n_organic_domains=80, n_squat_domains=80,
                    n_phish_domains=8, phishtank_reports=30)
_WORLD_400 = dict(n_organic_domains=400, n_squat_domains=400,
                  n_phish_domains=33, phishtank_reports=133)
_WORLD_300 = dict(n_organic_domains=300, n_squat_domains=300,
                  n_phish_domains=25, phishtank_reports=100)

# A floor of None skips that gate: smoke inputs are too small to time.
SCALES = {
    "smoke": {
        "scaling": dict(world=_SMALL_WORLD, cached=(1, 2), uncached=(1,),
                        floor=None),
        "training": dict(world=_SMALL_WORLD, cv_folds=3, rf_trees=8),
        "zone_scale": dict(records=60_000, survivor_records=20_000,
                           memory_floor=None, fallback_ceiling=0.01),
        "enrichment": dict(domains=600, floor=None, attempts=1),
        "serving": dict(records=20_000, queries=4_000, floor=None,
                        attempts=1),
        "streaming": dict(events=1_200, base_events=400, segment_events=150,
                          compact_every=3, bases=(600, 2_400),
                          sublinear=None, attempts=3),
        "incremental": dict(world=_SMALL_WORLD, floor=None),
        "lifecycle": dict(pairs=(20_000,), floor=None, attempts=3),
    },
    "default": {
        "scaling": dict(world=_WORLD_400, cached=(1, 8), uncached=(1,),
                        floor=2.0),
        "training": dict(world=_WORLD_400, cv_folds=5, rf_trees=20),
        "zone_scale": dict(records=1_000_000, survivor_records=200_000,
                           memory_floor=4.0, fallback_ceiling=0.01),
        "enrichment": dict(domains=4_000, floor=3.0, attempts=5),
        "serving": dict(records=100_000, queries=24_000, floor=3.0,
                        attempts=3),
        "streaming": dict(events=6_000, base_events=2_000,
                          segment_events=200, compact_every=5,
                          bases=(2_000, 8_000), sublinear=2.0, attempts=3),
        "incremental": dict(world=_WORLD_300, floor=1.2),
        "lifecycle": dict(pairs=(100_000, 1_000_000), floor=5.0,
                          attempts=3),
    },
}


# ----------------------------------------------------------------------
# the two schemas
# ----------------------------------------------------------------------

_OPS = {">=": operator.ge, ">": operator.gt, "<": operator.lt,
        "==": operator.eq}


def _peak_rss_mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def _sha(*parts):
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


class Layer:
    """One layer's rows and gates, in the ledger's two schemas."""

    def __init__(self, name, scale):
        self.name, self.scale = name, scale
        self.rows, self.gates = [], []

    def row(self, leg, records, seconds, digest=None):
        row = {"layer": self.name, "leg": leg, "scale": self.scale,
               "records": records, "seconds": seconds, "rate": None,
               "peak_rss_mb": _peak_rss_mb(), "digest": digest}
        self.rows.append(row)
        return row

    def retime(self, row, attempts, timed):
        """Min-of-attempts for a leg whose clock runs inside the call:
        ``timed()`` re-runs it and returns its seconds."""
        for _ in range(attempts - 1):
            merge_best(row, {"seconds": timed()})

    def check(self, gate, measured, op, bound):
        """One gate: ``measured op bound``; a bound of None skips it."""
        if bound is None:
            return
        ok = bool(_OPS[op](measured, bound))
        if isinstance(measured, float):
            measured = round(measured, 4)
        self.gates.append({"layer": self.name, "gate": f"{gate} {op}",
                           "measured": measured, "bound": bound, "ok": ok})

    def same(self, gate, digests):
        self.check(f"{gate}: distinct", len(set(digests)), "==", 1)

    def finish(self):
        for row in self.rows:
            row["rate"] = round(row["records"] / max(row["seconds"], 1e-9), 1)
            row["seconds"] = round(row["seconds"], 5)


# ----------------------------------------------------------------------
# pipeline layers: scaling, training, incremental
# ----------------------------------------------------------------------

def _pipeline_leg(layer, leg, world, run_kwargs=None, **config):
    """One timed full pipeline run on a fresh world.

    Returns ``(row, pipeline, digests)``; the row's digest covers the
    crawl snapshot, verified domains, CV reports and flagged detections.
    """
    pipeline = SquatPhi(build_world(WorldConfig(seed=1803, **world)),
                        PipelineConfig(**config))
    seconds, result = best_of(
        lambda: pipeline.run(follow_up_snapshots=False, **(run_kwargs or {})),
        attempts=1)
    digests = {"crawl": result.crawl_snapshots[0].digest(),
               "verified": _sha(*result.verified_domains()),
               "cv": digest_cv_reports(result.cv_reports),
               "flagged": digest_detections(result.flagged)}
    row = layer.row(leg, len(result.squat_matches), seconds,
                    _sha(*digests.values()))
    return row, pipeline, digests


def _same_outputs(layer, legs):
    for name in legs[0]:
        layer.same(f"{name} digest across legs", [d[name] for d in legs])


def scaling(layer, p):
    rows, legs = {}, []
    configs = ([(w, True) for w in p["cached"]]
               + [(w, False) for w in p["uncached"]])
    for workers, cache in configs:
        leg = f"{workers}w-cache-{'on' if cache else 'off'}"
        rows[leg], pipeline, digests = _pipeline_leg(
            layer, leg, p["world"], cv_folds=5, rf_trees=15,
            crawl_workers=workers, capture_cache=cache)
        legs.append(digests)
        stats = pipeline.perf.cache
        if cache:
            layer.check(f"{leg} render hits", stats.render_hits, ">", 0)
            layer.check(f"{leg} spell hits", stats.spell_hits, ">", 0)
        else:
            layer.check(f"{leg} render hits", stats.render_hits, "==", 0)
            layer.check(f"{leg} render bypasses", stats.render_bypasses,
                         ">", 0)
    _same_outputs(layer, legs)
    tuned = rows[f"{max(p['cached'])}w-cache-on"]
    layer.check("tuned vs 1w uncached speedup",
                rows["1w-cache-off"]["seconds"] / tuned["seconds"],
                ">=", p["floor"])


def training(layer, p):
    legs = []
    tuned = min(4, os.cpu_count() or 1)
    for leg, workers in (("serial", 1), ("tuned", tuned)):
        row, pipeline, digests = _pipeline_leg(
            layer, f"{leg}-{workers}w", p["world"], cv_folds=p["cv_folds"],
            rf_trees=p["rf_trees"], train_workers=workers,
            extract_workers=workers)
        # the legs compare the learning stages, not the whole run
        row["seconds"] = sum(pipeline.perf.stage_seconds[stage]
                             for stage in ("train", "classify"))
        legs.append(digests)
    _same_outputs(layer, legs)


EXECUTED_STAGES = sorted(("scan", "enrich", "crawl", "ground_truth", "train",
                          "classify", "verify", "evasion"))
REUSED_ON_RETRAIN = sorted(("scan", "enrich", "crawl", "ground_truth"))
MODEL_STAGES = ["classify", "evasion", "train", "verify"]


def incremental(layer, p):
    with tempfile.TemporaryDirectory(prefix="ledger_store_") as store_dir:
        store = ArtifactStore(store_dir)
        walks = {}
        for walk, kwargs in (("fresh", {}), ("resume", {}),
                             ("retrain", {"from_stage": "train"})):
            if walks:
                kwargs["resume"] = walks["fresh"][1].run_id
            walks[walk] = _pipeline_leg(
                layer, walk, p["world"], dict(store=store, **kwargs),
                cv_folds=5, rf_trees=15)
    _same_outputs(layer, [digests for _r, _p, digests in walks.values()])

    def perf(walk):
        return walks[walk][1].perf

    layer.check("fresh cached stages", sorted(perf("fresh").cached_stages),
                "==", [])
    layer.check("fresh executed stages", sorted(perf("fresh").stage_seconds),
                "==", EXECUTED_STAGES)
    layer.check("resume cached stages", sorted(perf("resume").cached_stages),
                "==", EXECUTED_STAGES)
    layer.check("resume executed stages",
                sorted(perf("resume").stage_seconds), "==", [])
    layer.check("retrain cached stages",
                sorted(perf("retrain").cached_stages), "==",
                REUSED_ON_RETRAIN)
    layer.check("retrain manifest cached stages",
                sorted(walks["retrain"][1].last_manifest.cached_stages()),
                "==", REUSED_ON_RETRAIN)
    layer.check("retrain re-executed model stages",
                sorted(set(perf("retrain").stage_seconds) & set(MODEL_STAGES)),
                "==", MODEL_STAGES)
    layer.check("retrain vs fresh speedup",
                walks["fresh"][0]["seconds"] / walks["retrain"][0]["seconds"],
                ">=", p["floor"])


# ----------------------------------------------------------------------
# synthetic snapshots (zone_scale, serving, lifecycle)
# ----------------------------------------------------------------------

SQUAT_RATE = 0.01        # the paper finds ~657k squatting in 224M domains;
                         # 1% keeps the positive class visible at bench scale
SUBDOMAIN_RATE = 0.03    # www. tail: extra records, same registered domains
TLDS = ("com", "net", "org", "info")

_ALPHABET = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789",
                          dtype=np.uint8)


def _organic_labels(n, rng):
    """n random core labels, lengths 8..16, ~2% with an inner hyphen."""
    width = 16
    lens = rng.integers(8, width + 1, size=n)
    mat = _ALPHABET[rng.integers(0, len(_ALPHABET), size=(n, width))]
    mat[np.arange(width)[None, :] >= lens[:, None]] = 0
    hyphens = np.nonzero(rng.random(n) < 0.02)[0]
    mat[hyphens, 3] = ord("-")
    flat = mat.reshape(-1).view(f"S{width}")
    return [label.decode("ascii") for label in flat]


def _squat_pool(catalog, rng, cap=20_000):
    """Registered squatting domains sampled from the candidate generator."""
    generator = SquattingGenerator()
    pool = []
    for brand in catalog:
        candidates = generator.candidates(brand, include_combo=True)
        for labels in candidates.labels.values():
            pool.extend(f"{label}.{brand.tld or 'com'}" for label in labels)
        for domains in candidates.domains.values():
            pool.extend(domains)
        if len(pool) >= cap * 4:
            break
    pool = sorted(set(pool))
    index = rng.permutation(len(pool))[:cap]
    return [pool[i] for i in index]


def synth_names(n_records, catalog, seed=1803):
    """A deterministic n-record snapshot name stream (~1% squatting)."""
    rng = np.random.default_rng(seed)
    labels = _organic_labels(n_records, rng)
    tld_idx = rng.integers(0, len(TLDS), size=n_records)
    names = [f"{label}.{TLDS[t]}" for label, t in zip(labels, tld_idx)]
    squats = _squat_pool(catalog, rng)
    for pos in np.nonzero(rng.random(n_records) < SQUAT_RATE)[0]:
        names[pos] = squats[pos % len(squats)]
    for pos in np.nonzero(rng.random(n_records) < SUBDOMAIN_RATE)[0]:
        names[pos] = f"www.{names[pos]}"
    return names


def synth_survivor_names(n_records, catalog, seed=2203):
    """A survivor-heavy name stream: rows the vector reject must *keep*.

    The main stream is ~99% vector-rejected, so it times the reject, not
    the classify tail.  This mix is built to defeat the reject on
    purpose — hyphen-rich organics, combo-prefix near-misses, homograph-
    bucket near-misses (interior rotations keep length, edge characters,
    and the allowed-character set), true squats, and a 0.2% pinch of
    ``xn--`` rows that must fall back — so the leg times the in-kernel
    family matchers themselves.
    """
    rng = np.random.default_rng(seed)
    brands = [brand.core_label for brand in catalog
              if 4 <= len(brand.core_label) <= 14][:400]
    organic = _organic_labels(n_records, rng)
    tld_idx = rng.integers(0, len(TLDS), size=n_records)
    roll = rng.random(n_records)
    bidx = rng.integers(0, len(brands), size=n_records)
    squats = _squat_pool(catalog, rng, cap=10_000)
    names = []
    for i in range(n_records):
        tld = TLDS[tld_idx[i]]
        brand = brands[bidx[i]]
        r = roll[i]
        if r < 0.25:
            lab = organic[i]
            names.append(f"{lab[:3]}-{lab[3:6]}-{lab[6:]}".strip("-")
                         + f".{tld}")
        elif r < 0.40:
            names.append(f"{brand[:4]}{organic[i][:6]}.{tld}")
        elif r < 0.50:
            mid = brand[1:-1]
            lab = brand[0] + mid[1:] + mid[0] + brand[-1]
            names.append(f"{lab}.{tld}")
        elif r < 0.62:
            names.append(squats[i % len(squats)])
        elif r < 0.622:
            names.append(f"xn--{organic[i][:8]}-8va.{tld}")
        else:
            names.append(f"{organic[i]}.{tld}")
    return names


def build_dict_zone(names):
    zone = ZoneStore()
    for name in names:
        zone.add_name(name)
    return zone


def build_packed_zone(names):
    builder = PackedZoneBuilder()
    for name in names:
        builder.add_name(name)
    return builder.build()


# ----------------------------------------------------------------------
# zone_scale: dict vs packed scans, resident memory, survivor-heavy mix
# ----------------------------------------------------------------------

_RSS_PRELUDE = """
import json, sys
def rss_kb():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
"""

_RSS_CHILD_DICT = _RSS_PRELUDE + """
from repro.dns.zone import ZoneStore
with open(sys.argv[1], encoding="ascii") as handle:
    names = handle.read().split()
base = rss_kb()
zone = ZoneStore()
for name in names:
    zone.add_name(name)
print(json.dumps({"rss_kb": rss_kb() - base, "records": len(zone)}))
"""

_RSS_CHILD_PACKED = _RSS_PRELUDE + """
import numpy as np
from repro.dns.packedzone import PackedZone
base = rss_kb()
zone = PackedZone.load(sys.argv[1])
# fault every mapped page in, so the mmap is fully charged to VmRSS
np.asarray(np.frombuffer(zone._buf, dtype=np.uint8)).sum()
print(json.dumps({"rss_kb": rss_kb() - base, "records": len(zone)}))
"""


def _measure_rss(child_source, arg):
    """Build/map one store in a fresh subprocess: (seconds, VmRSS delta)."""
    env = dict(os.environ)
    src_dir = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    seconds, proc = best_of(lambda: subprocess.run(
        [sys.executable, "-c", child_source, arg], capture_output=True,
        text=True, env=env, check=True), attempts=1)
    return seconds, json.loads(proc.stdout)


def _memory_legs(layer, names, packed_path, workdir, floor):
    names_path = os.path.join(workdir, "names.txt")
    with open(names_path, "w", encoding="ascii") as handle:
        handle.write("\n".join(names))
    stores = {}
    for leg, child, arg in (("dict-store", _RSS_CHILD_DICT, names_path),
                            ("packed-store", _RSS_CHILD_PACKED, packed_path)):
        seconds, stores[leg] = _measure_rss(child, arg)
        row = layer.row(leg, stores[leg]["records"], seconds)
        row["peak_rss_mb"] = round(stores[leg]["rss_kb"] / 1024, 1)
    layer.check("memory legs record count",
                stores["dict-store"]["records"], "==",
                stores["packed-store"]["records"])
    layer.check("packed vs dict store RSS ratio",
                stores["dict-store"]["rss_kb"]
                / max(stores["packed-store"]["rss_kb"], 1), ">=", floor)


def _survivor_legs(layer, detector, catalog, n_records, fallback_ceiling):
    """Kernel scans over the survivor-heavy mix vs the dict-serial scan.

    Legs: the kernel at 4 workers, the kernel at a forced wider matrix
    (the streaming delta-scan shape), and the serve engine's
    ``classify_batch`` against ``offline_verdicts``.
    """
    names = synth_survivor_names(n_records, catalog)
    dict_zone = build_dict_zone(names)
    zone = build_packed_zone(names)
    seconds, matches = best_of(lambda: detector.scan(dict_zone), attempts=1)
    legs = [layer.row("survivor-dict-serial", zone.n_registered, seconds,
                      digest_squat_matches(matches))]
    natural = PackedScanContext(detector, zone).width
    for leg, workers, width in (("survivor-kernel", 4, None),
                                ("survivor-kernel-wide", 1, natural + 8)):
        seconds, matches = best_of(lambda: packed_scan(
            detector, zone, workers=workers, width=width), attempts=1)
        stats = packedscan.take_last_scan_stats()
        legs.append(layer.row(leg, zone.n_registered, seconds,
                              digest_squat_matches(matches)))
        if width is None:
            fallback_rate = stats.fallback_rate
    layer.same("survivor scan digests", [row["digest"] for row in legs])
    layer.check("survivor-kernel fallback rate", fallback_rate, "<",
                fallback_ceiling)

    sample = names[::max(len(names) // 2000, 1)][:2000]
    layer.same("survivor serve verdicts vs offline_verdicts", [
        digest_verdicts(QueryEngine(detector, zone).lookup_batch(sample)),
        digest_verdicts(offline_verdicts(detector, zone, sample))])


def zone_scale(layer, p):
    catalog = build_paper_catalog()
    detector = SquattingDetector(catalog)
    names = synth_names(p["records"], catalog)
    with tempfile.TemporaryDirectory(prefix="ledger_zone_") as workdir:
        packed_path = os.path.join(workdir, "snapshot.pzon")
        build_packed_zone(names).save(packed_path)
        if p["memory_floor"] is not None:
            # measure before the parent builds its own big stores, so the
            # children aren't competing with a resident GB of ZoneStore
            _memory_legs(layer, names, packed_path, workdir, p["memory_floor"])
        dict_zone = build_dict_zone(names)
        packed = PackedZone.load(packed_path)
        scans = []
        for leg, zone, workers in (("dict-serial", dict_zone, 1),
                                   ("dict-sharded", dict_zone, 4),
                                   ("packed-1", packed, 1),
                                   ("packed-2", packed, 2),
                                   ("packed-4", packed, 4)):
            seconds, matches = best_of(
                lambda: detector.scan_sharded(zone, workers=workers),
                attempts=1)
            scans.append(layer.row(leg, zone.stats()["registered_domains"],
                                   seconds, digest_squat_matches(matches)))
        layer.same("scan digests", [row["digest"] for row in scans])
    _survivor_legs(layer, detector, catalog, p["survivor_records"],
                   p["fallback_ceiling"])


# ----------------------------------------------------------------------
# enrichment: event-loop resolver vs the serial oracle
# ----------------------------------------------------------------------

ENRICH_TLDS = ("com", "net", "org", "pw", "top")
ABSENT_RATE = 0.05       # names enriched but never registered -> NXDOMAIN


def synth_registries(n_domains, seed=1803):
    """(domains, zone, whois, geoip): a shape-faithful enrichment corpus.

    ~95% of the domains are registered with an allocated IP and WHOIS
    data (phishing-skewed years/registrars for a third of them); the
    rest never enter the zone, so every backend's NXDOMAIN path and the
    shared negative cache see real traffic.
    """
    rng = np.random.default_rng(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    labels = set()
    while len(labels) < n_domains:
        length = int(rng.integers(6, 14))
        labels.add("".join(
            alphabet[i] for i in rng.integers(0, len(alphabet), length)))
    domains = sorted(
        f"{label}.{ENRICH_TLDS[int(rng.integers(0, len(ENRICH_TLDS)))]}"
        for label in sorted(labels))

    zone = ZoneStore()
    whois = WhoisRegistry(rng)
    geoip = GeoIPRegistry(rng)
    absent = rng.random(len(domains)) < ABSENT_RATE
    phishy = rng.random(len(domains)) < 0.33
    for domain, skip, is_phish in zip(domains, absent, phishy):
        if skip:
            continue
        if is_phish:
            ip = geoip.allocate_phishing_ip()
            whois.register_phishing(domain)
        else:
            ip = geoip.allocate_benign_ip()
            whois.register_organic(domain)
        zone.add_name(domain, ip=ip)
    return domains, zone, whois, geoip


def enrichment(layer, p):
    """Both paths simulate I/O on a virtual clock, so wall-clock legs
    compare engine overhead per task: the resolver's fast path and bulk
    backend fills against the serial GuardedCall machinery."""
    domains, zone, whois, geoip = synth_registries(p["domains"])
    backends = default_backends(zone, whois, geoip)
    tasks = len(domains) * len(backends)

    def plan(rate, seed=1803):
        return FaultPlan.uniform(rate, seed=seed) if rate else None

    def serial(rate):
        seconds, (table_, _health) = best_of(
            lambda: enrich_serial(domains, backends, plan(rate)), attempts=1)
        return seconds, table_

    def resolver(rate, workers, hedging=True, seed=1803):
        # a fresh resolver per run: its negative cache must start cold
        engine = EnrichResolver(backends, plan(rate, seed),
                                concurrency=workers, hedging=hedging)
        return best_of(lambda: engine.resolve(domains), attempts=1)

    legs = [("serial-0%", lambda: serial(0.0)),
            ("serial-5%", lambda: serial(0.05))]
    for rate in (0.0, 0.05, 0.2):
        for workers in (1, 8, 64):
            legs.append((f"resolver-{workers}-{int(rate * 100)}%",
                         lambda rate=rate, workers=workers:
                         resolver(rate, workers)))
    legs += [("resolver-8-20%-nohedge",
              lambda: resolver(0.2, 8, hedging=False)),
             # a different fault seed must also leave the table untouched
             ("resolver-8-20%-seed99", lambda: resolver(0.2, 8, seed=99))]
    rows = {}
    for leg, run in legs:
        seconds, table_ = run()
        rows[leg] = layer.row(leg, tasks, seconds, table_.digest())
        if leg in ("serial-5%", "resolver-8-5%"):
            layer.retime(rows[leg], p["attempts"], lambda: run()[0])
    layer.same("table digests vs serial no-fault oracle",
               [row["digest"] for row in rows.values()])
    layer.check("resolver-8 vs serial at 5% faults speedup",
                rows["serial-5%"]["seconds"]
                / rows["resolver-8-5%"]["seconds"], ">=", p["floor"])


# ----------------------------------------------------------------------
# serving: batched query front vs scalar lookups
# ----------------------------------------------------------------------

QPS = 50_000.0           # sim-clock arrival rate; dense enough that the
                         # batcher actually fills its max_batch windows
MAX_BATCH = 256          # larger than the serving default (64)
MAX_DELAY = 0.005


def _hot_reload_leg(layer, detector, zone, requests, workdir):
    """Republish the snapshot as generation 2 halfway through the burst:
    the front must swap once and drop nothing; each generation's
    verdicts must match the offline oracle run against that
    generation's snapshot."""
    publisher = SnapshotPublisher(os.path.join(workdir, "published"))
    _gen, gen1_path = publisher.publish(zone)
    gen1_zone = PackedZone.load(gen1_path)
    batches = plan_batches(requests, MAX_BATCH, MAX_DELAY)
    swap_at = max(1, len(batches) // 2)

    def republish(index):
        if index == swap_at:
            publisher.publish(zone)

    verdicts, stats = serve_load(
        detector, gen1_zone, requests, max_batch=MAX_BATCH,
        max_delay=MAX_DELAY, publisher=publisher, on_dispatch=republish)
    layer.row("hot-reload-1w", stats.queries, stats.wall_seconds,
              digest_verdicts(verdicts))
    layer.check("hot-reload dropped responses", stats.dropped, "==", 0)
    layer.check("hot-reload generation swaps", stats.generation_swaps,
                "==", 1)
    layer.check("hot-reload generations served",
                sorted(stats.served_by_generation), "==", [1, 2])
    layer.check("hot-reload generation 1 serves the batches before the swap",
                stats.served_by_generation.get(1, 0), "==",
                sum(map(len, batches[:swap_at])))
    for generation, gen_zone in ((1, gen1_zone),
                                 (2, publisher.open_current())):
        group = [v for v in verdicts if v.generation == generation]
        expected = offline_verdicts(detector, gen_zone,
                                    [v.domain for v in group],
                                    generation=generation)
        layer.same(f"generation {generation} verdicts vs oracle",
                   [digest_verdicts(group), digest_verdicts(expected)])


def serving(layer, p):
    catalog = build_paper_catalog()
    detector = SquattingDetector(catalog)
    names = synth_names(p["records"], catalog)
    with tempfile.TemporaryDirectory(prefix="ledger_serving_") as workdir:
        packed_path = os.path.join(workdir, "snapshot.pzon")
        build_packed_zone(names).save(packed_path)
        zone = PackedZone.load(packed_path)
        requests = synth_requests(p["queries"], QPS,
                                  registered=list(zone.registered_domains()))
        queries = [name for _at, name in requests]
        seconds, oracle = best_of(
            lambda: offline_verdicts(detector, zone, queries), attempts=1)
        rows = {"offline-oracle": layer.row("offline-oracle", len(queries),
                                            seconds, digest_verdicts(oracle))}
        dropped = 0
        for leg, max_batch, max_delay, negcache in (
                ("unbatched-1w", 1, 0.0, True),
                ("batched-1w", MAX_BATCH, MAX_DELAY, True),
                ("batched-1w-nocache", MAX_BATCH, MAX_DELAY, False)):
            def run():
                return serve_load(detector, zone, requests,
                                  max_batch=max_batch, max_delay=max_delay,
                                  negcache=negcache)
            verdicts, stats = run()
            rows[leg] = layer.row(leg, stats.queries, stats.wall_seconds,
                                  digest_verdicts(verdicts))
            dropped += stats.dropped
            if leg in ("unbatched-1w", "batched-1w"):
                layer.retime(rows[leg], p["attempts"],
                             lambda: run()[1].wall_seconds)
        layer.same("verdict digests vs offline oracle",
                   [row["digest"] for row in rows.values()])
        layer.check("dropped responses", dropped, "==", 0)
        layer.check("batched-1w vs unbatched-1w QPS speedup",
                    rows["unbatched-1w"]["seconds"]
                    / rows["batched-1w"]["seconds"], ">=", p["floor"])
        _hot_reload_leg(layer, detector, zone, requests, workdir)


# ----------------------------------------------------------------------
# streaming: streamed state vs batch scan, delta-scan sublinearity
# ----------------------------------------------------------------------

def _sublinearity_legs(layer, detector, p):
    """Delta-scan seconds against a small and a 4x base snapshot.

    The same delta segment (the events right after the large base
    prefix) is scanned standalone — the streaming path — and each base
    is scanned in full — the rebuild path streaming replaces.  The delta
    leg's cost must track the delta, not the base.
    """
    small_events, large_events = p["bases"]
    tape = build_tape(EventTapeConfig(
        seed=77, n_events=large_events + p["segment_events"]))
    builder = DeltaSegmentBuilder()
    for event in tape[large_events:]:
        apply_event(builder, event)
    rows = {}
    for label, n_events in (("small", small_events), ("large", large_events)):
        base = pack_zone(replay_into_store(tape[:n_events]))
        delta = builder.build(1, base.content_digest).zone
        width = PackedScanContext(detector, base).width
        packed_scan(detector, delta, width=width)  # warm caches
        seconds, _ = best_of(lambda: packed_scan(detector, delta,
                                                 width=width), p["attempts"])
        rows[f"delta-{label}"] = layer.row(f"delta-{label}",
                                           delta.n_registered, seconds)
        seconds, _ = best_of(lambda: packed_scan(detector, base),
                             p["attempts"])
        rows[f"full-{label}"] = layer.row(f"full-{label}",
                                          base.n_registered, seconds)
    if p["sublinear"] is not None:
        def ratio(a, b):
            return rows[a]["seconds"] / max(rows[b]["seconds"], 1e-9)
        layer.check("full-large / full-small (probe calibration)",
                    ratio("full-large", "full-small"), ">=", p["sublinear"])
        layer.check("delta-large / delta-small",
                    ratio("delta-large", "delta-small"), "<", p["sublinear"])
        layer.check("delta-large / full-large",
                    ratio("delta-large", "full-large"), "<", 1.0)


def streaming(layer, p):
    detector = SquattingDetector(build_paper_catalog())
    tape_config = EventTapeConfig(seed=1803, n_events=p["events"])
    union = pack_zone(replay_into_store(build_tape(tape_config)))
    seconds, matches = best_of(lambda: packed_scan(detector, union),
                               attempts=1)
    legs = [layer.row("batch-oracle", p["events"], seconds,
                      digest_squat_matches(matches))]
    for workers in (1, 4):
        outcome = StreamingDriver(
            detector, tape_config, base_events=p["base_events"],
            segment_events=p["segment_events"],
            compact_every=p["compact_every"], workers=workers).run()
        stats = outcome.stats
        leg = f"streaming-{workers}w"
        legs.append(layer.row(leg, stats.events, stats.wall_seconds,
                              outcome.match_digest))
        layer.check(f"{leg} compactions", stats.compactions, ">", 0)
        layer.check(f"{leg} digest checks", stats.digest_checks, ">=",
                    stats.compactions)
        layer.check(f"{leg} p50 detection latency (sim s)",
                    stats.latency_p50, ">", 0.0)
    layer.same("match digests vs batch scan", [row["digest"] for row in legs])
    _sublinearity_legs(layer, detector, p)


# ----------------------------------------------------------------------
# lifecycle: snapshot-diff kernel vs the dict-set oracle
# ----------------------------------------------------------------------

REMOVE_RATE = 0.02       # share of A's records missing from B
CHANGE_RATE = 0.03       # share of A's records with a rewritten IP in B
ADD_RATE = 0.02          # share of fresh records appended to B


def synth_pair(n_records, catalog, seed=1803):
    """One deterministic A→B snapshot pair with mixed churn."""
    rng = np.random.default_rng(seed)
    names = synth_names(n_records, catalog, seed=seed)
    ips = [f"10.{i >> 16 & 255}.{i >> 8 & 255}.{i & 255}"
           for i in rng.integers(0, 2 ** 24, size=n_records)]

    builder_a = PackedZoneBuilder()
    for name, ip in zip(names, ips):
        builder_a.add_name(name, ip=ip)

    rolls = rng.random(n_records)
    removed = rolls < REMOVE_RATE
    changed = (~removed) & (rolls < REMOVE_RATE + CHANGE_RATE)
    builder_b = PackedZoneBuilder()
    for pos, (name, ip) in enumerate(zip(names, ips)):
        if removed[pos]:
            continue
        if changed[pos]:
            ip = f"192.0.2.{pos % 256}"
        builder_b.add_name(name, ip=ip)
    for serial in range(int(n_records * ADD_RATE)):
        builder_b.add_name(f"fresh-{seed}-{serial}.example", ip="10.9.9.9")
    return builder_a.build(), builder_b.build()


def lifecycle(layer, p):
    catalog = build_paper_catalog()
    for n_records in p["pairs"]:
        zone_a, zone_b = synth_pair(n_records, catalog)
        records = zone_a.n_records + zone_b.n_records
        # one untimed pass of each first, as the timed passes reuse
        # whatever the zones cache on first access
        diff_packed(zone_a, zone_b)
        diff_serial(zone_a, zone_b)
        packed_s, packed = best_of(lambda: diff_packed(zone_a, zone_b),
                                   p["attempts"])
        # the oracle rebuilds per-record dicts; one timed pass is plenty
        oracle_s, oracle = best_of(lambda: diff_serial(zone_a, zone_b),
                                   attempts=1)
        layer.row(f"packed-{n_records}", records, packed_s, packed.digest)
        layer.row(f"oracle-{n_records}", records, oracle_s, oracle.digest)
        layer.same(f"{n_records}-record pair diff digests",
                   [packed.digest, oracle.digest])
    layer.check(f"packed vs oracle speedup at {n_records} records",
                oracle_s / packed_s, ">=", p["floor"])

    config = SeriesConfig(n_snapshots=6, base_events=500,
                          events_per_snapshot=200)
    series = generate_series(config)
    pairs = config.n_snapshots - 1
    seconds, diffs = best_of(lambda: diff_series_serial(series), attempts=1)
    legs = [layer.row("series-serial", pairs, seconds,
                      diff_chain_digest(diffs))]
    for workers in (1, 2, 4):
        seconds, diffs = best_of(lambda: diff_series(series, workers=workers),
                                 attempts=1)
        legs.append(layer.row(f"series-{workers}w", pairs, seconds,
                              diff_chain_digest(diffs)))
    layer.same("series diff chain digests", [row["digest"] for row in legs])


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

LAYERS = {
    "scaling": scaling,
    "training": training,
    "zone_scale": zone_scale,
    "enrichment": enrichment,
    "serving": serving,
    "streaming": streaming,
    "incremental": incremental,
    "lifecycle": lifecycle,
}
# collector pauses land randomly across legs, and these layers' baselines
# are short enough for one pause to flip a ratio
GC_PAUSED = {"enrichment", "serving", "streaming", "lifecycle"}


def run_layer(name, scale):
    """Run one layer at ``scale``; returns its finished :class:`Layer`."""
    layer = Layer(name, scale)
    print(f"ledger: {name} ({scale} scale) ...", flush=True)
    with gc_paused() if name in GC_PAUSED else contextlib.nullcontext():
        LAYERS[name](layer, SCALES[scale][name])
    layer.finish()
    print_exhibit(f"Ledger - {name} ({scale} scale)", table(
        ["leg", "records", "seconds", "rate", "peak MB", "digest"],
        [[r["leg"], r["records"], r["seconds"], r["rate"], r["peak_rss_mb"],
          (r["digest"] or "-")[:12]] for r in layer.rows]) + "\n\n" + table(
        ["gate", "measured", "bound", "ok"],
        [[g["gate"], g["measured"], g["bound"], "ok" if g["ok"] else "FAIL"]
         for g in layer.gates]))
    return layer


def run_isolated(name, scale):
    """:func:`run_layer` in a child forked from this idle process.

    Not spawned: a spawned child makes ``spawn`` its default start
    method, so every pool a layer times would re-import the program
    per worker.  The executor forks its one worker before it starts
    its management thread.
    """
    with ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("fork")) as pool:
        return pool.submit(run_layer, name, scale).result()


@pytest.mark.parametrize("name", list(LAYERS))
def test_ledger(name):
    failed = [g for g in run_isolated(name, "default").gates if not g["ok"]]
    assert not failed, failed


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, equality gates only")
    parser.add_argument("--out", default="BENCH_ledger.json",
                        help="ledger JSON path")
    args = parser.parse_args(argv)
    scale = "smoke" if args.smoke else "default"
    # sections this harness does not write (the squatbench medians) are
    # kept; read before the layers run, so a bad file fails fast
    ledger = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            ledger = json.load(handle)
    layers = [run_isolated(name, scale) for name in LAYERS]
    gates = [g for layer in layers for g in layer.gates]
    ledger.update(scale=scale, cpu_count=os.cpu_count(),
                  rows=[r for layer in layers for r in layer.rows],
                  gates=gates)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=2)
        handle.write("\n")
    failed = [g for g in gates if not g["ok"]]
    print(f"wrote {args.out}: {len(gates) - len(failed)}/{len(gates)} "
          f"gates passed")
    for gate in failed:
        print(f"FAILED {gate['layer']}: {gate['gate']} {gate['bound']} "
              f"(measured {gate['measured']})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
