"""Zone-scale bench: packed columnar snapshots vs the dict-backed store.

PR 5 added :mod:`repro.dns.packedzone` — a zone snapshot interned into
contiguous columnar arrays, serialized to a single mmap-able file — and a
vectorized scan kernel (:mod:`repro.squatting.packedscan`) whose pool
workers mmap the file and classify ``[start, stop)`` registered-domain
slices zero-copy, instead of receiving pickled string chunks.  Both are
bound by the determinism contract: representation and worker count are
throughput knobs that never change an output byte.

This bench synthesizes a million-record snapshot (ActiveDNS scale is two
orders above, but shape-faithful: ~1% squatting density, a few TLDs, a
tail of ``www.`` subdomains) and runs the same catalog scan through:

* ``dict-serial``   — ``ZoneStore`` + ``SquattingDetector.scan``: the
  reference path every other leg must match byte for byte;
* ``dict-sharded``  — ``scan_sharded`` on the ``ZoneStore`` at 4 workers:
  the registered domains are packed on demand and run through the mmap
  kernel (the only pooled scan path);
* ``packed-N``      — the mmap kernel at workers {1, 2, 4}.

It asserts identical ``digest_squat_matches`` across every leg, then the
headline number: the packed store resident in >= 4x less memory than
``ZoneStore`` at equal record count (each store built/mapped in a fresh
subprocess, VmRSS delta).

A second, survivor-heavy leg (DESIGN.md §16) synthesizes a mix built to
*defeat* the vector reject — hyphen-rich organics, combo-prefix and
homograph-bucket near-misses, true squats, a pinch of ``xn--`` rows —
and runs it through the in-kernel family matchers: digests identical to
the dict-backed reference (including a forced-wider matrix, the
streaming delta-scan shape, and the serve engine's ``classify_batch``
against ``offline_verdicts``) and a scalar fallback rate under 1%.
A ``BENCH_zone_scale.json`` summary is written for the
perf trajectory; CI runs the smoke scale and archives the JSON as an
artifact.

Environment knobs (the ``__main__`` flags override them, for CI):
    ZONE_BENCH_SCALE  "default" (10^6 records, memory assert)
                      or "smoke" (60k records, digest equality only).
    ZONE_BENCH_OUT    summary path (default: BENCH_zone_scale.json).
"""

import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.analysis.render import table
from repro.brands import build_paper_catalog
from repro.dns.packedzone import PackedZone, PackedZoneBuilder
from repro.dns.zone import ZoneStore
from repro.serve.engine import QueryEngine, digest_verdicts, offline_verdicts
from repro.squatting import packedscan
from repro.squatting.detector import SquattingDetector
from repro.squatting.generator import SquattingGenerator
from repro.squatting.packedscan import PackedScanContext, packed_scan
from repro.stages import digest_squat_matches

from exhibits import print_exhibit

SCALE = os.environ.get("ZONE_BENCH_SCALE", "default")
OUT_PATH = os.environ.get("ZONE_BENCH_OUT", "BENCH_zone_scale.json")

WORKER_COUNTS = (1, 2, 4)
SQUAT_RATE = 0.01        # the paper finds ~657k squatting in 224M domains;
                         # 1% keeps the positive class visible at bench scale
SUBDOMAIN_RATE = 0.03    # www. tail: extra records, same registered domains
TLDS = ("com", "net", "org", "info")

_ALPHABET = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789",
                          dtype=np.uint8)


def _scale_params(scale):
    """(records, survivor-leg records, memory_floor) per scale."""
    if scale == "smoke":
        return 60_000, 20_000, None
    return 1_000_000, 200_000, 4.0


# ----------------------------------------------------------------------
# synthetic snapshot
# ----------------------------------------------------------------------

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
# scan legs
# ----------------------------------------------------------------------

def _run_leg(label, detector, zone, workers):
    started = time.perf_counter()
    matches = detector.scan_sharded(zone, workers=workers)
    elapsed = time.perf_counter() - started
    registered = zone.stats()["registered_domains"]
    return {
        "leg": label,
        "workers": workers,
        "seconds": round(elapsed, 3),
        "registered": registered,
        "domains_per_second": round(registered / max(elapsed, 1e-9)),
        "matches": len(matches),
        "digest": digest_squat_matches(matches),
    }


def _run_kernel_leg(label, detector, zone, workers, width=None):
    """One packed scan with its KernelStats surfaced."""
    started = time.perf_counter()
    matches = packed_scan(detector, zone, workers=workers, width=width)
    elapsed = time.perf_counter() - started
    stats = packedscan.take_last_scan_stats()
    return {
        "leg": label,
        "workers": workers,
        "seconds": round(elapsed, 3),
        "registered": zone.n_registered,
        "domains_per_second": round(zone.n_registered / max(elapsed, 1e-9)),
        "matches": len(matches),
        "digest": digest_squat_matches(matches),
        "survivors": stats.survivors,
        "fallbacks": dict(sorted(stats.fallbacks.items())),
        "fallback_rate": round(stats.fallback_rate, 6),
    }


# ----------------------------------------------------------------------
# survivor-heavy legs: the in-kernel family matchers
# ----------------------------------------------------------------------

def _survivor_bench(detector, catalog, n_records, fallback_ceiling=0.01):
    """Kernel scan over the survivor-heavy mix.

    Asserts every leg (kernel, kernel at a forced wider matrix — the
    streaming delta-scan shape, and the serve engine's
    ``classify_batch``) is byte-identical to the dict-backed serial
    reference, and the kernel's scalar-fallback rate stays under
    ``fallback_ceiling``.
    """
    names = synth_survivor_names(n_records, catalog)
    dict_zone = build_dict_zone(names)
    zone = build_packed_zone(names)
    reference = digest_squat_matches(detector.scan(dict_zone))
    workers = WORKER_COUNTS[-1]
    natural = PackedScanContext(detector, zone).width

    kernel = _run_kernel_leg("survivor-kernel", detector, zone, workers)
    forced = _run_kernel_leg("survivor-kernel-wide", detector, zone,
                             workers=1, width=natural + 8)
    legs = [kernel, forced]

    # the serving path shares the matchers: engine verdicts over a query
    # sample must equal the per-name reference oracle
    sample = names[::max(len(names) // 2000, 1)][:2000]
    engine = QueryEngine(detector, zone)
    serve_ok = digest_verdicts(engine.lookup_batch(sample)) == \
        digest_verdicts(offline_verdicts(detector, zone, sample))

    print_exhibit(
        "Zone-scale bench - survivor-heavy legs (identical outputs)",
        table(
            ["leg", "workers", "seconds", "domains/s", "survivors",
             "fallback rate"],
            [[leg["leg"], leg["workers"], f"{leg['seconds']:.2f}",
              leg["domains_per_second"], leg["survivors"],
              f"{100 * leg['fallback_rate']:.3f}%"] for leg in legs],
        ),
    )

    for leg in legs:
        assert leg["digest"] == reference, \
            f"{leg['leg']} diverged from the dict-serial reference scan"
    assert serve_ok, "serve classify_batch diverged from offline_verdicts"
    assert kernel["fallback_rate"] < fallback_ceiling, (
        f"kernel fallback rate {kernel['fallback_rate']:.4f} exceeds "
        f"{fallback_ceiling}")
    return {
        "records": n_records,
        "runs": legs,
        "fallback_rate": kernel["fallback_rate"],
        "fallbacks": kernel["fallbacks"],
        "serve_digest_ok": serve_ok,
    }


# ----------------------------------------------------------------------
# resident-memory legs (fresh subprocess per store, VmRSS delta)
# ----------------------------------------------------------------------

_RSS_CHILD_DICT = """
import json, sys
def rss_kb():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
from repro.dns.zone import ZoneStore
with open(sys.argv[1], encoding="ascii") as handle:
    names = handle.read().split()
base = rss_kb()
zone = ZoneStore()
for name in names:
    zone.add_name(name)
print(json.dumps({"rss_kb": rss_kb() - base, "records": len(zone)}))
"""

_RSS_CHILD_PACKED = """
import json, sys
import numpy as np
def rss_kb():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
from repro.dns.packedzone import PackedZone
base = rss_kb()
zone = PackedZone.load(sys.argv[1])
# fault every mapped page in, so the mmap is fully charged to VmRSS
np.asarray(np.frombuffer(zone._buf, dtype=np.uint8)).sum()
print(json.dumps({"rss_kb": rss_kb() - base, "records": len(zone)}))
"""


def _measure_rss(child_source, arg):
    env = dict(os.environ)
    src_dir = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", child_source, arg],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def measure_memory(names, packed_path, workdir):
    """VmRSS deltas for both stores at equal record count (None off-Linux)."""
    if not os.path.exists("/proc/self/status"):
        return None
    names_path = os.path.join(workdir, "names.txt")
    with open(names_path, "w", encoding="ascii") as handle:
        handle.write("\n".join(names))
    dict_rss = _measure_rss(_RSS_CHILD_DICT, names_path)
    packed_rss = _measure_rss(_RSS_CHILD_PACKED, packed_path)
    assert dict_rss["records"] == packed_rss["records"]
    return {
        "dict_rss_kb": dict_rss["rss_kb"],
        "packed_rss_kb": packed_rss["rss_kb"],
        "ratio": round(dict_rss["rss_kb"] / max(packed_rss["rss_kb"], 1), 2),
    }


# ----------------------------------------------------------------------
# bench driver
# ----------------------------------------------------------------------

def run_bench(scale=SCALE, out_path=OUT_PATH):
    n_records, survivor_records, memory_floor = _scale_params(scale)
    catalog = build_paper_catalog()
    detector = SquattingDetector(catalog)

    print(f"synthesizing {n_records} records ({scale} scale) ...")
    names = synth_names(n_records, catalog)

    workdir = tempfile.mkdtemp(prefix="bench_zone_scale_")
    packed_path = os.path.join(workdir, "snapshot.pzon")

    packed = build_packed_zone(names)
    packed.save(packed_path)
    memory = None
    if memory_floor is not None:
        # measure before the parent builds its own big stores, so the
        # children aren't competing with a resident GB of ZoneStore
        memory = measure_memory(names, packed_path, workdir)

    dict_zone = build_dict_zone(names)
    packed = PackedZone.load(packed_path)

    rows = [_run_leg("dict-serial", detector, dict_zone, workers=1)]
    reference = rows[0]["digest"]
    rows.append(_run_leg("dict-sharded", detector, dict_zone,
                         workers=WORKER_COUNTS[-1]))
    for workers in WORKER_COUNTS:
        rows.append(_run_leg(f"packed-{workers}", detector, packed, workers))

    print_exhibit(
        "Zone-scale bench - scan legs (identical outputs)",
        table(
            ["leg", "workers", "seconds", "domains/s", "matches"],
            [[r["leg"], r["workers"], f"{r['seconds']:.2f}",
              r["domains_per_second"], r["matches"]] for r in rows],
        ),
    )

    # survivor-heavy leg: rows that defeat the vector reject, so the
    # leg times the in-kernel family matchers
    survivor = _survivor_bench(detector, catalog, survivor_records)

    summary = {
        "bench": "zone_scale",
        "scale": scale,
        "records": n_records,
        "packed_bytes": packed.nbytes,
        "runs": rows,
        "survivor": survivor,
        "memory": memory,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
    line = f"\nwrote {out_path} (survivor-kernel fallback: " \
           f"{100 * survivor['fallback_rate']:.3f}%"
    if memory:
        line += f", memory ratio: {memory['ratio']:.1f}x"
    print(line + ")")

    # determinism contract: representation and worker count are throughput
    # knobs — every leg must reproduce the dict-backed serial scan's bytes
    for row in rows:
        assert row["digest"] == reference, \
            f"{row['leg']} diverged from the dict-serial reference scan"

    # headline acceptance (skipped at smoke scale, where the stores are
    # too small to weigh fairly)
    if memory_floor is not None and memory is not None:
        assert memory["ratio"] >= memory_floor, (
            f"expected >= {memory_floor}x lower RSS for the packed store, "
            f"measured {memory['ratio']:.2f}x")
    return summary


def test_zone_scale_bench():
    run_bench()


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="60k records, digest-equality assertions only")
    parser.add_argument("--out", default=None, help="summary JSON path")
    cli = parser.parse_args()
    run_bench(scale="smoke" if cli.smoke else SCALE,
              out_path=cli.out or OUT_PATH)
