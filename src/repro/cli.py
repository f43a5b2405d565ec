"""Command-line interface: the open-sourced-tool face of SquatPhi.

The paper ships its system as a standalone tool; this module provides the
equivalent workflows over this reproduction:

* ``squatphi gen <brand-domain>`` — enumerate squat candidates per type;
* ``squatphi classify <domain> ...`` — classify domains against the catalog;
* ``squatphi scan <snapshot.tsv>`` — scan an ActiveDNS-style dump and print
  the Fig 2/Fig 4 breakdowns;
* ``squatphi world <out.tsv>`` — generate a synthetic snapshot to play with;
* ``squatphi pipeline`` — run the end-to-end demo pipeline and print the
  headline exhibits;
* ``squatphi query <snapshot> <domain> ...`` — per-domain verdicts from the
  interactive serving engine (squat family, registration, enrichment);
* ``squatphi serve <snapshot>`` — replay a synthetic query burst through the
  batched multi-worker serving front and report QPS/latency;
* ``squatphi stream`` — drive a deterministic registration/CT-log event tape
  through the incremental ingest→delta-scan→compact loop and report
  events/sec plus sim-clock detection latency;
* ``squatphi lifecycle`` — generate a dated snapshot series with churn,
  diff consecutive packs with the vectorized kernel, and print the
  longitudinal exhibits (survival, re-registration, blacklist lag).

``scan``/``query``/``stream`` accept ``--verify`` to recompute every
packed snapshot's payload digest before use (corruption surfaces as a
typed :class:`~repro.dns.packedzone.PackedZoneCorruptError`, exit 2).

Each command is a plain function taking parsed args and returning an exit
code, so the test suite drives them directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import List, Optional, Sequence

from repro.analysis.render import bar_chart, table
from repro.brands import Brand, BrandCatalog, build_paper_catalog
from repro.dns.activedns import load_snapshot, write_snapshot
from repro.squatting.detector import SquattingDetector
from repro.squatting.generator import SquattingGenerator
from repro.squatting.types import SquatType


def _build_catalog(
    brand_domains: Optional[Sequence[str]],
    sectors: Optional[Sequence[str]] = None,
) -> BrandCatalog:
    """The 702-brand catalog, an ad-hoc one from --brands, and/or the §7
    sector catalogs from --sectors."""
    if brand_domains:
        catalog = BrandCatalog()
        for domain in brand_domains:
            name = domain.split(".")[0].lower()
            catalog.add(Brand(name=name, domain=domain.lower()))
    elif sectors:
        catalog = BrandCatalog()
    else:
        return build_paper_catalog()
    if sectors:
        from repro.brands.sectors import sector_catalog

        for brand in sector_catalog(sectors):
            catalog.add(brand)
    return catalog


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    """Enumerate squat candidates of one brand domain."""
    name = args.domain.split(".")[0].lower()
    brand = Brand(name=name, domain=args.domain.lower())
    generator = SquattingGenerator()
    candidates = generator.candidates(brand, include_combo=args.combo)

    wanted = {SquatType(t) for t in args.types} if args.types else set(SquatType)
    shown = 0
    for squat_type, labels in sorted(candidates.labels.items(),
                                     key=lambda kv: kv[0].value):
        if squat_type not in wanted:
            continue
        for label in sorted(labels):
            print(f"{label}.{brand.tld or 'com'}\t{squat_type.value}")
            shown += 1
            if args.limit and shown >= args.limit:
                return 0
    if SquatType.WRONG_TLD in wanted:
        for domain in sorted(candidates.domains.get(SquatType.WRONG_TLD, ())):
            print(f"{domain}\twrongTLD")
            shown += 1
            if args.limit and shown >= args.limit:
                return 0
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    """Classify domains against the brand catalog."""
    detector = SquattingDetector(_build_catalog(args.brands, args.sectors))
    exit_code = 1
    for domain in args.domains:
        match = detector.classify_domain(domain)
        if match is None:
            print(f"{domain}\t-\t-")
        else:
            detail = f"\t{match.detail}" if match.detail else ""
            print(f"{domain}\t{match.brand}\t{match.squat_type.value}{detail}")
            exit_code = 0
    return exit_code


def _verify_zone(zone, label: str) -> Optional[int]:
    """Run a snapshot's ``verify()`` when it has one; exit code on failure.

    ``PackedZone``/``SegmentedZone`` recompute their payload digests;
    dict-backed stores have nothing to verify and pass through.
    """
    from repro.dns.packedzone import PackedZoneCorruptError

    verifier = getattr(zone, "verify", None)
    if verifier is None:
        return None
    try:
        verifier()
    except PackedZoneCorruptError as exc:
        print(f"error: {label} failed verification: {exc}", file=sys.stderr)
        return 2
    return None


def cmd_scan(args: argparse.Namespace) -> int:
    """Scan a DNS snapshot file (TSV or packed) for squatting domains."""
    from repro.dns.packedzone import PackedZone, is_packed_file

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if is_packed_file(args.snapshot):
        # packed snapshots mmap straight into the zero-copy scan kernel
        zone = PackedZone.load(args.snapshot)
    else:
        zone = load_snapshot(args.snapshot)
    if args.verify:
        failed = _verify_zone(zone, args.snapshot)
        if failed is not None:
            return failed
    detector = SquattingDetector(_build_catalog(args.brands, args.sectors))
    matches = detector.scan_sharded(zone, workers=args.workers)

    print(f"scanned {len(zone)} records, found {len(matches)} squatting domains\n")
    histogram = Counter(m.squat_type.value for m in matches)
    print(bar_chart({t.value: histogram.get(t.value, 0) for t in SquatType},
                    title="squatting domains by type"))
    print()
    top = Counter(m.brand for m in matches).most_common(args.top)
    print(table(["brand", "count"], [[b, c] for b, c in top],
                title=f"top {args.top} brands"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            for match in matches:
                handle.write(f"{match.domain}\t{match.brand}\t{match.squat_type.value}\n")
        print(f"\nwrote matches to {args.out}")
    return 0


def cmd_world(args: argparse.Namespace) -> int:
    """Generate a synthetic world and dump its DNS snapshot."""
    from repro.phishworld.world import WorldConfig, build_world

    config = WorldConfig(
        seed=args.seed,
        n_organic_domains=args.organic,
        n_squat_domains=args.squats,
        n_phish_domains=args.phish,
        phishtank_reports=max(20, args.phish * 4),
        packed_zone=args.packed,
    )
    world = build_world(config)
    if args.packed:
        world.zone.save(args.out)
        count = len(world.zone)
        print(f"wrote {count} DNS records to {args.out} (packed snapshot)")
    else:
        count = write_snapshot(iter(world.zone), args.out)
        print(f"wrote {count} DNS records to {args.out}")
    print(f"  brands: {len(world.catalog)}  squats: {len(world.squat_truth)}"
          f"  planted phishing: {len(world.phishing_sites)}")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Run the end-to-end demo pipeline on a fresh synthetic world."""
    from repro.core import PipelineConfig, SquatPhi
    from repro.faults import FaultPlan
    from repro.phishworld.world import WorldConfig, build_world
    from repro.stages import ArtifactStore

    if not 0.0 <= args.fault_rate < 1.0:
        print("error: --fault-rate must be in [0, 1)", file=sys.stderr)
        return 2
    if args.max_retries < 0:
        print("error: --max-retries must be >= 0", file=sys.stderr)
        return 2
    if args.resume and not args.store:
        print("error: --resume requires --store", file=sys.stderr)
        return 2

    fault_plan = (FaultPlan.uniform(args.fault_rate, seed=args.fault_seed)
                  if args.fault_rate > 0 else None)
    try:
        pipeline_config = PipelineConfig(
            cv_folds=5, rf_trees=15,
            fault_plan=fault_plan,
            crawl_max_retries=args.max_retries,
            scan_workers=args.scan_workers,
            crawl_workers=args.crawl_workers,
            train_workers=args.train_workers,
            extract_workers=args.extract_workers,
            enrich_workers=args.enrich_workers,
            enrich_hedging=not args.no_enrich_hedging,
            capture_cache=not args.no_capture_cache,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    config = WorldConfig(
        seed=args.seed,
        n_organic_domains=args.squats,
        n_squat_domains=args.squats,
        n_phish_domains=max(4, args.squats // 12),
        phishtank_reports=max(40, args.squats // 3),
        packed_zone=args.packed_zone,
    )
    world = build_world(config)
    pipeline = SquatPhi(world, pipeline_config)
    store = ArtifactStore(args.store) if args.store else None
    try:
        result = pipeline.run(follow_up_snapshots=False, store=store,
                              resume=args.resume, from_stage=args.from_stage)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        # machine-readable summary only; wall-clock still goes to stderr
        print(json.dumps(result.summary(), indent=2, sort_keys=True))
        timings = pipeline.perf.format_timings()
        if timings:
            print(timings, file=sys.stderr)
        return 0

    if args.store:
        print(f"run id: {result.run_id} (store: {args.store})\n")
    print(table(
        ["model", "FP", "FN", "AUC", "ACC"],
        [[name, f"{r.false_positive_rate:.3f}", f"{r.false_negative_rate:.3f}",
          f"{r.auc:.3f}", f"{r.accuracy:.3f}"]
         for name, r in result.cv_reports.items()],
        title="classifier cross-validation",
    ))
    print(f"\nsquatting domains: {len(result.squat_matches)}")
    if result.enrichment is not None:
        print(f"enriched domains:  {len(result.enrichment.domains)}")
    print(f"flagged pages:     {len(result.flagged)}")
    print(f"verified phishing: {len(result.verified)} "
          f"(planted: {len(world.phishing_sites)})")
    if fault_plan is not None:
        print()
        print(result.health.format())
        if result.injected_faults:
            print("  injected faults:")
            for kind, count in sorted(result.injected_faults.items()):
                print(f"    {kind}: {count}")
    print()
    # counters are deterministic -> stdout; wall-clock timings -> stderr,
    # so `diff`-ing two identical runs' stdout stays byte-identical
    print(pipeline.perf.format(timings=False))
    timings = pipeline.perf.format_timings()
    if timings:
        print(timings, file=sys.stderr)
    return 0


def _load_packed(path: str):
    """mmap a packed snapshot; pack a TSV one on the fly."""
    from repro.dns.packedzone import PackedZone, is_packed_file, pack_zone

    if is_packed_file(path):
        return PackedZone.load(path)
    return pack_zone(load_snapshot(path))


def cmd_query(args: argparse.Namespace) -> int:
    """Answer per-domain verdict queries over a packed snapshot."""
    from repro.serve import QueryEngine, verdict_line

    zone = _load_packed(args.snapshot)
    if args.verify:
        failed = _verify_zone(zone, args.snapshot)
        if failed is not None:
            return failed
    detector = SquattingDetector(_build_catalog(args.brands, args.sectors))
    engine = QueryEngine(detector, zone)
    exit_code = 1
    for verdict in engine.lookup_batch(args.domains):
        print(verdict_line(verdict))
        if verdict.is_squat:
            exit_code = 0
    return exit_code


def cmd_serve(args: argparse.Namespace) -> int:
    """Replay a deterministic query burst against the serving front."""
    import tempfile

    from repro.dns.packedzone import PackedZone
    from repro.perf.report import PerfReport
    from repro.serve import (SnapshotPublisher, digest_verdicts, plan_batches,
                             serve_load, synth_requests)

    if args.queries < 1:
        print("error: --queries must be >= 1", file=sys.stderr)
        return 2
    if args.qps <= 0:
        print("error: --qps must be positive", file=sys.stderr)
        return 2

    zone = _load_packed(args.snapshot)
    detector = SquattingDetector(_build_catalog(args.brands, args.sectors))
    requests = synth_requests(args.queries, args.qps, seed=args.seed,
                              registered=list(zone.registered_domains()))

    publisher = None
    on_dispatch = None
    tmp = None
    if args.hot_swap:
        # publish gen 1 into a scratch dir, then republish the same
        # snapshot as gen 2 halfway through the burst: batches before
        # the swap are answered by gen 1, the rest by gen 2
        tmp = tempfile.TemporaryDirectory(prefix="squatphi-serve-")
        publisher = SnapshotPublisher(tmp.name)
        _generation, path = publisher.publish(zone)
        zone = PackedZone.load(path)
        swap_at = max(1, len(plan_batches(
            requests, args.max_batch, args.max_delay)) // 2)

        def on_dispatch(index: int, _zone=zone) -> None:
            if index == swap_at:
                publisher.publish(_zone)

    try:
        verdicts, stats = serve_load(
            detector, zone, requests, max_batch=args.max_batch,
            max_delay=args.max_delay,
            negcache=not args.no_negcache,
            publisher=publisher, on_dispatch=on_dispatch)
    finally:
        if tmp is not None:
            tmp.cleanup()

    # deterministic counters + the verdict digest -> stdout; wall-clock
    # throughput/latency -> stderr (same split as `pipeline`)
    squats = sum(1 for v in verdicts if v.is_squat)
    registered = sum(1 for v in verdicts if v.registered)
    print(f"served {stats.queries} queries in {stats.batches} batches "
          f"({stats.dropped} dropped)")
    print(f"  squatting verdicts: {squats}")
    print(f"  registered domains: {registered}")
    if args.hot_swap:
        by_gen = ", ".join(f"gen {g}: {n}" for g, n in
                           sorted(stats.served_by_generation.items()))
        print(f"  generation swaps:   {stats.generation_swaps} ({by_gen})")
    print(f"  verdict digest:     {digest_verdicts(verdicts)}")
    if args.out:
        from repro.serve import verdict_line
        with open(args.out, "w", encoding="utf-8") as handle:
            for verdict in verdicts:
                handle.write(verdict_line(verdict) + "\n")
        print(f"  wrote verdicts to {args.out}")

    perf = PerfReport()
    perf.record_stage("serve", stats.wall_seconds)
    perf.record_serving(stats)
    print(perf.format_timings(), file=sys.stderr)
    print(f"  p50 {stats.p50_ms:.3f} ms, p99 {stats.p99_ms:.3f} ms "
          f"({stats.qps:.0f} qps)",
          file=sys.stderr)
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Stream an event tape through ingest→delta-scan→compact."""
    from repro.dns.packedzone import PackedZoneCorruptError
    from repro.perf.report import PerfReport
    from repro.phishworld.events import EventTapeConfig
    from repro.serve import SnapshotPublisher
    from repro.stages import ArtifactStore
    from repro.stream import StreamingDriver

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.events < 1:
        print("error: --events must be >= 1", file=sys.stderr)
        return 2
    if args.segment_events < 1 or args.compact_every < 1:
        print("error: --segment-events/--compact-every must be >= 1",
              file=sys.stderr)
        return 2
    if args.base_events < 0 or args.base_events >= args.events:
        print("error: --base-events must be in [0, --events)", file=sys.stderr)
        return 2

    detector = SquattingDetector(_build_catalog(args.brands, args.sectors))
    perf = PerfReport(scan_workers=args.workers)
    driver = StreamingDriver(
        detector,
        EventTapeConfig(seed=args.seed, n_events=args.events),
        base_events=args.base_events,
        segment_events=args.segment_events,
        compact_every=args.compact_every,
        workers=args.workers,
        delta_dir=args.delta_dir,
        store=ArtifactStore(args.store) if args.store else None,
        publisher=SnapshotPublisher(args.publish) if args.publish else None,
        perf=perf,
        verify=args.verify)
    try:
        outcome = driver.run(limit_segments=args.limit_segments)
    except PackedZoneCorruptError as exc:
        print(f"error: snapshot failed verification: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    stats = outcome.stats
    if args.json:
        summary = dict(stats.as_dict())
        summary["match_digest"] = outcome.match_digest
        summary["tape_digest"] = outcome.tape_digest
        summary["interrupted"] = outcome.interrupted
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        # deterministic counters + digests -> stdout; wall clock -> stderr
        print(f"streamed {stats.events} events in {stats.segments} segments "
              f"({stats.base_events} base events, "
              f"{stats.cached_segments} segments from cache)")
        print(f"  adds/removals:      {stats.adds}/{stats.removals}")
        print(f"  compactions:        {stats.compactions} "
              f"({stats.digest_checks} streaming-vs-batch digest checks)")
        print(f"  live records:       {stats.live_records}")
        print(f"  live squat matches: {stats.live_matches} "
              f"({stats.detections} detected while streaming)")
        print(f"  detection latency:  p50 {stats.latency_p50:.3f}s, "
              f"p95 {stats.latency_p95:.3f}s (sim clock)")
        print(f"  match digest:       {outcome.match_digest}")
        print(f"  tape digest:        {outcome.tape_digest}")
        if outcome.interrupted:
            print(f"  interrupted after {stats.segments} segments "
                  f"({len(outcome.pending)} deltas pending compaction)")
    timings = perf.format_timings()
    if timings:
        print(timings, file=sys.stderr)
    return 0


def cmd_lifecycle(args: argparse.Namespace) -> int:
    """Generate a dated series, diff it, print lifecycle analytics."""
    from repro.analysis.lifecycle import (
        diff_chain_digest,
        diff_series,
        diff_series_serial,
        lifecycle_report,
    )
    from repro.analysis.lifetime import survival_at
    from repro.perf.report import PerfReport
    from repro.phishworld.series import SeriesConfig, generate_series
    from repro.stages import ArtifactStore

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    try:
        config = SeriesConfig(
            seed=args.seed, n_snapshots=args.snapshots,
            base_events=args.base_events,
            events_per_snapshot=args.events_per_snapshot,
            start_date=args.start_date, cadence_days=args.cadence_days)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    perf = PerfReport(scan_workers=args.workers)
    store = ArtifactStore(args.store) if args.store else None
    series = generate_series(config, store=store, perf=perf)
    diffs = diff_series(series, workers=args.workers, perf=perf)
    chain = diff_chain_digest(diffs)
    perf.record_stage("lifecycle", series.stats.wall_seconds
                      + perf.diff_seconds)

    oracle_checked = False
    if args.oracle:
        oracle = diff_chain_digest(diff_series_serial(series))
        if oracle != chain:
            print(f"error: packed diff chain {chain[:12]}… diverged from "
                  f"the dict-set oracle {oracle[:12]}…", file=sys.stderr)
            return 2
        oracle_checked = True

    detector = SquattingDetector(_build_catalog(args.brands, args.sectors))
    report = lifecycle_report(series, diffs=diffs, detector=detector)

    if args.json:
        summary = report.as_dict()
        summary["series_digest"] = series.series_digest
        summary["tape_digest"] = series.tape_digest
        summary["series_stats"] = series.stats.as_dict()
        summary["oracle_checked"] = oracle_checked
        summary["workers"] = args.workers
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        stats = series.stats
        print(f"series: {len(series)} snapshots, {series[0].date} → "
              f"{series[-1].date} every {config.cadence_days}d "
              f"({stats.cached_snapshots} from cache)")
        print(f"  tape digest:   {series.tape_digest}")
        print(f"  series digest: {series.series_digest}")
        print(f"  diff chain:    {chain}"
              + ("  (== dict-set oracle)" if oracle_checked else ""))
        print()
        print(table(
            ["pair", "added", "removed", "changed", "retained", "rec +",
             "rec -", "rec ~"],
            [[f"{series[i].date}→{series[i + 1].date}",
              c["added"], c["removed"], c["changed"], c["retained"],
              c["records_added"], c["records_removed"],
              c["records_changed"]]
             for i, c in enumerate(report.pair_counts)],
            title="snapshot-pair diffs (registered domains)",
        ))
        print()
        families = [fam for name, fam in sorted(report.families.items())
                    if name != "organic"]
        print(table(
            ["family", "born", "takedowns", "rereg rate", "weaponized",
             "blacklisted", "lag (d)"],
            [[f.family, f.born, f.takedowns, f"{f.rereg_rate:.2f}",
              f.weaponized, f"{f.blacklist_coverage:.0%}",
              "-" if f.blacklist_lag_days is None
              else f"{f.blacklist_lag_days:.1f}"]
             for f in families],
            title="squat lifecycle by family",
        ))
        print()
        horizon = len(series) - 1
        print(table(
            ["family"] + [f"S({t})" for t in range(1, horizon + 1)],
            [[f.family] + [f"{survival_at(f.lifetimes, t):.2f}"
                           for t in range(1, horizon + 1)]
             for f in families],
            title="squat survival S(t) over snapshots "
                  f"({config.cadence_days}d cadence)",
        ))
    timings = perf.format_timings()
    if timings:
        print(timings, file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squatphi",
        description="Search and detect squatting phishing domains (IMC'18).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="enumerate squat candidates of a brand")
    gen.add_argument("domain", help="brand domain, e.g. facebook.com")
    gen.add_argument("--types", nargs="*", metavar="TYPE",
                     choices=[t.value for t in SquatType],
                     help="restrict to squat types")
    gen.add_argument("--combo", action="store_true",
                     help="include (non-exhaustive) combo candidates")
    gen.add_argument("--limit", type=int, default=0, help="max candidates")
    gen.set_defaults(func=cmd_gen)

    sector_choices = ("government", "military", "university", "hospital")

    classify = sub.add_parser("classify", help="classify domains")
    classify.add_argument("domains", nargs="+")
    classify.add_argument("--brands", nargs="*",
                          help="restrict the catalog to these brand domains")
    classify.add_argument("--sectors", nargs="*", choices=sector_choices,
                          help="add sector catalogs (§7 extension)")
    classify.set_defaults(func=cmd_classify)

    scan = sub.add_parser("scan", help="scan a DNS snapshot file")
    scan.add_argument("snapshot",
                      help="ActiveDNS-style TSV (.gz ok) or a packed "
                           "snapshot from `world --packed` (autodetected)")
    scan.add_argument("--brands", nargs="*")
    scan.add_argument("--sectors", nargs="*", choices=sector_choices,
                      help="add sector catalogs (§7 extension)")
    scan.add_argument("--workers", type=int, default=1,
                      help="process-pool width for the sharded scan")
    scan.add_argument("--top", type=int, default=10)
    scan.add_argument("--out", help="write matches to this TSV file")
    scan.add_argument("--verify", action="store_true",
                      help="recompute the packed snapshot's payload digest "
                           "before scanning (corrupt files exit 2)")
    scan.set_defaults(func=cmd_scan)

    world = sub.add_parser("world", help="generate a synthetic DNS snapshot")
    world.add_argument("out", help="output snapshot path")
    world.add_argument("--seed", type=int, default=1803)
    world.add_argument("--organic", type=int, default=500)
    world.add_argument("--squats", type=int, default=500)
    world.add_argument("--phish", type=int, default=40)
    world.add_argument("--packed", action="store_true",
                       help="write a packed columnar snapshot (mmap-able "
                            "by `scan`) instead of a TSV")
    world.set_defaults(func=cmd_world)

    pipeline = sub.add_parser("pipeline", help="run the end-to-end demo")
    pipeline.add_argument("--seed", type=int, default=1803)
    pipeline.add_argument("--squats", type=int, default=400)
    pipeline.add_argument("--fault-rate", type=float, default=0.0,
                          help="compound infrastructure fault rate injected "
                               "across DNS/HTTP/browser (0 disables)")
    pipeline.add_argument("--fault-seed", type=int, default=0,
                          help="seed addressing the deterministic fault draws")
    pipeline.add_argument("--max-retries", type=int, default=2,
                          help="crawl retries per job after a failed visit")
    pipeline.add_argument("--scan-workers", type=int, default=1,
                          help="process-pool width for the snapshot scan")
    pipeline.add_argument("--packed-zone", action="store_true",
                          help="build the world's DNS zone as a packed "
                               "columnar snapshot; the scan stage then "
                               "mmaps it zero-copy across --scan-workers "
                               "(results are identical either way)")
    pipeline.add_argument("--crawl-workers", type=int, default=20,
                          help="modelled crawl scheduler width: sets worker "
                               "ids and per-worker job counts (the crawl "
                               "runs on one thread)")
    pipeline.add_argument("--train-workers", type=int, default=1,
                          help="process-pool width for forest trees and "
                               "cross-validation folds")
    pipeline.add_argument("--extract-workers", type=int, default=1,
                          help="process-pool width for feature extraction "
                               "over captured pages")
    pipeline.add_argument("--enrich-workers", type=int, default=8,
                          help="in-flight concurrency of the bulk "
                               "enrichment resolver (results are "
                               "byte-identical at any setting)")
    pipeline.add_argument("--no-enrich-hedging", action="store_true",
                          help="disable hedged duplicate requests for "
                               "enrichment stragglers")
    pipeline.add_argument("--no-capture-cache", action="store_true",
                          help="disable the content-addressed render/OCR "
                               "cache (results are identical either way)")
    pipeline.add_argument("--store", metavar="DIR",
                          help="persist artifacts + run manifests here "
                               "(enables --resume across processes)")
    pipeline.add_argument("--resume", metavar="RUN_ID",
                          help="resume/incrementally re-execute a prior run "
                               "from --store; unchanged stages are loaded "
                               "instead of recomputed")
    pipeline.add_argument("--from-stage", metavar="NAME",
                          help="with --resume, force NAME and every stage "
                               "downstream of it to re-execute")
    pipeline.add_argument("--json", action="store_true",
                          help="emit the machine-readable run summary as "
                               "JSON on stdout instead of the tables")
    pipeline.set_defaults(func=cmd_pipeline)

    query = sub.add_parser("query", help="per-domain verdicts from the "
                                         "interactive serving engine")
    query.add_argument("snapshot",
                       help="packed snapshot from `world --packed` "
                            "(TSV snapshots are packed on the fly)")
    query.add_argument("domains", nargs="+")
    query.add_argument("--brands", nargs="*",
                       help="restrict the catalog to these brand domains")
    query.add_argument("--sectors", nargs="*", choices=sector_choices,
                       help="add sector catalogs (§7 extension)")
    query.add_argument("--verify", action="store_true",
                       help="recompute the packed snapshot's payload digest "
                            "before serving (corrupt files exit 2)")
    query.set_defaults(func=cmd_query)

    serve = sub.add_parser("serve", help="replay a synthetic query burst "
                                         "through the serving front")
    serve.add_argument("snapshot",
                       help="packed snapshot from `world --packed` "
                            "(TSV snapshots are packed on the fly)")
    serve.add_argument("--queries", type=int, default=5000,
                       help="synthetic queries in the burst")
    serve.add_argument("--qps", type=float, default=2000.0,
                       help="target arrival rate (sim clock)")
    serve.add_argument("--seed", type=int, default=1803)
    serve.add_argument("--max-batch", type=int, default=64,
                       help="micro-batch size bound")
    serve.add_argument("--max-delay", type=float, default=0.005,
                       help="micro-batch delay bound, seconds (sim clock)")
    serve.add_argument("--no-negcache", action="store_true",
                       help="disable the TTL'd negative-verdict cache")
    serve.add_argument("--hot-swap", action="store_true",
                       help="republish the snapshot as a new generation "
                            "mid-burst to exercise hot reload")
    serve.add_argument("--brands", nargs="*",
                       help="restrict the catalog to these brand domains")
    serve.add_argument("--sectors", nargs="*", choices=sector_choices,
                       help="add sector catalogs (§7 extension)")
    serve.add_argument("--out", help="write verdict lines to this file")
    serve.set_defaults(func=cmd_serve)

    stream = sub.add_parser("stream", help="drive a registration event tape "
                                           "through incremental delta scans")
    stream.add_argument("--events", type=int, default=2000,
                        help="total events on the deterministic tape")
    stream.add_argument("--base-events", type=int, default=400,
                        help="tape prefix that builds the initial base "
                             "snapshot (the rest streams)")
    stream.add_argument("--segment-events", type=int, default=120,
                        help="events per sealed delta segment")
    stream.add_argument("--compact-every", type=int, default=4,
                        help="segments between LSM-style compactions (each "
                             "asserts streaming == batch digests)")
    stream.add_argument("--seed", type=int, default=1803)
    stream.add_argument("--workers", type=int, default=1,
                        help="process-pool width for delta scans (digests "
                             "are identical at any width)")
    stream.add_argument("--delta-dir", metavar="DIR",
                        help="write sealed delta-segment files here")
    stream.add_argument("--store", metavar="DIR",
                        help="persist per-segment scan artifacts here "
                             "(a killed run resumes from cache)")
    stream.add_argument("--publish", metavar="DIR",
                        help="publish base + delta generations into this "
                             "directory for the serving layer")
    stream.add_argument("--limit-segments", type=int, default=None,
                        help="stop after N segments without the final "
                             "compaction (kill/resume harnesses)")
    stream.add_argument("--brands", nargs="*",
                        help="restrict the catalog to these brand domains")
    stream.add_argument("--sectors", nargs="*", choices=sector_choices,
                        help="add sector catalogs (§7 extension)")
    stream.add_argument("--json", action="store_true",
                        help="emit the run summary as JSON on stdout")
    stream.add_argument("--verify", action="store_true",
                        help="verify every base snapshot and sealed delta "
                             "segment (payload digests + chain binding) "
                             "as the stream advances")
    stream.set_defaults(func=cmd_stream)

    lifecycle = sub.add_parser(
        "lifecycle", help="dated snapshot series + longitudinal analytics")
    lifecycle.add_argument("--snapshots", type=int, default=8,
                           help="dated snapshots in the series")
    lifecycle.add_argument("--base-events", type=int, default=600,
                           help="tape prefix behind snapshot 0")
    lifecycle.add_argument("--events-per-snapshot", type=int, default=250,
                           help="churn events between snapshots")
    lifecycle.add_argument("--start-date", default="2018-03-01",
                           help="ISO date of snapshot 0")
    lifecycle.add_argument("--cadence-days", type=int, default=7,
                           help="days between snapshots")
    lifecycle.add_argument("--seed", type=int, default=1803)
    lifecycle.add_argument("--workers", type=int, default=1,
                           help="process-pool width for consecutive-pair "
                                "diffs (digests identical at any width)")
    lifecycle.add_argument("--store", metavar="DIR",
                           help="persist per-snapshot artifacts here "
                                "(re-runs skip unchanged snapshots)")
    lifecycle.add_argument("--oracle", action="store_true",
                           help="re-diff every pair with the dict-set "
                                "oracle and require digest equality")
    lifecycle.add_argument("--brands", nargs="*",
                           help="restrict the catalog to these brand domains")
    lifecycle.add_argument("--sectors", nargs="*", choices=sector_choices,
                           help="add sector catalogs (§7 extension)")
    lifecycle.add_argument("--json", action="store_true",
                           help="emit the report as JSON on stdout")
    lifecycle.set_defaults(func=cmd_lifecycle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
