"""Execution-engine tests: ordered maps, sharded scan, and the
determinism contract — identical digests and verified domains for any
worker count, with and without the capture cache, under faults, and
across checkpoint/resume splits (DESIGN.md, "The execution engine's
determinism contract")."""

import multiprocessing

import pytest

from repro.core import PipelineConfig, SquatPhi
from repro.dns.zone import ZoneStore
from repro.faults import FaultPlan
from repro.perf import CaptureCache, PerfReport, PoolSlot, process_map, shard
from repro.phishworld.world import WorldConfig, build_world
from repro.squatting import packedscan
from repro.squatting.detector import SquattingDetector


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------

class TestShard:
    def test_consecutive_chunks_preserve_order(self):
        assert shard(range(7), 3) == [[0, 1, 2], [3, 4, 5], [6]]

    def test_exact_multiple(self):
        assert shard([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_empty(self):
        assert shard([], 5) == []

    def test_rejects_nonpositive_chunk(self):
        with pytest.raises(ValueError):
            shard([1], 0)


def _square_chunk(chunk):
    return [x * x for x in chunk]


class TestProcessMap:
    def test_results_in_shard_order(self):
        shards = shard(range(20), 3)
        out = process_map(_square_chunk, shards, workers=2)
        assert [x for chunk in out for x in chunk] == [x * x for x in range(20)]

    def test_serial_fallback_runs_initializer(self):
        called = []
        out = process_map(lambda c: c, [[1]], workers=1,
                          initializer=called.append, initargs=("init",))
        assert out == [[1]] and called == ["init"]


_SLOT: PoolSlot = PoolSlot()


def _slot_init(key):
    _SLOT.ensure(key, lambda: "rebuilt")


def _slot_read(_item):
    return _SLOT.state


class TestPoolSlot:
    def test_matching_key_keeps_state_without_building(self):
        slot = PoolSlot()
        state = object()
        assert slot.ensure((7, "zone"), lambda: state) is state

        def fail():
            raise AssertionError("builder called for a matching key")

        assert slot.ensure((7, "zone"), fail) is state
        assert slot.state is state

    def test_different_key_rebuilds(self):
        slot = PoolSlot()
        slot.ensure((1,), lambda: "old")
        assert slot.ensure((2,), lambda: "new") == "new"
        assert slot.state == "new"

    def test_state_before_ensure_raises(self):
        with pytest.raises(RuntimeError):
            PoolSlot().state

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="inheritance needs fork-start workers")
    def test_forked_workers_inherit_or_rebuild_by_key(self):
        _SLOT.ensure(("parent",), lambda: "parent")
        inherited = process_map(_slot_read, [0, 1, 2], workers=2,
                                initializer=_slot_init,
                                initargs=(("parent",),))
        assert inherited == ["parent"] * 3
        rebuilt = process_map(_slot_read, [0, 1, 2], workers=2,
                              initializer=_slot_init,
                              initargs=(("other",),))
        assert rebuilt == ["rebuilt"] * 3
        assert _SLOT.state == "parent"


def _blas_threads():
    import ctypes

    import numpy
    try:
        library = ctypes.CDLL(numpy._core._multiarray_umath.__file__)
        return library.scipy_openblas_get_num_threads64_()
    except (AttributeError, OSError):
        pytest.skip("numpy without the bundled scipy_openblas")


def test_importing_the_engine_pins_blas_to_one_thread():
    assert _blas_threads() == 1


# ----------------------------------------------------------------------
# sharded scan
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_world():
    return build_world(WorldConfig(
        seed=1803, n_organic_domains=120, n_squat_domains=120,
        n_phish_domains=10, phishtank_reports=40,
    ))


class TestShardedScan:
    def test_matches_serial_scan(self, small_world, small_slices):
        pooled = small_slices(37)
        detector = SquattingDetector(small_world.catalog)
        serial = detector.scan(small_world.zone)
        parallel = detector.scan_sharded(small_world.zone, workers=2)
        assert parallel == serial
        assert len(pooled) == 1 and pooled[0] > 1

    def test_single_slice_dict_zone_scans_serially(self, small_world,
                                                    small_slices):
        pooled = small_slices(packedscan.PACKED_CHUNK)
        detector = SquattingDetector(small_world.catalog)
        assert small_world.zone.stats()["registered_domains"] <= \
            packedscan.PACKED_CHUNK
        assert detector.scan_sharded(small_world.zone, workers=2) == \
            detector.scan(small_world.zone)
        # no pool, no pack: the serial oracle ran and left no kernel stats
        assert pooled == [] and packedscan.take_last_scan_stats() is None

    def test_dict_zone_pools_through_the_kernel(self, small_world):
        detector = SquattingDetector(small_world.catalog)
        zone = ZoneStore(iter(small_world.zone))
        # re-home the first squat's records at the end of the record
        # order: record order and registered-domain order (the serial
        # scan's) now disagree
        first = detector.scan(zone)[0].domain
        stale = zone.names_under(first)
        for i in range(5000):  # more than one kernel slice: a real pool
            zone.add_name(f"filler{i:05d}x.com")
        zone.add_name(f"relocated.{first}")
        for name in stale:
            zone.remove(name)
        serial = detector.scan(zone)
        assert serial[0].domain == first
        assert detector.scan_sharded(zone, workers=2) == serial
        stats = packedscan.take_last_scan_stats()
        assert stats.rows == zone.stats()["registered_domains"]
        assert stats.rows > packedscan.PACKED_CHUNK  # more than one slice
        assert detector.scan_counts(zone, workers=2) == \
            detector.scan_counts(zone)

    def test_iter_scan_streams_same_matches(self, small_world):
        detector = SquattingDetector(small_world.catalog)
        assert list(detector.iter_scan(small_world.zone)) == detector.scan(small_world.zone)

    def test_scan_counts_totals(self, small_world):
        detector = SquattingDetector(small_world.catalog)
        counts = detector.scan_counts(small_world.zone)
        assert sum(counts.values()) == len(detector.scan(small_world.zone))


# ----------------------------------------------------------------------
# pipeline determinism across workers / cache / faults
# ----------------------------------------------------------------------

def _world():
    return build_world(WorldConfig(
        seed=1803, n_organic_domains=120, n_squat_domains=120,
        n_phish_domains=10, phishtank_reports=40,
    ))


def _run(crawl_workers, capture_cache, fault_rate=0.0):
    config = PipelineConfig(
        cv_folds=3, rf_trees=8,
        crawl_workers=crawl_workers,
        capture_cache=capture_cache,
        fault_plan=(FaultPlan.uniform(fault_rate, seed=7)
                    if fault_rate else None),
    )
    pipeline = SquatPhi(_world(), config)
    result = pipeline.run(follow_up_snapshots=False)
    return pipeline, result


class TestDeterminismContract:
    @pytest.fixture(scope="class")
    def matrix(self):
        return {
            (workers, cache): _run(workers, cache)
            for workers in (1, 4) for cache in (True, False)
        }

    def test_digest_invariant_across_workers_and_cache(self, matrix):
        digests = {r.crawl_snapshots[0].digest() for _, r in matrix.values()}
        assert len(digests) == 1

    def test_verified_domains_invariant(self, matrix):
        verified = {tuple(r.verified_domains()) for _, r in matrix.values()}
        assert len(verified) == 1

    def test_health_invariant(self, matrix):
        healths = {repr(sorted(r.health.to_dict().items()))
                   for _, r in matrix.values()}
        assert len(healths) == 1

    def test_cache_hits_only_when_enabled(self, matrix):
        for (workers, cache), (pipeline, _) in matrix.items():
            stats = pipeline.perf.cache
            if cache:
                assert stats.any_hits
                assert stats.render_bypasses == 0
            else:
                assert not stats.any_hits
                assert stats.render_bypasses > 0


class TestDeterminismUnderFaults:
    def test_digest_and_output_invariant_at_20pct(self):
        runs = [_run(workers, cache, fault_rate=0.2)
                for workers in (1, 4) for cache in (True, False)]
        digests = {r.crawl_snapshots[0].digest() for _, r in runs}
        verified = {tuple(r.verified_domains()) for _, r in runs}
        injected = {repr(sorted(r.injected_faults.items())) for _, r in runs}
        assert len(digests) == 1
        assert len(verified) == 1
        assert len(injected) == 1


class TestParallelResume:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_interrupted_parallel_crawl_resumes_to_identical_digest(self, workers):
        world_a = _world()
        config = PipelineConfig(
            cv_folds=3, rf_trees=8, crawl_workers=workers,
            fault_plan=FaultPlan.uniform(0.2, seed=7),
        )
        pipeline_a = SquatPhi(world_a, config)
        matches = pipeline_a.detect_squatting()
        domains = [m.domain for m in matches]
        uninterrupted = pipeline_a.crawl_domains(domains, snapshot=0)

        pipeline_b = SquatPhi(_world(), config)
        partial = pipeline_b.crawl_domains(domains, snapshot=0, max_jobs=31)
        assert not partial.complete
        resumed = pipeline_b.crawl_domains(
            domains, snapshot=0, resume=partial.checkpoint)
        assert resumed.complete
        assert resumed.digest() == uninterrupted.digest()

    def test_resume_digest_invariant_across_worker_counts(self):
        digests = set()
        config_matches = None
        for workers in (1, 2, 4, 8):
            config = PipelineConfig(
                cv_folds=3, rf_trees=8, crawl_workers=workers,
                fault_plan=FaultPlan.uniform(0.2, seed=7),
            )
            pipeline = SquatPhi(_world(), config)
            if config_matches is None:
                config_matches = [m.domain for m in pipeline.detect_squatting()]
            partial = pipeline.crawl_domains(config_matches, snapshot=0, max_jobs=17)
            final = pipeline.crawl_domains(
                config_matches, snapshot=0, resume=partial.checkpoint)
            digests.add(final.digest())
        assert len(digests) == 1


class TestPerfReport:
    def test_stage_seconds_accumulate(self):
        report = PerfReport()
        report.record_stage("crawl", 1.5)
        report.record_stage("crawl", 0.5)
        assert report.stage_seconds["crawl"] == pytest.approx(2.0)
        assert report.total_seconds == pytest.approx(2.0)

    def test_pipeline_fills_report(self):
        pipeline, _ = _run(1, True)
        assert set(pipeline.perf.stage_seconds) >= {"scan", "crawl", "train"}
        assert pipeline.perf.cache_enabled
        assert pipeline.perf.to_dict()["cache"]["render_hits"] > 0

    def test_to_dict_key_set_is_stable(self):
        assert list(PerfReport().to_dict()) == [
            "scan_workers", "crawl_workers", "train_workers",
            "extract_workers", "cache_enabled", "stage_seconds",
            "total_seconds", "cached_stages", "pages_extracted",
            "extract_seconds", "trees_fitted", "folds_fitted",
            "train_seconds", "registered_scanned", "scan_seconds",
            "scan_domains_per_second", "scan_kernel_rows", "scan_fallbacks",
            "scan_fallback_rate", "enrichments_done", "enrich_seconds",
            "enrichments_per_second", "hedges_fired", "negcache_hits",
            "negcache_misses", "negcache_hit_rate", "queries_served",
            "serve_seconds", "serve_qps", "serve_batches", "serve_swaps",
            "serve_negcache_hits", "serve_kernel_rows", "serve_fallbacks",
            "serve_fallback_rate", "stream_events", "stream_seconds",
            "stream_events_per_second", "stream_segments",
            "stream_cached_segments", "stream_compactions",
            "stream_detections", "stream_latency_p50", "stream_kernel_rows",
            "stream_fallbacks", "stream_fallback_rate", "diff_pairs",
            "diff_seconds", "peak_rss_kb", "cache",
        ]

    def test_format_mentions_bypasses_when_disabled(self):
        report = PerfReport(cache_enabled=False)
        report.cache.render_bypasses = 3
        assert "bypassed" in report.format()
