"""Determinism guarantees: same seed, same universe, same results.

The README promises bit-identical worlds per WorldConfig; these tests pin
the guarantee at every level that could silently regress (e.g. an
accidental `hash()` or unseeded RNG).
"""

import numpy as np
import pytest

from repro.core import PipelineConfig, SquatPhi
from repro.phishworld.world import WorldConfig, build_world
from repro.squatting.detector import SquattingDetector
from repro.stages import ArtifactStore

SMALL = WorldConfig(seed=99, n_organic_domains=60, n_squat_domains=80,
                    n_phish_domains=8, phishtank_reports=40)


@pytest.fixture(scope="module")
def twin_worlds():
    return build_world(SMALL), build_world(SMALL)


class TestWorldDeterminism:
    def test_zone_identical(self, twin_worlds):
        a, b = twin_worlds
        assert sorted((r.name, r.ip) for r in a.zone) == sorted(
            (r.name, r.ip) for r in b.zone)

    def test_phishing_plan_identical(self, twin_worlds):
        a, b = twin_worlds
        assert [(r.domain, r.brand, r.squat_type, r.theme,
                 r.evasion.cloaking, r.lifetime_snapshots)
                for r in a.phishing_sites] == [
                (r.domain, r.brand, r.squat_type, r.theme,
                 r.evasion.cloaking, r.lifetime_snapshots)
                for r in b.phishing_sites]

    def test_served_pages_identical(self, twin_worlds):
        from repro.web.browser import Browser
        from repro.web.http import WEB_UA

        a, b = twin_worlds
        for domain in a.phishing_domains()[:5]:
            capture_a = Browser(a.host, WEB_UA).visit(f"http://{domain}/")
            capture_b = Browser(b.host, WEB_UA).visit(f"http://{domain}/")
            if capture_a is None:
                assert capture_b is None
                continue
            assert capture_a.html == capture_b.html
            assert np.array_equal(capture_a.screenshot.pixels,
                                  capture_b.screenshot.pixels)

    def test_whois_and_geoip_identical(self, twin_worlds):
        a, b = twin_worlds
        domains = a.phishing_domains()
        assert a.whois.year_histogram(domains) == b.whois.year_histogram(domains)
        ips_a = [r.ip for r in a.phishing_sites]
        ips_b = [r.ip for r in b.phishing_sites]
        assert ips_a == ips_b

    def test_blacklist_contents_identical(self, twin_worlds):
        a, b = twin_worlds
        for domain in a.phishing_domains():
            assert (a.blacklists.check(domain).detected
                    == b.blacklists.check(domain).detected)


class TestPipelineDeterminism:
    @pytest.fixture(scope="class")
    def twin_results(self, twin_worlds):
        config = PipelineConfig(cv_folds=3, rf_trees=8)
        a, b = twin_worlds
        result_a = SquatPhi(a, config).run(follow_up_snapshots=False)
        result_b = SquatPhi(b, config).run(follow_up_snapshots=False)
        return result_a, result_b

    def test_squat_matches_identical(self, twin_results):
        a, b = twin_results
        assert [(m.domain, m.brand, m.squat_type) for m in a.squat_matches] \
            == [(m.domain, m.brand, m.squat_type) for m in b.squat_matches]

    def test_cv_reports_identical(self, twin_results):
        a, b = twin_results
        for name in a.cv_reports:
            assert a.cv_reports[name].row() == b.cv_reports[name].row()

    def test_verified_sets_identical(self, twin_results):
        a, b = twin_results
        assert a.verified_domains() == b.verified_domains()

    def test_flagged_scores_identical(self, twin_results):
        a, b = twin_results
        scores_a = sorted((f.domain, f.profile, round(f.score, 10))
                          for f in a.flagged)
        scores_b = sorted((f.domain, f.profile, round(f.score, 10))
                          for f in b.flagged)
        assert scores_a == scores_b


class TestScanWorkerDeterminism:
    def test_scan_counts_workers_equal_serial(self, twin_worlds,
                                              small_slices):
        pooled = small_slices(16)
        world, _ = twin_worlds
        detector = SquattingDetector(world.catalog)
        serial = detector.scan_counts(world.zone)
        assert sum(serial.values()) > 0
        # slice-histogram merges are additive (associative), so any
        # worker count must reproduce the serial histogram
        for workers in (2, 4):
            assert detector.scan_counts(world.zone, workers=workers) == serial
        assert len(pooled) == 2 and min(pooled) > 1

    def test_scan_sharded_workers_equal_serial(self, twin_worlds,
                                               small_slices):
        pooled = small_slices(11)
        world, _ = twin_worlds
        detector = SquattingDetector(world.catalog)
        serial = [(m.domain, m.brand, m.squat_type)
                  for m in detector.scan(world.zone)]
        sharded = [(m.domain, m.brand, m.squat_type)
                   for m in detector.scan_sharded(world.zone, workers=4)]
        assert sharded == serial
        assert len(pooled) == 1 and pooled[0] > 1


def _assert_byte_equivalent(result, reference):
    """The §10 contract: worker knobs never change an output byte."""
    assert [(m.domain, m.brand, m.squat_type) for m in result.squat_matches] \
        == [(m.domain, m.brand, m.squat_type) for m in reference.squat_matches]
    assert [s.digest() for s in result.crawl_snapshots] == \
        [s.digest() for s in reference.crawl_snapshots]
    for name in reference.cv_reports:
        assert result.cv_reports[name].row() == reference.cv_reports[name].row()
        assert result.cv_reports[name].auc == reference.cv_reports[name].auc
    # scores compared exactly, not rounded: byte-identical is the contract
    assert sorted((f.domain, f.profile, f.score) for f in result.flagged) == \
        sorted((f.domain, f.profile, f.score) for f in reference.flagged)
    assert result.verified_domains() == reference.verified_domains()


class TestThroughputKnobDeterminism:
    """--train-workers / --extract-workers are pure throughput knobs
    (DESIGN.md §10): every output byte matches the serial run."""

    @pytest.fixture(scope="class")
    def serial_result(self):
        config = PipelineConfig(cv_folds=3, rf_trees=8)
        return SquatPhi(build_world(SMALL), config).run(
            follow_up_snapshots=False)

    def _run(self, **overrides):
        config = PipelineConfig(cv_folds=3, rf_trees=8, **overrides)
        return SquatPhi(build_world(SMALL), config).run(
            follow_up_snapshots=False)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_counts_change_no_output_byte(self, serial_result, workers):
        result = self._run(train_workers=workers, extract_workers=workers)
        _assert_byte_equivalent(result, serial_result)

    def test_resume_from_store_across_worker_counts(self, serial_result,
                                                    tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = SquatPhi(build_world(SMALL), PipelineConfig(
            cv_folds=3, rf_trees=8, train_workers=2, extract_workers=2))
        first_result = first.run(follow_up_snapshots=False, store=store)
        _assert_byte_equivalent(first_result, serial_result)

        # worker knobs sit outside every stage fingerprint, so a serial
        # resume of the parallel run is served entirely from the store
        rerun = SquatPhi(build_world(SMALL),
                         PipelineConfig(cv_folds=3, rf_trees=8))
        result = rerun.run(follow_up_snapshots=False, store=store,
                           resume=first.run_id)
        assert result is not None
        _assert_byte_equivalent(result, serial_result)
        assert {"train", "classify"} <= set(rerun.perf.cached_stages)
