"""Incremental brand monitor (§7 deployment mode)."""

import pytest

from repro.core.monitor import BrandMonitor
from repro.dns.zone import ZoneStore


@pytest.fixture(scope="module")
def trained_pipeline(pipeline, pipeline_result):
    # pipeline_result's construction trains the shared pipeline
    assert pipeline.model is not None
    return pipeline


@pytest.fixture()
def monitor(trained_pipeline, micro_world):
    monitor = BrandMonitor(trained_pipeline, brands=["facebook", "google"])
    monitor.baseline(micro_world.zone)
    return monitor


def clone_zone(zone):
    return ZoneStore(iter(zone))


class TestBaseline:
    def test_baseline_counts(self, trained_pipeline, micro_world):
        monitor = BrandMonitor(trained_pipeline, brands=["facebook"])
        added = monitor.baseline(micro_world.zone)
        assert added > 0
        assert monitor.baseline(micro_world.zone) == 0  # idempotent

    def test_reuses_the_pipeline_detector(self, trained_pipeline):
        monitor = BrandMonitor(trained_pipeline, brands=["facebook"])
        assert monitor.detector is trained_pipeline.detector

    def test_unknown_brand_rejected(self, trained_pipeline):
        with pytest.raises(ValueError):
            BrandMonitor(trained_pipeline, brands=["notabrand"])


class TestObserve:
    def test_no_changes_no_alerts(self, monitor, micro_world):
        assert monitor.observe(clone_zone(micro_world.zone)) == []

    def test_new_squat_triggers_alert(self, monitor, micro_world):
        zone = clone_zone(micro_world.zone)
        zone.add_name("facebook-giveaway-new.tk")
        alerts = monitor.observe(zone)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.domain == "facebook-giveaway-new.tk"
        assert alert.brand == "facebook"
        assert alert.squat_type == "combo"
        assert not alert.live            # not hosted anywhere

    def test_unwatched_brand_is_ignored(self, monitor, micro_world):
        zone = clone_zone(micro_world.zone)
        zone.add_name("paypal-giveaway-new.tk")   # paypal is not watched
        assert monitor.observe(zone) == []

    def test_alert_dedup_across_rounds(self, monitor, micro_world):
        zone = clone_zone(micro_world.zone)
        zone.add_name("new-facebook-hub.ml")
        first = monitor.observe(zone)
        second = monitor.observe(zone)
        assert len(first) == 1
        assert second == []

    def test_live_phishing_domain_scores_high(self, monitor, micro_world):
        # point the monitor at an existing hosted phishing domain by
        # pretending it is newly registered
        target = next(d for d in micro_world.phishing_domains()
                      if micro_world.squat_truth[d][0] in ("facebook", "google"))
        monitor._known_domains.discard(target)
        zone = clone_zone(micro_world.zone)
        alerts = monitor.observe(zone)
        by_domain = {a.domain: a for a in alerts}
        assert target in by_domain
        alert = by_domain[target]
        if alert.live:                    # cloaking/lifetime permitting
            assert alert.score is not None

    def test_summary(self, monitor, micro_world):
        zone = clone_zone(micro_world.zone)
        zone.add_name("google-promo-new.xyz")
        monitor.observe(zone)
        summary = monitor.summary()
        assert summary["alerts"] >= 1
        assert summary["rounds"] >= 1
        assert summary["known_domains"] > 0
