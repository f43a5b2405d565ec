"""World builder: composition, determinism, ground truth coherence."""

from collections import Counter

import pytest

from repro.phishworld.world import WorldConfig, build_world
from repro.squatting.types import SquatType
from repro.web.server import SiteBehavior


class TestComposition:
    def test_every_site_has_a_zone_record(self, micro_world):
        for site in micro_world.host.sites():
            assert micro_world.zone.get(site.domain) is not None, site.domain

    def test_brand_originals_hosted(self, micro_world):
        for brand in list(micro_world.catalog)[:20]:
            site = micro_world.host.get(brand.domain)
            assert site is not None
            assert site.label == "original"

    def test_squat_population_size(self, micro_world):
        assert len(micro_world.squat_truth) == micro_world.config.n_squat_domains

    def test_phishing_population_size(self, micro_world):
        assert len(micro_world.phishing_sites) == micro_world.config.n_phish_domains

    def test_phishing_sites_labelled(self, micro_world):
        for record in micro_world.phishing_sites:
            assert micro_world.label_of(record.domain) == "phishing"

    def test_squat_type_mix_is_combo_heavy(self, micro_world):
        counts = Counter(t for _, t in micro_world.squat_truth.values())
        assert counts[SquatType.COMBO] == max(counts.values())

    def test_all_five_types_present_among_phish(self, micro_world):
        types = {r.squat_type for r in micro_world.phishing_sites}
        assert types == set(SquatType)

    def test_seeded_case_studies_present(self, micro_world):
        for domain in ("goog1e.nl", "facebook-c.com", "mobile-adp.com",
                       "go-uberfreight.com", "tacebook.ga"):
            assert micro_world.label_of(domain) == "phishing", domain

    def test_phishing_ips_allocated(self, micro_world):
        for record in micro_world.phishing_sites:
            assert micro_world.geoip.country(record.ip) is not None

    def test_whois_covers_phishing_domains(self, micro_world):
        for record in micro_world.phishing_sites[:20]:
            assert micro_world.whois.lookup(record.domain) is not None

    def test_phishtank_reports_are_hosted(self, micro_world):
        hosted = sum(
            1 for report in micro_world.phishtank.generate()
            if micro_world.host.get(report.domain) is not None
        )
        assert hosted >= 0.95 * len(micro_world.phishtank.generate())

    def test_brand_rank_assignment(self, micro_world):
        assert micro_world.alexa.rank("google.com") <= 702
        assert micro_world.alexa.is_ranked("facebook.com")


class TestDeterminism:
    def test_same_seed_same_world(self):
        config = WorldConfig(seed=5, n_organic_domains=50, n_squat_domains=60,
                             n_phish_domains=6, phishtank_reports=30)
        a = build_world(config)
        b = build_world(config)
        assert sorted(r.name for r in a.zone) == sorted(r.name for r in b.zone)
        assert a.phishing_domains() == b.phishing_domains()

    def test_different_seed_different_world(self):
        base = dict(n_organic_domains=50, n_squat_domains=60,
                    n_phish_domains=6, phishtank_reports=30)
        a = build_world(WorldConfig(seed=5, **base))
        b = build_world(WorldConfig(seed=6, **base))
        assert sorted(r.name for r in a.zone) != sorted(r.name for r in b.zone)


class TestValidation:
    def test_more_phish_than_squats_rejected_before_build(self):
        with pytest.raises(ValueError, match="n_phish_domains.*n_squat_domains"):
            WorldConfig(n_squat_domains=120)


class TestScaling:
    def test_scaled_config(self):
        config = WorldConfig().scaled(0.1)
        assert config.n_squat_domains == 800
        assert config.n_phish_domains == 24
        assert config.seed == WorldConfig().seed

    def test_liveness_rate_shape(self, micro_world):
        """~55% of squat domains are live (Table 2)."""
        live = 0
        for domain in micro_world.squat_truth:
            site = micro_world.host.get(domain)
            if site is not None and site.behavior != SiteBehavior.DEAD:
                live += 1
        rate = live / len(micro_world.squat_truth)
        assert 0.42 < rate < 0.68
