"""Capture-cache correctness: cloaked sites never share entries across
device profiles, disabled-cache runs byte-match cached runs, counters
(including bypass accounting) stay honest, and the spell memo never
changes a correction."""

import numpy as np
import pytest

from repro.core import PipelineConfig, SquatPhi
from repro.perf import CacheStats, CaptureCache
from repro.perf.cache import content_digest
from repro.phishworld.world import WorldConfig, build_world
from repro.ocr.spellcheck import SpellChecker
from repro.web.browser import Browser
from repro.web.html import el
from repro.web.http import MOBILE_UA, WEB_UA
from repro.web.server import HostedSite, SiteBehavior, WebHost


def _cloaked_host():
    """One site serving a phish to web UAs and a decoy to mobile UAs."""
    host = WebHost()

    def provider(user_agent, snapshot):
        if user_agent.is_mobile:
            return el("html", el("body", el("p", "nothing to see here")))
        return el("html", el("body",
                             el("form", el("input", type="password"))))

    host.register(HostedSite(domain="cloaked.example", behavior=SiteBehavior.CONTENT,
                             provider=provider))
    return host


class TestCloakingIsolation:
    def test_profiles_never_share_entries(self):
        host = _cloaked_host()
        cache = CaptureCache()
        web = Browser(host, WEB_UA, capture_cache=cache)
        mobile = Browser(host, MOBILE_UA, capture_cache=cache)

        web_capture = web.visit("http://cloaked.example/")
        mobile_capture = mobile.visit("http://cloaked.example/")
        assert web_capture.html != mobile_capture.html

        keys = cache.render_keys()
        assert len(keys) == 2
        # distinct served bodies AND distinct profiles: even a non-cloaked
        # site could never alias, because the profile is part of the key
        assert len({key[0] for key in keys}) == 2
        assert {key[1] for key in keys} == {WEB_UA.name, MOBILE_UA.name}

    def test_repeat_visit_hits_within_profile_only(self):
        host = _cloaked_host()
        cache = CaptureCache()
        web = Browser(host, WEB_UA, capture_cache=cache)
        mobile = Browser(host, MOBILE_UA, capture_cache=cache)
        first = web.visit("http://cloaked.example/")
        again = web.visit("http://cloaked.example/")
        mobile.visit("http://cloaked.example/")
        assert cache.stats.render_hits == 1
        assert cache.stats.render_misses == 2
        assert again.html == first.html
        assert np.array_equal(again.screenshot.pixels, first.screenshot.pixels)

    def test_same_body_same_profile_different_snapshot_isolated(self):
        assert (CaptureCache.render_key("<html/>", "web", 0)
                != CaptureCache.render_key("<html/>", "web", 1))


class TestDisabledCacheByteMatch:
    @pytest.fixture(scope="class")
    def pair(self):
        def run(enabled):
            world = build_world(WorldConfig(
                seed=1803, n_organic_domains=100, n_squat_domains=100,
                n_phish_domains=8, phishtank_reports=40))
            pipeline = SquatPhi(world, PipelineConfig(
                cv_folds=3, rf_trees=8, capture_cache=enabled))
            return pipeline, pipeline.run(follow_up_snapshots=False)
        return run(True), run(False)

    def test_captures_byte_identical(self, pair):
        (_, cached), (_, uncached) = pair
        snap_a, snap_b = cached.crawl_snapshots[0], uncached.crawl_snapshots[0]
        assert snap_a.digest() == snap_b.digest()
        assert set(snap_a.results) == set(snap_b.results)
        for key, result_a in snap_a.results.items():
            result_b = snap_b.results[key]
            if result_a.capture is None:
                assert result_b.capture is None
                continue
            assert result_a.capture.html == result_b.capture.html
            assert np.array_equal(result_a.capture.screenshot.pixels,
                                  result_b.capture.screenshot.pixels)

    def test_features_identical(self, pair):
        (pipeline_a, cached), (pipeline_b, uncached) = pair
        capture = cached.crawl_snapshots[0].captures("web")[0].capture
        features_a = pipeline_a.extractor.extract_capture(capture)
        features_b = pipeline_b.extractor.extract_capture(capture)
        assert features_a.all_tokens() == features_b.all_tokens()
        assert features_a.form_count == features_b.form_count
        assert features_a.password_input_count == features_b.password_input_count

    def test_verified_domains_identical(self, pair):
        (_, cached), (_, uncached) = pair
        assert cached.verified_domains() == uncached.verified_domains()

    def test_counters(self, pair):
        (pipeline_a, _), (pipeline_b, _) = pair
        on, off = pipeline_a.perf.cache, pipeline_b.perf.cache
        assert on.any_hits
        assert on.render_hit_rate > 0
        assert on.render_bypasses == on.feature_bypasses == 0
        assert not off.any_hits
        assert off.render_misses == off.feature_misses == 0
        # the bypassed run still reports how much traffic the cache would
        # have seen
        assert off.render_bypasses == on.render_hits + on.render_misses
        assert off.feature_bypasses == on.feature_hits + on.feature_misses


class TestRenderDedup:
    def test_duplicate_visits_split_deterministically(self):
        """N browsers visiting the same body: exactly 1 miss, N-1 hits."""
        host = _cloaked_host()
        cache = CaptureCache()
        n_visits = 8
        captures = [Browser(host, WEB_UA, capture_cache=cache).visit(
            "http://cloaked.example/") for _ in range(n_visits)]

        assert cache.stats.render_misses == 1
        assert cache.stats.render_hits == n_visits - 1
        assert len({c.html for c in captures}) == 1


class TestFeatureCacheCopies:
    def test_hit_returns_independent_copy(self):
        world = build_world(WorldConfig(
            seed=1803, n_organic_domains=40, n_squat_domains=40,
            n_phish_domains=4, phishtank_reports=20))
        pipeline = SquatPhi(world, PipelineConfig(cv_folds=3, rf_trees=8))
        capture = Browser(world.host, WEB_UA,
                          capture_cache=pipeline.capture_cache).visit(
            f"http://{next(iter(world.catalog)).domain}/")
        first = pipeline.extractor.extract_capture(capture)
        first.lexical_tokens.append("mutated-by-caller")
        second = pipeline.extractor.extract_capture(capture)
        assert "mutated-by-caller" not in second.lexical_tokens


class TestSpellMemo:
    def test_memo_never_changes_corrections(self):
        words = ["passwod", "acount", "xylophone", "lgin", "secure", "p4y"]
        plain = SpellChecker()
        memoized = SpellChecker()
        memoized.enable_memo(CacheStats())
        for word in words * 3:
            assert memoized.correct_word(word) == plain.correct_word(word)

    def test_memo_counts_hits(self):
        stats = CacheStats()
        checker = SpellChecker()
        checker.enable_memo(stats)
        checker.correct_word("passwod")
        checker.correct_word("passwod")
        assert stats.spell_misses == 1
        assert stats.spell_hits == 1

    def test_memo_invalidated_on_new_word(self):
        checker = SpellChecker()
        checker.enable_memo()
        assert checker.correct_word("zzyzzx") == "zzyzzx"  # no correction
        checker.add_word("zzyzz")
        assert checker.correct_word("zzyzzx") == "zzyzz"


class TestContentDigest:
    def test_distinct_bodies_distinct_digests(self):
        assert content_digest("<a/>") != content_digest("<b/>")

    def test_stable(self):
        assert content_digest("page") == content_digest("page")
