"""Distributed crawler: scheduling, profiles, snapshots, statistics."""

import threading

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.web.crawler import CrawlSnapshot, DistributedCrawler
from repro.web.html import document, el
from repro.web.http import MOBILE_UA, WEB_UA
from repro.web.server import HostedSite, SiteBehavior, WebHost


@pytest.fixture()
def host():
    host = WebHost()
    for i in range(6):
        page = document(f"Site {i}", el("p", f"content {i}"))
        host.register(HostedSite(
            domain=f"site{i}.com", behavior=SiteBehavior.CONTENT,
            provider=lambda ua, snap, p=page: p,
        ))
    host.register(HostedSite(domain="gone.com", behavior=SiteBehavior.DEAD))
    host.register(HostedSite(
        domain="moved.com", behavior=SiteBehavior.REDIRECT,
        redirect_to="http://site0.com/",
    ))
    return host


def all_domains(host):
    return sorted(site.domain for site in host.sites())


def test_crawl_covers_every_domain_and_profile(host):
    crawler = DistributedCrawler(host, workers=3)
    snapshot = crawler.crawl(all_domains(host))
    assert len(snapshot.results) == 8 * 2  # both profiles
    for profile in ("web", "mobile"):
        assert snapshot.get("site0.com", profile).live


def test_dead_domains_reported_not_live(host):
    snapshot = DistributedCrawler(host, workers=2).crawl(all_domains(host))
    result = snapshot.get("gone.com", "web")
    assert result is not None
    assert not result.live
    assert result.capture is None


def test_redirects_recorded(host):
    snapshot = DistributedCrawler(host, workers=2).crawl(["moved.com"])
    result = snapshot.get("moved.com", "web")
    assert result.live and result.redirected
    assert result.final_domain == "site0.com"


def test_worker_balance(host):
    crawler = DistributedCrawler(host, workers=4)
    snapshot = crawler.crawl(all_domains(host))
    counts = snapshot.worker_job_counts
    assert sum(counts) == 16
    assert max(counts) - min(counts) <= 1  # the shmget-style balance


def test_stats(host):
    snapshot = DistributedCrawler(host, workers=2).crawl(all_domains(host))
    stats = snapshot.stats("web")
    assert stats["total"] == 8
    assert stats["live"] == 7
    assert stats["redirected"] == 1


def test_live_domains_listing(host):
    snapshot = DistributedCrawler(host, workers=2).crawl(all_domains(host))
    live = snapshot.live_domains("mobile")
    assert "gone.com" not in live
    assert "site3.com" in live


def test_captures_listing(host):
    snapshot = DistributedCrawler(host, workers=2).crawl(all_domains(host))
    captures = snapshot.captures("web")
    assert all(r.capture is not None for r in captures)
    assert len(captures) == 7


def test_crawl_series_produces_one_snapshot_per_week(host):
    crawler = DistributedCrawler(host, workers=2)
    series = crawler.crawl_series(["site0.com"], snapshots=4)
    assert [s.snapshot for s in series] == [0, 1, 2, 3]


def test_requires_at_least_one_worker(host):
    with pytest.raises(ValueError):
        DistributedCrawler(host, workers=0)


def test_wide_crawl_starts_no_thread(host, monkeypatch):
    """``workers`` models the scheduler width; dispatch stays on the
    calling thread at any width."""
    def refuse(self):
        raise AssertionError(f"crawl started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    snap = DistributedCrawler(host, workers=20).crawl(
        [f"site{i}.com" for i in range(6)])
    assert len(snap.results) == 12
    assert sum(snap.worker_job_counts) == 12


def crashing_crawler(host, rate, seed=0, **kwargs):
    injector = FaultInjector(FaultPlan(browser_crash_rate=rate, seed=seed))
    return DistributedCrawler(host, workers=2, fault_injector=injector,
                              **kwargs)


class TestTransientFailures:
    def test_zero_rate_never_retries(self, host):
        crawler = DistributedCrawler(host, workers=2)
        snapshot = crawler.crawl(all_domains(host))
        assert snapshot.retries == 0

    def test_retries_recover_most_visits(self, host):
        flaky = crashing_crawler(host, 0.2, seed=1, max_retries=3)
        snapshot = flaky.crawl(all_domains(host))
        assert snapshot.retries > 0
        # with 3 retries at 20% failure, loss probability is 0.2^4 = 0.16%
        stats = snapshot.stats("web")
        assert stats["live"] == 7

    def test_no_retries_loses_some_visits(self, host):
        fragile = crashing_crawler(host, 0.5, seed=1, max_retries=0)
        snapshot = fragile.crawl(all_domains(host))
        assert snapshot.stats("web")["live"] < 7

    def test_failures_are_deterministic(self, host):
        a = crashing_crawler(host, 0.3, seed=1)
        b = crashing_crawler(host, 0.3, seed=1)
        snap_a = a.crawl(all_domains(host))
        snap_b = b.crawl(all_domains(host))
        assert snap_a.retries > 0
        assert snap_a.retries == snap_b.retries
        assert snap_a.live_domains("web") == snap_b.live_domains("web")
        assert snap_a.digest() == snap_b.digest()
