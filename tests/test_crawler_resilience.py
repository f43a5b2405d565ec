"""Resilient crawl scheduler: typed faults, backoff, breakers, resume."""

import pytest

from repro.faults import (
    CircuitBreaker,
    FaultInjector,
    FaultKind,
    FaultPlan,
    SimClock,
)
from repro.web.crawler import CrawlSnapshot, DistributedCrawler
from repro.web.html import document, el
from repro.web.server import HostedSite, SiteBehavior, WebHost


@pytest.fixture()
def host():
    host = WebHost()
    for i in range(8):
        page = document(f"Site {i}", el("p", f"content {i}"))
        host.register(HostedSite(
            domain=f"site{i}.com", behavior=SiteBehavior.CONTENT,
            provider=lambda ua, snap, p=page: p,
        ))
    host.register(HostedSite(domain="gone.com", behavior=SiteBehavior.DEAD))
    return host


def all_domains(host):
    return sorted(site.domain for site in host.sites())


def faulty_crawler(host, rate, seed=0, **kwargs):
    injector = FaultInjector(FaultPlan.uniform(rate, seed=seed))
    return DistributedCrawler(host, workers=3, fault_injector=injector, **kwargs)


class TestValidation:
    def test_rejects_negative_max_retries(self, host):
        with pytest.raises(ValueError):
            DistributedCrawler(host, max_retries=-1)

    def test_rejects_zero_workers(self, host):
        with pytest.raises(ValueError):
            DistributedCrawler(host, workers=0)


class TestDuplicateDomains:
    def test_duplicates_deduped_before_dispatch(self, host):
        crawler = DistributedCrawler(host, workers=2)
        clean = crawler.crawl(["site0.com", "site1.com"])
        doubled = crawler.crawl(
            ["site0.com", "SITE0.com", "site1.com", "site0.com", "site1.com"])
        assert len(doubled.results) == len(clean.results) == 4
        # scheduling/retry accounting must not be inflated by duplicates
        assert sum(doubled.worker_job_counts) == sum(clean.worker_job_counts) == 4
        assert doubled.retries == clean.retries
        assert doubled.digest() == clean.digest()


class TestTypedFaultInjection:
    def test_faults_injected_and_retried(self, host):
        snapshot = faulty_crawler(host, 0.4, seed=2).crawl(all_domains(host))
        assert snapshot.retries > 0
        assert sum(snapshot.health.failures.values()) == snapshot.retries
        # the typed taxonomy shows up, not just one flat failure kind
        assert len(snapshot.health.failures) >= 2
        assert set(snapshot.health.failures) <= set(FaultKind.TRANSPORT) | {"breaker_open"}

    def test_health_accounting_consistent(self, host):
        snapshot = faulty_crawler(host, 0.3, seed=3).crawl(all_domains(host))
        health = snapshot.health
        assert health.attempts == health.successes + sum(health.failures.values())
        assert health.dead_letters == len(snapshot.dead_letters)
        jobs = len(snapshot.results)
        assert health.successes + health.dead_letters == jobs
        assert health.backoff_seconds > 0

    def test_dead_letters_when_retries_exhausted(self, host):
        snapshot = faulty_crawler(host, 0.8, seed=1, max_retries=1).crawl(
            all_domains(host))
        assert snapshot.dead_letters
        for letter in snapshot.dead_letters:
            assert letter.attempts >= 1 or letter.last_fault == "breaker_open"
            result = snapshot.get(letter.domain, letter.profile)
            assert result is not None and not result.live

    def test_zero_rate_plan_changes_nothing(self, host):
        plain = DistributedCrawler(host, workers=3).crawl(all_domains(host))
        wired = faulty_crawler(host, 0.0).crawl(all_domains(host))
        assert wired.digest() == plain.digest()
        assert not wired.dead_letters
        assert wired.health.retries == 0

    def test_slow_responses_counted_and_charged(self, host):
        injector = FaultInjector(FaultPlan(seed=4, slow_response_rate=0.5,
                                           slow_response_delay=3.0))
        crawler = DistributedCrawler(host, workers=2, fault_injector=injector)
        snapshot = crawler.crawl(all_domains(host))
        assert snapshot.health.slow_responses > 0
        assert crawler.clock.now() >= 3.0
        # slow responses degrade latency, they do not kill the visit
        assert snapshot.stats("web")["live"] == 8


class TestCircuitBreaker:
    def test_breaker_trips_on_persistently_failing_host(self, host):
        # one host resets every connection; everyone else is healthy
        injector = FaultInjector(FaultPlan(seed=0, conn_reset_rate=0.999))
        crawler = DistributedCrawler(
            host, workers=2, fault_injector=injector, max_retries=5,
            breaker_failure_threshold=3, breaker_reset_timeout=1e9,
        )
        snapshot = crawler.crawl(["site0.com"])
        assert snapshot.health.breaker_trips >= 1
        assert snapshot.health.breaker_skips >= 1
        assert snapshot.breaker_states["site0.com"][0] == CircuitBreaker.OPEN
        assert {letter.last_fault for letter in snapshot.dead_letters} <= {
            FaultKind.CONN_RESET, "breaker_open"}

    def test_open_breaker_stops_hammering(self, host):
        injector = FaultInjector(FaultPlan(seed=0, conn_reset_rate=0.999))
        crawler = DistributedCrawler(
            host, workers=2, fault_injector=injector, max_retries=5,
            breaker_failure_threshold=3, breaker_reset_timeout=1e9,
        )
        snapshot = crawler.crawl(["site0.com"])
        # without a breaker both jobs would burn 6 attempts each
        assert snapshot.health.attempts < 12

    def test_healthy_hosts_never_trip(self, host):
        snapshot = DistributedCrawler(host, workers=3).crawl(all_domains(host))
        assert snapshot.health.breaker_trips == 0
        assert snapshot.breaker_states == {}


class TestDeterminism:
    def test_same_plan_same_snapshot_digest(self, host):
        snap_a = faulty_crawler(host, 0.25, seed=9).crawl(all_domains(host))
        snap_b = faulty_crawler(host, 0.25, seed=9).crawl(all_domains(host))
        assert snap_a.digest() == snap_b.digest()
        assert snap_a.retries == snap_b.retries
        assert [l.key() for l in snap_a.dead_letters] == [
            l.key() for l in snap_b.dead_letters]

    def test_different_seed_different_weather(self, host):
        snap_a = faulty_crawler(host, 0.25, seed=9).crawl(all_domains(host))
        snap_b = faulty_crawler(host, 0.25, seed=10).crawl(all_domains(host))
        assert snap_a.digest() != snap_b.digest()


class TestCheckpointResume:
    def test_partial_crawl_carries_checkpoint(self, host):
        crawler = faulty_crawler(host, 0.25, seed=6)
        partial = crawler.crawl(all_domains(host), max_jobs=5)
        assert not partial.complete
        assert partial.checkpoint is not None
        assert partial.checkpoint.completed_jobs == 5
        assert len(partial.results) == 5

    def test_resume_skips_completed_jobs(self, host):
        crawler = faulty_crawler(host, 0.25, seed=6)
        partial = crawler.crawl(all_domains(host), max_jobs=5)
        attempts_before = partial.health.attempts
        finished = crawler.crawl(all_domains(host), resume=partial.checkpoint)
        assert finished.complete
        assert finished.checkpoint is None
        assert len(finished.results) == len(all_domains(host)) * 2
        assert finished.health.resumes == 1
        # the resumed pass added attempts only for the remaining jobs
        assert finished.health.attempts > attempts_before

    def test_resumed_equals_uninterrupted(self, host):
        uninterrupted = faulty_crawler(host, 0.25, seed=6).crawl(all_domains(host))

        crawler = faulty_crawler(host, 0.25, seed=6)
        partial = crawler.crawl(all_domains(host), max_jobs=7)
        resumed = crawler.crawl(all_domains(host), resume=partial.checkpoint)
        assert resumed.digest() == uninterrupted.digest()

    def test_resume_across_crawler_instances(self, host):
        """A killed crawl continues in a brand-new crawler process."""
        uninterrupted = faulty_crawler(host, 0.25, seed=6).crawl(all_domains(host))

        partial = faulty_crawler(host, 0.25, seed=6).crawl(
            all_domains(host), max_jobs=4)
        fresh = faulty_crawler(host, 0.25, seed=6)
        resumed = fresh.crawl(all_domains(host), resume=partial.checkpoint)
        assert resumed.digest() == uninterrupted.digest()

    def test_multiple_interruptions(self, host):
        uninterrupted = faulty_crawler(host, 0.25, seed=6).crawl(all_domains(host))

        crawler = faulty_crawler(host, 0.25, seed=6)
        state = crawler.crawl(all_domains(host), max_jobs=3)
        while not state.complete:
            state = crawler.crawl(all_domains(host),
                                  resume=state.checkpoint, max_jobs=3)
        assert state.digest() == uninterrupted.digest()

    def test_checkpoint_snapshot_mismatch_rejected(self, host):
        crawler = faulty_crawler(host, 0.25, seed=6)
        partial = crawler.crawl(all_domains(host), max_jobs=2)
        with pytest.raises(ValueError):
            crawler.crawl(all_domains(host), snapshot=1, resume=partial.checkpoint)
