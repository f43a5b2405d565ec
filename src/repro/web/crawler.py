"""Distributed snapshot crawler (§3.2).

The paper crawls 657K domains with 5 machines × 20 Puppeteer instances, two
device profiles each, four weekly snapshots.  We reproduce the *scheduler*
faithfully — a balanced worker pool (their shmget work-stealing cursor,
modelled as ``worker_id = job index % workers``), per-group browsers,
per-profile captures — on top of the synthetic
:class:`~repro.web.server.WebHost`, in simulated time.  Dispatch itself is
one ordered loop on one thread: the work is CPU-bound Python, so real
threads would only contend for the interpreter.  Crawls are
byte-reproducible for any modelled worker count: see "Determinism of the
modelled scheduler" below.

Infrastructure instability is modelled too: the paper rejected Selenium for
being "error-prone when crawling webpages at the million-level" — so visits
can die for typed reasons (DNS SERVFAIL/timeout, connection reset, HTTP
5xx, browser crash; see :mod:`repro.faults`).  The crawler answers with
a real resilience stack:

* **retries with exponential backoff** — deterministic jitter, slept on a
  simulated clock (:class:`~repro.faults.clock.SimClock`), so the timeline
  is reproducible;
* **per-host circuit breakers** — a host failing repeatedly is not
  hammered; its jobs fail fast until a cool-down probe succeeds;
* **dead-letter queue** — jobs that exhaust retries (or are refused by an
  open breaker) are recorded, never silently lost;
* **checkpoint/resume** — ``crawl(..., max_jobs=N)`` returns a partial
  :class:`CrawlSnapshot` carrying a :class:`CrawlCheckpoint`; feeding it
  back via ``resume=`` continues without re-visiting completed jobs and
  yields a snapshot identical to an uninterrupted run.

Everything is surfaced in the snapshot's
:class:`~repro.faults.resilience.CrawlHealth` report.

Determinism of the modelled scheduler
-------------------------------------
The unit of dispatch is a *domain group* — all profile jobs of one domain.
Each group runs on its own **time lane**: a private
:class:`~repro.faults.clock.SimClock` starting at the crawl's shared
``base_time`` (plus the lane's elapsed time when resuming), with a private
:class:`~repro.faults.plan.FaultInjector` clone on that lane and private
browsers.  Since fault draws and backoff jitter are hash-addressed (no
RNG state) and the breaker/backoff timeline of a domain only reads its own
lane clock, a group's outcome is a pure function of (plan, domain, jobs) —
independent of the modelled worker it is assigned to and of what other
groups do.  Groups run and merge strictly in group order, so health
counters, float sums, dead-letter order, and :meth:`CrawlSnapshot.digest`
are byte-identical for any ``workers`` value.  A checkpoint stores each
lane's elapsed time, so a resumed group continues its lane exactly where
it stopped.  Worker ids and per-worker job counts are scheduling
accounting and are deliberately excluded from digests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.faults.clock import SimClock
from repro.faults.guard import GuardedCall
from repro.faults.plan import FaultInjector, FaultKind
from repro.faults.resilience import (
    CircuitBreaker,
    CrawlHealth,
    DeadLetter,
    RetryPolicy,
)
from repro.web.browser import Browser, PageCapture
from repro.web.http import CRAWL_PROFILES, MOBILE_UA, WEB_UA, UserAgent
from repro.web.server import WebHost


@dataclass
class CrawlResult:
    """Outcome of crawling one domain with one profile in one snapshot."""

    domain: str
    profile: str
    snapshot: int
    live: bool
    capture: Optional[PageCapture] = None
    worker_id: int = -1

    @property
    def redirected(self) -> bool:
        return bool(self.capture and self.capture.was_redirected)

    @property
    def final_domain(self) -> Optional[str]:
        return self.capture.final_domain if self.capture else None


@dataclass
class CrawlCheckpoint:
    """Everything needed to continue an interrupted crawl pass.

    Captured by :meth:`DistributedCrawler.crawl` when it stops early
    (``max_jobs``); passing it back as ``resume=`` restores the partial
    results, scheduler accounting, breaker states, and per-domain lane
    times, so the continued crawl is indistinguishable from one that never
    stopped — at any worker count.
    """

    snapshot: int
    completed: Set[Tuple[str, str]]
    results: Dict[Tuple[str, str], "CrawlResult"]
    worker_job_counts: List[int]
    retries: int
    dead_letters: List[DeadLetter]
    breakers: Dict[str, CircuitBreaker]
    health: CrawlHealth
    clock_time: float
    base_time: float = 0.0
    lane_elapsed: Dict[str, float] = field(default_factory=dict)

    @property
    def completed_jobs(self) -> int:
        return len(self.completed)


@dataclass
class CrawlSnapshot:
    """All results of one crawl pass (one snapshot index)."""

    snapshot: int
    results: Dict[Tuple[str, str], CrawlResult] = field(default_factory=dict)
    worker_job_counts: List[int] = field(default_factory=list)
    retries: int = 0
    dead_letters: List[DeadLetter] = field(default_factory=list)
    health: CrawlHealth = field(default_factory=CrawlHealth)
    breaker_states: Dict[str, Tuple] = field(default_factory=dict)
    complete: bool = True
    checkpoint: Optional[CrawlCheckpoint] = None

    def get(self, domain: str, profile: str) -> Optional[CrawlResult]:
        return self.results.get((domain.lower(), profile))

    def live_domains(self, profile: str) -> List[str]:
        """Domains that served content (or a redirect) for a profile."""
        return sorted(
            domain for (domain, prof), result in self.results.items()
            if prof == profile and result.live
        )

    def captures(self, profile: str) -> List[CrawlResult]:
        """Live results with page captures for a profile."""
        return [
            result for (_, prof), result in sorted(self.results.items())
            if prof == profile and result.capture is not None
        ]

    def stats(self, profile: str) -> Dict[str, int]:
        """Liveness/redirect counts for one profile (Table 2 inputs)."""
        live = 0
        redirected = 0
        total = 0
        for (_, prof), result in self.results.items():
            if prof != profile:
                continue
            total += 1
            if result.live:
                live += 1
                if result.redirected:
                    redirected += 1
        return {"total": total, "live": live, "redirected": redirected}

    def digest(self) -> str:
        """Canonical content hash of the snapshot.

        Covers results (including capture HTML and screenshot bytes),
        retries, dead letters, breaker states, and the health report — the
        determinism tests assert byte-identity of this digest across
        reruns, worker counts, cache on/off, and checkpoint/resume splits.
        Scheduling accounting (worker ids, per-worker job counts) is
        execution metadata and deliberately excluded.
        """
        hasher = hashlib.sha256()
        hasher.update(f"snapshot={self.snapshot}\n".encode())
        for (domain, profile) in sorted(self.results):
            result = self.results[(domain, profile)]
            hasher.update(f"{domain}|{profile}|{result.live}".encode())
            capture = result.capture
            if capture is not None:
                hasher.update(capture.final_url.encode())
                hasher.update("|".join(capture.redirect_chain).encode())
                hasher.update(capture.html.encode())
                hasher.update(capture.screenshot.pixels.tobytes())
            hasher.update(b"\n")
        hasher.update(f"retries={self.retries}\n".encode())
        for letter in self.dead_letters:
            hasher.update(f"dead={letter.key()}\n".encode())
        for domain in sorted(self.breaker_states):
            hasher.update(f"breaker={domain}:{self.breaker_states[domain]}\n".encode())
        hasher.update(repr(sorted(self.health.to_dict().items())).encode())
        return hasher.hexdigest()


@dataclass
class _GroupSpec:
    """One dispatch unit: every pending profile job of one domain."""

    domain: str
    jobs: List[Tuple[int, UserAgent]]  # (global job index, profile)
    breaker: Optional[CircuitBreaker]
    lane_start: float  # lane-elapsed seconds already spent (resume)


@dataclass
class _GroupOutcome:
    """Everything a domain group produced, merged in group order."""

    domain: str
    results: List[Tuple[int, CrawlResult]]
    retries: int
    dead_letters: List[DeadLetter]
    health: CrawlHealth
    injected: Dict[str, int]
    breaker: CircuitBreaker
    lane_elapsed: float


class DistributedCrawler:
    """Crawler over the synthetic web with a modelled worker pool.

    ``workers`` is the modelled scheduler width — the paper's browser
    instances.  It sets only each job's ``worker_id`` and the snapshot's
    ``worker_job_counts``; groups always run in order on one thread.
    """

    def __init__(
        self,
        host: WebHost,
        workers: int = 20,
        profiles: Sequence[UserAgent] = CRAWL_PROFILES,
        max_retries: int = 2,
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_failure_threshold: int = 5,
        breaker_reset_timeout: float = 300.0,
        clock: Optional[SimClock] = None,
        capture_cache=None,
    ) -> None:
        """
        Args:
            max_retries: extra attempts after a failed visit.
            fault_injector: typed fault source (DNS/HTTP/browser faults)
                threaded through the resolver, web host, and browsers.
            retry_policy: backoff schedule; defaults to exponential backoff
                with ``max_retries`` retries.
            breaker_failure_threshold: consecutive failures on one host
                before its circuit breaker opens.
            breaker_reset_timeout: simulated seconds an open breaker waits
                before allowing a half-open probe.
            clock: simulated clock shared with the injector/backoff; a
                private one is created when omitted.
            capture_cache: optional
                :class:`~repro.perf.cache.CaptureCache` shared by every
                group's browsers, so byte-identical page templates render
                once per (content, profile, snapshot).
        """
        if workers < 1:
            raise ValueError("need at least one worker")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.host = host
        self.workers = workers
        self.profiles = tuple(profiles)
        self.max_retries = max_retries
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy or RetryPolicy(max_retries=max_retries)
        self.breaker_failure_threshold = breaker_failure_threshold
        self.breaker_reset_timeout = breaker_reset_timeout
        self.capture_cache = capture_cache
        if clock is not None:
            self.clock = clock
        elif fault_injector is not None:
            self.clock = fault_injector.clock
        else:
            self.clock = SimClock()

    def _visit_once(self, browser: Browser, injector: Optional[FaultInjector],
                    domain: str, snapshot: int,
                    attempt: int) -> Optional[PageCapture]:
        """One visit attempt; raises a typed fault or returns the capture
        (None for a cleanly dead site)."""
        if injector is not None:
            # resolver step: the crawler looks the domain up before fetching
            injector.check_dns(domain, snapshot, attempt)
        return browser.visit(f"http://{domain}/", snapshot=snapshot, attempt=attempt)

    def _run_job(
        self,
        domain: str,
        profile: UserAgent,
        snapshot: int,
        breaker: CircuitBreaker,
        health: CrawlHealth,
        clock: SimClock,
        browser: Browser,
        injector: Optional[FaultInjector],
    ) -> Tuple[Optional[PageCapture], int, Optional[DeadLetter]]:
        """Run one (domain, profile) job through the resilience stack.

        All time flows through ``clock`` — the domain's private lane — so
        the job's outcome is independent of every other group.

        Returns (capture, failed attempts, dead letter or None).
        """
        guard = GuardedCall(self.retry_policy, clock,
                            max_retries=self.max_retries)
        outcome = guard.run(
            f"{domain}|{profile.name}|{snapshot}",
            lambda attempt: self._visit_once(browser, injector, domain,
                                             snapshot, attempt),
            breaker, health)
        if outcome.ok:
            return outcome.value, outcome.retries, None
        dead = DeadLetter(domain=domain, profile=profile.name, snapshot=snapshot,
                          attempts=outcome.retries,
                          last_fault=outcome.last_fault or "unknown")
        return None, outcome.retries, dead

    def _run_group(self, spec: _GroupSpec, snapshot: int,
                   base_time: float) -> _GroupOutcome:
        """Crawl one domain group on its own time lane.

        The lane clock starts at ``base_time`` plus whatever the lane had
        already spent before a checkpoint, the fault-injector clone draws
        from the same plan (hash-addressed, so tallies — not draws —
        are private), and the browsers are group-local.  Nothing here
        reads another group's state, which is what makes the group's
        outcome independent of the modelled scheduler.
        """
        lane_clock = SimClock(start=base_time + spec.lane_start)
        injector: Optional[FaultInjector] = None
        if self.fault_injector is not None:
            injector = FaultInjector(self.fault_injector.plan, lane_clock)
        browsers = {
            profile.name: Browser(self.host, user_agent=profile,
                                  fault_injector=injector,
                                  capture_cache=self.capture_cache)
            for profile in self.profiles
        }
        breaker = spec.breaker or CircuitBreaker(self.breaker_failure_threshold,
                                                 self.breaker_reset_timeout)
        health = CrawlHealth()
        results: List[Tuple[int, CrawlResult]] = []
        retries = 0
        dead_letters: List[DeadLetter] = []
        for index, profile in spec.jobs:
            capture, job_retries, dead = self._run_job(
                spec.domain, profile, snapshot, breaker, health,
                lane_clock, browsers[profile.name], injector)
            retries += job_retries
            if dead is not None:
                dead_letters.append(dead)
            results.append((index, CrawlResult(
                domain=spec.domain,
                profile=profile.name,
                snapshot=snapshot,
                live=capture is not None,
                capture=capture,
                worker_id=index % self.workers,
            )))
        if injector is not None:
            health.slow_responses = injector.injected[FaultKind.SLOW_RESPONSE]
        return _GroupOutcome(
            domain=spec.domain,
            results=results,
            retries=retries,
            dead_letters=dead_letters,
            health=health,
            injected=dict(injector.injected) if injector is not None else {},
            breaker=breaker,
            lane_elapsed=lane_clock.now() - base_time,
        )

    @staticmethod
    def _dedupe(domains: Iterable[str]) -> List[str]:
        """Lowercase and drop duplicate domains, keeping first-seen order.

        Duplicates used to create twin jobs that overwrote each other's
        results while inflating the scheduling and retry accounting.
        """
        seen: Set[str] = set()
        ordered: List[str] = []
        for domain in domains:
            lowered = domain.lower()
            if lowered not in seen:
                seen.add(lowered)
                ordered.append(lowered)
        return ordered

    def crawl(
        self,
        domains: Iterable[str],
        snapshot: int = 0,
        resume: Optional[CrawlCheckpoint] = None,
        max_jobs: Optional[int] = None,
    ) -> CrawlSnapshot:
        """Crawl every domain with every profile for one snapshot.

        Jobs are (domain, profile) pairs; consecutive jobs of one domain
        form a group, and groups run and merge in group order.  Per-worker
        job counts of the modelled scheduler are recorded so tests can
        assert the balance property the paper's IPC scheme provides.

        Args:
            resume: checkpoint from a previous, interrupted pass over the
                *same* domain list and snapshot; completed jobs are skipped
                and all accounting continues where it left off.
            max_jobs: stop after completing this many jobs *in this call*;
                the returned snapshot is then partial (``complete=False``)
                and carries the checkpoint to continue from.
        """
        jobs: List[Tuple[str, UserAgent]] = [
            (domain, profile)
            for domain in self._dedupe(domains)
            for profile in self.profiles
        ]
        if resume is not None:
            if resume.snapshot != snapshot:
                raise ValueError(
                    f"checkpoint is for snapshot {resume.snapshot}, not {snapshot}")
            completed = set(resume.completed)
            result = CrawlSnapshot(
                snapshot=snapshot,
                results=dict(resume.results),
                worker_job_counts=list(resume.worker_job_counts),
                retries=resume.retries,
                dead_letters=list(resume.dead_letters),
                health=resume.health,
            )
            breakers = resume.breakers
            base_time = resume.base_time
            lane_elapsed = dict(resume.lane_elapsed)
            result.health.resumes += 1
        else:
            completed = set()
            result = CrawlSnapshot(snapshot=snapshot,
                                   worker_job_counts=[0] * self.workers)
            breakers = {}
            base_time = self.clock.now()
            lane_elapsed = {}

        # the job budget is applied to the *pending job list in index
        # order*, before dispatch — so which jobs a checkpoint covers is a
        # pure function of (jobs, completed, max_jobs), never of ``workers``
        pending = [
            (index, domain, profile)
            for index, (domain, profile) in enumerate(jobs)
            if (domain, profile.name) not in completed
        ]
        if max_jobs is not None and max_jobs < len(pending):
            todo = pending[:max_jobs]
            interrupted = True
        else:
            todo = pending
            interrupted = False

        # group consecutive jobs by domain (jobs are domain-major, so a
        # domain's pending jobs are always adjacent)
        specs: List[_GroupSpec] = []
        for index, domain, profile in todo:
            if specs and specs[-1].domain == domain:
                specs[-1].jobs.append((index, profile))
            else:
                specs.append(_GroupSpec(
                    domain=domain,
                    jobs=[(index, profile)],
                    breaker=breakers.get(domain),
                    lane_start=lane_elapsed.get(domain, 0.0),
                ))

        # ordered merge: group order == job-index order, so every counter,
        # float sum, and list below is the same for any ``workers``
        injector = self.fault_injector
        for spec in specs:
            outcome = self._run_group(spec, snapshot, base_time)
            for index, job_result in outcome.results:
                key = (job_result.domain, job_result.profile)
                result.worker_job_counts[job_result.worker_id] += 1
                result.results[key] = job_result
                completed.add(key)
            result.retries += outcome.retries
            result.dead_letters.extend(outcome.dead_letters)
            result.health.merge(outcome.health)
            if injector is not None:
                injector.injected.update(outcome.injected)
            breakers[outcome.domain] = outcome.breaker
            lane_elapsed[outcome.domain] = outcome.lane_elapsed

        result.health.dead_letters = len(result.dead_letters)
        result.health.breaker_trips = sum(b.trips for b in breakers.values())
        result.breaker_states = {
            domain: breaker.state_key()
            for domain, breaker in breakers.items()
            if breaker.state_key() != (CircuitBreaker.CLOSED, 0, None, 0)
        }
        # the crawl pass ends when its slowest lane does
        if lane_elapsed:
            self.clock.advance_to(base_time + max(lane_elapsed.values()))
        if interrupted:
            result.complete = False
            result.checkpoint = CrawlCheckpoint(
                snapshot=snapshot,
                completed=completed,
                results=dict(result.results),
                worker_job_counts=list(result.worker_job_counts),
                retries=result.retries,
                dead_letters=list(result.dead_letters),
                breakers=breakers,
                health=result.health,
                clock_time=self.clock.now(),
                base_time=base_time,
                lane_elapsed=dict(lane_elapsed),
            )
        return result

    def crawl_incremental(
        self,
        domains: Iterable[str],
        snapshot: int = 0,
        resume: Optional[CrawlCheckpoint] = None,
        interval: Optional[int] = None,
        on_checkpoint=None,
    ) -> CrawlSnapshot:
        """Crawl in ``interval``-job slices, reporting each checkpoint.

        The pipeline's crawl stages use this to fold the checkpoint into
        the run's artifact store: after every completed slice,
        ``on_checkpoint(checkpoint)`` is invoked with the pass's current
        :class:`CrawlCheckpoint`, so a killed process loses at most one
        slice of work.  Because the job budget is applied in job-index
        order before dispatch, the slice boundaries — and therefore the
        final snapshot — are byte-identical to an uninterrupted crawl.

        Args:
            resume: checkpoint to continue from (e.g. loaded back from a
                store partial).
            interval: jobs per slice; ``None`` or a non-positive value
                runs the whole pass in one slice (no checkpoints fire).
            on_checkpoint: callback receiving each intermediate
                checkpoint; ignored when the pass finishes in one slice.
        """
        domain_list = list(domains)
        checkpoint = resume
        while True:
            budget = interval if interval is not None and interval > 0 else None
            result = self.crawl(domain_list, snapshot=snapshot,
                                resume=checkpoint, max_jobs=budget)
            if result.complete:
                return result
            checkpoint = result.checkpoint
            if on_checkpoint is not None:
                on_checkpoint(checkpoint)

    def crawl_series(
        self, domains: Sequence[str], snapshots: int = 4
    ) -> List[CrawlSnapshot]:
        """Run several weekly snapshots over the same domain list (§3.2:
        one full snapshot, then three follow-ups of the detected pages)."""
        return [self.crawl(domains, snapshot=i) for i in range(snapshots)]
