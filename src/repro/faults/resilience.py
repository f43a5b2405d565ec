"""Resilience primitives: backoff, circuit breakers, dead letters, health.

The machinery the crawler layers over the fault model.  All of it runs on
the shared :class:`~repro.faults.clock.SimClock` and derives any
randomness (backoff jitter) from hashes, so scheduling decisions are a
pure function of (plan, job history) and survive checkpoint/resume.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.perf.report import Counters


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    Delay for retry ``attempt`` (0-based) is ``base * 2**attempt`` capped
    at ``max_delay``, scaled into ``[1 - jitter, 1]`` by a hash of the job
    key — full determinism, but hosts retried in the same round do not
    thunder in lockstep.
    """

    max_retries: int = 2
    base_delay: float = 1.0
    max_delay: float = 60.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, attempt: int, key: str) -> float:
        """Backoff before retry ``attempt`` of the job addressed by ``key``."""
        raw = min(self.base_delay * (2.0 ** attempt), self.max_delay)
        frac = (zlib.crc32(f"backoff|{key}|{attempt}".encode()) % 1_000_000) / 1_000_000.0
        return raw * (1.0 - self.jitter * frac)


class CircuitBreaker:
    """Per-host breaker: stop hammering a host that keeps failing.

    Classic three-state machine — CLOSED counts consecutive failures;
    ``failure_threshold`` of them trips it OPEN for ``reset_timeout``
    simulated seconds (visits refused); the first visit after the
    cool-down is a HALF_OPEN probe whose outcome closes or re-trips it.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, failure_threshold: int = 5, reset_timeout: float = 300.0) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.trips = 0

    def allow(self, now: float) -> bool:
        """May a visit proceed at simulated time ``now``?"""
        if self.state == self.OPEN:
            if self.opened_at is not None and now >= self.opened_at + self.reset_timeout:
                self.state = self.HALF_OPEN
                return True
            return False
        return True

    def record_success(self) -> None:
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at = None

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN or self.consecutive_failures >= self.failure_threshold:
            self.state = self.OPEN
            self.opened_at = now
            self.consecutive_failures = 0
            self.trips += 1

    def state_key(self) -> Tuple[str, int, Optional[float], int]:
        """Canonical state tuple (used in snapshot digests)."""
        return (self.state, self.consecutive_failures, self.opened_at, self.trips)


@dataclass
class DeadLetter:
    """A job that exhausted its retries (or was refused by a breaker)."""

    domain: str
    profile: str
    snapshot: int
    attempts: int
    last_fault: str

    def key(self) -> Tuple[str, str, int, int, str]:
        return (self.domain, self.profile, self.snapshot,
                self.attempts, self.last_fault)


@dataclass
class CrawlHealth(Counters):
    """Structured account of how rough a crawl (or whole run) was.

    ``failures`` tallies failed visit attempts by fault kind;
    ``degraded`` tallies pipeline stages that skipped work because of a
    fault (stage name → skip count).  Instances merge, so the pipeline
    can aggregate per-snapshot health into one run-level report; the
    stage runner replays each cached stage's :meth:`state_dict` delta,
    which (unlike :meth:`to_dict`) includes ``resumes``.
    """

    attempts: int = 0
    successes: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    breaker_trips: int = 0
    breaker_skips: int = 0
    dead_letters: int = 0
    slow_responses: int = 0
    resumes: int = 0
    failures: Counter = field(default_factory=Counter)
    degraded: Counter = field(default_factory=Counter)

    def record_failure(self, kind: str) -> None:
        self.failures[kind] += 1

    def record_degraded(self, stage: str) -> None:
        self.degraded[stage] += 1

    @property
    def degraded_stages(self) -> int:
        """Number of distinct pipeline stages that had to skip work."""
        return len(self.degraded)

    def to_dict(self) -> Dict[str, object]:
        # ``resumes`` is deliberately omitted: it records *how* a snapshot
        # was produced (one pass vs checkpoint/resume), not what it
        # contains, and snapshot digests promise identity across the two
        return {
            "attempts": self.attempts,
            "successes": self.successes,
            "retries": self.retries,
            "backoff_seconds": round(self.backoff_seconds, 6),
            "breaker_trips": self.breaker_trips,
            "breaker_skips": self.breaker_skips,
            "dead_letters": self.dead_letters,
            "slow_responses": self.slow_responses,
            "failures": dict(sorted(self.failures.items())),
            "degraded": dict(sorted(self.degraded.items())),
        }

    def format(self) -> str:
        """Human-readable multi-line report (CLI output)."""
        lines = [
            "crawl health",
            f"  attempts:        {self.attempts}",
            f"  successes:       {self.successes}",
            f"  retries:         {self.retries}",
            f"  backoff seconds: {self.backoff_seconds:.1f}",
            f"  breaker trips:   {self.breaker_trips}"
            f" (skipped visits: {self.breaker_skips})",
            f"  dead letters:    {self.dead_letters}",
            f"  slow responses:  {self.slow_responses}",
        ]
        if self.failures:
            lines.append("  failures by kind:")
            for kind, count in sorted(self.failures.items()):
                lines.append(f"    {kind}: {count}")
        if self.degraded:
            lines.append("  degraded stages:")
            for stage, count in sorted(self.degraded.items()):
                lines.append(f"    {stage}: {count} skipped")
        return "\n".join(lines)
