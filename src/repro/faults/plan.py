"""Deterministic fault plan + injector.

The paper's crawl fights real infrastructure failure — Selenium was
rejected as "error-prone when crawling webpages at the million-level"
(§3.2) — so the synthetic world needs typed failures too.  A
:class:`FaultPlan` fixes per-kind rates and a seed; a
:class:`FaultInjector` turns the plan into hash-addressed draws: whether
fault ``kind`` fires for key ``(domain, profile, snapshot, attempt)`` is a
pure function of plan + key.  Two runs with the same plan see
byte-identical weather, and a resumed crawl re-derives the same outcomes
for the jobs it replays.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence

from repro.faults.clock import SimClock
from repro.faults.errors import (
    BrowserCrashFault,
    ConnectionResetFault,
    DNSFault,
    FaultError,
    HTTPServerError,
)


class FaultKind:
    """String constants naming every injectable fault."""

    DNS_SERVFAIL = "dns_servfail"
    DNS_TIMEOUT = "dns_timeout"
    HTTP_5XX = "http_5xx"
    CONN_RESET = "conn_reset"
    SLOW_RESPONSE = "slow_response"
    BROWSER_CRASH = "browser_crash"
    OCR_GARBLE = "ocr_garble"
    BACKEND_FLAP = "backend_flap"

    ALL = (DNS_SERVFAIL, DNS_TIMEOUT, HTTP_5XX, CONN_RESET,
           SLOW_RESPONSE, BROWSER_CRASH, OCR_GARBLE, BACKEND_FLAP)

    #: transport-layer kinds that abort a visit (slow responses degrade
    #: latency but still deliver content; OCR garbling degrades text)
    TRANSPORT = (DNS_SERVFAIL, DNS_TIMEOUT, HTTP_5XX, CONN_RESET, BROWSER_CRASH)


@dataclass(frozen=True)
class FaultPlan:
    """Per-kind fault rates plus the seed that addresses every draw."""

    seed: int = 0
    dns_servfail_rate: float = 0.0
    dns_timeout_rate: float = 0.0
    http_5xx_rate: float = 0.0
    conn_reset_rate: float = 0.0
    slow_response_rate: float = 0.0
    browser_crash_rate: float = 0.0
    ocr_garble_rate: float = 0.0

    # latency penalties charged to the simulated clock when the matching
    # fault fires (seconds)
    dns_timeout_delay: float = 5.0
    slow_response_delay: float = 10.0

    # enrichment-backend flapping: a whole backend host goes dark for
    # entire ``backend_flap_period``-second windows, drawn per (backend,
    # host, window) — every request in a bad window fails, modelling a
    # WHOIS server rate-limiting or an anycast resolver mid-failover
    backend_flap_rate: float = 0.0
    backend_flap_period: float = 120.0

    def __post_init__(self) -> None:
        for spec in fields(self):
            if spec.name.endswith("_rate"):
                value = getattr(self, spec.name)
                if not 0.0 <= value < 1.0:
                    raise ValueError(f"{spec.name} must be in [0, 1), got {value}")

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """A plan whose *compound* transport failure rate is ~``rate``.

        The budget is split evenly across the five transport kinds (DNS
        SERVFAIL/timeout, HTTP 5xx, connection reset, browser crash) so a
        single visit attempt dies with probability ≈ ``rate``; OCR
        garbling rides along at the same per-kind share.
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError("compound fault rate must be in [0, 1)")
        share = rate / len(FaultKind.TRANSPORT)
        return cls(
            seed=seed,
            dns_servfail_rate=share,
            dns_timeout_rate=share,
            http_5xx_rate=share,
            conn_reset_rate=share,
            slow_response_rate=share,
            browser_crash_rate=share,
            ocr_garble_rate=share,
        )

    @property
    def any_faults(self) -> bool:
        return any(
            getattr(self, spec.name) > 0.0
            for spec in fields(self) if spec.name.endswith("_rate")
        )


class FaultInjector:
    """Draws typed faults from a :class:`FaultPlan`, deterministically.

    Each draw hashes ``seed | kind | key-parts`` with CRC-32 into [0, 1)
    and fires when below the kind's rate — no mutable RNG state, so draw
    order is irrelevant and checkpoint/resume replays identically.  Fired
    faults are tallied in :attr:`injected` for health reporting.
    """

    def __init__(self, plan: FaultPlan, clock: Optional[SimClock] = None) -> None:
        self.plan = plan
        self.clock = clock if clock is not None else SimClock()
        self.injected: Counter = Counter()

    # ------------------------------------------------------------------
    def draw(self, kind: str, rate: float, *key: object) -> bool:
        """Hash-addressed Bernoulli draw; tallies ``kind`` when it fires."""
        if rate <= 0.0:
            return False
        token = f"{self.plan.seed}|{kind}|" + "|".join(str(part) for part in key)
        value = (zlib.crc32(token.encode()) % 1_000_000) / 1_000_000.0
        if value < rate:
            self.injected[kind] += 1
            return True
        return False

    # ------------------------------------------------------------------
    # layer entry points (each raises the typed fault, or returns quietly)
    # ------------------------------------------------------------------
    def check_dns(self, name: str, snapshot: int = 0, attempt: int = 0) -> None:
        """Resolver step: may raise SERVFAIL or (clock-charging) timeout."""
        if self.draw(FaultKind.DNS_SERVFAIL, self.plan.dns_servfail_rate,
                     name, snapshot, attempt):
            raise DNSFault(FaultKind.DNS_SERVFAIL, name)
        if self.draw(FaultKind.DNS_TIMEOUT, self.plan.dns_timeout_rate,
                     name, snapshot, attempt):
            self.clock.sleep(self.plan.dns_timeout_delay)
            raise DNSFault(FaultKind.DNS_TIMEOUT, name)

    def check_server(self, domain: str, profile: str,
                     snapshot: int = 0, attempt: int = 0) -> Optional[int]:
        """Origin-side faults for one request.

        Raises :class:`ConnectionResetFault`, or returns an HTTP status
        override (``503``) for an injected 5xx, or charges the clock for a
        slow response and returns None (content still served).
        """
        if self.draw(FaultKind.CONN_RESET, self.plan.conn_reset_rate,
                     domain, profile, snapshot, attempt):
            raise ConnectionResetFault(FaultKind.CONN_RESET, domain)
        if self.draw(FaultKind.HTTP_5XX, self.plan.http_5xx_rate,
                     domain, profile, snapshot, attempt):
            return 503
        if self.draw(FaultKind.SLOW_RESPONSE, self.plan.slow_response_rate,
                     domain, profile, snapshot, attempt):
            self.clock.sleep(self.plan.slow_response_delay)
        return None

    def check_browser(self, url: str, profile: str,
                      snapshot: int = 0, attempt: int = 0) -> None:
        """Browser-process crash before the page is captured."""
        if self.draw(FaultKind.BROWSER_CRASH, self.plan.browser_crash_rate,
                     url, profile, snapshot, attempt):
            raise BrowserCrashFault(FaultKind.BROWSER_CRASH, url)

    def check_ocr(self, raster_digest: str) -> bool:
        """True when recognition of this raster should be garbled."""
        return self.draw(FaultKind.OCR_GARBLE, self.plan.ocr_garble_rate,
                         raster_digest)

    # ------------------------------------------------------------------
    # enrichment-backend faults
    # ------------------------------------------------------------------
    def _backend_abort_rate(self) -> float:
        """Compound abort probability for one backend attempt.

        SERVFAIL, lookup timeout, and connection reset all abort an
        enrichment attempt, so they are screened with *one* hash draw and
        the kind is recovered from the same draw (conditional-uniform:
        given ``value < rate``, ``value / rate`` is uniform).  Capped just
        below 1 so unbounded retry ladders always terminate.
        """
        plan = self.plan
        total = (plan.dns_servfail_rate + plan.dns_timeout_rate
                 + plan.conn_reset_rate)
        return min(total, 0.999)

    def check_backend(self, backend: str, host: str, domain: str,
                      attempt: int = 0, hedge: int = 0) -> None:
        """One enrichment-backend attempt: may raise a typed abort fault.

        Draws are keyed by (backend, host, domain, attempt, hedge) so a
        retry ladder and a hedged duplicate each see fresh, independent
        weather.  Charges the simulated clock for timeout and slow-host
        penalties; returns quietly when the attempt survives.
        """
        plan = self.plan
        if plan.backend_flap_rate > 0.0:
            # whole-host outage windows, keyed by wall-clock window index
            window = int(self.clock.now() // plan.backend_flap_period)
            if self.draw(FaultKind.BACKEND_FLAP, plan.backend_flap_rate,
                         backend, host, window):
                raise DNSFault(FaultKind.BACKEND_FLAP, host, detail=domain)
        rate = self._backend_abort_rate()
        if rate > 0.0:
            token = (f"{plan.seed}|backend|{backend}|{host}|{domain}"
                     f"|{attempt}|{hedge}")
            value = (zlib.crc32(token.encode()) % 1_000_000) / 1_000_000.0
            if value < rate:
                # recover the kind from the same draw: partition [0, 1)
                # by each kind's share of the (uncapped) compound rate
                u = value / rate
                total = (plan.dns_servfail_rate + plan.dns_timeout_rate
                         + plan.conn_reset_rate)
                if u < plan.dns_servfail_rate / total:
                    self.injected[FaultKind.DNS_SERVFAIL] += 1
                    raise DNSFault(FaultKind.DNS_SERVFAIL, host, detail=domain)
                if u < (plan.dns_servfail_rate
                        + plan.dns_timeout_rate) / total:
                    self.injected[FaultKind.DNS_TIMEOUT] += 1
                    self.clock.sleep(plan.dns_timeout_delay)
                    raise DNSFault(FaultKind.DNS_TIMEOUT, host, detail=domain)
                self.injected[FaultKind.CONN_RESET] += 1
                raise ConnectionResetFault(FaultKind.CONN_RESET, host,
                                           detail=domain)
        if self.draw(FaultKind.SLOW_RESPONSE, plan.slow_response_rate,
                     "backend", backend, host, domain, attempt, hedge):
            self.clock.sleep(plan.slow_response_delay)

    def backend_dirty(self, backend: str, host: str, domain: str) -> bool:
        """Would this lookup's *first* attempt hit any fault?  (No tally.)

        The resolver's bulk fast path screens every (backend, domain) with
        this predicate: a clean first attempt means the task completes in
        one try with zero injected latency, so its entire resilience
        timeline is a no-op and the lookup can run in the vectorized bulk
        loop.  Flapping makes faults time-dependent, so any flap rate
        screens everything as dirty.  Tokens mirror :meth:`check_backend`
        at ``attempt=0, hedge=0`` exactly.
        """
        plan = self.plan
        if plan.backend_flap_rate > 0.0:
            return True
        rate = self._backend_abort_rate()
        if rate > 0.0:
            token = f"{plan.seed}|backend|{backend}|{host}|{domain}|0|0"
            value = (zlib.crc32(token.encode()) % 1_000_000) / 1_000_000.0
            if value < rate:
                return True
        if plan.slow_response_rate > 0.0:
            token = (f"{plan.seed}|{FaultKind.SLOW_RESPONSE}|backend"
                     f"|{backend}|{host}|{domain}|0|0")
            value = (zlib.crc32(token.encode()) % 1_000_000) / 1_000_000.0
            if value < plan.slow_response_rate:
                return True
        return False

    def backend_dirty_many(self, backend: str, hosts: Sequence[str],
                           domains: Sequence[str],
                           tails: Optional[Sequence[bytes]] = None,
                           ) -> List[bool]:
        """Bulk :meth:`backend_dirty` over parallel (host, domain) lists.

        Decision-identical to calling :meth:`backend_dirty` per element:
        both tokens split into a per-(backend, host) prefix and a
        ``|{domain}|0|0`` tail, and CRC-32 is incremental —
        ``crc32(p + t) == crc32(t, crc32(p))`` — so each prefix is hashed
        once per host and only the short tail is hashed per domain.  This
        is the resolver fast path's screening hot loop.

        ``tails`` optionally carries the encoded per-domain tails
        (``f"|{domain}|0|0".encode()``), letting a caller screening the
        same domains against several backends build them once.
        """
        plan = self.plan
        n = len(domains)
        if plan.backend_flap_rate > 0.0:
            return [True] * n
        abort = self._backend_abort_rate()
        slow = plan.slow_response_rate
        if abort <= 0.0 and slow <= 0.0:
            return [False] * n
        if tails is None:
            tails = [f"|{domain}|0|0".encode() for domain in domains]
        crc = zlib.crc32
        abort_prefix: Dict[str, int] = {}
        slow_prefix: Dict[str, int] = {}
        out: List[bool] = []
        append = out.append
        for host, tail in zip(hosts, tails):
            if abort > 0.0:
                prefix = abort_prefix.get(host)
                if prefix is None:
                    prefix = crc(
                        f"{plan.seed}|backend|{backend}|{host}".encode())
                    abort_prefix[host] = prefix
                if (crc(tail, prefix) % 1_000_000) / 1_000_000.0 < abort:
                    append(True)
                    continue
            if slow > 0.0:
                prefix = slow_prefix.get(host)
                if prefix is None:
                    prefix = crc(
                        f"{plan.seed}|{FaultKind.SLOW_RESPONSE}|backend"
                        f"|{backend}|{host}".encode())
                    slow_prefix[host] = prefix
                if (crc(tail, prefix) % 1_000_000) / 1_000_000.0 < slow:
                    append(True)
                    continue
            append(False)
        return out

    # ------------------------------------------------------------------
    def counts(self) -> dict:
        """Injected-fault tallies by kind (only kinds that fired)."""
        return dict(self.injected)


__all__ = [
    "FaultError",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "HTTPServerError",
]
