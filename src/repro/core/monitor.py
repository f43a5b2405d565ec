"""Incremental brand monitoring (§7's per-brand deployment mode).

"Paypal can keep monitoring the newly registered domain names ... to
identify PayPal related squatting domains and classify squatting phishing
pages."  :class:`BrandMonitor` implements that loop as a library API:

* diff successive DNS snapshots to find new registrations;
* filter to squats of the watched brands;
* crawl + score each squat with a trained pipeline;
* emit :class:`MonitorAlert` records, deduplicated across rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.core.pipeline import SquatPhi
from repro.dns.zone import ZoneStore
from repro.squatting.types import SquatMatch
from repro.web.http import MOBILE_UA, WEB_UA


@dataclass
class MonitorAlert:
    """One new squat observed by the monitor."""

    domain: str
    brand: str
    squat_type: str
    live: bool
    score: Optional[float] = None       # None when the domain is dead
    is_phishing: bool = False
    first_seen_round: int = 0
    degraded: bool = False              # an assessment visit hit a fault


class BrandMonitor:
    """Watches DNS snapshots for new squats of selected brands."""

    def __init__(
        self,
        pipeline: SquatPhi,
        brands: Sequence[str],
        threshold: Optional[float] = None,
    ) -> None:
        """
        Args:
            pipeline: a *trained* SquatPhi (used for crawling + scoring).
            brands: brand keys to watch (must exist in the catalog).
            threshold: phishing score cut-off; defaults to the pipeline's.
        """
        unknown = [b for b in brands if b not in pipeline.world.catalog]
        if unknown:
            raise ValueError(f"unknown brands: {unknown}")
        self.pipeline = pipeline
        self.brands = set(brands)
        self.threshold = (threshold if threshold is not None
                          else pipeline.config.decision_threshold)
        self.detector = pipeline.detector
        self._known_domains: Set[str] = set()
        self._alerted: Set[str] = set()
        self.rounds = 0
        self.alerts: List[MonitorAlert] = []
        self.degraded_visits = 0

    # ------------------------------------------------------------------
    def baseline(self, zone: ZoneStore) -> int:
        """Record the current registration universe without alerting."""
        before = len(self._known_domains)
        self._known_domains.update(zone.registered_domains())
        return len(self._known_domains) - before

    def observe(self, zone: ZoneStore) -> List[MonitorAlert]:
        """Process one new snapshot; returns this round's alerts."""
        self.rounds += 1
        fresh = [d for d in zone.registered_domains()
                 if d not in self._known_domains]
        self._known_domains.update(fresh)

        new_alerts: List[MonitorAlert] = []
        for domain in fresh:
            match = self.detector.classify_domain(domain)
            if match is None or match.brand not in self.brands:
                continue
            if domain in self._alerted:
                continue
            self._alerted.add(domain)
            new_alerts.append(self._assess(match))
        self.alerts.extend(new_alerts)
        return new_alerts

    def _assess(self, match: SquatMatch) -> MonitorAlert:
        """Crawl the squat (both profiles) and score the worst page.

        Monitoring must survive weeks of flaky infrastructure: a DNS or
        visit fault degrades the alert (marked ``degraded``, counted in
        :attr:`degraded_visits`) instead of killing the round.
        """
        score: Optional[float] = None
        live = False
        degraded = False
        for user_agent in (WEB_UA, MOBILE_UA):
            capture, faulted = self.pipeline.assess_page(
                match.domain, user_agent, stage="monitor_assess")
            if faulted:
                degraded = True
                self.degraded_visits += 1
                continue
            if capture is None:
                continue
            live = True
            page_score = self.pipeline.classify_capture(capture)
            score = page_score if score is None else max(score, page_score)
        return MonitorAlert(
            domain=match.domain,
            brand=match.brand,
            squat_type=match.squat_type.value,
            live=live,
            score=score,
            is_phishing=bool(score is not None and score >= self.threshold),
            first_seen_round=self.rounds,
            degraded=degraded,
        )

    # ------------------------------------------------------------------
    def phishing_alerts(self) -> List[MonitorAlert]:
        return [a for a in self.alerts if a.is_phishing]

    def summary(self) -> Dict[str, int]:
        return {
            "rounds": self.rounds,
            "known_domains": len(self._known_domains),
            "alerts": len(self.alerts),
            "phishing": len(self.phishing_alerts()),
            "degraded_visits": self.degraded_visits,
        }
