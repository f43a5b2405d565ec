"""Per-process query engine: verdicts over one mmap'd snapshot generation.

A :class:`Verdict` is the serving answer for one domain — squat family,
matched brand, veto detail, the snapshot's registration bit, its
enrichment columns, and (when a scorer is installed) the classifier
score.  Every field is a pure function of (normalized name, snapshot
generation), which is the contract the whole serving layer leans on:
batching, caching and hot-reload timing can change
throughput and latency but never a verdict byte.

The engine composes the packed substrate end to end: the negative cache
short-circuits repeat benign names, :meth:`PackedZone.registered_ids`
answers membership with two searchsorteds (never a per-name exception),
and :meth:`PackedScanContext.classify_batch` runs the whole cache-miss
batch through the vectorized reject in one call.  The offline oracle
(:func:`offline_verdicts`) rebuilds the same rows from the per-name
reference paths, so byte-identity is testable on every leg.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dns.packedzone import PackedZone, _u32_to_ip
from repro.dns.records import registered_domain
from repro.perf.report import KernelStats
from repro.squatting.packedscan import PackedScanContext
from repro.squatting.types import SquatType

#: enrichment fields surfaced per verdict, in emission order
ENRICHMENT_FIELDS = ("a_ip", "country", "mx_present", "registrar", "year")


@dataclass(frozen=True)
class Verdict:
    """One served answer; compares and hashes by value."""

    domain: str                    # normalized query name
    generation: int                # snapshot generation that answered
    registered: bool               # registrable domain present in zone
    brand: Optional[str] = None    # matched brand (squats only)
    squat_type: Optional[SquatType] = None
    detail: Optional[str] = None   # veto/match trace from the classifier
    enrichment: Optional[Tuple[Tuple[str, object], ...]] = None
    score: Optional[float] = None  # classifier score when features cached

    @property
    def is_squat(self) -> bool:
        return self.squat_type is not None


def verdict_line(verdict: Verdict) -> str:
    """Canonical one-line encoding, the unit of byte-identity checks."""
    squat = verdict.squat_type.value if verdict.squat_type else ""
    enr = "" if verdict.enrichment is None else \
        ";".join(f"{k}={v}" for k, v in verdict.enrichment)
    score = "" if verdict.score is None else f"{verdict.score:.9f}"
    return "|".join((verdict.domain, str(verdict.generation),
                     str(int(verdict.registered)), verdict.brand or "",
                     squat, verdict.detail or "", enr, score))


def digest_verdicts(verdicts: Iterable[Verdict]) -> str:
    """SHA-256 over the canonical verdict lines, order-sensitive."""
    digest = hashlib.sha256()
    for verdict in verdicts:
        digest.update(verdict_line(verdict).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class EngineStats:
    """Per-engine accounting (throughput metadata, never in a verdict).

    ``kernel`` accumulates the classify-batch kernel's
    :class:`~repro.perf.report.KernelStats` across reloads.
    """

    queries: int = 0
    batches: int = 0
    negcache_hits: int = 0
    classified: int = 0
    reloads: int = 0
    kernel: KernelStats = field(default_factory=KernelStats)

    def as_dict(self) -> Dict[str, object]:
        return {"queries": self.queries, "batches": self.batches,
                "negcache_hits": self.negcache_hits,
                "classified": self.classified, "reloads": self.reloads,
                "kernel_rows": self.kernel.rows,
                "fallbacks": dict(sorted(self.kernel.fallbacks.items()))}


class QueryEngine:
    """Verdict lookups over one snapshot generation, hot-swappable.

    ``negcache`` (optional) must be a
    :class:`~repro.serve.negcache.NegativeVerdictCache`; it is kept
    across :meth:`reload` — generation stamps invalidate stale entries.
    ``scorer`` (optional) maps a normalized domain to a float score or
    None (e.g. a classifier over cached page features); it must be pure
    per (domain, generation) for the determinism contract to hold.
    """

    def __init__(self, detector, zone: PackedZone,
                 generation: Optional[int] = None,
                 negcache=None,
                 scorer: Optional[Callable[[str], Optional[float]]] = None,
                 ) -> None:
        self.detector = detector
        self.negcache = negcache
        self.scorer = scorer
        self.stats = EngineStats()
        self._install(zone, generation)

    def _install(self, zone: PackedZone, generation: Optional[int]) -> None:
        self.zone = zone
        self.generation = int(zone.generation if generation is None
                              else generation)
        self.context = PackedScanContext(self.detector, zone)
        self._enr: Optional[Dict[str, object]] = None
        if zone.has_enrichment and zone.enrichment_meta:
            self._enr = {
                "has": zone.enrichment_column("has"),
                "a_ip": zone.enrichment_column("a_ip"),
                "country": zone.enrichment_column("country"),
                "year": zone.enrichment_column("year"),
                "registrar": zone.enrichment_column("registrar"),
                "mx": zone.enrichment_column("mx"),
                "countries": list(zone.enrichment_meta["countries"]),
                "registrars": list(zone.enrichment_meta["registrars"]),
            }

    def reload(self, zone: PackedZone,
               generation: Optional[int] = None) -> None:
        """Swap in a new snapshot generation.

        Only this engine's references move: anything else still holding
        the superseded mmap keeps its views alive until it lets go.
        """
        self._install(zone, generation)
        self.stats.reloads += 1

    # ------------------------------------------------------------------
    def _enrichment_for(self, reg_id: int) -> Optional[Tuple]:
        enr = self._enr
        if enr is None or not int(enr["has"][reg_id]):
            return None
        a_ip = int(enr["a_ip"][reg_id])
        country = int(enr["country"][reg_id])
        year = int(enr["year"][reg_id])
        registrar = int(enr["registrar"][reg_id])
        return (
            ("a_ip", _u32_to_ip(a_ip) if a_ip else None),
            ("country", enr["countries"][country] if country else None),
            ("mx_present", bool(enr["mx"][reg_id])),
            ("registrar", enr["registrars"][registrar] if registrar else None),
            ("year", year or None),
        )

    def lookup_batch(self, names: Sequence[str],
                     now: float = 0.0) -> List[Verdict]:
        """Verdicts for ``names`` in input order (one vectorized pass).

        ``now`` is the sim-clock dispatch time of the batch — it drives
        negative-cache TTLs only.
        """
        n = len(names)
        verdicts: List[Optional[Verdict]] = [None] * n
        negcache = self.negcache
        generation = self.generation
        pending: List[int] = []
        pending_names: List[str] = []
        for i, name in enumerate(names):
            normalized = name.lower().rstrip(".")
            if negcache is not None:
                cached = negcache.get(normalized, generation, now)
                if cached is not None:
                    verdicts[i] = cached
                    continue
            pending.append(i)
            pending_names.append(normalized)
        if pending_names:
            reg_ids = self.zone.registered_ids(pending_names)
            kernel_before = self.context.kernel.copy()
            matches = self.context.classify_batch(pending_names)
            self.stats.kernel.merge(self.context.kernel.delta(kernel_before))
            scorer = self.scorer
            for i, normalized, reg_id, match in zip(
                    pending, pending_names, reg_ids, matches):
                reg_id = int(reg_id)
                verdict = Verdict(
                    domain=normalized,
                    generation=generation,
                    registered=reg_id >= 0,
                    brand=match.brand if match else None,
                    squat_type=match.squat_type if match else None,
                    detail=match.detail if match else None,
                    enrichment=self._enrichment_for(reg_id)
                    if reg_id >= 0 else None,
                    score=scorer(normalized) if scorer is not None else None,
                )
                verdicts[i] = verdict
                if negcache is not None and not verdict.is_squat:
                    negcache.put(normalized, generation, now, verdict)
        stats = self.stats
        stats.queries += n
        stats.batches += 1
        stats.negcache_hits += n - len(pending)
        stats.classified += len(pending)
        return verdicts  # type: ignore[return-value]


def offline_verdicts(detector, zone: PackedZone, names: Sequence[str],
                     generation: Optional[int] = None,
                     scorer: Optional[Callable[[str], Optional[float]]] = None,
                     ) -> List[Verdict]:
    """The reference answer: per-name classify + dict-index membership.

    Deliberately avoids every serving fast path — scalar
    ``classify_domain`` calls, a python dict over
    :meth:`PackedZone.registered_domains`, per-row enrichment decode —
    so it is an independent oracle for byte-identity harnesses.
    """
    generation = int(zone.generation if generation is None else generation)
    regs = {domain: i for i, domain in enumerate(zone.registered_domains())}
    out: List[Verdict] = []
    for name in names:
        normalized = name.lower().rstrip(".")
        match = detector.classify_domain(normalized)
        reg_id = regs.get(registered_domain(normalized), -1)
        out.append(Verdict(
            domain=normalized,
            generation=generation,
            registered=reg_id >= 0,
            brand=match.brand if match else None,
            squat_type=match.squat_type if match else None,
            detail=match.detail if match else None,
            enrichment=_offline_enrichment(zone, reg_id)
            if reg_id >= 0 else None,
            score=scorer(normalized) if scorer is not None else None,
        ))
    return out


def _offline_enrichment(zone: PackedZone,
                        reg_id: int) -> Optional[Tuple]:
    """Per-row enrichment decode straight off the columns (oracle path)."""
    if not zone.has_enrichment or not zone.enrichment_meta:
        return None
    if not int(zone.enrichment_column("has")[reg_id]):
        return None
    a_ip = int(zone.enrichment_column("a_ip")[reg_id])
    country = int(zone.enrichment_column("country")[reg_id])
    year = int(zone.enrichment_column("year")[reg_id])
    registrar = int(zone.enrichment_column("registrar")[reg_id])
    countries = zone.enrichment_meta["countries"]
    registrars = zone.enrichment_meta["registrars"]
    return (
        ("a_ip", _u32_to_ip(a_ip) if a_ip else None),
        ("country", countries[country] if country else None),
        ("mx_present", bool(zone.enrichment_column("mx")[reg_id])),
        ("registrar", registrars[registrar] if registrar else None),
        ("year", year or None),
    )
