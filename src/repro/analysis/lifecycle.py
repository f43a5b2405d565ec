"""Lifecycle analytics over a dated snapshot series.

The longitudinal measurements the static paper cannot make — how long a
squat domain survives, how often a taken-down name is drop-caught, how
far blacklists lag behind registration — all fall out of the *diffs*
between consecutive dated snapshots:

* the consecutive-pair diffs fan out over the ``repro.perf`` process
  pool (each worker mmaps the two packed files and runs the vectorized
  :func:`~repro.dns.zonediff.diff_packed` kernel); results come back in
  pair order, so the diff digest chain is identical at any worker count;
* each domain's spells (birth snapshot → death snapshot, possibly
  several after re-registration) are replayed from the status columns;
  spell lengths feed the Kaplan–Meier estimator already used by the
  Fig 16 longevity analysis (:mod:`repro.analysis.lifetime`), per squat
  family (``detector.classify_domain``, memoized per distinct domain);
* re-registration rate per family = domains re-added after a takedown /
  domains ever taken down; weaponizations are record rewrites whose new
  IP lands in the simulated ``192.0.2.0/24`` phishing block;
* blacklist-coverage lag replays each squat birth (in birth order, so
  the draw sequence is deterministic) through a seeded
  :class:`~repro.phishworld.blacklists.Blacklist` coverage model and
  reports listings within the observation window and the mean listing
  delay — the Table 12 evasion story, now with a time axis.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.lifetime import (
    DomainLifetime,
    median_lifetime,
    survival_curve,
)
from repro.dns.packedzone import PackedZone
from repro.dns.records import split_domain
from repro.dns.zonediff import (
    ADDED,
    CHANGED,
    REMOVED,
    DiffTable,
    diff_packed,
    diff_serial,
)
from repro.perf.engine import process_map
from repro.phishworld.blacklists import Blacklist
from repro.phishworld.events import is_weaponized_ip

ORGANIC = "organic"                 # family label for non-squat domains


# ----------------------------------------------------------------------
# parallel pair diffing
# ----------------------------------------------------------------------

def _diff_pair(_context, paths: Tuple[str, str]) -> DiffTable:
    """Worker body: mmap both packs, run the vectorized kernel."""
    older, newer = paths
    return diff_packed(PackedZone.load(older), PackedZone.load(newer))


def _series_zones(series) -> List[PackedZone]:
    zones = [getattr(snap, "zone", snap) for snap in series]
    if len(zones) < 2:
        raise ValueError("diffing a series needs at least two snapshots")
    return zones


def diff_series(series, workers: int = 1, perf=None) -> List[DiffTable]:
    """Consecutive-pair diffs of a dated series, in pair order.

    Workers receive only file paths (``PackedZone.ensure_file``) and
    mmap their own views; ``process_map`` returns results in shard
    order, so the digest chain is worker-count invariant.
    """
    zones = _series_zones(series)
    paths = [str(zone.ensure_file()) for zone in zones]
    pairs = list(zip(paths, paths[1:]))
    started = time.perf_counter()
    diffs = process_map(_diff_pair, pairs, workers)
    if perf is not None and hasattr(perf, "record_lifecycle"):
        perf.record_lifecycle(len(pairs), time.perf_counter() - started)
    return diffs


def diff_series_serial(series) -> List[DiffTable]:
    """The dict-set baseline over the same pairs (equivalence oracle)."""
    zones = _series_zones(series)
    return [diff_serial(older, newer)
            for older, newer in zip(zones, zones[1:])]


def diff_chain_digest(diffs: Sequence[DiffTable]) -> str:
    """One digest over the per-pair diff digests, in pair order."""
    hasher = hashlib.sha256()
    hasher.update(b"diff-chain\n")
    for diff in diffs:
        hasher.update(f"{diff.digest}\n".encode())
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# per-family lifecycle accounting
# ----------------------------------------------------------------------

@dataclass
class FamilyLifecycle:
    """One squat family's longitudinal summary."""

    family: str
    born: int = 0                   # domains ever observed alive
    takedowns: int = 0              # death events (spell ends)
    reregistered: int = 0           # domains revived after a takedown
    weaponized: int = 0             # domains that flipped into 192.0.2/24
    lifetimes: List[DomainLifetime] = field(default_factory=list)
    blacklisted: int = 0            # listed within the observation window
    blacklist_lag_days: Optional[float] = None   # mean listing delay

    @property
    def rereg_rate(self) -> float:
        """Revived domains / domains ever taken down."""
        ever_down = len({l.domain for l in self.lifetimes
                         if not l.censored})
        return self.reregistered / ever_down if ever_down else 0.0

    @property
    def blacklist_coverage(self) -> float:
        return self.blacklisted / self.born if self.born else 0.0

    def survival(self) -> List[Tuple[int, float]]:
        """Kaplan–Meier curve over spell lengths (in snapshots)."""
        return survival_curve(self.lifetimes)

    def median_lifetime_snapshots(self) -> Optional[int]:
        return median_lifetime(self.lifetimes)

    def as_dict(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "born": self.born,
            "takedowns": self.takedowns,
            "reregistered": self.reregistered,
            "rereg_rate": round(self.rereg_rate, 4),
            "weaponized": self.weaponized,
            "median_lifetime_snapshots": self.median_lifetime_snapshots(),
            "blacklist_coverage": round(self.blacklist_coverage, 4),
            "blacklist_lag_days": (None if self.blacklist_lag_days is None
                                   else round(self.blacklist_lag_days, 2)),
        }


@dataclass
class LifecycleReport:
    """The full longitudinal readout for one series."""

    snapshots: int
    cadence_days: int
    diff_digests: List[str]
    chain_digest: str
    pair_counts: List[Dict[str, int]]
    families: Dict[str, FamilyLifecycle]

    def as_dict(self) -> Dict[str, object]:
        return {
            "snapshots": self.snapshots,
            "cadence_days": self.cadence_days,
            "pairs": len(self.diff_digests),
            "chain_digest": self.chain_digest,
            "diff_digests": list(self.diff_digests),
            "pair_counts": list(self.pair_counts),
            "families": {name: fam.as_dict()
                         for name, fam in sorted(self.families.items())},
        }


def _registered_of(name: str) -> str:
    core, tld = split_domain(name)
    return f"{core}.{tld}" if tld else core


class _FamilyIndex:
    """Memoized ``detector.classify_domain`` → family label."""

    def __init__(self, detector) -> None:
        self._detector = detector
        self._cache: Dict[str, str] = {}

    def family_of(self, domain: str) -> str:
        label = self._cache.get(domain)
        if label is None:
            match = None
            if self._detector is not None:
                match = self._detector.classify_domain(domain)
            label = match.squat_type.value if match is not None else ORGANIC
            self._cache[domain] = label
        return label


def lifecycle_report(series, diffs: Optional[Sequence[DiffTable]] = None,
                     detector=None, workers: int = 1,
                     blacklist_seed: int = 1803,
                     blacklist_squat_coverage: float = 0.35,
                     blacklist_delay_days: float = 10.0,
                     perf=None) -> LifecycleReport:
    """Replay the diff chain into per-family lifecycle accounting.

    Deterministic in (series, detector, blacklist knobs): the diff
    chain is worker-count invariant and the blacklist model draws in
    domain birth order.
    """
    if diffs is None:
        diffs = diff_series(series, workers=workers, perf=perf)
    snapshots = list(series)
    cadence = getattr(getattr(series, "config", None), "cadence_days", 1)

    families = _FamilyIndex(detector)
    # domain -> birth snapshot of the current spell (None while dead)
    alive_since: Dict[str, int] = {}
    ever_alive: Dict[str, None] = {}        # birth order preserved
    birth_index: Dict[str, int] = {}        # first birth per domain
    ever_down: Dict[str, None] = {}
    rereg_domains: Dict[str, None] = {}
    weaponized_domains: Dict[str, None] = {}
    spells: List[Tuple[str, int, bool]] = []    # domain, length, censored
    takedowns_per_family: Dict[str, int] = {}

    first = snapshots[0].zone if hasattr(snapshots[0], "zone") \
        else snapshots[0]
    for reg_id in range(first.n_registered):
        domain = first.registered_at(reg_id)
        alive_since[domain] = 0
        ever_alive.setdefault(domain, None)
        birth_index.setdefault(domain, 0)

    for k, diff in enumerate(diffs):
        at = k + 1          # diff k lands on snapshot k+1
        for domain in diff.domains_with_status(REMOVED):
            born = alive_since.pop(domain, None)
            if born is None:
                continue
            spells.append((domain, at - born, False))
            ever_down.setdefault(domain, None)
            family = families.family_of(domain)
            takedowns_per_family[family] = \
                takedowns_per_family.get(family, 0) + 1
        for domain in diff.domains_with_status(ADDED):
            if domain in ever_down:
                rereg_domains.setdefault(domain, None)
            alive_since.setdefault(domain, at)
            ever_alive.setdefault(domain, None)
            birth_index.setdefault(domain, at)
        for _status, ops in ((CHANGED, diff.changed_records),
                             (ADDED, diff.added_records)):
            for name, ip, _rtype, _source in ops:
                if is_weaponized_ip(ip):
                    weaponized_domains.setdefault(
                        _registered_of(name), None)

    horizon = len(snapshots) - 1
    for domain, born in alive_since.items():
        spells.append((domain, max(horizon - born, 0), True))

    # ------------------------------------------------------------------
    out: Dict[str, FamilyLifecycle] = {}

    def family_bucket(label: str) -> FamilyLifecycle:
        bucket = out.get(label)
        if bucket is None:
            bucket = out[label] = FamilyLifecycle(family=label)
        return bucket

    for domain in ever_alive:
        family_bucket(families.family_of(domain)).born += 1
    for domain, length, censored in spells:
        family_bucket(families.family_of(domain)).lifetimes.append(
            DomainLifetime(domain=domain, lifetime=length,
                           censored=censored))
    for family, count in takedowns_per_family.items():
        family_bucket(family).takedowns = count
    for domain in rereg_domains:
        family_bucket(families.family_of(domain)).reregistered += 1
    for domain in weaponized_domains:
        family_bucket(families.family_of(domain)).weaponized += 1

    # blacklist-coverage lag: replay squat births through the seeded
    # coverage model in birth order (deterministic draw sequence)
    rng = np.random.default_rng(blacklist_seed)
    blacklist = Blacklist("sim-aggregate", rng,
                          squatting_coverage=blacklist_squat_coverage,
                          ordinary_coverage=0.9,
                          mean_listing_delay_days=blacklist_delay_days)
    lags: Dict[str, List[int]] = {}
    window_days = max(horizon, 1) * cadence
    for domain in ever_alive:
        family = families.family_of(domain)
        if family == ORGANIC:
            continue
        entry = blacklist.ingest(domain, is_squatting=True)
        if entry is not None and entry.listed_day <= window_days:
            bucket = family_bucket(family)
            bucket.blacklisted += 1
            lags.setdefault(family, []).append(entry.listed_day)
    for family, delays in lags.items():
        out[family].blacklist_lag_days = float(np.mean(delays))

    pair_counts = [diff.counts() for diff in diffs]
    return LifecycleReport(
        snapshots=len(snapshots), cadence_days=cadence,
        diff_digests=[diff.digest for diff in diffs],
        chain_digest=diff_chain_digest(diffs),
        pair_counts=pair_counts, families=out)
