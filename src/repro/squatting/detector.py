"""Squatting-domain detection over a DNS snapshot (§3.1).

For each registered domain in the zone we check the five squatting rules
against each target brand, ignoring subdomains, and label the domain with the
*first* matching type in the paper's priority order so types stay disjoint:

    homograph > bits > typo > combo > wrongTLD

Complexity matters at snapshot scale, so the detector avoids the naive
(domains × brands) scan:

* homograph (ASCII) / bits / typo — candidate labels are enumerable per
  brand, so we *hash-join*: every observed core label is looked up in one
  sorted columnar label → (brand, type) index
  (:class:`~repro.squatting.packedscan.CandidateIndex`) that the scalar
  cascade and the packed-scan kernel share.
* homograph (IDN) — unicode look-alikes are too many to list, so ``xn--``
  labels are decoded instead.  A label that displays as one single-
  character confusable substitution of a brand label resolves exactly (the
  set the IDN generator enumerates); anything else is skeleton-matched.
* combo — detected by scanning each core label once against a token index of
  brand strings.
* wrongTLD — exact core-label equality with a different suffix.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.brands.catalog import Brand, BrandCatalog
from repro.dns.idna import ACE_PREFIX, IDNAError, label_to_ascii, label_to_unicode
from repro.dns.packedzone import PackedZone, PackedZoneBuilder
from repro.dns.records import split_domain
from repro.dns.zone import ZoneStore
from repro.squatting import packedscan
from repro.squatting.bits import BitsModel
from repro.squatting.combo import ComboModel
from repro.squatting.confusables import lead_bases, trail_bases
from repro.squatting.generator import SquattingGenerator
from repro.squatting.homograph import HomographModel
from repro.squatting.typo import TypoModel
from repro.squatting.types import SquatMatch, SquatType
from repro.squatting.wrongtld import WrongTLDModel

# entries the IDN substitution memo holds before it is cleared
_IDN_MEMO_MAX = 1 << 14

# anything exposing the ZoneStore lookup protocol scans the same way
Zone = Union[ZoneStore, PackedZone]


class SquattingDetector:
    """Classify observed DNS names against a brand catalog."""

    def __init__(
        self,
        catalog: BrandCatalog,
        generator: Optional[SquattingGenerator] = None,
    ) -> None:
        self.catalog = catalog
        self.generator = generator or SquattingGenerator()
        self._brand_by_label: Dict[str, Brand] = {}
        self._brand_domains: Set[str] = set()
        # brand names in catalog order (brand id = position), and each
        # label's first claiming brand id — the catalog rank that breaks
        # ties wherever several brands could claim one observed label
        self._brand_names: List[str] = []
        self._brand_ids: Dict[str, int] = {}
        # 4-gram prefix index over brand labels for combo containment scans
        self._combo_prefix_index: Dict[str, List[str]] = defaultdict(list)
        # (length, first char) / (length, last char) buckets for the ASCII
        # homograph fallback and the IDN pre-filter, so neither ever loops
        # over the full catalog
        self._homograph_buckets: Dict[Tuple[int, int, str], List[str]] = defaultdict(list)
        # single non-ASCII confusable -> the base characters it stands for,
        # from this detector's own table (the IDN substitution rule)
        self._idn_bases: Dict[str, List[str]] = {}
        # core -> that rule's verdict: the packed-scan kernel asks for every
        # xn-- row, and scan passes, stream segments and serve batches see
        # the same IDN names again; cleared when full, so it stays bounded
        self._idn_memo: Dict[str, Optional[str]] = {}
        self._build_indices()

    def _build_indices(self) -> None:
        combo_min = self.generator.combo.min_brand_length
        for brand in self.catalog:
            label = brand.core_label
            self._brand_by_label[label] = brand
            self._brand_ids.setdefault(label, len(self._brand_names))
            self._brand_names.append(brand.name)
            self._brand_domains.add(brand.domain.lower())
            if len(label) >= combo_min:
                self._combo_prefix_index[label[:combo_min]].append(label)
            for delta in (-1, 0, 1):
                self._homograph_buckets[(len(label) + delta, 0, label[0])].append(label)
                self._homograph_buckets[(len(label) + delta, 1, label[-1])].append(label)
        for labels in self._combo_prefix_index.values():
            labels.sort(key=len, reverse=True)
        for base, variants in self.generator.homograph.confusables.items():
            for variant in variants:
                if len(variant) == 1 and ord(variant) >= 128:
                    bases = self._idn_bases.setdefault(variant, [])
                    if base not in bases:
                        bases.append(base)
        # brand-major, so the first brand to claim a label wins; collisions
        # between brands are rare and benign for measurement
        self._label_index = packedscan.CandidateIndex.build(
            ((brand_id, squat_type, labels)
             for brand_id, brand in enumerate(self.catalog)
             for squat_type, labels
             in self.generator.enumerable(brand).labels.items()),
            self._brand_names)

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def classify_domain(self, domain: str) -> Optional[SquatMatch]:
        """Classify one registered domain; None if it squats no brand."""
        domain = domain.lower().rstrip(".")
        return self._classify(domain, split_domain(domain)[0])

    def _classify(self, domain: str, core: str) -> Optional[SquatMatch]:
        """Rule cascade over an already-normalized (domain, core label).

        Split out from :meth:`classify_domain` so the packed-zone scan
        kernel, which reads core labels straight from the snapshot's
        columnar blob, can skip the redundant ``split_domain`` pass.
        """
        if domain in self._brand_domains:
            return None  # the brand's own site is not a squat

        brand_of_core = self._brand_by_label.get(core)

        # 1. enumerable candidates (homograph ASCII, bits, typo) — index join
        if brand_of_core is None:
            hit = self._label_index.lookup(core)
            if hit is not None:
                brand_name, squat_type = hit
                return SquatMatch(domain=domain, brand=brand_name, squat_type=squat_type)

        # 2. IDN homographs — an exact single substitution, else decode and
        #    skeleton-match
        if core.startswith(ACE_PREFIX):
            if brand_of_core is None:
                brand_name = self._idn_substitution_brand(core)
                if brand_name is not None:
                    return SquatMatch(domain=domain, brand=brand_name,
                                      squat_type=SquatType.HOMOGRAPH)
            match = self._match_idn(domain, core)
            if match is not None:
                return match

        # 3. homograph fallback for multi-substitution ASCII look-alikes that
        #    enumeration (bounded at 1–2 substitutions) missed
        if brand_of_core is None:
            match = self._match_ascii_homograph(domain, core)
            if match is not None:
                return match

        # 4. combo squatting — token / containment scan (glued combos like
        #    secureuberlogin carry no hyphen, so this must not be gated on
        #    one; the 4-gram prefix index keeps the scan near-free)
        if brand_of_core is None:
            match = self._match_combo(domain, core)
            if match is not None:
                return match

        # 5. wrongTLD — exact label, wrong suffix
        if brand_of_core is not None:
            if brand_of_core.domain.lower() != domain:
                detail = self.generator.wrongtld.matches(domain, brand_of_core.domain)
                if detail is not None:
                    return SquatMatch(
                        domain=domain,
                        brand=brand_of_core.name,
                        squat_type=SquatType.WRONG_TLD,
                        detail=detail,
                    )
        return None

    def _idn_substitution_brand(self, core: str) -> Optional[str]:
        """Brand whose label ``core`` spells with one IDN confusable.

        The exact inverse of :meth:`HomographModel.generate_idn` over the
        catalog for single-character variants (the only non-ASCII kind the
        shipped confusables tables hold): the displayed label holds exactly
        one non-ASCII character ``c``, putting back a base ``b`` with ``c``
        in ``confusables[b]`` gives a brand label, and ``core`` is that
        label's canonical A-label.  Several brands can claim one label; the
        lowest catalog rank wins, as the first claim on an enumerated index
        did.  The packed-scan kernel runs this same rule on its ``xn--``
        rows, so verdicts are memoized per detector.
        """
        memo = self._idn_memo
        if core in memo:
            return memo[core]
        brand: Optional[str] = None
        try:
            displayed = label_to_unicode(core)
        except IDNAError:
            displayed = ""
        positions = [i for i, char in enumerate(displayed) if ord(char) >= 128]
        if len(positions) == 1:
            i = positions[0]
            best: Optional[int] = None
            for base in self._idn_bases.get(displayed[i], ()):
                brand_id = self._brand_ids.get(
                    displayed[:i] + base + displayed[i + 1:])
                if brand_id is not None and (best is None or brand_id < best):
                    best = brand_id
            if best is not None and label_to_ascii(displayed) == core:
                brand = self._brand_names[best]
        if len(memo) >= _IDN_MEMO_MAX:
            memo.clear()
        memo[core] = brand
        return brand

    def _match_idn(self, domain: str, core: str) -> Optional[SquatMatch]:
        """IDN homographs via the length/edge bucket pre-filter.

        A brand label can only match when its length is within ±1 of the
        displayed label's (the same gate the former full-catalog loop
        applied) and its first or last character is one the displayed
        label's edge character can be read as — literally, as a single
        confusable, or as the edge of a multi-character confusable.  The
        buckets encode exactly those constraints, and candidates are tried
        in catalog order, so the match is identical to the full loop.
        """
        try:
            displayed = label_to_unicode(core)
        except IDNAError:
            return None
        if not displayed:
            return None
        first = set(lead_bases(displayed[0]))
        first.add(displayed[0])
        last = set(trail_bases(displayed[-1]))
        last.add(displayed[-1])
        candidates: Set[str] = set()
        for char in first:
            candidates.update(
                self._homograph_buckets.get((len(displayed), 0, char), ()))
        for char in last:
            candidates.update(
                self._homograph_buckets.get((len(displayed), 1, char), ()))
        for label in sorted(candidates, key=self._brand_ids.__getitem__):
            if self.generator.homograph.matches(core, label):
                return SquatMatch(
                    domain=domain,
                    brand=self._brand_by_label[label].name,
                    squat_type=SquatType.HOMOGRAPH,
                    detail=f"idn:{displayed}",
                )
        return None

    def _ascii_homograph_label(self, core: str) -> Optional[Tuple[str, str]]:
        """First matching ``(brand label, detail)`` for a non-brand core.

        The bucket walk behind :meth:`_match_ascii_homograph`, split out so
        the packed-scan kernel can resolve the rows its vectorized
        confusable table cannot decide (multi-candidate buckets, length-
        changing confusables) without rebuilding the SquatMatch envelope.
        """
        if not core or self._brand_by_label.get(core) is not None:
            return None
        # bucket pre-filter: brand labels of compatible length sharing the
        # first or last character with the observed label
        seen: Set[str] = set()
        for bucket_key in ((len(core), 0, core[0]), (len(core), 1, core[-1])):
            for label in self._homograph_buckets.get(bucket_key, ()):
                if label in seen:
                    continue
                seen.add(label)
                detail = self.generator.homograph.matches(core, label)
                if detail is not None:
                    return label, detail
        return None

    def _match_ascii_homograph(self, domain: str, core: str) -> Optional[SquatMatch]:
        found = self._ascii_homograph_label(core)
        if found is None:
            return None
        label, detail = found
        return SquatMatch(
            domain=domain,
            brand=self._brand_by_label[label].name,
            squat_type=SquatType.HOMOGRAPH,
            detail=detail,
        )

    def _match_combo(self, domain: str, core: str) -> Optional[SquatMatch]:
        # exact hyphen-delimited brand tokens (covers short brands too);
        # only worth splitting when there is a hyphen to split on
        if "-" in core:
            for token in core.split("-"):
                brand = self._brand_by_label.get(token)
                if brand is not None:
                    return SquatMatch(
                        domain=domain, brand=brand.name,
                        squat_type=SquatType.COMBO, detail="token",
                    )
        # glued containment (go-uberfreight): slide a prefix window over the
        # label and consult the brand 4-gram index, longest brand first
        combo_min = self.generator.combo.min_brand_length
        best: Optional[str] = None
        for i in range(len(core) - combo_min + 1):
            for label in self._combo_prefix_index.get(core[i:i + combo_min], ()):
                if core.startswith(label, i):
                    if best is None or len(label) > len(best):
                        best = label
                    break  # index lists are longest-first
        if best is not None:
            return SquatMatch(
                domain=domain, brand=self._brand_by_label[best].name,
                squat_type=SquatType.COMBO, detail="substring",
            )
        return None

    # ------------------------------------------------------------------
    # snapshot scan
    # ------------------------------------------------------------------
    def iter_scan(self, zone: "Zone") -> Iterator[SquatMatch]:
        """Stream matches over a snapshot's registered domains.

        The generator form keeps snapshot-scale scans O(matches) in memory
        for consumers that only aggregate (:meth:`scan_counts`).
        """
        for domain in zone.registered_domains():
            match = self.classify_domain(domain)
            if match is not None:
                yield match

    def scan(self, zone: "Zone") -> List[SquatMatch]:
        """Classify every registered domain in a snapshot.

        Returns one match per squatting registered domain (subdomains are
        collapsed, as in the paper).  Always the per-domain reference
        path, even for packed zones — the equality oracle the vectorized
        kernel is tested against.
        """
        return list(self.iter_scan(zone))

    def scan_sharded(self, zone: "Zone", workers: int = 1) -> List[SquatMatch]:
        """Parallel :meth:`scan` over a process pool.

        Every pooled scan runs the vectorized mmap kernel
        (:mod:`repro.squatting.packedscan`): workers receive only
        ``[start, stop)`` id ranges and map the snapshot file themselves.
        Slice results concatenate in id order, so the output is exactly
        ``self.scan(zone)`` for any worker count; a dict-backed zone that
        no pool would split (:func:`_kernel_zone`) runs that serial scan.
        """
        packed = _kernel_zone(zone, workers)
        if packed is None:
            return self.scan(zone)
        return packedscan.packed_scan(self, packed, workers=workers)

    def scan_counts(self, zone: "Zone",
                    workers: int = 1) -> Dict[SquatType, int]:
        """Squat-type histogram over a snapshot (the Fig 2 series).

        Pooled and packed scans histogram whole id slices in the kernel;
        per-slice counts merge by addition, which is associative, so the
        result equals the serial histogram for any worker count.
        """
        packed = _kernel_zone(zone, workers)
        if packed is not None:
            return packedscan.packed_scan_counts(self, packed, workers=workers)
        counts: Dict[SquatType, int] = {t: 0 for t in SquatType}
        for match in self.iter_scan(zone):
            counts[match.squat_type] += 1
        return counts


def _kernel_zone(zone: "Zone", workers: int) -> Optional[PackedZone]:
    """The packed zone a scan hands the kernel, or None to scan serially.

    A packed zone always runs the kernel.  A dict-backed zone is packed
    (:func:`_pack_registered`) only when a pool would start: ``workers >
    1`` and more registered domains than one ``PACKED_CHUNK`` slice.
    Below that the serial per-domain scan is the cheaper equal answer, as
    packing would add a one-time ``DetectorMatrices`` build for no
    parallelism.  A serial scan clears any stale snapshot a previous
    kernel run left, so perf reporting cannot misattribute it.
    """
    if isinstance(zone, PackedZone):
        return zone
    if workers > 1 and \
            zone.stats()["registered_domains"] > packedscan.PACKED_CHUNK:
        return _pack_registered(zone)
    packedscan.clear_last_scan_stats()
    return None


def _pack_registered(zone: ZoneStore) -> PackedZone:
    """Pack a dict-backed zone's registered domains for the kernel.

    The scan reads registered domains only, so their subdomain records
    are left out.  Packing in :meth:`ZoneStore.registered_domains` order
    keeps the kernel's id order equal to the serial scan's even after
    removals (``pack_zone`` interns in record order, which a removal can
    make differ).
    """
    builder = PackedZoneBuilder()
    for registered in zone.registered_domains():
        builder.add_name(registered)
    return builder.build()
