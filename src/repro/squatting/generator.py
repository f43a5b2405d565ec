"""Unified squatting-candidate generation across all five models.

Used in two places: the synthetic world registers attacker/speculator domains
drawn from these candidate pools, and the detector hash-joins the enumerable
pools against the DNS snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.brands.catalog import Brand
from repro.dns.records import KNOWN_TLDS, split_domain
from repro.squatting.bits import BitsModel
from repro.squatting.combo import ComboModel
from repro.squatting.homograph import HomographModel
from repro.squatting.typo import TypoModel
from repro.squatting.types import SquatType
from repro.squatting.wrongtld import WrongTLDModel


@dataclass
class CandidateSet:
    """Enumerable squat candidates of one brand, keyed by squat type.

    ``labels`` hold bare labels (any TLD may be attached); ``domains`` hold
    full registered domains (wrongTLD candidates carry their TLD).
    """

    brand: str
    labels: Dict[SquatType, Set[str]] = field(default_factory=dict)
    domains: Dict[SquatType, Set[str]] = field(default_factory=dict)

    def total(self) -> int:
        return sum(len(v) for v in self.labels.values()) + sum(
            len(v) for v in self.domains.values()
        )


class SquattingGenerator:
    """Enumerate squat candidates for brands using all five models."""

    def __init__(
        self,
        homograph: Optional[HomographModel] = None,
        typo: Optional[TypoModel] = None,
        bits: Optional[BitsModel] = None,
        combo: Optional[ComboModel] = None,
        wrongtld: Optional[WrongTLDModel] = None,
    ) -> None:
        self.homograph = homograph or HomographModel()
        self.typo = typo or TypoModel()
        self.bits = bits or BitsModel()
        self.combo = combo or ComboModel()
        self.wrongtld = wrongtld or WrongTLDModel()

    def enumerable(self, brand: Brand) -> CandidateSet:
        """The bare-label candidates a detector can list and join on.

        ASCII homographs, bits and typos, disjoint in priority order.  IDN
        homographs are left out: they are too many to list, so the
        detector decides them by decoding the observed A-label instead.
        """
        label = brand.core_label
        out = CandidateSet(brand=brand.name)
        out.labels[SquatType.HOMOGRAPH] = self.homograph.generate_ascii(label)
        out.labels[SquatType.TYPO] = self.typo.generate(label)
        out.labels[SquatType.BITS] = self.bits.generate(label)
        self._make_disjoint(out, label)
        return out

    def candidates(self, brand: Brand, include_combo: bool = False) -> CandidateSet:
        """Generate the candidate set for one brand.

        The :meth:`enumerable` set plus the IDN homographs and the wrongTLD
        domains.  Combo squats are unbounded; they are only included (from
        the common affix list) when ``include_combo`` is set, e.g. for
        world building.
        """
        label = brand.core_label
        out = self.enumerable(brand)
        out.labels[SquatType.HOMOGRAPH] |= self.homograph.generate_idn(label)
        if include_combo:
            out.labels[SquatType.COMBO] = self.combo.generate(label)
        out.domains[SquatType.WRONG_TLD] = self.wrongtld.generate(brand.domain)
        # the new pools join in priority order: homograph claims first
        self._make_disjoint(out, label)
        return out

    @staticmethod
    def _make_disjoint(candidates: CandidateSet, brand_label: str) -> None:
        """Enforce the paper's orthogonality: each candidate belongs to one
        type, resolved in priority order homograph > bits > typo > combo."""
        priority = (SquatType.HOMOGRAPH, SquatType.BITS, SquatType.TYPO, SquatType.COMBO)
        claimed: Set[str] = {brand_label}
        for squat_type in priority:
            pool = candidates.labels.get(squat_type)
            if pool is None:
                continue
            pool -= claimed
            claimed |= pool
