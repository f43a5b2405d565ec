"""Combo squatting: brand name concatenated with extra tokens (§3.1).

``facebook-story.de``, ``go-uberfreight.com``, ``live-microsoftsupport.com``:
the brand string is embedded whole, joined to arbitrary affixes.  Following
the paper we focus on hyphenated combos (hyphens are the only separator legal
in a hostname), but — as the paper's own examples show
(``go-uberfreight.com``) — the affix may also glue directly onto the brand
inside a hyphenated token, so detection accepts a brand that appears as a
substring of a hyphen-bearing label.

Combo candidates cannot be enumerated, so unlike the other four models the
detector is the primary artifact; :meth:`generate` exists to let the
synthetic world register plausible combos.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

# Affixes observed on real combo squats; used only for world generation.
COMMON_AFFIXES: Tuple[str, ...] = (
    "login", "signin", "sigin", "secure", "security", "support", "help",
    "account", "accounts", "verify", "verification", "update", "online",
    "official", "store", "shop", "pay", "payment", "payments", "wallet",
    "cash", "app", "apps", "mobile", "web", "mail", "email", "team",
    "service", "services", "center", "info", "news", "story", "live",
    "go", "get", "my", "the", "new", "free", "best", "top", "pro",
    "prize", "prizeuk", "gift", "bonus", "promo", "deal", "deals",
    "learning", "freight", "selling", "auction", "grants", "gostore",
    "c", "us", "uk", "id", "auth", "portal", "access", "alert", "alerts",
)


class ComboModel:
    """Generator/detector for combo-squatting labels."""

    name = "combo"

    def __init__(self, min_brand_length: int = 4) -> None:
        # Very short brand strings ("bt", "gq") embedded in longer words
        # would flood the detector with false combos; the paper handles this
        # by matching the hyphen-delimited brand token.  We require either a
        # hyphen-delimited exact token, or (for longer brands) substring
        # containment.  The packed-scan kernel packs min_brand_length
        # bytes into one u64 window code, so it must lie in 1..8.
        if not 1 <= min_brand_length <= 8:
            raise ValueError(
                f"min_brand_length must be in 1..8, got {min_brand_length}")
        self.min_brand_length = min_brand_length

    # ------------------------------------------------------------------
    # generation (world-building aid)
    # ------------------------------------------------------------------
    def generate(
        self,
        label: str,
        affixes: Sequence[str] = COMMON_AFFIXES,
        max_variants: Optional[int] = None,
    ) -> Set[str]:
        """Hyphenated combos of ``label`` with common affixes.

        Three shapes per affix: brand-affix, affix-brand, and a glued
        tail where the next affix rides directly on the brand inside the
        hyphenated label (``go-uberfreight`` style).
        """
        variants: Set[str] = set()
        for i, affix in enumerate(affixes):
            variants.add(f"{label}-{affix}")
            variants.add(f"{affix}-{label}")
            glue = affixes[(i + 1) % len(affixes)]
            variants.add(f"{affix}-{label}{glue}")
            if max_variants and len(variants) >= max_variants:
                break
        variants.discard(label)
        return variants

    def generate_glued(self, label: str, affixes: Sequence[str], rng=None) -> Set[str]:
        """Combos where an affix glues directly to the brand inside a
        hyphenated label (``go-uberfreight``)."""
        variants: Set[str] = set()
        for i, affix in enumerate(affixes):
            other = affixes[(i + 1) % len(affixes)]
            variants.add(f"{other}-{label}{affix}")
            variants.add(f"{label}{affix}-{other}")
        return variants

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------
    def matches(self, label: str, target: str) -> Optional[str]:
        """Classify ``label`` as a combo squat of ``target``.

        Returns the matched embedding (e.g. ``"token"`` or ``"substring"``)
        or None.  The label must contain a hyphen and must not *be* the
        brand.
        """
        label = label.lower()
        target = target.lower()
        if "-" not in label or label == target:
            return None
        tokens = label.split("-")
        if target in tokens:
            return "token"
        if len(target) >= self.min_brand_length and target in label:
            return "substring"
        return None
