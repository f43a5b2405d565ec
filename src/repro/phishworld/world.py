"""Assemble the synthetic internet from a :class:`WorldConfig`.

The world is a single deterministic draw: DNS snapshot, hosted web, whois,
geoip, Alexa ranks, marketplaces, the PhishTank feed, and the blacklist
ecosystem, plus ground-truth labels for scoring.  Proportions follow the
paper's reported distributions (see DESIGN.md §1); absolute counts scale
with the config.

The measurement pipeline (:mod:`repro.core.pipeline`) only ever touches the
*interfaces* a real measurement would: the DNS snapshot, HTTP via the
crawler, whois/geoip/Alexa lookups, and blacklist queries.  Ground truth is
consulted solely by the "manual verification" oracle and the evaluation
harness.
"""

from __future__ import annotations

import zlib

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.brands.alexa import AlexaRanking, synth_brand_name
from repro.brands.catalog import Brand, BrandCatalog, build_paper_catalog
from repro.dns.idna import label_to_ascii
from repro.dns.packedzone import PackedZone, PackedZoneBuilder
from repro.dns.records import KNOWN_TLDS, split_domain
from repro.dns.zone import ZoneStore
from repro.phishworld.attacker import (
    EvasionProfile,
    PhishingPageBuilder,
    PhishingPageSpec,
    SCAM_THEMES,
    draw_evasion_profile,
)
from repro.phishworld.blacklists import BlacklistEcosystem
from repro.phishworld.geoip import GeoIPRegistry
from repro.phishworld.marketplace import MARKETPLACE_DOMAINS
from repro.phishworld.phishtank import PhishTankFeed, PhishTankReport
from repro.phishworld.sites import (
    bare_login_page,
    brand_original_page,
    for_sale_page,
    fan_forum_page,
    newsletter_page,
    organic_page,
    parked_page,
    plugin_shop_page,
    portal_login_page,
    survey_page,
)
from repro.phishworld.whois import WhoisRegistry
from repro.squatting.bits import BitsModel
from repro.squatting.combo import COMMON_AFFIXES, ComboModel
from repro.squatting.homograph import HomographModel
from repro.squatting.typo import TypoModel
from repro.squatting.types import SquatType
from repro.squatting.wrongtld import WrongTLDModel
from repro.web.html import Element
from repro.web.http import UserAgent
from repro.web.server import HostedSite, SiteBehavior, WebHost

# Squat-type mix among registered squatting domains (Fig 2 proportions).
SQUAT_TYPE_MIX: Tuple[Tuple[SquatType, float], ...] = (
    (SquatType.COMBO, 0.565),
    (SquatType.TYPO, 0.253),
    (SquatType.BITS, 0.073),
    (SquatType.WRONG_TLD, 0.060),
    (SquatType.HOMOGRAPH, 0.049),
)

# Squat-type mix among *phishing* squats (Fig 12 proportions).
PHISH_TYPE_MIX: Tuple[Tuple[SquatType, float], ...] = (
    (SquatType.COMBO, 0.40),
    (SquatType.TYPO, 0.19),
    (SquatType.HOMOGRAPH, 0.18),
    (SquatType.BITS, 0.16),
    (SquatType.WRONG_TLD, 0.07),
)

# Fig 4's squat-magnet brands with their share of all squatting domains.
SQUAT_HEAVY_BRANDS: Tuple[Tuple[str, float], ...] = (
    ("vice", 0.0598), ("porn", 0.0276), ("bt", 0.0246),
    ("apple", 0.0205), ("ford", 0.0185),
)

# Brands whose squats disproportionately redirect to the original site
# (Table 3) or to marketplaces (Table 4), with boosted probabilities.
DEFENSIVE_BRANDS = ("shutterfly", "alliancebank", "rabobank", "priceline", "carfax")
MARKET_BRANDS = ("zocdoc", "comerica", "verizon", "amazon", "paypal")

# Fig 13 head: brands attracting the most squatting phishing, with weights.
PHISH_TARGET_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("google", 14.0), ("ford", 1.8), ("facebook", 1.7), ("bitcoin", 1.6),
    ("archive", 1.5), ("amazon", 1.5), ("europa", 1.4), ("cisco", 1.4),
    ("discover", 1.3), ("apple", 1.3), ("porn", 1.2), ("healthcare", 1.2),
    ("samsung", 1.1), ("intel", 1.1), ("uber", 1.1), ("people", 1.0),
    ("citi", 1.0), ("smile", 1.0), ("history", 1.0), ("target", 1.0),
    ("youtube", 0.9), ("android", 0.9), ("compass", 0.9), ("paypal", 0.9),
    ("poste", 0.8), ("realtor", 0.8), ("usda", 0.8), ("visa", 0.8),
    ("patient", 0.7), ("arena", 0.7), ("mint", 0.7), ("xbox", 0.7),
    ("discovery", 0.6), ("cams", 0.6), ("ebay", 0.6), ("slate", 0.6),
    ("weather", 0.6), ("delta", 0.6), ("blogger", 0.5), ("chase", 0.5),
    ("battle", 0.5), ("pandora", 0.5), ("nets53", 0.5), ("cnet", 0.5),
    ("skyscanner", 0.4), ("motorsport", 0.4), ("bing", 0.4), ("sina", 0.4),
    ("dict", 0.4), ("bbb", 0.4), ("bt", 0.4), ("tsb", 0.4),
    ("twitter", 0.35), ("cnn", 0.35), ("nike", 0.35), ("gq", 0.3),
    ("pinterest", 0.3), ("msn", 0.3), ("chess", 0.3), ("nyu", 0.3),
    ("nationwide", 0.3), ("credit-agricole", 0.3), ("cua", 0.3),
    ("fifa", 0.25), ("columbia", 0.25), ("tsn", 0.25),
    ("bodybuilding", 0.25), ("microsoft", 0.25), ("adp", 0.25),
    ("dropbox", 0.2), ("github", 0.2), ("santander", 0.15),
)

# Hand-placed phishing domains reproducing the paper's case studies
# (Table 10, Table 13, Fig 14).  (domain, brand, expected type, theme,
# cloaking, lifetime, resurrects)
SEEDED_PHISH: Tuple[Tuple[str, str, SquatType, str, str, int, bool], ...] = (
    ("goog1e.nl", "google", SquatType.HOMOGRAPH, "login", "both", 4, False),
    ("goofle.com.ua", "google", SquatType.BITS, "search", "both", 4, False),
    ("gooogle.com.uy", "google", SquatType.TYPO, "login", "both", 4, False),
    ("ggoogle.in", "google", SquatType.TYPO, "login", "both", 4, False),
    ("facecook.mobi", "facebook", SquatType.BITS, "login", "mobile", 4, False),
    ("facebook-c.com", "facebook", SquatType.COMBO, "login", "both", 4, False),
    ("face-book.online", "facebook", SquatType.TYPO, "login", "both", 4, False),
    ("facebook-sigin.com", "facebook", SquatType.COMBO, "login", "both", 4, False),
    ("faceboolk.ml", "facebook", SquatType.TYPO, "login", "mobile", 2, False),
    ("tacebook.ga", "facebook", SquatType.HOMOGRAPH, "login", "both", 2, True),
    ("faceb00k.bid", "facebook", SquatType.HOMOGRAPH, "login", "both", 4, False),
    (label_to_ascii("facebooκ") + ".com", "facebook", SquatType.HOMOGRAPH,
     "login", "both", 4, False),
    ("go-uberfreight.com", "uber", SquatType.COMBO, "login", "both", 4, False),
    ("mobile-adp.com", "adp", SquatType.COMBO, "payroll", "both", 4, False),
    ("live-microsoftsupport.com", "microsoft", SquatType.COMBO,
     "support", "both", 4, False),
    ("securemail-citizenslc.com", "citizenslc", SquatType.COMBO,
     "payment", "both", 4, False),
    ("apple-prizeuk.com", "apple", SquatType.COMBO, "prize", "both", 4, False),
    ("get-bitcoin.com", "bitcoin", SquatType.COMBO, "payment", "both", 4, False),
    ("yuotube.com", "youtube", SquatType.TYPO, "login", "both", 4, False),
    ("youtub3.com", "youtube", SquatType.HOMOGRAPH, "login", "mobile", 4, False),
    ("paypal-cash.com", "paypal", SquatType.COMBO, "payment", "both", 4, False),
    ("paypal-learning.com", "paypal", SquatType.COMBO, "login", "both", 4, False),
    ("ebay-selling.net", "ebay", SquatType.COMBO, "login", "both", 4, False),
    ("ebay-auction.eu", "ebay", SquatType.COMBO, "payment", "both", 4, False),
    ("formateurs-microsoft.com", "microsoft", SquatType.COMBO,
     "login", "both", 4, False),
    ("twitter-gostore.com", "twitter", SquatType.COMBO, "prize", "both", 4, False),
    ("dropbox-com.com", "dropbox", SquatType.COMBO, "login", "both", 4, False),
    ("santander-grants.com", "santander", SquatType.COMBO, "payment",
     "both", 4, False),
    ("buy-bitcoin-with-paypal-paysafecard-credit-card-ukash.com", "bitcoin",
     SquatType.COMBO, "payment", "both", 4, False),
)

# The subset of seeded domains shown as screenshots in Fig 14; these get a
# pinned evasion profile so the scam content stays on screen.
FIG14_CASES = frozenset({
    "goofle.com.ua", "go-uberfreight.com", "live-microsoftsupport.com",
    "mobile-adp.com", "securemail-citizenslc.com",
})


@dataclass
class WorldConfig:
    """Scale and behaviour knobs for one synthetic universe."""

    seed: int = 1803
    n_brands: int = 702
    n_organic_domains: int = 8000
    n_squat_domains: int = 8000
    n_phish_domains: int = 240          # squatting phishing (≈3% of squats
                                        # at this scale; rates are reported
                                        # relative to the squat population)
    phishtank_reports: int = 1500
    snapshots: int = 4

    # liveness / redirect behaviour of squat domains (Table 2 rates)
    live_rate: float = 0.55
    redirect_rate: float = 0.127        # of live domains
    redirect_original_share: float = 0.135  # of redirecting domains
    redirect_market_share: float = 0.236
    # confusable benign content among live, non-redirect squat pages
    confusable_page_rate: float = 0.10

    # build the DNS snapshot as a packed columnar zone
    # (repro.dns.packedzone) instead of a dict-backed ZoneStore.  Purely a
    # representation knob: record stream and iteration order are
    # identical, so every scan digest byte-matches the dict-backed world.
    packed_zone: bool = False

    def __post_init__(self) -> None:
        # every planted phishing domain is also a squat domain; checked
        # here so a bad size fails typed, before any RNG draw
        if self.n_phish_domains > self.n_squat_domains:
            raise ValueError(
                f"n_phish_domains ({self.n_phish_domains}) must not exceed "
                f"n_squat_domains ({self.n_squat_domains})")

    def scaled(self, factor: float) -> "WorldConfig":
        """A copy with population sizes scaled by ``factor``."""
        return WorldConfig(
            seed=self.seed,
            n_brands=self.n_brands,
            n_organic_domains=max(10, int(self.n_organic_domains * factor)),
            n_squat_domains=max(10, int(self.n_squat_domains * factor)),
            n_phish_domains=max(2, int(self.n_phish_domains * factor)),
            phishtank_reports=max(20, int(self.phishtank_reports * factor)),
            snapshots=self.snapshots,
            live_rate=self.live_rate,
            redirect_rate=self.redirect_rate,
            redirect_original_share=self.redirect_original_share,
            redirect_market_share=self.redirect_market_share,
            confusable_page_rate=self.confusable_page_rate,
            packed_zone=self.packed_zone,
        )


def tiny_config(seed: int = 1803) -> WorldConfig:
    """A test-sized world (hundreds of domains, builds in seconds)."""
    return WorldConfig(
        seed=seed,
        n_brands=702,
        n_organic_domains=300,
        n_squat_domains=500,
        n_phish_domains=40,
        phishtank_reports=160,
    )


@dataclass
class PhishingSiteRecord:
    """Ground-truth record of one attacker-controlled squatting domain."""

    domain: str
    brand: str
    squat_type: SquatType
    theme: str
    evasion: EvasionProfile
    lifetime_snapshots: int
    resurrects: bool
    ip: str


@dataclass
class SyntheticInternet:
    """The assembled universe handed to the measurement pipeline."""

    config: WorldConfig
    catalog: BrandCatalog
    zone: Union[ZoneStore, PackedZone]
    host: WebHost
    whois: WhoisRegistry
    geoip: GeoIPRegistry
    alexa: AlexaRanking
    blacklists: BlacklistEcosystem
    phishtank: PhishTankFeed
    phishing_sites: List[PhishingSiteRecord] = field(default_factory=list)
    squat_truth: Dict[str, Tuple[str, SquatType]] = field(default_factory=dict)

    def label_of(self, domain: str) -> Optional[str]:
        """Ground-truth site label (oracle use only)."""
        site = self.host.get(domain)
        return site.label if site else None

    def phishing_domains(self) -> List[str]:
        return [record.domain for record in self.phishing_sites]


# ----------------------------------------------------------------------
# builder
# ----------------------------------------------------------------------

class _WorldBuilder:
    """Stateful assembly of one universe (single use)."""

    def __init__(self, config: WorldConfig) -> None:
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.catalog = build_paper_catalog(config.n_brands)
        # the packed builder streams records straight into columnar byte
        # buffers — no per-record DNSRecord objects are ever materialized;
        # it accepts the same add_name calls as the dict store
        self.zone: Union[ZoneStore, PackedZoneBuilder] = (
            PackedZoneBuilder() if config.packed_zone else ZoneStore())
        self.host = WebHost()
        self.whois = WhoisRegistry(np.random.default_rng(config.seed + 1))
        self.geoip = GeoIPRegistry(np.random.default_rng(config.seed + 2))
        self.alexa = AlexaRanking()
        self.blacklists = BlacklistEcosystem(np.random.default_rng(config.seed + 3))
        self.phishtank = PhishTankFeed(
            self.catalog,
            np.random.default_rng(config.seed + 5),
            total_reports=config.phishtank_reports,
        )
        self.claimed: Set[str] = set()
        self.phishing_sites: List[PhishingSiteRecord] = []
        self.squat_truth: Dict[str, Tuple[str, SquatType]] = {}
        self._typo = TypoModel()
        self._bits = BitsModel()
        self._homograph = HomographModel()
        self._wrongtld = WrongTLDModel()
        self._squat_tlds = ("com", "net", "org", "pw", "tk", "ml", "ga",
                            "top", "xyz", "online", "site", "bid", "link",
                            "info", "de", "nl", "in", "it", "pl", "eu", "co")

    # ------------------------------------------------------------------
    def build(self) -> SyntheticInternet:
        self._place_brand_originals()
        self._place_marketplaces()
        self._place_organic_domains()
        phish_plan = self._plan_phishing_domains()
        self._place_squat_domains(reserved={d for d, *_ in phish_plan})
        self._place_phishing_domains(phish_plan)
        self._place_phishtank_urls()
        zone = (self.zone.build() if isinstance(self.zone, PackedZoneBuilder)
                else self.zone)
        return SyntheticInternet(
            config=self.config,
            catalog=self.catalog,
            zone=zone,
            host=self.host,
            whois=self.whois,
            geoip=self.geoip,
            alexa=self.alexa,
            blacklists=self.blacklists,
            phishtank=self.phishtank,
            phishing_sites=self.phishing_sites,
            squat_truth=self.squat_truth,
        )

    # ------------------------------------------------------------------
    def _register(self, domain: str, ip: str, label: str,
                  behavior: SiteBehavior, provider=None, redirect_to=None,
                  source: str = "zone") -> None:
        self.zone.add_name(domain, ip=ip, source=source)
        self.host.register(HostedSite(
            domain=domain, behavior=behavior, provider=provider,
            redirect_to=redirect_to, ip=ip, label=label,
        ))
        self.claimed.add(domain)

    @staticmethod
    def _static_provider(page: Element):
        """Provider serving the same page to every profile, forever."""
        def provide(user_agent: UserAgent, snapshot: int) -> Optional[Element]:
            return page
        return provide

    # ------------------------------------------------------------------
    def _place_brand_originals(self) -> None:
        for rank, brand in enumerate(self.catalog, start=1):
            page = brand_original_page(brand)
            ip = self.geoip.allocate_benign_ip()
            self._register(brand.domain, ip, "original", SiteBehavior.CONTENT,
                           provider=self._static_provider(page), source="alexa-1m")
            self.alexa.assign_rank(brand.domain, rank)
            self.whois.register_organic(brand.domain)

    def _place_marketplaces(self) -> None:
        for domain in MARKETPLACE_DOMAINS:
            page = for_sale_page(domain)
            ip = self.geoip.allocate_benign_ip()
            self._register(domain, ip, "marketplace", SiteBehavior.CONTENT,
                           provider=self._static_provider(page))
            self.whois.register_organic(domain)

    def _place_organic_domains(self) -> None:
        rng = self.rng
        brand_labels = self.catalog.core_labels()
        placed = 0
        index = 0
        while placed < self.config.n_organic_domains:
            index += 1
            name = synth_brand_name(1_000_000 + index)
            tld = self._squat_tlds[int(rng.integers(0, len(self._squat_tlds)))]
            domain = f"{name}.{tld}"
            if domain in self.claimed or name in brand_labels:
                continue
            placed += 1
            ip = self.geoip.allocate_benign_ip()
            if rng.random() < 0.75:
                page = organic_page(domain, rng)
                self._register(domain, ip, "benign", SiteBehavior.CONTENT,
                               provider=self._static_provider(page))
            else:
                self._register(domain, ip, "benign-dead", SiteBehavior.DEAD)
            if rng.random() < 0.02:
                self.alexa.assign_rank(domain)
            self.whois.register_organic(domain)

    # ------------------------------------------------------------------
    # squatting domains
    # ------------------------------------------------------------------
    def _brand_squat_weights(self) -> Tuple[List[Brand], "np.ndarray"]:
        """Per-brand share of the squat population (Fig 3/4 skew)."""
        brands = list(self.catalog)
        weights = np.empty(len(brands))
        heavy = dict(SQUAT_HEAVY_BRANDS)
        # Table 3/4 brands need a visible (but sub-magnet) squat footprint
        # so their redirect behaviour is measurable at small scale
        for name in DEFENSIVE_BRANDS + MARKET_BRANDS:
            heavy.setdefault(name, 0.008)
        heavy_mass = sum(heavy.values())
        # remaining mass: shifted Zipf over the rest.  The shift keeps every
        # tail brand below the Fig 4 magnet brands; the 0.95 exponent makes
        # the top-20 brands cover >30% of squats (Fig 3).
        rest = [b for b in brands if b.name not in heavy]
        ranks = np.arange(1, len(rest) + 1, dtype=float)
        zipf = (ranks + 8.0) ** -0.95
        zipf *= (1.0 - heavy_mass) / zipf.sum()
        share = {brand.name: value for brand, value in zip(rest, zipf)}
        share.update(heavy)
        for i, brand in enumerate(brands):
            weights[i] = share[brand.name]
        return brands, weights / weights.sum()

    def _draw_squat_type(self, mix: Sequence[Tuple[SquatType, float]]) -> SquatType:
        roll = self.rng.random()
        accumulated = 0.0
        for squat_type, share in mix:
            accumulated += share
            if roll < accumulated:
                return squat_type
        return mix[-1][0]

    def _mint_squat_domain(self, brand: Brand, squat_type: SquatType) -> Optional[str]:
        """Generate one fresh squat domain of the requested type."""
        rng = self.rng
        label = brand.core_label
        tld = self._squat_tlds[int(rng.integers(0, len(self._squat_tlds)))]
        for _attempt in range(6):
            if squat_type == SquatType.COMBO:
                affix = COMMON_AFFIXES[int(rng.integers(0, len(COMMON_AFFIXES)))]
                style = rng.random()
                if style < 0.45:
                    candidate = f"{label}-{affix}"
                elif style < 0.80:
                    candidate = f"{affix}-{label}"
                else:
                    second = COMMON_AFFIXES[int(rng.integers(0, len(COMMON_AFFIXES)))]
                    candidate = f"{affix}-{label}{second}" if len(label) >= 4 else f"{affix}-{label}-{second}"
                domain = f"{candidate}.{tld}"
            elif squat_type == SquatType.TYPO:
                pool = sorted(self._typo.generate(label))
                domain = f"{pool[int(rng.integers(0, len(pool)))]}.{tld}"
            elif squat_type == SquatType.BITS:
                pool = sorted(self._bits.generate(label))
                if not pool:
                    return None
                domain = f"{pool[int(rng.integers(0, len(pool)))]}.{tld}"
            elif squat_type == SquatType.HOMOGRAPH:
                pool = sorted(self._homograph.generate(label))
                if not pool:
                    return None
                domain = f"{pool[int(rng.integers(0, len(pool)))]}.{tld}"
            else:  # WRONG_TLD
                pool = sorted(self._wrongtld.generate(brand.domain))
                domain = pool[int(rng.integers(0, len(pool)))]
            if domain not in self.claimed:
                return domain
        return None

    def _squat_site_behaviour(self, brand: Brand, domain: str) -> Tuple[str, SiteBehavior, Optional[str], Optional[object]]:
        """Draw what a (non-phishing) squat domain serves."""
        rng = self.rng
        config = self.config
        if rng.random() >= config.live_rate:
            return "squat-dead", SiteBehavior.DEAD, None, None
        redirect_rate = config.redirect_rate
        original_share = config.redirect_original_share
        market_share = config.redirect_market_share
        if brand.name in DEFENSIVE_BRANDS:
            redirect_rate, original_share = 0.42, 0.62
        elif brand.name in MARKET_BRANDS:
            redirect_rate, market_share = 0.40, 0.55
        if rng.random() < redirect_rate:
            roll = rng.random()
            if roll < original_share:
                return ("squat-defensive", SiteBehavior.REDIRECT,
                        f"http://{brand.domain}/", None)
            if roll < original_share + market_share:
                market = MARKETPLACE_DOMAINS[int(rng.integers(0, len(MARKETPLACE_DOMAINS)))]
                return ("squat-market", SiteBehavior.REDIRECT,
                        f"http://{market}/", None)
            other = f"ads{int(rng.integers(0, 40)):02d}.trafficpark.net"
            if other not in self.claimed:
                ip = self.geoip.allocate_benign_ip()
                self._register(other, ip, "benign", SiteBehavior.CONTENT,
                               provider=self._static_provider(parked_page(other)))
            return "squat-other-redirect", SiteBehavior.REDIRECT, f"http://{other}/", None
        # live content
        roll = rng.random()
        if roll < config.confusable_page_rate:
            kind = rng.random()
            if kind < 0.22:
                page = newsletter_page(domain, brand, rng)
            elif kind < 0.42:
                page = survey_page(domain, brand, rng)
            elif kind < 0.60:
                page = plugin_shop_page(domain, brand, rng)
            elif kind < 0.75:
                page = fan_forum_page(domain, brand, rng)
            elif kind < 0.88:
                page = portal_login_page(domain, rng)
            else:
                page = bare_login_page(domain, rng)
            return "squat-confusable", SiteBehavior.CONTENT, None, self._static_provider(page)
        if roll < config.confusable_page_rate + 0.55:
            return ("squat-parked", SiteBehavior.CONTENT, None,
                    self._static_provider(parked_page(domain)))
        return ("squat-content", SiteBehavior.CONTENT, None,
                self._static_provider(organic_page(domain, rng)))

    def _place_squat_domains(self, reserved: Set[str]) -> None:
        brands, weights = self._brand_squat_weights()
        target = self.config.n_squat_domains - len(reserved)
        placed = 0
        draws = self.rng.choice(len(brands), size=target * 2, p=weights)
        for brand_index in draws:
            if placed >= target:
                break
            brand = brands[int(brand_index)]
            squat_type = self._draw_squat_type(SQUAT_TYPE_MIX)
            domain = self._mint_squat_domain(brand, squat_type)
            if domain is None or domain in reserved:
                continue
            label, behavior, redirect_to, provider = self._squat_site_behaviour(brand, domain)
            ip = self.geoip.allocate_benign_ip()
            self._register(domain, ip, label, behavior,
                           provider=provider, redirect_to=redirect_to)
            self.whois.register_organic(domain)
            self.squat_truth[domain] = (brand.name, squat_type)
            placed += 1

    # ------------------------------------------------------------------
    # phishing domains
    # ------------------------------------------------------------------
    def _plan_phishing_domains(self) -> List[Tuple[str, Brand, SquatType, str, Optional[str], int, bool]]:
        """Decide every squatting-phishing domain before placement.

        Returns tuples (domain, brand, type, theme, forced-cloaking,
        lifetime, resurrects); forced-cloaking None means "draw from the
        evasion model".
        """
        plan: List[Tuple[str, Brand, SquatType, str, Optional[str], int, bool]] = []
        used: Set[str] = set()
        for domain, brand_name, squat_type, theme, cloaking, lifetime, resurrects in SEEDED_PHISH:
            brand = self.catalog.get(brand_name)
            if brand is None:
                continue
            plan.append((domain, brand, squat_type, theme, cloaking, lifetime, resurrects))
            used.add(domain)
            if len(plan) >= self.config.n_phish_domains:
                return plan
        names = [name for name, _ in PHISH_TARGET_WEIGHTS if name in self.catalog]
        weights = np.array([w for name, w in PHISH_TARGET_WEIGHTS if name in self.catalog])
        weights /= weights.sum()
        while len(plan) < self.config.n_phish_domains:
            name = names[int(self.rng.choice(len(names), p=weights))]
            brand = self.catalog.get(name)
            squat_type = self._draw_squat_type(PHISH_TYPE_MIX)
            domain = self._mint_squat_domain(brand, squat_type)
            if domain is None or domain in used or domain in self.claimed:
                continue
            used.add(domain)
            theme = self._draw_theme(brand)
            lifetime = self._draw_lifetime()
            resurrects = bool(self.rng.random() < 0.01)
            plan.append((domain, brand, squat_type, theme, None, lifetime, resurrects))
        return plan

    def _draw_theme(self, brand: Brand) -> str:
        roll = self.rng.random()
        if brand.sensitivity == "payment":
            return "payment" if roll < 0.5 else ("login" if roll < 0.9 else "prize")
        if brand.name in ("microsoft", "cisco", "intel"):
            return "support" if roll < 0.4 else "login"
        if brand.name == "adp":
            return "payroll"
        return "login" if roll < 0.8 else ("prize" if roll < 0.95 else "payment")

    def _draw_lifetime(self) -> int:
        """Snapshots survived; ~80% last the whole month (Fig 17)."""
        roll = self.rng.random()
        if roll < 0.80:
            return self.config.snapshots
        if roll < 0.90:
            return self.config.snapshots - 1
        if roll < 0.97:
            return 2
        return 1

    def _phishing_provider(self, spec: PhishingPageSpec, domain: str):
        page_cache: Dict[str, Element] = {}
        # pages are built lazily on first visit, so their randomness must
        # be addressed per (world seed, domain, profile) — never drawn
        # from a shared sequential RNG, or visit order (and thus crawler
        # scheduling) would leak into page content
        seed = self.config.seed + 4
        domain_token = zlib.crc32(domain.encode())

        def provide(user_agent: UserAgent, snapshot: int) -> Optional[Element]:
            alive = snapshot < spec.lifetime_snapshots
            if spec.resurrects and snapshot == self.config.snapshots - 1:
                alive = True
            if not alive:
                # half the taken-down pages get replaced by benign content
                if domain_token % 2:
                    return parked_page(domain)
                return None
            if not spec.evasion.serves(user_agent):
                return None
            key = "mobile" if user_agent.is_mobile else "web"
            if key not in page_cache:
                builder = PhishingPageBuilder(np.random.default_rng(
                    (seed, domain_token, int(user_agent.is_mobile))))
                page_cache[key] = builder.build(spec)
            return page_cache[key]

        return provide

    def _place_phishing_domains(self, plan) -> None:
        evasion_rng = np.random.default_rng(self.config.seed + 6)
        for domain, brand, squat_type, theme, forced_cloaking, lifetime, resurrects in plan:
            evasion = draw_evasion_profile(evasion_rng, squatting=True)
            if forced_cloaking is not None:
                evasion.cloaking = forced_cloaking
                evasion.js_form_injection = False
            if domain in FIG14_CASES:
                # the Fig 14 screenshot case studies must show the scam
                # content the paper describes: layout drift yes, brand
                # hiding no, and the ADP page keeps its JS-injected form
                evasion = EvasionProfile(
                    layout=True,
                    string=False,
                    code=bool(zlib.crc32(domain.encode()) % 2),
                    js_form_injection=(domain == "mobile-adp.com"),
                    cloaking=forced_cloaking or "both",
                )
            spec = PhishingPageSpec(
                brand=brand,
                theme=theme,
                evasion=evasion,
                layout_variant=int(evasion_rng.integers(0, 12)),
                lifetime_snapshots=lifetime,
                resurrects=resurrects,
                degraded=bool(forced_cloaking is None and evasion_rng.random() < 0.03),
            )
            ip = self.geoip.allocate_phishing_ip()
            self._register(domain, ip, "phishing", SiteBehavior.CONTENT,
                           provider=self._phishing_provider(spec, domain))
            self.whois.register_phishing(domain)
            self.squat_truth[domain] = (brand.name, squat_type)
            self.phishing_sites.append(PhishingSiteRecord(
                domain=domain, brand=brand.name, squat_type=squat_type,
                theme=theme, evasion=evasion, lifetime_snapshots=lifetime,
                resurrects=resurrects, ip=ip,
            ))
            self.blacklists.ingest(domain, is_squatting=True)

    # ------------------------------------------------------------------
    # PhishTank-reported URLs (mostly non-squatting)
    # ------------------------------------------------------------------
    def _place_phishtank_urls(self) -> None:
        evasion_rng = np.random.default_rng(self.config.seed + 7)
        rank_rng = np.random.default_rng(self.config.seed + 8)
        for report in self.phishtank.generate():
            domain = report.domain
            if domain in self.claimed:
                continue
            brand = self.catalog.get(report.brand)
            if brand is None:
                continue
            self._assign_report_rank(domain, rank_rng)
            ip = self.geoip.allocate_phishing_ip()
            if report.still_phishing:
                evasion = draw_evasion_profile(evasion_rng, squatting=False)
                spec = PhishingPageSpec(
                    brand=brand,
                    theme=self._draw_theme(brand),
                    evasion=evasion,
                    layout_variant=int(evasion_rng.integers(0, 12)),
                    lifetime_snapshots=self.config.snapshots,
                    degraded=bool(evasion_rng.random() < 0.08),
                )
                self._register(domain, ip, "phishing-reported", SiteBehavior.CONTENT,
                               provider=self._phishing_provider(spec, domain))
            else:
                # taken down or replaced before our crawl reached it
                if evasion_rng.random() < 0.5:
                    self._register(domain, ip, "benign-replaced", SiteBehavior.CONTENT,
                                   provider=self._static_provider(parked_page(domain)))
                else:
                    self._register(domain, ip, "benign-replaced", SiteBehavior.CONTENT,
                                   provider=self._static_provider(
                                       organic_page(domain, self.rng)))
            self.whois.register_phishing(domain)
            # everything in the feed is, by definition, on PhishTank
            self.blacklists.phishtank.add_listing(domain)
            self.blacklists.virustotal.ingest(domain, is_squatting=False)
            self.blacklists.ecrimex.ingest(domain, is_squatting=False)

    def _assign_report_rank(self, domain: str, rng: "np.random.Generator") -> None:
        """Fig 6 bucket mix for reported-URL domains."""
        roll = rng.random()
        if roll < 0.036:
            self.alexa.assign_rank(domain, int(rng.integers(1, 1000)))
        elif roll < 0.190:
            self.alexa.assign_rank(domain, int(rng.integers(1001, 10_000)))
        elif roll < 0.256:
            self.alexa.assign_rank(domain, int(rng.integers(10_001, 100_000)))
        elif roll < 0.297:
            self.alexa.assign_rank(domain, int(rng.integers(100_001, 1_000_000)))
        # else: unranked (beyond top-1M), the 70% mass


def build_world(config: Optional[WorldConfig] = None) -> SyntheticInternet:
    """Build a synthetic internet (default config if none given)."""
    return _WorldBuilder(config or WorldConfig()).build()
