"""Unified squatting detector over brand catalogs and zones."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.brands import Brand, BrandCatalog
from repro.dns.idna import (IDNAError, label_to_ascii, label_to_unicode,
                            punycode_encode)
from repro.dns.packedzone import PackedZoneBuilder
from repro.dns.zone import ZoneStore
from repro.squatting.confusables import CONFUSABLES, dnstwist_subset
from repro.squatting.detector import SquattingDetector
from repro.squatting.generator import SquattingGenerator
from repro.squatting.homograph import HomographModel
from repro.squatting.packedscan import PackedScanContext, packed_scan
from repro.squatting.types import SquatMatch, SquatType


@pytest.fixture(scope="module")
def detector():
    catalog = BrandCatalog([
        Brand(name="facebook", domain="facebook.com", sensitivity="login"),
        Brand(name="google", domain="google.com", sensitivity="login"),
        Brand(name="uber", domain="uber.com", sensitivity="login"),
        Brand(name="adp", domain="adp.com", sensitivity="payment"),
        Brand(name="bt", domain="bt.com"),
    ])
    return SquattingDetector(catalog)


# Table 1 of the paper, plus §3.1 matching rules.
PAPER_EXAMPLES = [
    ("faceb00k.pw", "facebook", SquatType.HOMOGRAPH),
    ("xn--fcebook-8va.com", "facebook", SquatType.HOMOGRAPH),
    ("facebnok.tk", "facebook", SquatType.BITS),
    ("facebo0ok.com", "facebook", SquatType.TYPO),
    ("fcaebook.org", "facebook", SquatType.TYPO),
    ("facebook-story.de", "facebook", SquatType.COMBO),
    ("facebook.audi", "facebook", SquatType.WRONG_TLD),
    ("go-uberfreight.com", "uber", SquatType.COMBO),
    ("mobile-adp.com", "adp", SquatType.COMBO),
    ("goog1e.nl", "google", SquatType.HOMOGRAPH),
    ("goofle.com.ua", "google", SquatType.BITS),
]


@pytest.mark.parametrize("domain,brand,squat_type", PAPER_EXAMPLES)
def test_paper_examples(detector, domain, brand, squat_type):
    match = detector.classify_domain(domain)
    assert match is not None, domain
    assert match.brand == brand
    assert match.squat_type == squat_type


def test_subdomains_are_ignored(detector):
    # §3.1: mail.google-app.de is combo squatting on google
    match = detector.classify_domain("mail.google-app.de")
    assert match is not None
    assert match.brand == "google"
    assert match.squat_type == SquatType.COMBO


def test_brand_own_domain_is_not_squatting(detector):
    assert detector.classify_domain("facebook.com") is None
    assert detector.classify_domain("www.facebook.com") is None


def test_unrelated_domains_are_clean(detector):
    for domain in ("example.com", "weatherreport.net", "quiteunrelated.org"):
        assert detector.classify_domain(domain) is None


def test_short_brand_needs_exact_combo_token(detector):
    # "bt" may not match inside arbitrary hyphenated words
    assert detector.classify_domain("about-this.com") is None
    match = detector.classify_domain("bt-login.com")
    assert match is not None and match.brand == "bt"


def test_type_priority_is_orthogonal(detector):
    """A label reachable as both homograph and typo must take the
    higher-priority label exactly once."""
    match = detector.classify_domain("faceb00k.com")
    assert match.squat_type == SquatType.HOMOGRAPH


def test_scan_over_zone(detector):
    zone = ZoneStore()
    squats = ["faceb00k.pw", "facebook-story.de", "facebook.audi"]
    clean = ["example.com", "another.net"]
    for name in squats + clean:
        zone.add_name(name)
    matches = detector.scan(zone)
    assert {m.domain for m in matches} == set(squats)


def test_scan_counts(detector):
    zone = ZoneStore()
    for name in ("faceb00k.pw", "facebnok.tk", "facebo0ok.com",
                 "facebook-story.de", "facebook.audi", "example.com"):
        zone.add_name(name)
    counts = detector.scan_counts(zone)
    assert counts[SquatType.HOMOGRAPH] == 1
    assert counts[SquatType.BITS] == 1
    assert counts[SquatType.TYPO] == 1
    assert counts[SquatType.COMBO] == 1
    assert counts[SquatType.WRONG_TLD] == 1


def _match_idn_full_catalog(detector, domain, core):
    """The pre-bucket IDN matcher: loop the whole catalog in insertion
    order, gated only on a ±1 length window around the displayed label.
    Kept inline as the regression oracle for the bucket pre-filter."""
    try:
        displayed = label_to_unicode(core)
    except IDNAError:
        return None
    for brand in detector.catalog:
        label = brand.core_label
        if abs(len(displayed) - len(label)) > 1:
            continue
        if detector.generator.homograph.matches(core, label):
            return (brand.name, f"idn:{displayed}")
    return None


def test_idn_bucket_prefilter_matches_full_catalog_loop(detector):
    """The length/edge-character buckets must never change a verdict —
    same brand, same detail, same misses as the brute-force catalog scan."""
    cores = set()
    for brand in detector.catalog:
        cores.update(detector.generator.homograph.generate_idn(
            brand.core_label, max_variants=80))
    # decoys squatting nothing in the catalog must miss both ways
    for word in ("example", "weather", "netflix", "ub"):
        cores.update(sorted(detector.generator.homograph.generate_idn(
            word, max_variants=20)))
    assert len(cores) > 100
    hits = 0
    for core in sorted(cores):
        domain = f"{core}.com"
        got = detector._match_idn(domain, core)
        want = _match_idn_full_catalog(detector, domain, core)
        if want is None:
            assert got is None, core
        else:
            hits += 1
            assert got is not None, core
            assert (got.brand, got.detail) == want, core
            assert got.squat_type == SquatType.HOMOGRAPH
    assert hits > 50  # the oracle must actually exercise the match path


def test_world_truth_agreement(micro_world):
    """Every squat registered by the world generator is found and typed
    identically by the detector (generator/detector consistency)."""
    detector = SquattingDetector(micro_world.catalog)
    matches = {m.domain: m for m in detector.scan(micro_world.zone)}
    missed = []
    mistyped = []
    for domain, (brand, squat_type) in micro_world.squat_truth.items():
        match = matches.get(domain)
        if match is None:
            missed.append(domain)
        elif match.squat_type != squat_type:
            mistyped.append((domain, squat_type, match.squat_type))
    assert len(missed) <= 0.02 * len(micro_world.squat_truth), missed[:10]
    assert not mistyped, mistyped[:10]


# ----------------------------------------------------------------------
# IDN single substitutions: decided without enumerating them
# ----------------------------------------------------------------------

def _enumerated_index(detector):
    """The enumerated label index the substitution rule replaces: every
    ``SquattingGenerator.candidates()`` label, brand-major, first claim
    wins."""
    index = {}
    for brand in detector.catalog:
        for squat_type, labels in detector.generator.candidates(brand).labels.items():
            for label in labels:
                index.setdefault(label, (brand.name, squat_type))
    return index


def _packed(domains):
    builder = PackedZoneBuilder()
    for domain in domains:
        builder.add_name(domain)
    return builder.build()


def _idn_decoys():
    """``xn--`` labels the substitution rule must *not* decide."""
    return [
        label_to_ascii("fàcebооk"),             # two substitutions
        label_to_ascii("gооgle"),
        "xn--" + punycode_encode("fÀcebook"),   # decodes to uppercase
        "xn--" + punycode_encode("pÅypal"),
        label_to_ascii("à"),                    # digits, no basic part
        "xn---0ca",                             # delimiter, empty basic
        "xn--fcebook-8v_",                      # invalid digit
        "xn--fcebook-8v",                       # truncated digits
        "xn--fcebook-8vaa",                     # digits after the last
        "xn--fcebook-8va8va",
        "xn--9999999a",                         # code point out of range
        "xn--a-99999999a",
        label_to_ascii("exämple"),              # substitution of no brand
        "xn--",
    ]


@pytest.fixture(scope="module", params=["full", "dnstwist"])
def paper_idn_detector(request):
    """Paper-catalog detector with the full or the reduced confusables."""
    from repro.brands import build_paper_catalog
    generator = None
    if request.param == "dnstwist":
        generator = SquattingGenerator(
            homograph=HomographModel(confusables=dnstwist_subset()))
    return SquattingDetector(build_paper_catalog(), generator=generator)


# distinct generate_idn A-labels of the paper catalog, full table
PAPER_IDN_LABELS = 80_404


def test_idn_substitutions_resolve_like_the_enumerated_index(
        paper_idn_detector):
    """Every generate_idn A-label of the paper catalog gets the verdict an
    enumerated index gave it — first claiming brand, homograph, no detail —
    on the scalar cascade, classify_batch and packed_scan at two widths."""
    detector = paper_idn_detector
    index = _enumerated_index(detector)
    a_labels = sorted({a_label for brand in detector.catalog
                       for a_label in detector.generator.homograph.generate_idn(
                           brand.core_label)})
    if detector.generator.homograph.confusables is CONFUSABLES:
        assert len(a_labels) == PAPER_IDN_LABELS
    else:
        assert 10_000 < len(a_labels) < PAPER_IDN_LABELS
    expected = {}
    for i, a_label in enumerate(a_labels):
        brand_name, squat_type = index[a_label]
        assert squat_type == SquatType.HOMOGRAPH, a_label
        domain = f"{a_label}.{('com', 'net', 'pw')[i % 3]}"
        expected[domain] = SquatMatch(domain, brand_name, SquatType.HOMOGRAPH)
    domains = sorted(expected)
    for domain in domains:
        assert detector.classify_domain(domain) == expected[domain], domain
    zone = _packed(domains)
    natural = PackedScanContext(detector, zone).width
    for width in (natural, natural + 8):
        context = PackedScanContext(detector, zone, width=width)
        assert context.classify_batch(domains) == [expected[d] for d in domains]
        assert not context.kernel.fallbacks
        assert context.kernel.fast_hits == len(domains)
        scanned = packed_scan(detector, zone, width=width)
        assert {m.domain: m for m in scanned} == expected
        assert len(scanned) == len(expected)


def test_idn_decoys_take_the_same_path_in_rule_and_kernel(
        paper_idn_detector):
    """Labels outside the single-substitution shape miss the rule: the
    scalar cascade reaches _match_idn (or misses), and the kernel sends
    every one to the IDN fallback."""
    detector = paper_idn_detector
    decoys = _idn_decoys()
    domains = [f"{core}.com" for core in decoys]
    hits = 0
    for domain, core in zip(domains, decoys):
        assert detector._idn_substitution_brand(core) is None, core
        idn = detector._match_idn(domain, core)
        if idn is not None:
            assert detector.classify_domain(domain) == idn, core
            hits += 1
    assert hits >= 3  # the decoys do reach the skeleton matcher
    zone = _packed(domains)
    context = PackedScanContext(detector, zone)
    assert context.classify_batch(domains) == \
        [detector.classify_domain(d) for d in domains]
    assert context.kernel.fallbacks == {"idn": len(domains)}
    assert context.kernel.fast_hits == 0
    assert packed_scan(detector, zone) == detector.scan(zone)


def test_idn_rule_requires_the_canonical_a_label():
    """``xn---0ca`` decodes to the same "à" as ``xn--0ca`` but is not its
    A-label, so only the canonical form resolves through the rule."""
    detector = SquattingDetector(BrandCatalog([
        Brand(name="a", domain="a.com"), Brand(name="facebook", domain="facebook.com")]))
    assert detector.classify_domain("xn--0ca.net") == \
        SquatMatch("xn--0ca.net", "a", SquatType.HOMOGRAPH)
    assert detector._idn_substitution_brand("xn---0ca") is None
    fallback = detector._match_idn("xn---0ca.net", "xn---0ca")
    assert fallback is not None and fallback.detail == "idn:à"
    domains = ["xn--0ca.net", "xn---0ca.net", "xn--fcebook-8va.org",
               "xn--0ca.org", "xn---0ca.org"]
    zone = _packed(domains)
    expected = [detector.classify_domain(d) for d in domains]
    assert expected[1] == fallback
    context = PackedScanContext(detector, zone)
    # the second batch answers from the detector's memo
    assert context.classify_batch(domains) == expected
    assert context.classify_batch(domains[::-1]) == expected[::-1]
    assert context.kernel.fallbacks == {"idn": 4}
    assert packed_scan(detector, zone) == detector.scan(zone)


# a small catalog where one confusable can stand for the bases of two
# brands ("0"/"o", "1"/"l", "5"/"s"), so the catalog-rank tie-break shows
_RULE_DETECTOR = SquattingDetector(BrandCatalog([
    Brand(name=name, domain=f"{name}.com")
    for name in ("0", "o", "app1e", "apple", "a", "5", "s", "facebook")]))
_RULE_ORACLE = {label: brand for label, (brand, squat_type)
                in _enumerated_index(_RULE_DETECTOR).items()
                if label.startswith("xn--")}


@st.composite
def _brand_substitutions(draw):
    """Single-confusable substitutions of a catalog label, as the IDN
    generator writes them or with an uppercase code point (a decoy)."""
    label = draw(st.sampled_from(sorted(_RULE_DETECTOR._brand_by_label)))
    i = draw(st.integers(min_value=0, max_value=len(label) - 1))
    variants = sorted(v for v in CONFUSABLES.get(label[i], ())
                      if len(v) == 1 and ord(v) >= 128)
    if not variants:
        return label_to_ascii(label[:i] + "à" + label[i + 1:])
    char = draw(st.sampled_from(variants))
    if draw(st.booleans()):
        char = char.upper()
    return "xn--" + punycode_encode(label[:i] + char + label[i + 1:])


@st.composite
def _single_code_point_encodings(draw):
    basic = draw(st.text(alphabet="abcelpuxyz0189-", max_size=10))
    position = draw(st.integers(min_value=0, max_value=len(basic)))
    point = draw(st.one_of(st.integers(min_value=128, max_value=0x2FF),
                           st.integers(min_value=128, max_value=0x10FFFF)))
    return "xn--" + punycode_encode(basic[:position] + chr(point)
                                    + basic[position:])


_PUNYCODE_BODIES = st.text(alphabet="abkuvz0189-_", max_size=12).map(
    lambda body: "xn--" + body)


def _non_canonical(core):
    """The same decode under a spelling the encoder never writes."""
    body = core[len("xn--"):]
    return "xn---" + body if "-" not in body else core.upper()


@given(st.lists(st.one_of(_brand_substitutions(),
                          _single_code_point_encodings(),
                          _PUNYCODE_BODIES,
                          _brand_substitutions().map(_non_canonical),
                          _brand_substitutions().map(lambda core: core + "a")),
                min_size=1, max_size=12, unique_by=str.lower))
@settings(max_examples=200, deadline=None)
def test_property_idn_rule_equals_enumerated_generator(cores):
    """Over valid and invalid punycode bodies, the substitution rule
    accepts exactly the A-labels the IDN generator enumerates (first
    claiming brand), and the kernel resolves each the same way."""
    detector = _RULE_DETECTOR
    for core in cores:
        assert detector._idn_substitution_brand(core) == \
            _RULE_ORACLE.get(core), core
    domains = [f"{core.lower()}.com" for core in cores]
    context = PackedScanContext(detector, _packed(domains))
    assert context.classify_batch(domains) == \
        [detector.classify_domain(d) for d in domains]
    hits = sum(core.lower() in _RULE_ORACLE for core in cores)
    assert context.kernel.fast_hits == hits
    assert sum(context.kernel.fallbacks.values()) == len(cores) - hits
