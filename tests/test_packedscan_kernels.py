"""In-kernel family matchers: byte-identity against the scalar cascade.

The contract under test (DESIGN.md §16): at any worker count and any
legal forced label width, a packed scan / classify batch produces exactly
the verdicts the per-domain ``SquattingDetector._classify`` cascade
produces — the kernels change throughput and the fallback-rate telemetry,
never a byte of output.
"""

import gc
import pickle
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.brands import build_paper_catalog
from repro.brands.catalog import Brand, BrandCatalog
from repro.dns.packedzone import PackedZoneBuilder
from repro.dns.zone import ZoneStore
from repro.squatting import packedscan
from repro.squatting.bits import (
    EDIT_EQUAL,
    EDIT_INSERTION,
    EDIT_NONE,
    EDIT_OMISSION,
    EDIT_REPETITION,
    EDIT_SUBSTITUTION,
    EDIT_TRANSPOSITION,
    BitsModel,
    edit1_profile,
    edit1_typo_details,
    pack_window_codes,
)
from repro.squatting.combo import ComboModel
from repro.squatting.confusables import CONFUSABLES, ascii_readable_pairs
from repro.squatting.detector import SquattingDetector
from repro.squatting.generator import SquattingGenerator
from repro.squatting.packedscan import (
    PackedScanContext,
    detector_matrices,
    packed_scan,
    packed_scan_counts,
)
from repro.squatting.typo import TypoModel
from repro.squatting.types import SquatType
from repro.stages import digest_squat_matches


# ----------------------------------------------------------------------
# helpers: cached detectors (index builds dominate otherwise)
# ----------------------------------------------------------------------

_DETECTORS = {}


def _detector_for(domains):
    key = tuple(domains)
    detector = _DETECTORS.get(key)
    if detector is None:
        if key == ("paper",):
            detector = SquattingDetector(build_paper_catalog())
        else:
            catalog = BrandCatalog(
                Brand(name=domain.split(".")[0], domain=domain)
                for domain in domains)
            detector = SquattingDetector(catalog)
        if len(_DETECTORS) > 64:
            _DETECTORS.clear()
        _DETECTORS[key] = detector
    return detector


def _paper_detector():
    return _detector_for(("paper",))


def _build_pair(names):
    zone = ZoneStore()
    builder = PackedZoneBuilder()
    for name in names:
        zone.add_name(name)
        builder.add_name(name)
    return zone, builder.build()


# ----------------------------------------------------------------------
# adversarial corpus: every family's near-misses and hits, plus the
# unrepresentable shapes that must fall back
# ----------------------------------------------------------------------

def _adversarial_names():
    detector = _paper_detector()
    brands = sorted(detector._brand_by_label)[:40]
    swaps = {"o": "0", "l": "1", "i": "1", "e": "3", "a": "4", "s": "5",
             "u": "v", "m": "rn", "w": "vv"}
    names = []
    for i, label in enumerate(brands):
        tld = ("com", "net", "org", "pw")[i % 4]
        names.append(f"{label}.{tld}")                  # brand / wrongTLD
        names.append(f"{label}.{tld}.{tld}")            # subdomain of it
        names.append(f"secure-{label}.{tld}")           # combo token
        names.append(f"{label}{'x' * (i % 3 + 1)}.com")  # glued / near-miss
        names.append(f"{label[:4]}{'qz'[i % 2]}tail.com")  # combo-prefix miss
        for src, dst in list(swaps.items())[i % 5:i % 5 + 3]:
            if src in label:
                names.append(label.replace(src, dst, 1) + ".com")  # homograph
        if len(label) > 3:
            names.append(label[:-1] + ".com")           # omission typo
            names.append(label + label[-1] + ".com")    # repetition typo
            names.append(label[1] + label[0] + label[2:] + ".org")  # transpose
    names += [
        "xn--fcebook-8va.com", "xn--pypal-4ve.net", "xn--bogus--junk.com",
        "pаypal.com",                                   # Cyrillic а: unicode
        "plain-organic-name.com", "hyphen-rich-but-benign-name.net",
        "a.com", "ab.net", "-odd-.com",
    ] + [f"organic{i:04d}.com" for i in range(400)]
    return names


def test_kernel_scan_identical_across_workers_and_widths(small_slices):
    pooled = small_slices(256)
    detector = _paper_detector()
    names = _adversarial_names()
    zone, packed = _build_pair(names)
    reference = digest_squat_matches(detector.scan(zone))
    ref_counts = detector.scan_counts(zone)
    natural = PackedScanContext(detector, packed).width
    for workers in (1, 2, 4):
        for width in (None, natural + 5):
            got = packed_scan(detector, packed, workers=workers, width=width)
            assert digest_squat_matches(got) == reference, \
                f"workers={workers} width={width}"
            stats = packedscan.take_last_scan_stats()
            assert stats is not None and stats.rows == packed.n_registered
            assert set(stats.fallbacks) <= {"idn", "unicode"}
            assert packed_scan_counts(detector, packed, workers=workers,
                                      width=width) == ref_counts
    # workers {2, 4} x both widths x (scan, counts): every run a real pool
    assert len(pooled) == 8 and min(pooled) > 1


def test_scan_context_pickles_to_an_identical_context():
    # spawn/forkserver pool workers receive the context pickled
    detector = _paper_detector()
    _zone, packed = _build_pair(_adversarial_names())
    natural = PackedScanContext(detector, packed).width
    context = PackedScanContext(detector, packed, width=natural + 5)
    clone = pickle.loads(pickle.dumps(context))
    assert clone.width == context.width == natural + 5
    n = packed.n_registered
    assert clone.scan_slice(0, n) == context.scan_slice(0, n)
    assert clone.count_slice(0, n) == context.count_slice(0, n)


def test_kernel_fallback_rate_is_small_on_adversarial_corpus():
    detector = _paper_detector()
    _zone, packed = _build_pair(_adversarial_names())
    packed_scan(detector, packed, workers=1)
    stats = packedscan.take_last_scan_stats()
    # the corpus plants a handful of xn--/unicode rows on purpose; the
    # kernel must absorb everything else
    assert 0 < stats.fallback_total < 0.01 * stats.rows
    assert stats.fallback_rate < 0.01


def test_widest_combo_window_matches_scalar_cascade():
    """At the widest legal combo window (8 bytes, one u64 code) the
    prefix-code join still reproduces the scalar cascade; a wider window
    is rejected when the combo model is built."""
    detector = SquattingDetector(
        build_paper_catalog(),
        SquattingGenerator(combo=ComboModel(min_brand_length=8)))
    names = _adversarial_names() + [
        "facebookloginpage.com", "secure-facebook.net", "myfacebook.org",
        "instagramhelp.com", "paypal-verify.com", "xpaypalx.com"]
    zone, packed = _build_pair(names)
    reference = detector.scan(zone)
    assert any(m.squat_type is SquatType.COMBO and m.detail == "substring"
               for m in reference)
    for width in (None, PackedScanContext(detector, packed).width + 3):
        got = packed_scan(detector, packed, workers=1, width=width)
        assert digest_squat_matches(got) == digest_squat_matches(reference)
    with pytest.raises(ValueError, match="min_brand_length"):
        ComboModel(min_brand_length=9)
    with pytest.raises(ValueError, match="min_brand_length"):
        ComboModel(min_brand_length=0)


def test_take_last_scan_stats_consumed_on_read():
    detector = _paper_detector()
    _zone, packed = _build_pair(["facebook.com", "faceb00k.com", "x.com"])
    packed_scan(detector, packed)
    assert packedscan.take_last_scan_stats() is not None
    assert packedscan.take_last_scan_stats() is None


def test_dict_scan_clears_stale_kernel_stats():
    detector = _paper_detector()
    zone, packed = _build_pair(["facebook.com", "faceb00k.com"])
    packed_scan(detector, packed)
    detector.scan_sharded(zone, workers=1)  # dict-backed: no kernel stats
    assert packedscan.take_last_scan_stats() is None


def test_classify_batch_identical_to_classify_domain():
    detector = _paper_detector()
    _zone, packed = _build_pair(["anchor.com"])
    queries = _adversarial_names()[:300] + [
        "FACEBOOK.COM.", "www.facebook.com", "login.faceb00k.net",
        ".com", "com", "", "a" * 100 + ".com", "pаypal.com",
    ]
    context = PackedScanContext(detector, packed)
    got = context.classify_batch(queries)
    expected = [detector.classify_domain(query) for query in queries]
    assert got == expected
    # the over-width and empty queries were counted as unrepresentable
    assert context.kernel.fallbacks.get("width", 0) >= 1
    assert context.kernel.fallbacks.get("empty", 0) >= 1


# ----------------------------------------------------------------------
# matrices cache: one build per (detector, width), dying with the detector
# ----------------------------------------------------------------------

def _small_catalog():
    return BrandCatalog(Brand(name=domain.split(".")[0], domain=domain)
                        for domain in ("facebook.com", "paypal.com"))


def test_matrices_reused_per_detector_and_width():
    detector = SquattingDetector(_small_catalog())
    _zone, packed = _build_pair(["faceb00k.com", "paypa1.net", "x.org"])
    first = PackedScanContext(detector, packed).matrices
    assert PackedScanContext(detector, packed).matrices is first
    assert detector_matrices(detector, first.width) is first
    assert detector_matrices(detector, first.width + 3) is not first


def test_matrices_die_with_their_detector():
    _zone, packed = _build_pair(["faceb00k.com", "paypa1.net", "x.org"])
    refs = []
    for _ in range(3):
        detector = SquattingDetector(_small_catalog())
        context = PackedScanContext(detector, packed)
        context.scan_slice(0, packed.n_registered)
        refs.append(weakref.ref(context.matrices))
        refs.append(weakref.ref(detector_matrices(detector, 40)))
    del detector, context
    gc.collect()
    assert not [ref for ref in refs if ref() is not None]


# ----------------------------------------------------------------------
# property: random catalogs × adversarial mutations stay byte-identical
# ----------------------------------------------------------------------

_BRAND_CORES = st.from_regex(r"[a-z]{4,9}", fullmatch=True)
_TLDS = ("com", "net", "org", "pw")


@st.composite
def _catalog_and_names(draw):
    cores = draw(st.lists(_BRAND_CORES, min_size=1, max_size=3, unique=True))
    domains = tuple(f"{core}.{_TLDS[i % 2]}" for i, core in enumerate(cores))
    names = []
    n_names = draw(st.integers(min_value=1, max_value=25))
    for _ in range(n_names):
        choice = draw(st.integers(min_value=0, max_value=9))
        core = draw(st.sampled_from(cores))
        tld = draw(st.sampled_from(_TLDS))
        index = draw(st.integers(min_value=0, max_value=len(core) - 1))
        char = draw(st.sampled_from("abz019-"))
        if choice == 0:
            name = f"{core}.{tld}"                          # brand/wrongTLD
        elif choice == 1:
            name = core[:index] + char + core[index + 1:] + "." + tld
        elif choice == 2:
            name = core[:index] + core[index:index + 1] * 2 \
                + core[index + 1:] + "." + tld               # repetition
        elif choice == 3:
            name = core[:index] + core[index + 1:] + "." + tld  # omission
        elif choice == 4:
            name = f"{draw(st.sampled_from(['my', 'secure', 'x']))}-{core}.{tld}"
        elif choice == 5:
            name = f"{core}{draw(_BRAND_CORES)}.{tld}"       # glued combo
        elif choice == 6:
            name = core.replace("o", "0").replace("l", "1") + "." + tld
        elif choice == 7:
            name = draw(st.from_regex(r"[a-z][a-z0-9-]{1,14}[a-z0-9]",
                                      fullmatch=True)) + "." + tld
        elif choice == 8:
            name = f"xn--{core}-8va.{tld}"                   # punycode-ish
        else:
            name = f"www.{core}.{tld}"                       # subdomain
        if ".." not in name and not name.startswith("-"):
            names.append(name)
    return domains, names or [f"{cores[0]}.com"]


@given(_catalog_and_names())
@settings(max_examples=30, deadline=None)
def test_property_kernel_equals_scalar_cascade(case):
    domains, names = case
    detector = _detector_for(domains)
    zone, packed = _build_pair(names)
    reference = detector.scan(zone)
    natural = PackedScanContext(detector, packed).width
    for width in (None, natural + 3):
        got = packed_scan(detector, packed, workers=1, width=width)
        assert digest_squat_matches(got) == digest_squat_matches(reference)
    context = PackedScanContext(detector, packed)
    queries = sorted(set(names))
    assert context.classify_batch(queries) == \
        [detector.classify_domain(query) for query in queries]


# ----------------------------------------------------------------------
# property: homograph-heavy names over the paper catalog's buckets
# ----------------------------------------------------------------------

_READS_AS = {}
for _variant, _base in ascii_readable_pairs():
    _READS_AS.setdefault(_base, []).append(_variant)
# multi-character ASCII confusables: a name using one is one byte longer
# than the brand label, so only a marker's scalar DP can match it
_WIDE = {base: [v for v in variants if len(v) > 1 and v.isascii()]
         for base, variants in CONFUSABLES.items()}
_BUCKET_SHAPES = {}


def _reads_as(char):
    return {char, *_READS_AS.get(char, ())}


def _may_contain(label):
    """Characters a homograph of ``label`` can hold (its own and every
    confusable variant's), as the marker masks are defined."""
    chars = set(label)
    for base in label:
        for variant in CONFUSABLES.get(base, ()):
            chars.update(variant)
    return chars


def _walk(core):
    """The scalar bucket walk's candidate order for a core label."""
    buckets = _paper_detector()._homograph_buckets
    for key in ((len(core), 0, core[0]), (len(core), 1, core[-1])):
        for label in dict.fromkeys(buckets.get(key, ())):
            if len(label) <= len(core):
                yield label


def _first_stop_is_marker(core):
    """Whether the first label of the walk that can stop ``core`` is a
    marker (shorter or non-ASCII) rather than an equal-length candidate
    ``core`` reads as positionwise: the former costs one scalar assist."""
    for label in _walk(core):
        if len(label) == len(core) and label.isascii():
            if all(x in _reads_as(y) for x, y in zip(core, label)):
                return False
        elif set(core) <= _may_contain(label):
            return True
    return False


def _bucket_shapes():
    """From the paper catalog's scalar buckets: markers that precede an
    equal-length candidate, and (marker, candidate) pairs where a name
    can both fit the marker and read as the candidate, with the choices
    at each position of such a name."""
    if not _BUCKET_SHAPES:
        buckets = _paper_detector()._homograph_buckets
        markers, doubles = set(), set()
        for (length, edge, _char), labels in buckets.items():
            walk = [label for label in dict.fromkeys(labels)
                    if len(label) <= length]
            for i, marker in enumerate(walk):
                if len(marker) != length - 1 or len(marker) < 2:
                    continue
                for later in walk[i + 1:]:
                    if len(later) != length:
                        continue
                    markers.add(marker)
                    choices = [sorted(_reads_as(y) & _may_contain(marker))
                               for y in later]
                    pin = 0 if edge == 0 else length - 1
                    choices[pin] = [later[pin]]
                    if all(choices):
                        doubles.add(tuple("".join(c) for c in choices))
        _BUCKET_SHAPES["markers"] = sorted(markers)
        _BUCKET_SHAPES["doubles"] = sorted(doubles)
    return _BUCKET_SHAPES


@st.composite
def _homograph_names(draw):
    brands = sorted(_paper_detector()._brand_by_label)
    shapes = _bucket_shapes()
    names = []
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        shape = draw(st.integers(min_value=0, max_value=3))
        if shape == 0:
            # interior rotated inside its (length, first/last byte) bucket
            label = draw(st.sampled_from([b for b in brands if len(b) >= 4]))
            mid = label[1:-1]
            k = draw(st.integers(min_value=1, max_value=len(mid) - 1))
            label = label[0] + mid[k:] + mid[:k] + label[-1]
        elif shape == 1:
            label = draw(st.sampled_from(brands))
        elif shape == 2:
            # one byte longer than a marker that precedes an equal-length
            # candidate, every byte inside the marker's mask: a wide
            # confusable where the label has one, else a doubled byte
            label = draw(st.sampled_from(shapes["markers"]))
            wide = [i for i, c in enumerate(label) if _WIDE.get(c)]
            if wide:
                i = draw(st.sampled_from(wide))
                label = label[:i] + draw(st.sampled_from(_WIDE[label[i]])) \
                    + label[i + 1:]
            else:
                i = draw(st.integers(min_value=1, max_value=len(label) - 1))
                label = label[:i] + label[i] + label[i:]
        else:
            # fits a marker and reads as a later candidate: two stops
            label = "".join(draw(st.sampled_from(choices)) for choices
                            in draw(st.sampled_from(shapes["doubles"])))
        # readable-pair substitutions (a brand label gets at least one)
        for _ in range(draw(st.integers(min_value=int(shape == 1),
                                        max_value=2 if shape < 3 else 0))):
            spots = [i for i, c in enumerate(label) if c in _READS_AS]
            if not spots:
                break
            i = draw(st.sampled_from(spots))
            label = label[:i] + draw(st.sampled_from(_READS_AS[label[i]])) \
                + label[i + 1:]
        names.append(f"{label}.{draw(st.sampled_from(_TLDS))}")
    return names


@given(_homograph_names())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_property_homograph_kernel_equals_scalar_cascade(names):
    """The padded-bucket broadcast keeps the scalar walk's first stop:
    rotations, readable substitutions, marker-fitting and two-stop names
    decide exactly as ``_classify`` does, at natural and wider widths and
    through ``classify_batch``, and exactly the rows whose first stop is
    a marker take the scalar assist."""
    detector = _paper_detector()
    zone, packed = _build_pair(names)
    reference = digest_squat_matches(detector.scan(zone))
    natural = PackedScanContext(detector, packed).width
    for width in (None, natural + 8):
        got = packed_scan(detector, packed, workers=1, width=width)
        assert digest_squat_matches(got) == reference
    # cores the cascade hands to step 3: not a brand label or an
    # enumerated candidate (every generated core is ASCII, no xn--)
    cores = {name.split(".")[0] for name in names}
    step3 = [core for core in cores
             if core not in detector._brand_by_label
             and detector._label_index.lookup(core) is None]
    assert packedscan.take_last_scan_stats().homograph_assists == \
        sum(map(_first_stop_is_marker, step3))
    queries = sorted(set(names))
    assert PackedScanContext(detector, packed).classify_batch(queries) == \
        [detector.classify_domain(query) for query in queries]


# ----------------------------------------------------------------------
# the bit-parallel edit-distance kernel against its scalar oracles
# ----------------------------------------------------------------------

def _pack_labels(labels, width=None):
    width = width or max((len(label) for label in labels), default=1)
    padded = np.zeros((len(labels), width), dtype=np.uint8)
    lens = np.zeros(len(labels), dtype=np.int64)
    for i, label in enumerate(labels):
        raw = label.encode("utf-8")
        padded[i, :len(raw)] = np.frombuffer(raw, dtype=np.uint8)
        lens[i] = len(raw)
    return padded, lens


def test_pack_window_codes_values_and_bounds():
    padded, _ = _pack_labels(["abcd", "ab"])
    codes = pack_window_codes(padded, 2)
    assert codes.shape == (2, 3)
    assert codes[0, 0] == (ord("a") << 8) | ord("b")
    assert codes[1, 1] == (ord("b") << 8)  # window into the NUL padding
    with pytest.raises(ValueError):
        pack_window_codes(padded, 9)
    with pytest.raises(ValueError):
        pack_window_codes(padded, 0)


def test_edit1_profile_known_relations():
    target = "facebook"
    labels = ["facebook", "faceb00k", "facebok", "ffacebook", "faceebook",
              "fcaebook", "facebooks", "gacebook", "totally-else", "faceboko"]
    padded, lens = _pack_labels(labels)
    codes, pos = edit1_profile(padded, lens, target)
    assert codes[0] == EDIT_EQUAL
    assert codes[1] == EDIT_NONE           # two substitutions
    assert codes[2] == EDIT_OMISSION and pos[2] == 6
    assert codes[3] == EDIT_REPETITION and pos[3] == 1
    assert codes[4] == EDIT_REPETITION
    assert codes[5] == EDIT_TRANSPOSITION and pos[5] == 1
    assert codes[6] == EDIT_INSERTION and pos[6] == 8
    assert codes[7] == EDIT_SUBSTITUTION and pos[7] == 0
    assert codes[8] == EDIT_NONE
    assert codes[9] == EDIT_TRANSPOSITION and pos[9] == 6


def test_edit1_profile_rejects_over_64_byte_targets():
    padded, lens = _pack_labels(["abc"])
    with pytest.raises(ValueError):
        edit1_profile(padded, lens, "a" * 64)


_LABELS = st.lists(st.from_regex(r"[a-z0-9-]{1,12}", fullmatch=True),
                   min_size=1, max_size=30)
_TARGETS = st.from_regex(r"[a-z0-9]{1,10}", fullmatch=True)


@given(_LABELS, _TARGETS)
@settings(max_examples=60, deadline=None)
def test_property_edit1_matches_typo_and_bits_models(labels, target):
    typo = TypoModel()
    bits = BitsModel()
    padded, lens = _pack_labels(labels, width=14)
    assert edit1_typo_details(padded, lens, target) == \
        [typo.matches(label, target) for label in labels]
    assert bits.matches_batch(padded, lens, target) == \
        [bits.matches(label, target) for label in labels]


@given(_TARGETS, st.integers(min_value=0, max_value=11),
       st.sampled_from("abz09-"))
@settings(max_examples=60, deadline=None)
def test_property_edit1_detects_planted_edits(target, index, char):
    index = index % (len(target) + 1)
    planted = [
        target,                                        # EQUAL
        target[:index] + char + target[index:],        # insertion family
    ]
    if index < len(target):
        planted.append(target[:index] + target[index + 1:])   # omission
        planted.append(target[:index] + char + target[index + 1:])
    padded, lens = _pack_labels(planted, width=12)
    codes, _pos = edit1_profile(padded, lens, target)
    assert codes[0] == EDIT_EQUAL
    assert codes[1] in (EDIT_INSERTION, EDIT_REPETITION)
    if index < len(target):
        assert codes[2] in (EDIT_OMISSION, EDIT_EQUAL)
        assert codes[3] in (EDIT_SUBSTITUTION, EDIT_EQUAL)


# ----------------------------------------------------------------------
# typo model satellites: memoized insertions, O(len) repetition check
# ----------------------------------------------------------------------

def test_keyboard_insertions_memoized_and_copied():
    model = TypoModel()
    first = model.keyboard_insertions("facebook")
    second = model.keyboard_insertions("facebook")
    assert first == second and first is not second  # defensive copies
    first.append("tampered")
    assert model.keyboard_insertions("facebook") == second


def test_matches_length_delta_short_circuit():
    model = TypoModel()
    assert model.matches("facebookxx", "facebook") is None
    assert model.matches("facebo", "facebook") is None
    assert model.matches("facebook", "facebook") is None


@given(_TARGETS, st.integers(min_value=0, max_value=9))
@settings(max_examples=60, deadline=None)
def test_property_is_repetition_equals_bruteforce(target, index):
    index = index % len(target)
    label = target[:index] + target[index] + target[index:]
    brute = any(target[:i] + target[i] + target[i:] == label
                for i in range(len(target)))
    assert TypoModel._is_repetition(label, target) == brute
    # and a genuine non-repetition stays rejected
    assert not TypoModel._is_repetition(target + "#", target)


def test_survivor_mix_kernel_stats_unchanged(monkeypatch):
    """The ledger's survivor-heavy mix keeps its kernel accounting: the
    enumerated IDN squats in it still resolve as fast hits, and only the
    ``xn--`` near-misses reach the IDN fallback."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import bench_ledger
    catalog = build_paper_catalog()
    names = bench_ledger.synth_survivor_names(20_000, catalog)
    detector = SquattingDetector(catalog)
    packed_scan(detector, bench_ledger.build_packed_zone(names), workers=1)
    stats = packedscan.take_last_scan_stats()
    assert (stats.rows, stats.survivors, stats.fast_hits) == \
        (19_008, 12_124, 1_273)
    # a homograph walk that reorders first stops changes this count even
    # where the verdicts still agree
    assert stats.homograph_assists == 27
    assert stats.fallbacks == {"idn": 38}
