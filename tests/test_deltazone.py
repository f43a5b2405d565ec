"""Delta segments, the segmented read protocol, and compaction identity.

The load-bearing invariant (DESIGN.md §14): replaying (base + ordered
deltas) — tombstones first, then net adds in local order — reproduces the
final ordered-dict state of a ``ZoneStore`` fed the raw event sequence,
so :func:`repro.dns.deltazone.compact` is *byte-identical* to packing the
union from scratch.  The Hypothesis test at the bottom hammers exactly
that with random event tapes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns.deltazone import (
    DeltaSegment,
    DeltaSegmentBuilder,
    SegmentedZone,
    compact,
    is_delta_file,
)
from repro.dns.packedzone import (
    PackedZone,
    PackedZoneCorruptError,
    pack_zone,
)
from repro.dns.zone import ZoneStore

BASE_NAMES = [
    ("alpha.com", "1.1.1.1"),
    ("www.alpha.com", "1.1.1.2"),
    ("beta.net", "2.2.2.2"),
    ("gamma.org", "3.3.3.3"),
]


def base_zone(names=BASE_NAMES):
    store = ZoneStore()
    for name, ip in names:
        store.add_name(name, ip=ip)
    return pack_zone(store)


# ----------------------------------------------------------------------
# segment builder semantics
# ----------------------------------------------------------------------

def test_builder_net_add_replaces_in_place():
    builder = DeltaSegmentBuilder()
    builder.add_name("one.com", ip="10.0.0.1")
    builder.add_name("two.com", ip="10.0.0.2")
    builder.add_name("one.com", ip="10.0.0.9")
    segment = builder.build(seq=1, base_digest="x")
    rows = list(segment.rows())
    assert [row[0] for row in rows] == ["one.com", "two.com"]
    assert rows[0][1] == "10.0.0.9"


def test_builder_remove_tombstones_and_drops_net_add():
    builder = DeltaSegmentBuilder()
    builder.add_name("gone.com")
    builder.remove_name("gone.com")
    builder.remove_name("alpha.com")
    segment = builder.build(seq=2, base_digest="x")
    assert len(segment) == 0
    assert segment.tombstones == ["gone.com", "alpha.com"]
    assert segment.seq == 2 and segment.base_digest == "x"


def test_builder_readd_after_remove_keeps_tombstone():
    builder = DeltaSegmentBuilder()
    builder.remove_name("back.com")
    builder.add_name("back.com", ip="10.9.9.9")
    segment = builder.build(seq=1, base_digest="x")
    # the re-add is in the net adds AND the removal is tombstoned, so
    # replay moves the name to the end of the union — ZoneStore order
    assert [row[0] for row in segment.rows()] == ["back.com"]
    assert segment.tombstones == ["back.com"]


def test_segment_file_round_trip(tmp_path):
    builder = DeltaSegmentBuilder()
    builder.add_name("filed.com")
    builder.remove_name("alpha.com")
    path = tmp_path / "seg.pzon"
    written = builder.build(seq=3, base_digest="digest")
    written.save(path)
    loaded = DeltaSegment.load(path)
    assert loaded.seq == written.seq == 3
    assert loaded.tombstones == ["alpha.com"]
    assert loaded.content_digest == written.content_digest
    loaded.verify()
    assert is_delta_file(path)
    base = base_zone()
    base_path = tmp_path / "base.pzon"
    base.save(base_path)
    assert not is_delta_file(base_path)


def test_plain_packed_zone_is_not_a_segment():
    with pytest.raises(ValueError):
        DeltaSegment(base_zone())


# ----------------------------------------------------------------------
# segmented read protocol
# ----------------------------------------------------------------------

def chain_with_changes():
    base = base_zone()
    first = DeltaSegmentBuilder()
    first.add_name("delta.pw", ip="4.4.4.4")
    first.remove_name("beta.net")
    second = DeltaSegmentBuilder()
    second.add_name("login.delta.pw", ip="4.4.4.5")
    second.add_name("alpha.com", ip="9.9.9.9")     # replace in place
    digest = base.content_digest
    return base, [first.build(1, digest), second.build(2, digest)]


def test_segmented_matches_zonestore_replay():
    base, deltas = chain_with_changes()
    segmented = SegmentedZone(base, deltas)
    oracle = ZoneStore()
    for name, ip in BASE_NAMES:
        oracle.add_name(name, ip=ip)
    oracle.add_name("delta.pw", ip="4.4.4.4")
    oracle.remove("beta.net")
    oracle.add_name("login.delta.pw", ip="4.4.4.5")
    oracle.add_name("alpha.com", ip="9.9.9.9")

    assert len(segmented) == len(oracle)
    assert [r.name for r in segmented] == [r.name for r in oracle]
    assert list(segmented.registered_domains()) == \
        list(oracle.registered_domains())
    assert segmented.get("alpha.com").ip == "9.9.9.9"
    assert segmented.get("beta.net") is None
    assert "beta.net" not in segmented
    assert segmented.has_registered_domain("delta.pw")
    assert not segmented.has_registered_domain("beta.net")
    assert segmented.names_under("delta.pw") == \
        ["delta.pw", "login.delta.pw"]
    assert segmented.stats() == oracle.stats()


def test_segmented_digest_and_compaction_identity():
    base, deltas = chain_with_changes()
    segmented = SegmentedZone(base, deltas)
    segmented.verify()
    compacted = segmented.compacted()
    oracle = ZoneStore()
    for record in segmented:
        oracle.add_name(record.name, ip=record.ip, source=record.source)
    assert compacted.to_bytes() == pack_zone(oracle).to_bytes()
    # the chain digest is content-addressed but distinct from the
    # compacted snapshot's digest (computable without replay)
    assert segmented.content_digest != compacted.content_digest
    assert SegmentedZone(base, deltas).content_digest == \
        segmented.content_digest


def test_registered_ids_overlay():
    base, deltas = chain_with_changes()
    segmented = SegmentedZone(base, deltas)
    ids = segmented.registered_ids(
        ["alpha.com", "www.alpha.com", "beta.net", "delta.pw",
         "login.delta.pw", "unknown.io"])
    assert ids[0] == ids[1] >= 0                  # base member, by reg
    assert ids[2] == -1                           # tombstoned base reg
    assert ids[3] == ids[4] >= base.n_registered  # delta-added, synthetic
    assert ids[5] == -1                           # never present


def test_strict_chain_validation():
    base, deltas = chain_with_changes()
    other = base_zone([("different.com", "8.8.8.8")])
    with pytest.raises(ValueError):
        SegmentedZone(other, deltas)              # wrong base digest
    with pytest.raises(ValueError):
        SegmentedZone(base, [deltas[1], deltas[0]])   # out of order
    # strict=False accepts both (the reopen path after compaction)
    assert len(SegmentedZone(other, deltas, strict=False)) > 0


def test_segmented_verify_covers_every_constituent(tmp_path):
    base, deltas = chain_with_changes()
    corrupt = bytearray(deltas[1].zone.to_bytes())
    corrupt[-1] ^= 0xFF
    broken = DeltaSegment(PackedZone.from_bytes(bytes(corrupt)))
    segmented = SegmentedZone(base, [deltas[0], broken], strict=False)
    with pytest.raises(PackedZoneCorruptError):
        segmented.verify()


def test_compact_empty_deltas_is_identity():
    base = base_zone()
    assert compact(base, []) is base


def test_compact_empty_segment_is_byte_identity():
    # a sealed segment with no net adds and no tombstones (every op
    # cancelled inside the window) must not perturb a single byte
    base = base_zone()
    builder = DeltaSegmentBuilder()
    builder.add_name("flash.com", ip="10.0.0.5")
    builder.remove_name("flash.com")
    segment = builder.build(1, base.content_digest)
    assert len(segment) == 0 and segment.tombstones == ["flash.com"]
    compacted = compact(base, [segment])
    # the tombstone names a domain the base never had, so the replayed
    # union is exactly the base
    assert compacted.to_bytes() == base.to_bytes()

    empty = DeltaSegmentBuilder().build(2, base.content_digest)
    assert len(empty) == 0 and empty.tombstones == []
    assert compact(base, [empty]).to_bytes() == base.to_bytes()


def test_tombstone_for_never_registered_domain_is_noop():
    base = base_zone()
    builder = DeltaSegmentBuilder()
    builder.remove_name("never-was-here.io")
    builder.add_name("delta.pw", ip="4.4.4.4")
    segment = builder.build(1, base.content_digest)
    assert "never-was-here.io" in segment.tombstones

    segmented = SegmentedZone(base, [segment])
    oracle = ZoneStore()
    for name, ip in BASE_NAMES:
        oracle.add_name(name, ip=ip)
    oracle.add_name("delta.pw", ip="4.4.4.4")
    assert [r.name for r in segmented] == [r.name for r in oracle]
    assert compact(base, [segment]).to_bytes() == \
        pack_zone(oracle).to_bytes()


def test_reregistration_after_tombstone_within_one_chain():
    # takedown in segment 1, drop-catch in segment 2: the re-registered
    # name must move to the END of the union (ZoneStore re-add order),
    # and compaction must agree with the raw-event oracle byte for byte
    base = base_zone()
    digest = base.content_digest
    first = DeltaSegmentBuilder()
    first.remove_name("beta.net")
    second = DeltaSegmentBuilder()
    second.add_name("beta.net", ip="66.6.6.6")
    segments = [first.build(1, digest), second.build(2, digest)]

    oracle = ZoneStore()
    for name, ip in BASE_NAMES:
        oracle.add_name(name, ip=ip)
    oracle.remove("beta.net")
    oracle.add_name("beta.net", ip="66.6.6.6")

    segmented = SegmentedZone(base, segments)
    assert [r.name for r in segmented] == [r.name for r in oracle]
    assert [r.name for r in segmented][-1] == "beta.net"
    assert segmented.get("beta.net").ip == "66.6.6.6"
    assert compact(base, segments).to_bytes() == pack_zone(oracle).to_bytes()


# ----------------------------------------------------------------------
# Hypothesis: compaction is byte-identical to packing the union
# ----------------------------------------------------------------------

POOL = ["a.com", "www.a.com", "b.net", "login.b.net", "c.org",
        "d.pw", "m.d.pw", "e.xyz"]

ops_strategy = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=len(POOL) - 1)),
    min_size=0, max_size=40)


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy,
       cut=st.integers(min_value=0, max_value=40),
       split=st.integers(min_value=0, max_value=40))
def test_compact_byte_identical_to_union_pack(ops, cut, split):
    """compact(base + deltas) == one PZON snapshot of the replayed union,
    including tombstoned (removed) records, for random event tapes."""
    events = [("add" if is_add else "remove", POOL[idx])
              for is_add, idx in ops]
    cut = min(cut, len(events))
    base_events, stream = events[:cut], events[cut:]
    split = min(split, len(stream))

    base_store = ZoneStore()
    for kind, name in base_events:
        if kind == "add":
            base_store.add_name(name, ip="10.0.0.1")
        elif name in base_store:
            base_store.remove(name)
    base = pack_zone(base_store)

    segments = []
    for chunk in (stream[:split], stream[split:]):
        builder = DeltaSegmentBuilder()
        for kind, name in chunk:
            if kind == "add":
                builder.add_name(name, ip="10.0.0.1")
            else:
                builder.remove_name(name)
        segments.append(builder.build(len(segments) + 1,
                                      base.content_digest))

    oracle = ZoneStore()
    for kind, name in events:
        if kind == "add":
            oracle.add_name(name, ip="10.0.0.1")
        elif name in oracle:
            oracle.remove(name)

    assert compact(base, segments).to_bytes() == pack_zone(oracle).to_bytes()
