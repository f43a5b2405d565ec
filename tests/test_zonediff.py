"""The vectorized snapshot-diff kernel vs its dict-set oracle.

The load-bearing invariant (DESIGN.md §15): for any two packed
snapshots, :func:`repro.dns.zonediff.diff_packed` produces a DiffTable
byte-identical (digest equality) to the serial dict-set oracle
:func:`repro.dns.zonediff.diff_serial`; and for *evolution pairs*
(B never re-adds a name A lost — re-adds live in the delta layer,
DESIGN.md §14), applying the table to A reconstructs B byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dns.packedzone import pack_zone
from repro.dns.zone import ZoneStore
from repro.dns.zonediff import (
    ADDED,
    CHANGED,
    REMOVED,
    RETAINED,
    STATUS_NAMES,
    DiffTable,
    apply_diff,
    diff_packed,
    diff_serial,
)


def packed(rows):
    store = ZoneStore()
    for name, ip in rows:
        store.add_name(name, ip=ip)
    return pack_zone(store)


A_ROWS = [
    ("kept.com", "1.1.1.1"),
    ("www.kept.com", "1.1.1.2"),
    ("gone.net", "2.2.2.2"),
    ("moved.org", "3.3.3.3"),
    ("shrunk.pw", "4.4.4.4"),
    ("sub.shrunk.pw", "4.4.4.5"),
]

B_ROWS = [
    ("kept.com", "1.1.1.1"),
    ("www.kept.com", "1.1.1.2"),
    ("moved.org", "9.9.9.9"),          # IP rewrite -> changed
    ("shrunk.pw", "4.4.4.4"),          # lost its subdomain -> changed
    ("fresh.xyz", "5.5.5.5"),          # -> added
]


def test_statuses_match_hand_classification():
    diff = diff_packed(packed(A_ROWS), packed(B_ROWS))
    by_status = {STATUS_NAMES[code]: set(diff.domains_with_status(code))
                 for code in (RETAINED, CHANGED, ADDED, REMOVED)}
    assert by_status["retained"] == {"kept.com"}
    assert by_status["changed"] == {"moved.org", "shrunk.pw"}
    assert by_status["removed"] == {"gone.net"}
    assert by_status["added"] == {"fresh.xyz"}


def test_counts_cover_domains_and_record_ops():
    diff = diff_packed(packed(A_ROWS), packed(B_ROWS))
    counts = diff.counts()
    assert counts["retained"] == 1 and counts["changed"] == 2
    assert counts["removed"] == 1 and counts["added"] == 1
    assert counts["records_removed"] == 2     # gone.net, sub.shrunk.pw
    assert counts["records_changed"] == 1     # moved.org's IP
    assert counts["records_added"] == 1       # fresh.xyz
    assert diff.n_domains == sum(
        counts[STATUS_NAMES[code]]
        for code in (RETAINED, CHANGED, ADDED, REMOVED))


def test_kernel_matches_oracle_digest():
    zone_a, zone_b = packed(A_ROWS), packed(B_ROWS)
    assert diff_packed(zone_a, zone_b).digest == \
        diff_serial(zone_a, zone_b).digest


def test_empty_and_identical_edge_cases():
    empty, full = packed([]), packed(A_ROWS)
    for zone_a, zone_b in ((empty, empty), (empty, full),
                           (full, empty), (full, full)):
        kernel = diff_packed(zone_a, zone_b)
        assert kernel.digest == diff_serial(zone_a, zone_b).digest
    same = diff_packed(full, packed(A_ROWS))
    assert {name for name, _status in same.domains()} == \
        set(same.domains_with_status(RETAINED))


def test_diff_is_direction_sensitive():
    zone_a, zone_b = packed(A_ROWS), packed(B_ROWS)
    forward = diff_packed(zone_a, zone_b)
    backward = diff_packed(zone_b, zone_a)
    assert forward.digest != backward.digest
    assert set(forward.domains_with_status(ADDED)) == \
        set(backward.domains_with_status(REMOVED))


def test_diff_serial_is_format_blind():
    zone_a, zone_b = packed(A_ROWS), packed(B_ROWS)
    store_a = ZoneStore()
    for name, ip in A_ROWS:
        store_a.add_name(name, ip=ip)
    assert diff_packed(zone_a, zone_b).digest == \
        diff_serial(store_a, zone_b).digest


def test_extra_ip_rows_compare_by_full_ip_string():
    # non-IPv4 addresses live in the extra-IP sidecar with a zero u32
    # column — the whole-column compare sees both sides equal, so the
    # kernel must recheck those rows against the decoded strings
    store_a, store_b = ZoneStore(), ZoneStore()
    for store, v6 in ((store_a, "2001:db8::1"), (store_b, "2001:db8::2")):
        store.add_name("dual.com", ip=v6)
        store.add_name("plain.net", ip="1.2.3.4")
    zone_a, zone_b = pack_zone(store_a), pack_zone(store_b)
    kernel = diff_packed(zone_a, zone_b)
    assert set(kernel.domains_with_status(CHANGED)) == {"dual.com"}
    assert set(kernel.domains_with_status(RETAINED)) == {"plain.net"}
    assert kernel.digest == diff_serial(zone_a, zone_b).digest


def test_apply_diff_reconstructs_b():
    zone_a, zone_b = packed(A_ROWS), packed(B_ROWS)
    diff = diff_packed(zone_a, zone_b)
    assert apply_diff(zone_a, diff).to_bytes() == zone_b.to_bytes()


def test_difftable_from_rows_roundtrip():
    table = DiffTable.from_rows(
        [("a.com", RETAINED), ("b.net", REMOVED)],
        removed_names=["b.net"], changed_records=[], added_records=[])
    assert table.n_domains == 2
    assert table.domain_at(0) == "a.com"
    assert list(table.domains()) == [("a.com", RETAINED), ("b.net", REMOVED)]
    assert table.status.dtype == np.uint8


# ----------------------------------------------------------------------
# Hypothesis: the patch property over random evolution pairs
# ----------------------------------------------------------------------

POOL = ["a.com", "www.a.com", "b.net", "login.b.net", "c.org",
        "d.pw", "m.d.pw", "e.xyz", "f.top", "g.site"]
IPS = ["10.0.0.1", "10.0.0.2", "172.16.0.9", "192.0.2.77"]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_patch_reconstructs_b_byte_identically(data):
    """For random evolution pairs (B never re-adds a removed name),
    apply_diff(A, diff(A, B)) == B, pack digest equality — and the
    kernel and oracle agree on the diff itself."""
    a_idx = data.draw(st.lists(
        st.integers(min_value=0, max_value=len(POOL) - 1),
        min_size=0, max_size=len(POOL), unique=True))
    a_rows = [(POOL[i], IPS[data.draw(st.integers(0, len(IPS) - 1))])
              for i in a_idx]
    removed = {name for name, _ip in a_rows
               if data.draw(st.booleans())}
    rewritten = {name: IPS[data.draw(st.integers(0, len(IPS) - 1))]
                 for name, _ip in a_rows
                 if name not in removed and data.draw(st.booleans())}
    # additions come from outside A, so nothing removed is ever re-added
    outside = [name for name in POOL if name not in {n for n, _ in a_rows}]
    added = [(name, IPS[data.draw(st.integers(0, len(IPS) - 1))])
             for name in outside if data.draw(st.booleans())]

    b_rows = [(name, rewritten.get(name, ip)) for name, ip in a_rows
              if name not in removed] + added
    zone_a, zone_b = packed(a_rows), packed(b_rows)

    kernel = diff_packed(zone_a, zone_b)
    assert kernel.digest == diff_serial(zone_a, zone_b).digest
    patched = apply_diff(zone_a, kernel)
    assert patched.to_bytes() == zone_b.to_bytes()
    assert patched.content_digest == zone_b.content_digest
