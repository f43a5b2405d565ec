"""Vectorized PZON snapshot diffing: the longitudinal hot path.

The lifecycle analyses (squat survival, re-registration, weaponization)
consume *differences* between consecutive dated snapshots.  A dict-set
diff materializes every name of both snapshots as a Python string and
set-subtracts millions of them per pair; this module turns the diff into
a pure vectorized merge over the packed columns instead:

* record names are gathered from the interned ``name_blob`` into one
  fixed-width ``S``-dtype key column per snapshot (chunked gather, no
  per-record Python), stable-argsorted once, and hash-joined with a
  single ``searchsorted`` — names only in A are removals, names only in
  B are additions;
* records present in both snapshots compare IP / record-type / source as
  whole-column equality over the shared intern ids (rare non-canonical
  IPs — the ``extra_ips`` sidecar — fall back to a tiny Python loop over
  just the suspect rows);
* registered domains join the same way on reconstructed
  ``core.tld`` keys, and each common domain is flagged **changed** when
  any record beneath it was added, removed, or rewritten — derived with
  ``bincount`` scatters, never by walking domains.

The output is a columnar :class:`DiffTable`: one status byte per
registered domain of the union (retained / changed / added / removed) in
canonical order — A's first-seen order, then B-only domains in B's
first-seen order — plus the record-level patch ops, and a canonical
digest over the lot.  :func:`diff_serial` is the dict-set oracle: the
same table built from plain Python dicts, byte-identical digest, kept
forever as the equivalence baseline (DESIGN.md §15).

:func:`apply_diff` replays a table as a patch.  For *evolution pairs* —
B reachable from A by ZoneStore mutations that never re-add a name after
removing it (re-adds move the name to the end of the dict, which a
snapshot-level diff cannot observe) — ``apply_diff(a, diff)`` rebuilds
B's pack byte-identically.  The delta layer (DESIGN.md §14) carries
tombstone ordering for exactly the cases a snapshot diff cannot.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.dns.packedzone import PackedZone, PackedZoneBuilder, pack_zone
from repro.dns.records import split_domain

# Domain statuses, in digest-canonical order.
RETAINED = 0
CHANGED = 1
ADDED = 2
REMOVED = 3

STATUS_NAMES = ("retained", "changed", "added", "removed")

# Rows per gather chunk: bounds the int64 index matrix to a few tens of
# MB at any realistic name width while keeping the Python loop at
# ~16 iterations per million records.
_GATHER_CHUNK = 65_536

RecordOp = Tuple[str, str, str, str]        # name, ip, record_type, source


class DiffTable:
    """Columnar two-snapshot diff: one status byte per union domain.

    ``reg_keys`` holds every registered domain of the union as
    NUL-padded fixed-width bytes (A's first-seen order, then B-only
    domains in B's first-seen order); ``status`` is the parallel
    status column.  Record-level patch ops ride along as small Python
    lists — they scale with churn, not snapshot size.
    """

    def __init__(self, reg_keys: np.ndarray, status: np.ndarray,
                 removed_names: List[str],
                 changed_records: List[RecordOp],
                 added_records: List[RecordOp]) -> None:
        if reg_keys.shape != status.shape:
            raise ValueError("reg_keys and status must be parallel columns")
        self.reg_keys = reg_keys
        self.status = status
        self.removed_names = removed_names
        self.changed_records = changed_records
        self.added_records = added_records
        self._digest: Optional[str] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Sequence[Tuple[str, int]],
                  removed_names: List[str],
                  changed_records: List[RecordOp],
                  added_records: List[RecordOp]) -> "DiffTable":
        """Build from decoded ``(domain, status)`` rows (the oracle path).

        The key width is the maximum encoded domain length over the
        table — a pure function of the content, so the vectorized kernel
        lands on the same width and the same bytes.
        """
        encoded = [domain.encode("utf-8") for domain, _ in rows]
        width = max((len(raw) for raw in encoded), default=1) or 1
        reg_keys = np.array(encoded, dtype=np.dtype(f"S{width}")) \
            if encoded else np.zeros(0, dtype=np.dtype(f"S{width}"))
        status = np.fromiter((status for _, status in rows),
                             dtype=np.uint8, count=len(rows))
        return cls(reg_keys, status, removed_names,
                   changed_records, added_records)

    # ------------------------------------------------------------------
    @property
    def n_domains(self) -> int:
        return int(self.status.size)

    @property
    def width(self) -> int:
        return self.reg_keys.dtype.itemsize

    def counts(self) -> Dict[str, int]:
        """Domain tally per status (plus the record-op tallies)."""
        tally = np.bincount(self.status, minlength=4)
        out = {name: int(tally[code])
               for code, name in enumerate(STATUS_NAMES)}
        out["records_removed"] = len(self.removed_names)
        out["records_changed"] = len(self.changed_records)
        out["records_added"] = len(self.added_records)
        return out

    def domain_at(self, i: int) -> str:
        return bytes(self.reg_keys[i]).decode("utf-8")

    def domains(self) -> Iterator[Tuple[str, int]]:
        """Decoded ``(domain, status)`` rows in canonical order."""
        for i in range(self.n_domains):
            yield self.domain_at(i), int(self.status[i])

    def domains_with_status(self, status: int) -> List[str]:
        """Decoded domains carrying ``status`` — churn-sized for
        everything but RETAINED."""
        rows = np.nonzero(self.status == status)[0]
        return [self.domain_at(int(i)) for i in rows]

    # ------------------------------------------------------------------
    @property
    def digest(self) -> str:
        """Canonical content digest over the status column and patch ops.

        Hashes the raw key/status bytes (width is content-determined,
        see :meth:`from_rows`), so the kernel never decodes a retained
        domain just to digest it.
        """
        if self._digest is None:
            hasher = hashlib.sha256()
            hasher.update(b"zone-diff\n")
            hasher.update(
                f"domains:{self.n_domains}|width:{self.width}\n".encode())
            hasher.update(self.reg_keys.tobytes())
            hasher.update(self.status.tobytes())
            for name in self.removed_names:
                hasher.update(f"-|{name}\n".encode("utf-8"))
            for op in self.changed_records:
                hasher.update(f"~|{'|'.join(op)}\n".encode("utf-8"))
            for op in self.added_records:
                hasher.update(f"+|{'|'.join(op)}\n".encode("utf-8"))
            self._digest = hasher.hexdigest()
        return self._digest


# ----------------------------------------------------------------------
# fixed-width key columns (shared by both join levels)
# ----------------------------------------------------------------------

def _record_key_width(zone: PackedZone) -> int:
    """Longest record-name byte length (the join key width)."""
    if zone.n_records == 0:
        return 1
    lens = np.diff(zone.name_off.astype(np.int64))
    return max(int(lens.max()), 1)


def _record_name_keys(zone: PackedZone, width: int) -> np.ndarray:
    """Every record name as one NUL-padded ``S{width}`` key, record order.

    Chunked blob gather: the index matrix is rebuilt per chunk so its
    footprint stays bounded while the fill itself is whole-column numpy.
    """
    n = zone.n_records
    keys = np.zeros(n, dtype=np.dtype(f"S{width}"))
    if n == 0:
        return keys
    out = keys.view(np.uint8).reshape(n, width)
    off = zone.name_off.astype(np.int64)
    lens = np.diff(off)
    blob = zone.name_blob
    cols = np.arange(width, dtype=np.int64)
    for start in range(0, n, _GATHER_CHUNK):
        stop = min(start + _GATHER_CHUNK, n)
        idx = off[start:stop, None] + cols[None, :]
        np.minimum(idx, blob.size - 1, out=idx)
        gathered = blob[idx]
        mask = cols[None, :] < lens[start:stop, None]
        out[start:stop][mask] = gathered[mask]
    return keys


def _reg_key_width(zone: PackedZone) -> int:
    """Longest registered-domain ("core.tld") byte length."""
    if zone.n_registered == 0:
        return 1
    core_lens = np.diff(zone.core_off.astype(np.int64))
    tld_lens = np.array(
        [len(tld.encode("utf-8")) + 1 if tld else 0 for tld in zone.tlds],
        dtype=np.int64)
    total = core_lens[zone.reg_core.astype(np.int64)]
    if tld_lens.size:
        total = total + tld_lens[zone.reg_tld.astype(np.int64)]
    return max(int(total.max()), 1)


def _reg_name_keys(zone: PackedZone, width: int) -> np.ndarray:
    """Every registered domain as one ``S{width}`` key, first-seen order.

    The core label gathers from ``core_blob`` exactly like the record
    keys; the (few, interned) TLDs scatter in behind a ``"."`` from a
    small padded matrix.
    """
    n = zone.n_registered
    keys = np.zeros(n, dtype=np.dtype(f"S{width}"))
    if n == 0:
        return keys
    out = keys.view(np.uint8).reshape(n, width)
    core = zone.reg_core.astype(np.int64)
    core_off = zone.core_off.astype(np.int64)
    core_lens = np.diff(core_off)[core]
    blob = zone.core_blob
    cols = np.arange(width, dtype=np.int64)
    for start in range(0, n, _GATHER_CHUNK):
        stop = min(start + _GATHER_CHUNK, n)
        idx = core_off[core[start:stop], None] + cols[None, :]
        np.minimum(idx, max(blob.size - 1, 0), out=idx)
        gathered = blob[idx] if blob.size else np.zeros(
            (stop - start, width), dtype=np.uint8)
        mask = cols[None, :] < core_lens[start:stop, None]
        out[start:stop][mask] = gathered[mask]

    tld_bytes = [b"." + tld.encode("utf-8") if tld else b""
                 for tld in zone.tlds]
    max_tld = max((len(raw) for raw in tld_bytes), default=0)
    if max_tld:
        tld_matrix = np.zeros((len(tld_bytes), max_tld), dtype=np.uint8)
        for i, raw in enumerate(tld_bytes):
            tld_matrix[i, :len(raw)] = np.frombuffer(raw, dtype=np.uint8)
        tld_lens = np.array([len(raw) for raw in tld_bytes], dtype=np.int64)
        tcols = np.arange(max_tld, dtype=np.int64)
        tld_ids = zone.reg_tld.astype(np.int64)
        for start in range(0, n, _GATHER_CHUNK):
            stop = min(start + _GATHER_CHUNK, n)
            ids = tld_ids[start:stop]
            dest = core_lens[start:stop, None] + tcols[None, :]
            valid = tcols[None, :] < tld_lens[ids, None]
            rows = np.broadcast_to(
                np.arange(start, stop, dtype=np.int64)[:, None], dest.shape)
            out[rows[valid], dest[valid]] = tld_matrix[ids][valid]
    return keys


def _join(a_keys: np.ndarray, b_keys: np.ndarray):
    """Sorted hash-join of two unique-key columns.

    Returns ``(common_a, common_b, only_a, only_b)`` — id arrays into
    the respective columns; the common pairs come back in B order, the
    "only" arrays in their own column's order.
    """
    if a_keys.size == 0:
        nothing = np.zeros(0, dtype=np.int64)
        return (nothing, nothing, nothing,
                np.arange(b_keys.size, dtype=np.int64))
    order = np.argsort(a_keys, kind="stable").astype(np.int64)
    a_sorted = a_keys[order]
    pos = np.searchsorted(a_sorted, b_keys)
    np.minimum(pos, a_sorted.size - 1, out=pos)
    hit = a_sorted[pos] == b_keys if b_keys.size else \
        np.zeros(0, dtype=bool)
    common_b = np.nonzero(hit)[0].astype(np.int64)
    common_a = order[pos[common_b]]
    matched = np.zeros(a_keys.size, dtype=bool)
    matched[common_a] = True
    only_a = np.nonzero(~matched)[0].astype(np.int64)
    only_b = np.nonzero(~hit)[0].astype(np.int64)
    return common_a, common_b, only_a, only_b


def _shared_ids(a_table: Sequence[str], b_table: Sequence[str]):
    """Remap two small intern tables onto one shared id space."""
    shared: Dict[str, int] = {}
    for value in a_table:
        shared.setdefault(value, len(shared))
    for value in b_table:
        shared.setdefault(value, len(shared))
    a_map = np.array([shared[v] for v in a_table] or [0], dtype=np.int64)
    b_map = np.array([shared[v] for v in b_table] or [0], dtype=np.int64)
    return a_map, b_map


def _extra_mask(zone: PackedZone) -> Optional[np.ndarray]:
    if not zone.extra_ips:
        return None
    mask = np.zeros(zone.n_records, dtype=bool)
    mask[np.fromiter(zone.extra_ips.keys(), dtype=np.int64,
                     count=len(zone.extra_ips))] = True
    return mask


def _record_tuple(zone: PackedZone, rec_id: int) -> RecordOp:
    return (zone._name_at(rec_id), zone._ip_at(rec_id),
            zone.record_types[int(zone.rec_type[rec_id])],
            zone.sources[int(zone.rec_src[rec_id])])


# ----------------------------------------------------------------------
# the vectorized kernel
# ----------------------------------------------------------------------

def diff_packed(a: PackedZone, b: PackedZone) -> DiffTable:
    """Diff two packed snapshots with searchsorted hash-joins.

    Byte-identical (``DiffTable.digest`` equality) to
    :func:`diff_serial` on every input — the bench asserts it at every
    leg, the CI smoke job on every series pair.
    """
    # -- record level: names only in A / only in B / in both ----------
    rec_width = max(_record_key_width(a), _record_key_width(b))
    a_keys = _record_name_keys(a, rec_width)
    b_keys = _record_name_keys(b, rec_width)
    common_a, common_b, only_a, only_b = _join(a_keys, b_keys)

    # -- common records: whole-column equality over shared ids --------
    type_a, type_b = _shared_ids(a.record_types, b.record_types)
    src_a, src_b = _shared_ids(a.sources, b.sources)
    if common_a.size:
        equal = (a.rec_ip[common_a] == b.rec_ip[common_b]) \
            & (type_a[a.rec_type[common_a].astype(np.int64)]
               == type_b[b.rec_type[common_b].astype(np.int64)]) \
            & (src_a[a.rec_src[common_a].astype(np.int64)]
               == src_b[b.rec_src[common_b].astype(np.int64)])
        # non-canonical IPs collapse to rec_ip == 0; recheck just those
        a_extra, b_extra = _extra_mask(a), _extra_mask(b)
        if a_extra is not None or b_extra is not None:
            either = np.zeros(common_a.size, dtype=bool)
            if a_extra is not None:
                either |= a_extra[common_a]
            if b_extra is not None:
                either |= b_extra[common_b]
            for row in np.nonzero(equal & either)[0]:
                if a._ip_at(int(common_a[row])) != b._ip_at(int(common_b[row])):
                    equal[row] = False
        changed_rows = np.nonzero(~equal)[0]
        # patch ops carry A record order; the join returned B order
        changed_rows = changed_rows[
            np.argsort(common_a[changed_rows], kind="stable")]
        changed_a = common_a[changed_rows]
        changed_b = common_b[changed_rows]
    else:
        changed_a = changed_b = np.zeros(0, dtype=np.int64)

    removed_names = [a._name_at(int(i)) for i in only_a]
    changed_records = [_record_tuple(b, int(i)) for i in changed_b]
    added_records = [_record_tuple(b, int(i)) for i in only_b]

    # -- registered-domain level --------------------------------------
    reg_width = max(_reg_key_width(a), _reg_key_width(b))
    a_regs = _reg_name_keys(a, reg_width)
    b_regs = _reg_name_keys(b, reg_width)
    reg_common_a, reg_common_b, reg_only_a, reg_only_b = _join(a_regs, b_regs)

    # a common domain is "changed" iff any record beneath it moved:
    # scatter the record-op rows onto per-domain flags with bincount
    touched_a = np.zeros(a.n_registered, dtype=bool)
    if only_a.size:
        touched_a |= np.bincount(a.rec_reg[only_a].astype(np.int64),
                                 minlength=a.n_registered) > 0
    if changed_a.size:
        touched_a |= np.bincount(a.rec_reg[changed_a].astype(np.int64),
                                 minlength=a.n_registered) > 0
    touched_b = np.zeros(b.n_registered, dtype=bool)
    if only_b.size:
        touched_b |= np.bincount(b.rec_reg[only_b].astype(np.int64),
                                 minlength=b.n_registered) > 0

    status_a = np.full(a.n_registered, RETAINED, dtype=np.uint8)
    status_a[reg_only_a] = REMOVED
    if reg_common_a.size:
        pair_changed = touched_a[reg_common_a] | touched_b[reg_common_b]
        status_a[reg_common_a[pair_changed]] = CHANGED

    # canonical table order: A first-seen, then B-only in B first-seen.
    # reg_width is the exact union-wide maximum (a common domain's
    # length counts on both sides), so this is already from_rows' width.
    reg_keys = np.concatenate([a_regs, b_regs[reg_only_b]])
    status = np.concatenate([
        status_a,
        np.full(reg_only_b.size, ADDED, dtype=np.uint8),
    ])
    return DiffTable(reg_keys, status, removed_names,
                     changed_records, added_records)


# ----------------------------------------------------------------------
# the dict-set oracle
# ----------------------------------------------------------------------

def _zone_rows(zone) -> Dict[str, Tuple[str, str, str]]:
    """``name -> (ip, record_type, source)`` in record order.

    Accepts anything iterable of :class:`DNSRecord` — ``ZoneStore`` or
    ``PackedZone`` — so the oracle stays format-blind.
    """
    rows: Dict[str, Tuple[str, str, str]] = {}
    for record in zone:
        rows[record.name] = (record.ip, record.record_type, record.source)
    return rows


def _registered_of(name: str) -> str:
    core, tld = split_domain(name)
    return f"{core}.{tld}" if tld else core


def diff_serial(a, b) -> DiffTable:
    """The dict-set baseline: plain Python dicts and set membership.

    Kept as the forever-oracle for :func:`diff_packed` — identical
    :class:`DiffTable` content and digest, at dict speed.
    """
    a_rows = _zone_rows(a)
    b_rows = _zone_rows(b)

    removed_names = [name for name in a_rows if name not in b_rows]
    changed_records = [(name, *b_rows[name]) for name in a_rows
                       if name in b_rows and a_rows[name] != b_rows[name]]
    added_records = [(name, *b_rows[name]) for name in b_rows
                     if name not in a_rows]

    a_regs: Dict[str, None] = {}
    for name in a_rows:
        a_regs.setdefault(_registered_of(name), None)
    b_regs: Dict[str, None] = {}
    for name in b_rows:
        b_regs.setdefault(_registered_of(name), None)

    touched = {_registered_of(name) for name in removed_names}
    touched.update(_registered_of(op[0]) for op in changed_records)
    touched.update(_registered_of(op[0]) for op in added_records)

    rows: List[Tuple[str, int]] = []
    for reg in a_regs:
        if reg not in b_regs:
            rows.append((reg, REMOVED))
        elif reg in touched:
            rows.append((reg, CHANGED))
        else:
            rows.append((reg, RETAINED))
    for reg in b_regs:
        if reg not in a_regs:
            rows.append((reg, ADDED))
    return DiffTable.from_rows(rows, removed_names,
                               changed_records, added_records)


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------

def apply_diff(a: PackedZone, diff: DiffTable) -> PackedZone:
    """Replay a diff as a patch: survivors in place, additions appended.

    Reconstructs B byte-identically (``pack`` digest equality) whenever
    B is an evolution of A that never re-adds a removed name — the
    ordered-dict position of such a re-add is information a
    snapshot-level diff does not carry (the delta layer's tombstones
    do; see DESIGN.md §14 vs §15).
    """
    removed = set(diff.removed_names)
    changed: Dict[str, Tuple[str, str, str]] = {
        name: (ip, rtype, source)
        for name, ip, rtype, source in diff.changed_records}
    builder = PackedZoneBuilder()
    for rec_id in range(a.n_records):
        name = a._name_at(rec_id)
        if name in removed:
            continue
        rewrite = changed.get(name)
        if rewrite is not None:
            ip, rtype, source = rewrite
        else:
            ip = a._ip_at(rec_id)
            rtype = a.record_types[int(a.rec_type[rec_id])]
            source = a.sources[int(a.rec_src[rec_id])]
        builder.add_name(name, ip=ip, record_type=rtype, source=source)
    for name, ip, rtype, source in diff.added_records:
        builder.add_name(name, ip=ip, record_type=rtype, source=source)
    return builder.build()

