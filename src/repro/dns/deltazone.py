"""Append-only delta segments + LSM-style compaction over PZON snapshots.

A :class:`~repro.dns.packedzone.PackedZone` is immutable by design — the
content digest in its header is what the stage graph, the scan kernel,
and the serving layer all key on.  Streaming ingestion therefore never
mutates a snapshot: new registrations and removals accumulate in a
:class:`DeltaSegmentBuilder` and are sealed into small *delta segment*
files that reuse the PZON container byte-for-byte (interned name/core
blobs, offset columns, grouping indices), plus two extra sections
(``tomb_blob``/``tomb_off``) recording tombstoned names and a
``meta["delta"]`` block binding the segment to its base snapshot and
sequence number.  Old PZON readers open a delta file without knowing
what it is; the extra sections ride along like enrichment columns do.

**Tombstone semantics.**  A segment's payload is the *net* outcome of
its event span: an ordered dict of adds (a re-add of a name replaces in
place, exactly like ``ZoneStore.add``) and the set of every name that
experienced a remove inside the span — even if later re-added (the
re-add is then also in the net adds).  Replaying a segment against the
logical union is "tombstones first, then net adds in local order,
replacing in place when the name is still present and appending
otherwise".  This reproduces the final ordered-dict state of applying
the raw event sequence to a ``ZoneStore``, because removals never shift
other entries' positions and a name's final position is the insertion
time of its last continuous presence.  That equivalence is what makes
:func:`compact` byte-identical to packing the replayed union from
scratch — the Hypothesis property test in ``tests/test_deltazone.py``
hammers it with random event tapes.

**Read protocol.**  :class:`SegmentedZone` presents (base + ordered
deltas) as one logical zone with the ``ZoneStore`` lookup protocol:
iteration order is the union's insertion order, registered domains keep
union first-seen order, ``verify()`` checks every constituent file's
payload digest, and ``content_digest`` hashes the (base, delta...) chain
so the logical union is content-addressed without materializing it.

**Compaction policy.**  The streaming driver (``repro.stream``) seals a
segment every ``segment_events`` events and compacts every
``compact_every`` segments: :func:`compact` replays base + deltas into a
fresh :class:`PackedZoneBuilder`, yielding a new base snapshot whose
bytes equal a from-scratch pack of the union — so scan digests, serving
verdicts, and artifact-store keys all agree with a batch run.  See
DESIGN.md §14.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dns.packedzone import (
    PackedZone,
    PackedZoneBuilder,
    PackedZoneCorruptError,
    _DECODE_ERRORS,
    _pack_file,
    _unpack_meta,
)
from repro.dns.records import DNSRecord, split_domain
from repro.dns.zone import MISS

PathLike = Union[str, Path]


def _registered(name: str) -> str:
    core, tld = split_domain(name)
    return f"{core}.{tld}" if tld else core


class DeltaSegmentBuilder:
    """Accumulates one segment's worth of add/remove events.

    Local semantics mirror ``ZoneStore`` exactly: ``add_name`` on a
    present name replaces in place, ``remove_name`` drops it, and a
    later re-add appends at the end.  Every name that was removed at any
    point is tombstoned (deduped, first-removal order) so replay can
    drop the base's copy before applying the net adds.
    """

    def __init__(self) -> None:
        # name -> (ip, source, record_type); insertion-ordered net adds
        self._ops: Dict[str, Tuple[str, str, str]] = {}
        self._tombs: Dict[str, None] = {}
        self.events: int = 0

    def __len__(self) -> int:
        return len(self._ops)

    @property
    def tombstones(self) -> List[str]:
        return list(self._tombs)

    def add_name(self, name: str, ip: str = "0.0.0.0",
                 source: str = "zone", record_type: str = "A") -> None:
        if not name:
            raise ValueError("DNS record requires a non-empty name")
        name = name.lower().rstrip(".")
        self._ops[name] = (ip, source, record_type)
        self.events += 1

    def remove_name(self, name: str) -> None:
        name = name.lower().rstrip(".")
        self._ops.pop(name, None)
        self._tombs.setdefault(name, None)
        self.events += 1

    def to_bytes(self, seq: int, base_digest: str) -> bytes:
        """Seal into a delta-segment file (a PZON file + tomb sections)."""
        builder = PackedZoneBuilder()
        for name, (ip, source, record_type) in self._ops.items():
            builder.add_name(name, ip=ip, source=source,
                             record_type=record_type)
        zone = PackedZone.from_bytes(builder.to_bytes())
        meta, sections = _unpack_meta(zone)
        tomb_blob = bytearray()
        tomb_off = [0]
        for name in self._tombs:
            tomb_blob.extend(name.encode("utf-8"))
            tomb_off.append(len(tomb_blob))
        sections.append(("tomb_blob", np.frombuffer(
            bytes(tomb_blob), dtype=np.uint8)))
        sections.append(("tomb_off", np.asarray(tomb_off, dtype=np.uint64)))
        meta["delta"] = {"seq": int(seq), "base": base_digest,
                         "tombstones": len(self._tombs)}
        return _pack_file(meta, sections)

    def build(self, seq: int, base_digest: str) -> "DeltaSegment":
        return DeltaSegment(PackedZone.from_bytes(
            self.to_bytes(seq, base_digest)))


class DeltaSegment:
    """One sealed delta-segment file: net adds (a PZON zone) + tombstones."""

    def __init__(self, zone: PackedZone) -> None:
        self.zone = zone
        meta = zone.delta_meta
        if meta is None:
            zone.verify()   # a damaged segment is corrupt, not a snapshot
            raise ValueError("not a delta segment (no delta meta block)")
        try:
            self.seq: int = int(meta["seq"])
            self.base_digest: str = meta["base"]
            blob = zone._sections["tomb_blob"]
            off = zone._sections["tomb_off"]
            self.tombstones: List[str] = [
                blob[int(off[i]):int(off[i + 1])].tobytes().decode("utf-8")
                for i in range(off.size - 1)
            ]
        except _DECODE_ERRORS as exc:
            raise PackedZoneCorruptError(
                f"delta segment block is malformed: {exc!r}") from exc

    @classmethod
    def load(cls, path: PathLike) -> "DeltaSegment":
        return cls(PackedZone.load(path))

    @classmethod
    def from_bytes(cls, data: bytes) -> "DeltaSegment":
        return cls(PackedZone.from_bytes(data))

    @property
    def content_digest(self) -> str:
        return self.zone.content_digest

    def verify(self) -> None:
        self.zone.verify()

    def save(self, path: PathLike) -> None:
        self.zone.save(path)

    def rows(self) -> Iterator[Tuple[str, str, str, str]]:
        """Net-add rows ``(name, ip, record_type, source)`` in local order."""
        zone = self.zone
        for rec_id in range(zone.n_records):
            yield (zone._name_at(rec_id), zone._ip_at(rec_id),
                   zone.record_types[int(zone.rec_type[rec_id])],
                   zone.sources[int(zone.rec_src[rec_id])])

    def __len__(self) -> int:
        return self.zone.n_records

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DeltaSegment(seq={self.seq}, adds={len(self)}, "
                f"tombstones={len(self.tombstones)})")


def is_delta_file(path: PathLike) -> bool:
    """True when ``path`` is a PZON file carrying a delta meta block."""
    try:
        return PackedZone.load(path).delta_meta is not None
    except (OSError, ValueError):
        return False


# ----------------------------------------------------------------------
# union replay (shared by SegmentedZone and compact)
# ----------------------------------------------------------------------

def _replay_union(base: PackedZone, deltas: Sequence[DeltaSegment],
                  ) -> Dict[str, Tuple[int, int]]:
    """The union as an ordered ``name -> (segment index, record id)`` map.

    Segment index 0 is the base; deltas follow in order.  Tombstones are
    applied before a delta's net adds; a net add of a still-present name
    replaces in place (dict assignment keeps position), otherwise it
    appends — exactly ``ZoneStore``'s ordered-dict behaviour under the
    raw event sequence.
    """
    union: Dict[str, Tuple[int, int]] = {}
    for rec_id in range(base.n_records):
        union[base._name_at(rec_id)] = (0, rec_id)
    for seg_idx, segment in enumerate(deltas, start=1):
        for name in segment.tombstones:
            union.pop(name, None)
        zone = segment.zone
        for rec_id in range(zone.n_records):
            union[zone._name_at(rec_id)] = (seg_idx, rec_id)
    return union


def compact(base: PackedZone, deltas: Sequence[DeltaSegment]) -> PackedZone:
    """Merge (base + ordered deltas) into a fresh base snapshot.

    Byte-identical to building one PZON snapshot from the replayed
    union: record order, registered-domain first-seen order, and every
    intern table match what a ``ZoneStore`` fed the same event sequence
    would pack to.
    """
    if not deltas:
        return base
    zones = [base] + [segment.zone for segment in deltas]
    builder = PackedZoneBuilder()
    for seg_idx, rec_id in _replay_union(base, deltas).values():
        zone = zones[seg_idx]
        builder.add_name(
            zone._name_at(rec_id), ip=zone._ip_at(rec_id),
            source=zone.sources[int(zone.rec_src[rec_id])],
            record_type=zone.record_types[int(zone.rec_type[rec_id])])
    return builder.build()


class SegmentedZone:
    """(base + ordered deltas) presented as one logical zone.

    Implements the ``ZoneStore`` read protocol over the logical union
    without materializing it as records: lookups resolve through a lazy
    name index into the owning segment's columns; iteration and
    ``registered_domains()`` follow union insertion / first-seen order,
    so digests over them match the compacted snapshot's.

    The scan-kernel plumbing (``n_cores``/``core_off``/``core_blob``)
    delegates to the *base* so a :class:`PackedScanContext` built over a
    segmented zone classifies arbitrary names with base-width matrices —
    the serving engine's ``classify_batch`` path is width-safe for any
    label length (overlong labels fall back to the Python classifier).
    """

    def __init__(self, base: PackedZone, deltas: Sequence[DeltaSegment],
                 strict: bool = True) -> None:
        self.base = base
        self.deltas = list(deltas)
        if strict:
            expected = base.content_digest
            for segment in self.deltas:
                if segment.base_digest != expected:
                    raise ValueError(
                        f"delta segment seq={segment.seq} was built against "
                        f"base {segment.base_digest[:12]}…, got "
                        f"{expected[:12]}…")
                # chained deltas may reference either the shared base or
                # the previous delta; we only pin the shared base here
        seqs = [segment.seq for segment in self.deltas]
        if seqs != sorted(seqs):
            raise ValueError(f"delta segments out of order: {seqs}")
        self._zones = [base] + [segment.zone for segment in self.deltas]
        self.fault_injector = None
        self._union: Optional[Dict[str, Tuple[int, int]]] = None
        self._regs: Optional[Dict[str, int]] = None
        self._overlay: Optional[Tuple[Dict[str, int], set]] = None

    # ------------------------------------------------------------------
    @classmethod
    def load_chain(cls, base_path: PathLike,
                   delta_paths: Sequence[PathLike],
                   strict: bool = True) -> "SegmentedZone":
        return cls(PackedZone.load(base_path),
                   [DeltaSegment.load(path) for path in delta_paths],
                   strict=strict)

    def paths(self) -> List[Path]:
        """Backing files (base first), spilling temp files as needed."""
        out = [self.base.ensure_file()]
        out.extend(segment.zone.ensure_file() for segment in self.deltas)
        return out

    @property
    def generation(self) -> int:
        """The newest constituent's publish generation."""
        if self.deltas:
            return self.deltas[-1].zone.generation
        return self.base.generation

    @property
    def content_digest(self) -> str:
        """Content digest of the *logical union* (chain of file digests).

        Two segmented zones with identical (base, delta...) constituents
        share a digest; the digest changes whenever any constituent
        does.  It deliberately does not equal the compacted snapshot's
        digest — this one is computable without replaying the union.
        """
        hasher = hashlib.sha256()
        hasher.update(b"segmented-zone\n")
        for zone in self._zones:
            hasher.update(zone.content_digest.encode("ascii"))
            hasher.update(b"\n")
        return hasher.hexdigest()

    def verify(self) -> None:
        """Verify every constituent file's payload digest.

        The union is a pure function of the constituent files, so
        per-file digests cover the logical union; a corrupt base or
        delta raises :class:`PackedZoneCorruptError`.
        """
        for zone in self._zones:
            zone.verify()

    @property
    def nbytes(self) -> int:
        return sum(zone.nbytes for zone in self._zones)

    # ------------------------------------------------------------------
    # lazy union indexes
    # ------------------------------------------------------------------
    def _names(self) -> Dict[str, Tuple[int, int]]:
        if self._union is None:
            self._union = _replay_union(self.base, self.deltas)
        return self._union

    def _registered_index(self) -> Dict[str, int]:
        """Registered domain -> live-name count, union first-seen order."""
        if self._regs is None:
            # derived from the final union map: tombstone bookkeeping
            # against arbitrary interleavings (a tombstone may target a
            # name the base never had, a reg may die and come back) all
            # collapses into "walk the union in order"
            regs: Dict[str, int] = {}
            for name in self._names():
                reg = _registered(name)
                if reg in regs:
                    regs[reg] += 1
                else:
                    regs[reg] = 1
            self._regs = regs
        return self._regs

    def _zone_record(self, ref: Tuple[int, int]) -> DNSRecord:
        seg_idx, rec_id = ref
        return self._zones[seg_idx].record_at(rec_id)

    # ------------------------------------------------------------------
    # ZoneStore read protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._names())

    def __iter__(self) -> Iterator[DNSRecord]:
        return (self._zone_record(ref) for ref in self._names().values())

    def __contains__(self, name: str) -> bool:
        return name.lower().rstrip(".") in self._names()

    def get(self, name: str) -> Optional[DNSRecord]:
        ref = self._names().get(name.lower().rstrip("."))
        return None if ref is None else self._zone_record(ref)

    def get_many(self, names: Iterable[str]) -> list:
        lookup = self._names().get
        out = []
        for name in names:
            ref = lookup(name.lower().rstrip("."))
            out.append(MISS if ref is None else self._zone_record(ref))
        return out

    def resolve(self, name: str, snapshot: int = 0,
                attempt: int = 0) -> Optional[DNSRecord]:
        if self.fault_injector is not None:
            self.fault_injector.check_dns(name.lower().rstrip("."),
                                          snapshot, attempt)
        return self.get(name)

    def has_registered_domain(self, registered: str) -> bool:
        return registered.lower() in self._registered_index()

    def registered_domains(self) -> Iterator[str]:
        return iter(self._registered_index())

    def names_under(self, registered: str) -> List[str]:
        registered = registered.lower()
        return sorted(name for name in self._names()
                      if _registered(name) == registered)

    def stats(self) -> Dict[str, int]:
        return {
            "records": len(self),
            "registered_domains": len(self._registered_index()),
            "core_labels": len({split_domain(reg)[0]
                                for reg in self._registered_index()}),
        }

    # ------------------------------------------------------------------
    # serving protocol (QueryEngine)
    # ------------------------------------------------------------------
    @property
    def n_cores(self) -> int:
        return self.base.n_cores

    @property
    def core_off(self) -> np.ndarray:
        return self.base.core_off

    @property
    def core_blob(self) -> np.ndarray:
        return self.base.core_blob

    @property
    def has_enrichment(self) -> bool:
        # delta-added registrations have no enrichment rows; advertising
        # base enrichment would gather columns with out-of-range ids
        return False

    @property
    def enrichment_meta(self) -> None:
        return None

    def _overlay_ids(self) -> Tuple[Dict[str, int], set]:
        """(delta-added reg -> synthetic id, base regs dead in the union).

        Synthetic ids start at ``base.n_registered`` so they never
        collide with base ids; they are stable for a given chain (union
        first-seen order).
        """
        if self._overlay is None:
            base_regs = self.base._regs()
            added: Dict[str, int] = {}
            live = self._registered_index()
            for reg in live:
                if reg not in base_regs:
                    added[reg] = self.base.n_registered + len(added)
            dead = {reg for reg in base_regs if reg not in live}
            self._overlay = (added, dead)
        return self._overlay

    def registered_ids(self, names: Iterable[str]) -> np.ndarray:
        """Union membership ids: base fast path + per-chain overlay.

        Base members keep their base ids; registrations introduced by
        deltas get synthetic ids ``>= base.n_registered``; base
        registrations whose every name was tombstoned report ``-1``.
        """
        names = list(names)
        out = self.base.registered_ids(names)
        added, dead = self._overlay_ids()
        if not added and not dead:
            return out
        for i, name in enumerate(names):
            reg = _registered(name.lower().rstrip("."))
            overlay = added.get(reg)
            if overlay is not None:
                out[i] = overlay
            elif out[i] >= 0 and reg in dead:
                out[i] = -1
        return out

    def reopen(self) -> "SegmentedZone":
        return SegmentedZone.load_chain(
            self.base.ensure_file(),
            [segment.zone.ensure_file() for segment in self.deltas],
            strict=False)

    def compacted(self) -> PackedZone:
        """The union as one fresh base snapshot (see :func:`compact`)."""
        return compact(self.base, self.deltas)
