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

**Read protocol.**  There is one: a published chain (base + ordered
delta files) opens through :func:`load_chain`, which compacts it into
one :class:`~repro.dns.packedzone.PackedZone`.  Readers therefore see
the same snapshot bytes whether the union arrives as a chain, a
compacted base, or a from-scratch batch pack.  :func:`compact` checks
the chain binding first: every delta must record the base's content
digest and the seqs must ascend, else ``ValueError``.  Opening costs
one replay plus one builder pass over the union (DESIGN.md §14).

**Compaction policy.**  The streaming driver (``repro.stream``) seals a
segment every ``segment_events`` events and compacts every
``compact_every`` segments: :func:`compact` replays base + deltas into a
fresh :class:`PackedZoneBuilder`, yielding a new base snapshot whose
bytes equal a from-scratch pack of the union — so scan digests, serving
verdicts, and artifact-store keys all agree with a batch run.  See
DESIGN.md §14.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.dns.packedzone import (
    PackedZone,
    PackedZoneBuilder,
    PackedZoneCorruptError,
    _DECODE_ERRORS,
    _pack_file,
    _unpack_meta,
)
from repro.dns.records import split_domain

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
# compaction: the one way a chain is read
# ----------------------------------------------------------------------

def _check_chain(base: PackedZone, deltas: Sequence[DeltaSegment]) -> None:
    """Every delta sealed against ``base``, in strictly ascending seq."""
    expected = base.content_digest
    for segment in deltas:
        if segment.base_digest != expected:
            raise ValueError(
                f"delta segment seq={segment.seq} was built against "
                f"base {segment.base_digest[:12]}…, got {expected[:12]}…")
    seqs = [segment.seq for segment in deltas]
    if any(later <= earlier for earlier, later in zip(seqs, seqs[1:])):
        raise ValueError(f"delta segments out of order: {seqs}")


def compact(base: PackedZone, deltas: Sequence[DeltaSegment]) -> PackedZone:
    """Merge (base + ordered deltas) into a fresh base snapshot.

    Byte-identical to building one PZON snapshot from the replayed
    union: record order, registered-domain first-seen order, and every
    intern table match what a ``ZoneStore`` fed the same event sequence
    would pack to.  Raises ``ValueError`` unless every delta was sealed
    against ``base`` (its recorded ``base_digest``) and the seqs
    ascend.

    Replay keeps the union as an ordered ``name -> (zone, record id)``
    map: tombstones are applied before a delta's net adds, and a net add
    of a still-present name replaces in place (dict assignment keeps
    position), otherwise it appends — exactly ``ZoneStore``'s
    ordered-dict behaviour under the raw event sequence.
    """
    _check_chain(base, deltas)
    if not deltas:
        return base
    union: Dict[str, Tuple[PackedZone, int]] = {}
    for rec_id in range(base.n_records):
        union[base._name_at(rec_id)] = (base, rec_id)
    for segment in deltas:
        for name in segment.tombstones:
            union.pop(name, None)
        zone = segment.zone
        for rec_id in range(zone.n_records):
            union[zone._name_at(rec_id)] = (zone, rec_id)
    builder = PackedZoneBuilder()
    for name, (zone, rec_id) in union.items():
        builder.add_name(
            name, ip=zone._ip_at(rec_id),
            source=zone.sources[int(zone.rec_src[rec_id])],
            record_type=zone.record_types[int(zone.rec_type[rec_id])])
    return builder.build()


def load_chain(base_path: PathLike,
               delta_paths: Sequence[PathLike]) -> PackedZone:
    """Open a published (base, ordered delta files) chain as one snapshot.

    The chain compacts on open, so a reader sees the bytes of a
    from-scratch pack of the union; a lone base opens as itself.  A
    broken chain binding raises ``ValueError`` (see :func:`compact`).
    """
    return compact(PackedZone.load(base_path),
                   [DeltaSegment.load(path) for path in delta_paths])
