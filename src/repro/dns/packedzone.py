"""Packed columnar DNS snapshots: the scan stage's zone-file-scale substrate.

The paper scans an ActiveDNS snapshot of 224.8M records (§3); a
:class:`~repro.dns.zone.ZoneStore` holds every record as a Python
dict/set/dataclass web, which tops out one to two orders of magnitude
below that on one machine.  This module packs the same snapshot into a
handful of contiguous numpy arrays — interned label blobs plus offset and
id columns — serialized into a single mmap-able file, so that

* building a snapshot streams records straight into byte buffers (no
  per-record :class:`~repro.dns.records.DNSRecord` objects),
* sharded scan workers mmap the file and read ``[start, stop)`` slices of
  the registered-domain columns zero-copy (no pickled string chunks), and
* the whole snapshot is content-addressed: a SHA-256 digest over the
  payload sits in the header, giving the stage graph a canonical artifact
  digest without rehydrating anything.

Layout (all little-endian, every section 64-byte aligned)::

    magic "PZON0001" | u64 meta length | 32-byte payload sha256
    meta JSON  (section table with offsets relative to the data start,
                counts, tld/source/record-type intern tables, rare
                non-IPv4 ips)
    sections   name_blob/name_off   full names, utf-8, insertion order
               rec_reg rec_ip rec_type rec_src    per-record columns
               reg_core reg_tld     per-registered-domain columns,
                                    first-seen order (== dict order)
               core_blob/core_off   interned core labels, first-seen order
               reg_by_core/core_spans   registered ids grouped by core
               rec_by_reg/reg_spans     record ids grouped by registered

Ordering is the load-bearing invariant: records keep insertion order,
registered domains and core labels keep *first-seen* order — exactly the
iteration order of ``ZoneStore``'s backing dicts — so a scan over a packed
zone visits domains in the same order as the dict-backed store and its
output digests byte-match (see DESIGN.md §11).
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import tempfile
import weakref
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from repro.dns.records import DNSRecord, split_domain
from repro.dns.zone import MISS
from repro.durable import write_atomic

if TYPE_CHECKING:  # pragma: no cover
    from repro.dns.zone import ZoneStore
    from repro.faults.plan import FaultInjector

MAGIC = b"PZON0001"
VERSION = 1
_HEADER_LEN = 8 + 8 + 32
_ALIGN = 64

PathLike = Union[str, Path]


class PackedZoneCorruptError(ValueError):
    """A packed snapshot file failed a structural or digest check.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    callers keep working; the dedicated type lets callers distinguish
    "this file is damaged" (truncated payload, flipped bytes, bad
    digest) from ordinary argument errors.
    """


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _ip_to_u32(ip: str) -> Optional[int]:
    """Strictly-canonical dotted-quad → u32 (None when not round-trippable)."""
    parts = ip.split(".")
    if len(parts) != 4:
        return None
    value = 0
    for part in parts:
        if not part.isdigit() or str(int(part)) != part:
            return None
        octet = int(part)
        if octet > 255:
            return None
        value = (value << 8) | octet
    return value


def _u32_to_ip(value: int) -> str:
    return f"{(value >> 24) & 255}.{(value >> 16) & 255}.{(value >> 8) & 255}.{value & 255}"


def _pack_file(meta: Dict[str, object],
               sections: List[Tuple[str, np.ndarray]]) -> bytes:
    """Assemble a snapshot file from meta fields + named sections.

    Shared by :meth:`PackedZoneBuilder.to_bytes` and
    :func:`attach_enrichment`: builds the section table (64-byte-aligned
    offsets relative to the data start), serializes the meta JSON, lays
    the sections out, and stamps the payload SHA-256 into the header.
    ``meta`` must not already contain a ``"sections"`` key.
    """
    table: Dict[str, Dict[str, object]] = {}
    cursor = 0
    for name, arr in sections:
        cursor = _align(cursor)
        table[name] = {"offset": cursor, "dtype": arr.dtype.str,
                       "count": int(arr.size)}
        cursor += arr.nbytes
    meta = dict(meta)
    meta["sections"] = table
    meta_bytes = json.dumps(meta, sort_keys=True,
                            separators=(",", ":")).encode("utf-8")
    data_start = _align(_HEADER_LEN + len(meta_bytes))
    total = data_start + cursor
    out = bytearray(total)
    out[0:8] = MAGIC
    out[8:16] = len(meta_bytes).to_bytes(8, "little")
    out[_HEADER_LEN:_HEADER_LEN + len(meta_bytes)] = meta_bytes
    for name, arr in sections:
        at = data_start + int(table[name]["offset"])  # type: ignore[index]
        out[at:at + arr.nbytes] = arr.tobytes()
    out[16:48] = hashlib.sha256(bytes(out[_HEADER_LEN:])).digest()
    return bytes(out)


# what decoding a damaged header can raise: all mean PackedZoneCorruptError
_DECODE_ERRORS = (KeyError, TypeError, ValueError, AttributeError,
                  SyntaxError, OverflowError)


class PackedZoneBuilder:
    """Streaming builder: feed ``(name, ip, type, source)`` rows, get a
    :class:`PackedZone`.

    Mirrors ``ZoneStore.add``'s semantics exactly — names are normalized
    (lowercase, trailing dot stripped), a repeated name *replaces* the
    earlier record in place, and registered domains / core labels are
    interned in first-seen order — without ever materializing a
    :class:`DNSRecord`.
    """

    def __init__(self) -> None:
        self._name_blob = bytearray()
        self._name_off = array("Q", [0])
        self._name_index: Dict[str, int] = {}
        self._rec_reg = array("I")
        self._rec_ip = array("I")
        self._rec_type = array("H")
        self._rec_src = array("H")
        self._extra_ips: Dict[int, str] = {}
        self._reg_index: Dict[str, int] = {}
        self._reg_core = array("I")
        self._reg_tld = array("H")
        self._core_index: Dict[str, int] = {}
        self._core_blob = bytearray()
        self._core_off = array("Q", [0])
        self._tld_index: Dict[str, int] = {}
        self._tlds: List[str] = []
        self._src_index: Dict[str, int] = {}
        self._srcs: List[str] = []
        self._type_index: Dict[str, int] = {}
        self._types: List[str] = []

    def __len__(self) -> int:
        return len(self._rec_reg)

    def _intern(self, value: str, index: Dict[str, int], table: List[str]) -> int:
        slot = index.get(value)
        if slot is None:
            slot = len(table)
            index[value] = slot
            table.append(value)
        return slot

    def add_name(self, name: str, ip: str = "0.0.0.0",
                 source: str = "zone", record_type: str = "A") -> None:
        """Insert one record (same contract as ``ZoneStore.add_name``)."""
        if not name:
            raise ValueError("DNS record requires a non-empty name")
        name = name.lower().rstrip(".")
        ip4 = _ip_to_u32(ip)
        type_id = self._intern(record_type, self._type_index, self._types)
        src_id = self._intern(source, self._src_index, self._srcs)
        existing = self._name_index.get(name)
        if existing is not None:
            # replacement: same name → same registered domain; only the
            # scalar columns change (dicts keep insertion position, and
            # so do we)
            self._rec_ip[existing] = 0 if ip4 is None else ip4
            if ip4 is None:
                self._extra_ips[existing] = ip
            else:
                self._extra_ips.pop(existing, None)
            self._rec_type[existing] = type_id
            self._rec_src[existing] = src_id
            return
        core, tld = split_domain(name)
        registered = f"{core}.{tld}" if tld else core
        reg_id = self._reg_index.get(registered)
        if reg_id is None:
            reg_id = len(self._reg_core)
            self._reg_index[registered] = reg_id
            core_id = self._core_index.get(core)
            if core_id is None:
                core_id = len(self._core_off) - 1
                self._core_index[core] = core_id
                self._core_blob.extend(core.encode("utf-8"))
                self._core_off.append(len(self._core_blob))
            self._reg_core.append(core_id)
            self._reg_tld.append(self._intern(tld, self._tld_index, self._tlds))
        rec_id = len(self._rec_reg)
        self._name_index[name] = rec_id
        self._name_blob.extend(name.encode("utf-8"))
        self._name_off.append(len(self._name_blob))
        self._rec_reg.append(reg_id)
        self._rec_ip.append(0 if ip4 is None else ip4)
        if ip4 is None:
            self._extra_ips[rec_id] = ip
        self._rec_type.append(type_id)
        self._rec_src.append(src_id)

    def add(self, record: DNSRecord) -> None:
        """Insert an already-built record (ZoneStore-compat convenience)."""
        self.add_name(record.name, ip=record.ip,
                      source=record.source, record_type=record.record_type)

    # ------------------------------------------------------------------
    def build(self) -> "PackedZone":
        """Finalize into an in-memory :class:`PackedZone`."""
        return PackedZone.from_bytes(self.to_bytes())

    def to_bytes(self) -> bytes:
        rec_reg = np.frombuffer(self._rec_reg, dtype=np.uint32) \
            if len(self._rec_reg) else np.zeros(0, dtype=np.uint32)
        reg_core = np.frombuffer(self._reg_core, dtype=np.uint32) \
            if len(self._reg_core) else np.zeros(0, dtype=np.uint32)
        n_reg = len(self._reg_core)
        n_core = len(self._core_off) - 1
        # stable grouping permutations + spans, so names_under /
        # registered_domains_with_core are O(1) slices at lookup time
        rec_by_reg = np.argsort(rec_reg, kind="stable").astype(np.uint32)
        reg_spans = np.zeros(n_reg + 1, dtype=np.uint64)
        np.cumsum(np.bincount(rec_reg, minlength=n_reg), out=reg_spans[1:])
        reg_by_core = np.argsort(reg_core, kind="stable").astype(np.uint32)
        core_spans = np.zeros(n_core + 1, dtype=np.uint64)
        np.cumsum(np.bincount(reg_core, minlength=n_core), out=core_spans[1:])

        sections = [
            ("name_blob", np.frombuffer(self._name_blob, dtype=np.uint8)),
            ("name_off", np.frombuffer(self._name_off, dtype=np.uint64)),
            ("rec_reg", rec_reg),
            ("rec_ip", np.frombuffer(self._rec_ip, dtype=np.uint32)),
            ("rec_type", np.frombuffer(self._rec_type, dtype=np.uint16)),
            ("rec_src", np.frombuffer(self._rec_src, dtype=np.uint16)),
            ("reg_core", reg_core),
            ("reg_tld", np.frombuffer(self._reg_tld, dtype=np.uint16)),
            ("core_blob", np.frombuffer(self._core_blob, dtype=np.uint8)),
            ("core_off", np.frombuffer(self._core_off, dtype=np.uint64)),
            ("reg_by_core", reg_by_core),
            ("core_spans", core_spans),
            ("rec_by_reg", rec_by_reg),
            ("reg_spans", reg_spans),
        ]
        meta = {
            "version": VERSION,
            "records": len(self._rec_reg),
            "registered": n_reg,
            "cores": n_core,
            "tlds": self._tlds,
            "sources": self._srcs,
            "record_types": self._types,
            "extra_ips": {str(k): v for k, v in sorted(self._extra_ips.items())},
        }
        return _pack_file(meta, sections)


class PackedZone:
    """An immutable, columnar DNS snapshot with ``ZoneStore``'s lookup
    protocol.

    Backed either by in-memory bytes (fresh :meth:`PackedZoneBuilder.build`)
    or by an mmap of the serialized file (:meth:`load`) — the numpy views
    are identical either way, and slicing them never copies.  Random-access
    lookups (``get``, ``names_under``, …) build small lazy python indexes
    on first use; the scan hot path touches only the packed columns.
    """

    def __init__(self, buffer, path: Optional[Path] = None,
                 mapped: Optional[mmap.mmap] = None) -> None:
        self._buf = buffer
        self._map = mapped  # kept alive for the lifetime of the views
        self.path = Path(path) if path is not None else None
        if len(buffer) < _HEADER_LEN or bytes(buffer[0:8]) != MAGIC:
            raise ValueError("not a packed zone snapshot (bad magic)")
        meta_len = int.from_bytes(bytes(buffer[8:16]), "little")
        self.content_digest: str = bytes(buffer[16:48]).hex()
        raw_meta = bytes(buffer[_HEADER_LEN:_HEADER_LEN + meta_len])
        if len(raw_meta) < meta_len:
            raise PackedZoneCorruptError(
                f"packed zone meta truncated: header declares {meta_len} "
                f"bytes, file holds {len(raw_meta)}")
        try:
            meta = json.loads(raw_meta)
            version = meta["version"]
        except (ValueError, KeyError, TypeError) as exc:  # incl. bad UTF-8
            raise PackedZoneCorruptError(
                f"packed zone meta is not a valid header: {exc!r}") from exc
        if version != VERSION:
            raise ValueError(f"unsupported packed zone version {version}")
        try:
            self.n_records: int = meta["records"]
            self.n_registered: int = meta["registered"]
            self.n_cores: int = meta["cores"]
            # snapshot generation for serving hot-reload; files that predate
            # the field (or were never published) read as generation 0
            self.generation: int = int(meta.get("generation", 0))
            self.tlds: List[str] = meta["tlds"]
            self.sources: List[str] = meta["sources"]
            self.record_types: List[str] = meta["record_types"]
            self.extra_ips: Dict[int, str] = {
                int(k): v for k, v in meta["extra_ips"].items()}
            # enrichment intern tables (present only on enriched snapshots;
            # old readers ignore the key, old files simply lack it)
            self.enrichment_meta: Optional[Dict[str, List[str]]] = \
                meta.get("enrichment")
            # delta-segment binding (seq, base digest, tombstone count) when
            # this file is an append-only delta rather than a base snapshot
            # (see repro.dns.deltazone); plain snapshots read None
            self.delta_meta: Optional[Dict[str, object]] = meta.get("delta")
            data_start = _align(_HEADER_LEN + meta_len)
            self._sections: Dict[str, np.ndarray] = {}
            for name, spec in meta["sections"].items():
                dtype = np.dtype(spec["dtype"])
                end = data_start + int(spec["offset"]) + int(spec["count"]) * dtype.itemsize
                if end > len(buffer):
                    # header + meta intact but the payload is short: surface a
                    # typed corruption error instead of numpy's buffer error
                    raise PackedZoneCorruptError(
                        f"packed zone payload truncated: section {name!r} needs "
                        f"{end} bytes, file has {len(buffer)}")
                self._sections[name] = np.frombuffer(
                    buffer, dtype=dtype, count=spec["count"],
                    offset=data_start + int(spec["offset"]))
            self.name_blob = self._sections["name_blob"]
            self.name_off = self._sections["name_off"]
            self.rec_reg = self._sections["rec_reg"]
            self.rec_ip = self._sections["rec_ip"]
            self.rec_type = self._sections["rec_type"]
            self.rec_src = self._sections["rec_src"]
            self.reg_core = self._sections["reg_core"]
            self.reg_tld = self._sections["reg_tld"]
            self.core_blob = self._sections["core_blob"]
            self.core_off = self._sections["core_off"]
            self.reg_by_core = self._sections["reg_by_core"]
            self.core_spans = self._sections["core_spans"]
            self.rec_by_reg = self._sections["rec_by_reg"]
            self.reg_spans = self._sections["reg_spans"]
        except PackedZoneCorruptError:
            raise
        except _DECODE_ERRORS as exc:
            # a damaged header decodes into missing keys, bad dtypes or
            # wrong types: every such failure is corruption, typed
            raise PackedZoneCorruptError(
                f"packed zone meta is malformed: {exc!r}") from exc
        # live-lookup fault hook, same contract as ZoneStore
        self.fault_injector: Optional["FaultInjector"] = None
        self._name_lookup: Optional[Dict[str, int]] = None
        self._reg_lookup: Optional[Dict[str, int]] = None
        self._core_lookup: Optional[Dict[str, int]] = None
        self._tld_lookup: Optional[Dict[str, int]] = None
        self._reg_key_cache: Optional[Tuple] = None
        self._tempfile: Optional[Path] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_bytes(cls, data: bytes) -> "PackedZone":
        return cls(data)

    @classmethod
    def load(cls, path: PathLike) -> "PackedZone":
        """mmap a serialized snapshot; pages fault in only when touched."""
        path = Path(path)
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        return cls(mapped, path=path, mapped=mapped)

    def save(self, path: PathLike) -> int:
        """Write the snapshot file atomically; returns the record count."""
        self.path = write_atomic(path, self._buf)
        return self.n_records

    def to_bytes(self) -> bytes:
        return bytes(self._buf)

    def ensure_file(self) -> Path:
        """A file holding this snapshot, for workers to mmap.

        Returns :attr:`path` when the zone was loaded from (or saved to)
        disk; otherwise spills once to a temp file that lives as long as
        this object.
        """
        if self.path is not None and self.path.exists():
            return self.path
        if self._tempfile is None:
            fd, raw = tempfile.mkstemp(prefix="packedzone-", suffix=".pzon")
            with os.fdopen(fd, "wb") as handle:
                handle.write(bytes(self._buf))
            self._tempfile = Path(raw)
            weakref.finalize(self, _unlink_quiet, raw)
        return self._tempfile

    @property
    def nbytes(self) -> int:
        """Size of the serialized snapshot in bytes."""
        return len(self._buf)

    def verify(self) -> None:
        """Recompute the payload SHA-256 against the header digest.

        Deliberately not run on :meth:`load` — hashing the whole file
        would fault every mmap page in and defeat the lazy zero-copy
        open.  Raises :class:`PackedZoneCorruptError` on a corrupt
        snapshot.
        """
        actual = hashlib.sha256(bytes(self._buf[_HEADER_LEN:])).hexdigest()
        if actual != self.content_digest:
            raise PackedZoneCorruptError(
                "packed zone payload digest mismatch (corrupt snapshot)")

    def __reduce__(self):
        # artifact stores pickle payloads: ship the raw file bytes, which
        # are self-contained and content-addressed (fault_injector is a
        # live-run hook and deliberately not carried)
        return (PackedZone.from_bytes, (self.to_bytes(),))

    # ------------------------------------------------------------------
    # decoding helpers
    # ------------------------------------------------------------------
    def _name_at(self, rec_id: int) -> str:
        start = int(self.name_off[rec_id])
        stop = int(self.name_off[rec_id + 1])
        return self.name_blob[start:stop].tobytes().decode("utf-8")

    def core_at(self, core_id: int) -> str:
        start = int(self.core_off[core_id])
        stop = int(self.core_off[core_id + 1])
        return self.core_blob[start:stop].tobytes().decode("utf-8")

    def registered_at(self, reg_id: int) -> str:
        core = self.core_at(int(self.reg_core[reg_id]))
        tld = self.tlds[int(self.reg_tld[reg_id])]
        return f"{core}.{tld}" if tld else core

    def _ip_at(self, rec_id: int) -> str:
        extra = self.extra_ips.get(rec_id)
        if extra is not None:
            return extra
        return _u32_to_ip(int(self.rec_ip[rec_id]))

    def record_at(self, rec_id: int) -> DNSRecord:
        return DNSRecord(
            name=self._name_at(rec_id),
            ip=self._ip_at(rec_id),
            record_type=self.record_types[int(self.rec_type[rec_id])],
            source=self.sources[int(self.rec_src[rec_id])],
        )

    # ------------------------------------------------------------------
    # ZoneStore lookup protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_records

    def __iter__(self) -> Iterator[DNSRecord]:
        return (self.record_at(i) for i in range(self.n_records))

    def _names(self) -> Dict[str, int]:
        if self._name_lookup is None:
            self._name_lookup = {self._name_at(i): i
                                 for i in range(self.n_records)}
        return self._name_lookup

    def _regs(self) -> Dict[str, int]:
        if self._reg_lookup is None:
            self._reg_lookup = {self.registered_at(i): i
                                for i in range(self.n_registered)}
        return self._reg_lookup

    def _cores(self) -> Dict[str, int]:
        if self._core_lookup is None:
            self._core_lookup = {self.core_at(i): i
                                 for i in range(self.n_cores)}
        return self._core_lookup

    def __contains__(self, name: str) -> bool:
        return name.lower().rstrip(".") in self._names()

    def get(self, name: str) -> Optional[DNSRecord]:
        rec_id = self._names().get(name.lower().rstrip("."))
        return None if rec_id is None else self.record_at(rec_id)

    def get_many(self, names: Iterable[str]) -> list:
        """Bulk :meth:`get`, with :data:`~repro.dns.zone.MISS` for
        unknown names (``ZoneStore.get_many``'s contract): batched
        consumers test ``if not record`` instead of raising per name."""
        get = self._names().get
        record_at = self.record_at
        out = []
        for name in names:
            rec_id = get(name.lower().rstrip("."))
            out.append(MISS if rec_id is None else record_at(rec_id))
        return out

    def resolve(self, name: str, snapshot: int = 0,
                attempt: int = 0) -> Optional[DNSRecord]:
        """Live-query semantics, identical to ``ZoneStore.resolve``."""
        if self.fault_injector is not None:
            self.fault_injector.check_dns(name.lower().rstrip("."),
                                          snapshot, attempt)
        return self.get(name)

    def has_registered_domain(self, registered: str) -> bool:
        return registered.lower() in self._regs()

    def _tlds_lookup(self) -> Dict[str, int]:
        if self._tld_lookup is None:
            self._tld_lookup = {tld: i for i, tld in enumerate(self.tlds)}
        return self._tld_lookup

    def _reg_keys(self) -> Tuple:
        """Sorted join keys for :meth:`registered_ids`, built lazily.

        Core labels are gathered from the blob into one fixed-width
        ``S``-dtype array and argsorted; registered domains become u64
        ``core_id << 16 | tld_id`` pair keys (``reg_tld`` is u16, so the
        pack is exact) and argsorted likewise.  Both stay cached for the
        zone's lifetime — the serving membership pre-check probes them
        with two searchsorteds per batch.
        """
        if self._reg_key_cache is None:
            lens = np.diff(self.core_off.astype(np.int64))
            width = max(int(lens.max()), 1) if lens.size else 1
            cols = np.arange(width, dtype=np.int64)
            blob = self.core_blob
            if blob.size:
                idx = self.core_off[:-1].astype(np.int64)[:, None] + cols[None, :]
                np.minimum(idx, blob.size - 1, out=idx)
                padded = blob[idx]
            else:
                padded = np.zeros((self.n_cores, width), dtype=np.uint8)
            padded[cols[None, :] >= lens[:, None]] = 0
            core_keys = np.ascontiguousarray(padded).view(
                np.dtype(f"S{width}")).ravel()
            core_order = np.argsort(core_keys, kind="stable")
            pair_keys = ((self.reg_core.astype(np.uint64) << np.uint64(16))
                         | self.reg_tld.astype(np.uint64))
            pair_order = np.argsort(pair_keys, kind="stable")
            self._reg_key_cache = (width, core_keys[core_order],
                                   core_order.astype(np.int64),
                                   pair_keys[pair_order],
                                   pair_order.astype(np.int64))
        return self._reg_key_cache

    def registered_ids(self, names: Iterable[str]) -> np.ndarray:
        """Vectorized membership pre-check: registered-domain id per name.

        Each name reduces to its registrable domain (core label + TLD)
        and hash-joins against the packed columns via sorted
        searchsorted; misses come back ``-1`` — no per-name exceptions,
        no :class:`DNSRecord` materialization.  The serving hot path
        uses the ids both for the "registered" verdict bit and to gather
        enrichment columns for hits.
        """
        names = list(names)
        out = np.full(len(names), -1, dtype=np.int64)
        if not names or self.n_registered == 0:
            return out
        width, core_keys, core_order, pair_keys, pair_order = self._reg_keys()
        tld_ids = self._tlds_lookup()
        rows: List[int] = []
        encoded: List[bytes] = []
        tld_col: List[int] = []
        for i, name in enumerate(names):
            core, tld = split_domain(name.lower().rstrip("."))
            tld_id = tld_ids.get(tld)
            if tld_id is None:
                continue
            raw = core.encode("utf-8")
            if 0 < len(raw) <= width:
                rows.append(i)
                encoded.append(raw)
                tld_col.append(tld_id)
        if not rows:
            return out
        probe = np.array(encoded, dtype=core_keys.dtype)
        pos = np.searchsorted(core_keys, probe)
        np.minimum(pos, core_keys.size - 1, out=pos)
        core_hit = core_keys[pos] == probe
        pair = ((core_order[pos].astype(np.uint64) << np.uint64(16))
                | np.asarray(tld_col, dtype=np.uint64))
        rpos = np.searchsorted(pair_keys, pair)
        np.minimum(rpos, pair_keys.size - 1, out=rpos)
        hit = core_hit & (pair_keys[rpos] == pair)
        out[np.asarray(rows)] = np.where(hit, pair_order[rpos], -1)
        return out

    def names_under(self, registered: str) -> List[str]:
        reg_id = self._regs().get(registered.lower())
        if reg_id is None:
            return []
        start = int(self.reg_spans[reg_id])
        stop = int(self.reg_spans[reg_id + 1])
        return sorted(self._name_at(int(rec))
                      for rec in self.rec_by_reg[start:stop])

    def registered_domains(self) -> Iterator[str]:
        """Registered domains in first-seen order (== ZoneStore's)."""
        return (self.registered_at(i) for i in range(self.n_registered))

    def registered_domains_with_core(self, core: str) -> List[str]:
        core_id = self._cores().get(core.lower())
        if core_id is None:
            return []
        start = int(self.core_spans[core_id])
        stop = int(self.core_spans[core_id + 1])
        return sorted(self.registered_at(int(reg))
                      for reg in self.reg_by_core[start:stop])

    def core_labels(self) -> Iterator[Tuple[str, Set[str]]]:
        for core_id in range(self.n_cores):
            start = int(self.core_spans[core_id])
            stop = int(self.core_spans[core_id + 1])
            yield self.core_at(core_id), {
                self.registered_at(int(reg))
                for reg in self.reg_by_core[start:stop]
            }

    def stats(self) -> Dict[str, int]:
        return {
            "records": self.n_records,
            "registered_domains": self.n_registered,
            "core_labels": self.n_cores,
        }

    # ------------------------------------------------------------------
    # enrichment columns (present after attach_enrichment)
    # ------------------------------------------------------------------
    @property
    def has_enrichment(self) -> bool:
        return "enr_has" in self._sections

    def enrichment_column(self, name: str) -> np.ndarray:
        """One per-registered-domain enrichment column.

        Names: ``has``, ``a_ip``, ``country``, ``year``, ``registrar``,
        ``mx``, ``status_a``, ``status_mx``, ``status_whois``,
        ``status_geo``.  Index == registered-domain id; id columns decode
        through ``enrichment_meta``'s intern tables (0 == missing).
        """
        return self._sections[f"enr_{name}"]


def _unlink_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _unpack_meta(zone: PackedZone) -> Tuple[Dict[str, object],
                                            List[Tuple[str, np.ndarray]]]:
    """(meta sans section table, sections in physical order) of a loaded
    snapshot — the starting point for re-emitting it with edits.

    JSON round-trips dict keys alphabetically, so physical layout order
    is recovered from the recorded offsets.
    """
    meta_len = int.from_bytes(bytes(zone._buf[8:16]), "little")
    meta = json.loads(bytes(zone._buf[_HEADER_LEN:_HEADER_LEN + meta_len]))
    table = meta.pop("sections")
    sections: List[Tuple[str, np.ndarray]] = [
        (name, zone._sections[name])
        for name, _spec in sorted(table.items(),
                                  key=lambda kv: int(kv[1]["offset"]))
    ]
    return meta, sections


def stamp_generation(zone: PackedZone, generation: int) -> PackedZone:
    """Re-emit ``zone`` with ``generation`` stamped into the header meta.

    Sections carry over byte-for-byte; only the meta JSON (and therefore
    the content digest) changes, so two publishes of the same payload
    under different generations are distinct artifacts.  Generation 0 —
    what unstamped files read as — is stored implicitly, keeping
    never-published snapshots byte-identical to their builder output.
    """
    meta, sections = _unpack_meta(zone)
    if int(generation):
        meta["generation"] = int(generation)
    else:
        meta.pop("generation", None)
    return PackedZone.from_bytes(_pack_file(meta, sections))


def attach_enrichment(zone: PackedZone, table) -> PackedZone:
    """Append enrichment columns to a packed snapshot → new PackedZone.

    Existing sections are carried over byte-for-byte in their original
    physical order; ten new per-registered-domain sections (``enr_*``,
    full ``n_registered`` length, id 0 == missing) plus the intern tables
    in ``meta["enrichment"]`` are appended.  The file stays version-1 and
    loads in readers that predate enrichment — they simply ignore the
    extra sections.  Domains in ``table`` that are not registered domains
    of this zone are skipped; un-enriched registered domains have
    ``enr_has == 0``.
    """
    meta, sections = _unpack_meta(zone)
    meta.pop("enrichment", None)
    sections = [(name, arr) for name, arr in sections
                if not name.startswith("enr_")]
    n = zone.n_registered
    columns = {
        "enr_has": np.zeros(n, dtype=np.uint8),
        "enr_a_ip": np.zeros(n, dtype=np.uint32),
        "enr_country": np.zeros(n, dtype=np.uint16),
        "enr_year": np.zeros(n, dtype=np.uint16),
        "enr_registrar": np.zeros(n, dtype=np.uint16),
        "enr_mx": np.zeros(n, dtype=np.uint8),
        "enr_status_a": np.zeros(n, dtype=np.uint8),
        "enr_status_mx": np.zeros(n, dtype=np.uint8),
        "enr_status_whois": np.zeros(n, dtype=np.uint8),
        "enr_status_geo": np.zeros(n, dtype=np.uint8),
    }
    regs = zone._regs()
    rows: List[int] = []
    reg_ids: List[int] = []
    for row, domain in enumerate(table.domains):
        reg_id = regs.get(domain)
        if reg_id is not None:
            rows.append(row)
            reg_ids.append(reg_id)
    if rows:
        row_index = np.asarray(rows)
        reg_index = np.asarray(reg_ids)
        columns["enr_has"][reg_index] = 1
        columns["enr_a_ip"][reg_index] = table.a_ip[row_index]
        columns["enr_country"][reg_index] = table.country_id[row_index]
        columns["enr_year"][reg_index] = table.reg_year[row_index]
        columns["enr_registrar"][reg_index] = table.registrar_id[row_index]
        columns["enr_mx"][reg_index] = table.mx_present[row_index]
        for backend in ("a", "mx", "whois", "geo"):
            columns[f"enr_status_{backend}"][reg_index] = \
                table.status[backend][row_index]
    sections.extend(sorted(columns.items()))
    meta["enrichment"] = {
        "countries": list(table.countries),
        "registrars": list(table.registrars),
    }
    return PackedZone.from_bytes(_pack_file(meta, sections))


def pack_zone(zone: Union["ZoneStore", PackedZone]) -> PackedZone:
    """Pack a dict-backed store (idempotent on already-packed zones)."""
    if isinstance(zone, PackedZone):
        return zone
    builder = PackedZoneBuilder()
    for record in zone:
        builder.add(record)
    return builder.build()


def is_packed_file(path: PathLike) -> bool:
    """True when ``path`` starts with the packed-zone magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(8) == MAGIC
    except OSError:
        return False

