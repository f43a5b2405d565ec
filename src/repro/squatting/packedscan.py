"""Vectorized squat scan over packed columnar zone snapshots.

The dict-backed scan calls ``classify_domain`` once per registered
domain — dominated by Python dict lookups that reject the overwhelmingly
benign majority.  A :class:`~repro.dns.packedzone.PackedZone` stores core
labels as one contiguous byte blob, so the scan vectorizes: each slice
gathers its unique core labels into a fixed-width ``S``-dtype matrix and
runs a sorted-array hash-join against the detector's enumerable candidate
index (:class:`CandidateIndex`, built once per detector and narrowed per
label width) plus cheap byte-level prefilters for every other rule.

A label is provably unclassifiable (the vector reject) when **all** hold:

* not a brand core label and no enumerable-candidate hit (steps 1 & 5),
* no ``xn--`` prefix (step 2),
* both homograph buckets ``(len, first char)`` / ``(len, last char)``
  are empty (step 3 — ``_match_ascii_homograph``'s own prefilter),
* no hyphen and no window of ``combo_min`` bytes matches a brand-label
  prefix (step 4 — a superset of ``_match_combo``'s candidates).

Labels that survive the reject are resolved by **in-kernel family
matchers** over the same matrix — the detector's own (memoized) IDN
single-substitution rule for each ``xn--`` row, one padded-bucket
broadcast per edge for the homograph buckets (a positionwise
confusable-translation table plus packed allowed-byte masks), exact
brand/affix span extraction for combo tokens and substrings, and
per-row wrongTLD checks against the aligned brand tables — so the
per-domain Python classifier (``SquattingDetector._classify``, kept
verbatim as the byte-identity oracle) only sees labels the matrix
genuinely cannot represent: other ``xn--`` punycode (the IDN
skeleton-match path), non-ASCII bytes, over-width or empty query labels.
The residual fallback rate is tracked per reason in :class:`KernelStats`
and surfaced through ``PerfReport``; it never enters a digest.

Fixed-width ``S`` comparisons ignore trailing NUL padding, which is
exactly padding-insensitive string equality here: labels are UTF-8 with
no embedded NULs, so no two distinct labels collapse.

Pool protocol: each scan builds one :class:`PackedScanContext` in the
parent and hands it to :func:`~repro.perf.engine.process_map` as the
tasks' context; forked workers inherit it, spawned ones rebuild it from
the detector's catalog and the snapshot file (``__reduce__``).  Tasks
are ``(start, stop)`` registered-domain id ranges scanned zero-copy —
nothing per-chunk is pickled except the per-slice match lists and a
small stats delta.

This module must not import ``repro.squatting.detector`` at module level
(the detector imports us for dispatch); workers import it lazily.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.dns.packedzone import PackedZone
from repro.dns.records import split_domain
from repro.perf.engine import process_map
from repro.perf.report import KernelStats
from repro.squatting.bits import pack_window_codes
from repro.squatting.confusables import CONFUSABLES, ascii_readable_pairs
from repro.squatting.types import SquatMatch, SquatType

# per-slice registered-domain span: vector setup costs are amortized per
# slice, and zones with at most one slice never start a pool
PACKED_CHUNK = 4096

_HYPHEN = ord("-")

# per-label resolution kinds assigned by the in-kernel matchers
KIND_NONE = 0       # vector-rejected, or no family matched: benign
KIND_MATCH = 1      # match fully resolved in-kernel (brand/type/detail set)
KIND_BRAND = 2      # core is a brand label: per-row wrongTLD check decides
KIND_FALLBACK = 3   # unrepresentable in the matrix: Python classifier

# fallback reason codes (KIND_FALLBACK rows)
FB_IDN = 1          # xn-- punycode no single substitution explains
FB_UNICODE = 2      # non-ASCII bytes: the confusables DP is per character

_FB_REASONS = {FB_IDN: "idn", FB_UNICODE: "unicode"}

_TYPE_LIST: List[SquatType] = list(SquatType)
_TYPE_INDEX: Dict[SquatType, int] = {t: i for i, t in enumerate(_TYPE_LIST)}
_HOMOGRAPH_CODE = _TYPE_INDEX[SquatType.HOMOGRAPH]
_COMBO_CODE = _TYPE_INDEX[SquatType.COMBO]


def _allowed_bytes(label: str, memo: Dict[str, np.ndarray]) -> np.ndarray:
    """256-wide mask of bytes a homograph of ``label`` could contain.

    Union of the label's own characters and every character of every
    registered confusable variant of them — a superset of what the
    matching DP (:func:`repro.squatting.confusables.matches_homograph`)
    can consume, so masking with it never rejects a true match.
    """
    mask = memo.get(label)
    if mask is None:
        chars = set(label)
        for base in set(label):
            for variant in CONFUSABLES.get(base, ()):
                chars.update(variant)
        mask = np.zeros(256, dtype=bool)
        for char in chars:
            if ord(char) < 256:
                mask[ord(char)] = True
        memo[label] = mask
    return mask


def _pack_byte_mask(mask: np.ndarray) -> np.ndarray:
    """Pack 256-wide byte masks (last axis) into four u64 words."""
    return np.packbits(mask, axis=-1, bitorder="little").view(np.uint64)


def _membership(keys: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(hit mask, key position) of each value in a sorted key array."""
    if keys.size == 0:
        return (np.zeros(values.shape, dtype=bool),
                np.zeros(values.shape, dtype=np.int64))
    pos = np.searchsorted(keys, values)
    np.minimum(pos, keys.size - 1, out=pos)
    return keys[pos] == values, pos


class CandidateIndex:
    """Sorted columnar label -> (brand, squat type) join index.

    One row per distinct enumerable candidate label: ``keys`` (``S``
    dtype, sorted), ``brand_ids`` (positions in ``names``, the brand-name
    table in catalog order) and ``type_codes`` (``SquatType`` order).
    The detector builds it once; the scalar cascade probes it with
    :meth:`lookup` and each :class:`DetectorMatrices` width takes a
    length-masked copy with :meth:`narrow`.
    """

    def __init__(self, keys: np.ndarray, brand_ids: np.ndarray,
                 type_codes: np.ndarray, lens: np.ndarray,
                 names: List[str]) -> None:
        self.keys = keys
        self.brand_ids = brand_ids
        self.type_codes = type_codes
        self.lens = lens            # label byte lengths
        self.names = names

    @classmethod
    def build(cls, groups: Iterable[Tuple[int, SquatType, Iterable[str]]],
              names: List[str]) -> "CandidateIndex":
        """Index ``(brand id, squat type, labels)`` groups in claim order.

        A label claimed by several groups keeps its first claim: the
        stable ``np.unique`` reports each key's first occurrence.
        """
        raw: List[bytes] = []
        brand_ids: List[int] = []
        type_codes: List[int] = []
        counts: List[int] = []
        for brand_id, squat_type, labels in groups:
            before = len(raw)
            raw.extend(label.encode("utf-8") for label in labels)
            brand_ids.append(brand_id)
            type_codes.append(_TYPE_INDEX[squat_type])
            counts.append(len(raw) - before)
        if not raw:
            return cls(np.zeros(0, dtype="S1"), np.zeros(0, dtype=np.int32),
                       np.zeros(0, dtype=np.int8), np.zeros(0, dtype=np.int64),
                       names)
        keys, first = np.unique(np.array(raw, dtype="S"), return_index=True)
        return cls(keys,
                   np.repeat(np.array(brand_ids, dtype=np.int32), counts)[first],
                   np.repeat(np.array(type_codes, dtype=np.int8), counts)[first],
                   np.fromiter(map(len, raw), dtype=np.int64,
                               count=len(raw))[first],
                   names)

    def narrow(self, width: int) -> "CandidateIndex":
        """The rows whose label fits ``width`` bytes, keyed as ``S{width}``.

        Sorted order survives: fixed-width ``S`` order is byte order with
        NUL padding least, so re-padding neither reorders nor merges keys.
        """
        fits = self.lens <= width
        return CandidateIndex(self.keys[fits].astype(f"S{width}"),
                              self.brand_ids[fits], self.type_codes[fits],
                              self.lens[fits], self.names)

    def lookup(self, label: str) -> Optional[Tuple[str, SquatType]]:
        """``(brand name, squat type)`` of one label, or None."""
        raw = label.encode("utf-8", "surrogatepass")
        keys = self.keys
        # an over-width probe would be truncated to the key width, and a
        # trailing NUL would compare equal to its stripped form
        if len(raw) > keys.itemsize or raw.endswith(b"\0"):
            return None
        pos = int(keys.searchsorted(raw))
        if pos == keys.size or keys[pos] != raw:
            return None
        return (self.names[self.brand_ids[pos]],
                _TYPE_LIST[self.type_codes[pos]])


class DetectorMatrices:
    """Vector-side detector indices for one (detector, label width) pair.

    Everything here is a pure function of the detector's python indices
    and the fixed label width — independent of which zone slice (or
    which arbitrary query batch) is being classified — so one build is
    shared between the batch scan context and the serve engine via
    :func:`detector_matrices`.
    """

    def __init__(self, detector, width: int) -> None:
        self.width = width
        sdtype = np.dtype(f"S{width}")

        # enumerable candidates (homograph-ASCII / bits / typo): the
        # detector's sorted index, keyed at this width; labels longer than
        # any observed core cannot match
        self.index: CandidateIndex = detector._label_index.narrow(width)

        # brand labels sorted by raw bytes (identical to the S-dtype sort
        # order: NUL padding is minimal), with the name/domain tables the
        # in-kernel wrongTLD check reads by join position
        blabels = [label for label in detector._brand_by_label
                   if len(label.encode("utf-8")) <= width]
        blabels.sort(key=lambda label: label.encode("utf-8"))
        self.brand_keys = np.array(
            [label.encode("utf-8") for label in blabels], dtype=sdtype) \
            if blabels else np.zeros(0, dtype=sdtype)
        self.brand_names: List[str] = [
            detector._brand_by_label[label].name for label in blabels]
        self.brand_domains: List[str] = [
            detector._brand_by_label[label].domain for label in blabels]
        # homograph bucket occupancy tables keyed (observed length, edge
        # byte), plus per-bucket allowed-character masks.  The confusables
        # DP can only consume a label character that is literally in the
        # brand label or appears in some confusable variant of one of its
        # characters, so a label with any byte outside the union mask of a
        # bucket cannot match any brand in that bucket — the step-3 reject
        # this makes vectorizable is what keeps random labels off the
        # per-domain Python fallback.
        self.hb_first = np.zeros((width + 1, 256), dtype=bool)
        self.hb_last = np.zeros((width + 1, 256), dtype=bool)
        self.hb_first_allow = np.zeros((width + 1, 256, 256), dtype=bool)
        self.hb_last_allow = np.zeros((width + 1, 256, 256), dtype=bool)
        # padded bucket tensor for the vector homograph matcher.  Bucket
        # ``hom_bucket[edge, observed length, edge byte]`` (-1: none)
        # holds the bucket's labels in the scalar walk's insertion order,
        # duplicates skipped, padded to C columns: ``hom_count`` columns
        # are live.  An ASCII label of the observed length is a
        # *candidate*: ``hom_enc`` holds its width-padded bytes, decidable
        # positionwise against ``readable``, and ``hom_brand`` its brand's
        # position in ``hom_names``.  A shorter or non-ASCII label is a
        # *marker* (``hom_marker``) carrying its allowed-byte mask packed
        # into four u64 words (``hom_allow``): a row with a byte outside
        # the mask provably cannot match it, and a row inside it needs
        # the scalar DP.  The scalar bucket walk takes the first hit in
        # insertion order, so the first column that stops a row decides
        # it.  Labels *longer* than the observed length are dropped
        # outright — the DP consumes at least one label char per brand
        # char, so they can never match.
        self.hom_bucket = np.full((2, width + 1, 256), -1, dtype=np.int32)
        kept: List[Tuple[int, List[str]]] = []
        allow_memo: Dict[str, np.ndarray] = {}
        for (length, edge, char), labels in detector._homograph_buckets.items():
            if not (0 <= length <= width and len(char) == 1
                    and ord(char) < 256):
                continue
            occupancy = self.hb_first if edge == 0 else self.hb_last
            occupancy[length, ord(char)] = True
            allow = self.hb_first_allow if edge == 0 else self.hb_last_allow
            for label in labels:
                allow[length, ord(char)] |= _allowed_bytes(label, allow_memo)
            walk = [label for label in dict.fromkeys(labels)
                    if len(label) <= length]
            if walk:
                self.hom_bucket[edge, length, ord(char)] = len(kept)
                kept.append((length, walk))
        n_buckets = len(kept)
        columns = max((len(walk) for _, walk in kept), default=1)
        self.hom_enc = np.zeros((n_buckets, columns, width), dtype=np.uint8)
        self.hom_brand = np.full((n_buckets, columns), -1, dtype=np.int32)
        self.hom_marker = np.zeros((n_buckets, columns), dtype=bool)
        self.hom_allow = np.zeros((n_buckets, columns, 4), dtype=np.uint64)
        self.hom_count = np.array([len(walk) for _, walk in kept],
                                  dtype=np.int32)
        name_ids: Dict[str, int] = {}
        for b, (length, walk) in enumerate(kept):
            for c, label in enumerate(walk):
                raw = label.encode("utf-8")
                if len(label) == length and len(raw) == length:
                    self.hom_enc[b, c, :length] = np.frombuffer(
                        raw, dtype=np.uint8)
                    name = detector._brand_by_label[label].name
                    self.hom_brand[b, c] = name_ids.setdefault(
                        name, len(name_ids))
                else:
                    self.hom_marker[b, c] = True
                    self.hom_allow[b, c] = _pack_byte_mask(
                        _allowed_bytes(label, allow_memo))
        self.hom_names: List[str] = list(name_ids)

        # confusable-translation table: readable[l, t] <=> a lone byte l
        # can be read as byte t (identity included; NUL reads as NUL so
        # padding aligns).  For equal-length labels the confusables DP
        # degenerates to a positionwise check against this table, which is
        # how homograph candidates resolve without Python.
        self.readable = np.zeros((256, 256), dtype=bool)
        diag = np.arange(256)
        self.readable[diag, diag] = True
        for variant, base in ascii_readable_pairs():
            self.readable[ord(variant), ord(base)] = True

        # combo window keys: every combo-index prefix packed big-endian
        # into a u64 (ComboModel keeps W in 1..8)
        self.combo_w = detector.generator.combo.min_brand_length
        self.combo_keys = np.array(sorted(
            int.from_bytes(prefix.encode("utf-8"), "big")
            for prefix in detector._combo_prefix_index
            if len(prefix.encode("utf-8")) == self.combo_w), dtype=np.uint64)

        # combo matcher entries: (label bytes, length, brand name,
        # token-eligible, substring-eligible).  A hyphenated brand label
        # can never equal a hyphen-delimited token; only labels of at
        # least combo_min length are in the scalar 4-gram substring index.
        self.combo_entries: List[Tuple[np.ndarray, int, str, bool, bool]] = []
        for label, brand in detector._brand_by_label.items():
            raw = label.encode("utf-8")
            if not raw or len(raw) != len(label) or len(raw) > width:
                continue
            token_ok = "-" not in label
            sub_ok = len(label) >= self.combo_w
            if token_ok or sub_ok:
                self.combo_entries.append(
                    (np.frombuffer(raw, dtype=np.uint8), len(raw),
                     brand.name, token_ok, sub_ok))
        # prefix-code join index over the entries: substring-eligible
        # labels (len >= combo_w) grouped by their first combo_w bytes
        # packed big-endian into a u64.  The combo matcher joins each
        # row's packed windows against ``combo_entry_codes`` once per
        # slice and only verifies full occurrences at actual (row,
        # window) hits, instead of building dense occurrence masks for
        # every catalog entry.  Entries shorter than combo_w can only be
        # hyphen-delimited tokens and keep the dense path (they are few).
        self.combo_short_ids: List[int] = []
        groups: Dict[int, List[int]] = {}
        for idx, (enc, length, _b, _t, sub_ok) in enumerate(
                self.combo_entries):
            if sub_ok:
                code = int.from_bytes(enc[:self.combo_w].tobytes(), "big")
                groups.setdefault(code, []).append(idx)
            else:
                self.combo_short_ids.append(idx)
        self.combo_entry_codes = np.array(sorted(groups), dtype=np.uint64)
        self.combo_code_groups: List[List[int]] = [
            groups[int(code)] for code in self.combo_entry_codes]


# detector -> {width: matrices}; weakly keyed, so the builds die with
# their detector
_DETECTOR_MATRICES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def detector_matrices(detector, width: int) -> DetectorMatrices:
    """The shared :class:`DetectorMatrices` build for (detector, width).

    The allow-mask tables are the expensive part (the (width+1, 256, 256)
    byte cubes); caching here means a process that both scans a snapshot
    and serves queries over it pays for them once.
    """
    by_width = _DETECTOR_MATRICES.setdefault(detector, {})
    matrices = by_width.get(width)
    if matrices is None:
        matrices = by_width[width] = DetectorMatrices(detector, width)
    return matrices


@dataclass
class _VectorFlags:
    """Per-unique-label vector reject terms (one row per matrix row)."""

    is_brand: np.ndarray
    brand_pos: np.ndarray
    cand_pos: np.ndarray
    nonascii: np.ndarray
    hyphen: np.ndarray
    xn: np.ndarray
    ok_first: np.ndarray
    ok_last: np.ndarray
    present: np.ndarray
    homograph: np.ndarray
    combo: np.ndarray
    keep: np.ndarray
    fast: np.ndarray


@dataclass
class _LabelResolution:
    """In-kernel verdict per unique label: kind + match payload."""

    kind: np.ndarray                 # KIND_* per row
    type_code: np.ndarray            # SquatType index (KIND_MATCH rows)
    brands: List[Optional[str]]      # brand name (KIND_MATCH rows)
    details: List[Optional[str]]     # match detail (KIND_MATCH rows)
    brand_pos: np.ndarray            # brand-key join position (KIND_BRAND)
    fb_code: np.ndarray              # FB_* reason (KIND_FALLBACK rows)
    keep: np.ndarray                 # vector-reject survivors
    fast: np.ndarray                 # candidate-join hits


class PackedScanContext:
    """Per-process scan state: detector + packed zone + vector indices."""

    def __init__(self, detector, zone: PackedZone,
                 width: Optional[int] = None) -> None:
        self.detector = detector
        self.zone = zone
        self.kernel = KernelStats()
        if zone.n_cores:
            lens = np.diff(zone.core_off.astype(np.int64))
            natural = max(int(lens.max()), 1)
        else:
            natural = 1
        # a caller-forced width only ever *widens* the label matrix:
        # narrower than the zone's longest core would truncate labels in
        # the gather and could false-reject.  The streaming driver pins
        # one width across all delta segments so every segment scan hits
        # the same cached DetectorMatrices build.
        self.width = max(natural, int(width)) if width else natural
        self.sdtype = np.dtype(f"S{self.width}")
        matrices = detector_matrices(detector, self.width)
        self.matrices = matrices
        self.brand_keys = matrices.brand_keys
        self.hb_first = matrices.hb_first
        self.hb_last = matrices.hb_last
        self.hb_first_allow = matrices.hb_first_allow
        self.hb_last_allow = matrices.hb_last_allow
        self.combo_w = matrices.combo_w
        self.combo_keys = matrices.combo_keys

    def __reduce__(self):
        # spawn/forkserver pool workers rebuild the context and mmap the
        # snapshot file; fork inherits it and never pickles
        detector = self.detector
        return (_rebuild_context, (detector.catalog, detector.generator,
                                   str(self.zone.ensure_file()), self.width))

    # ------------------------------------------------------------------
    def _gather_labels(self, uniq: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """NUL-padded (rows, width) byte matrix + lengths for core ids."""
        zone = self.zone
        core_off = zone.core_off
        starts = core_off[uniq].astype(np.int64)
        lens = core_off[uniq + 1].astype(np.int64) - starts
        width = self.width
        cols = np.arange(width, dtype=np.int64)
        blob = zone.core_blob
        if blob.size:
            idx = starts[:, None] + cols[None, :]
            np.minimum(idx, blob.size - 1, out=idx)
            padded = blob[idx]
        else:
            padded = np.zeros((uniq.size, width), dtype=np.uint8)
        padded[cols[None, :] >= lens[:, None]] = 0
        return padded, lens

    def _flags(self, padded: np.ndarray, lens: np.ndarray) -> _VectorFlags:
        """All vector reject terms for a NUL-padded label matrix.

        ``padded`` is a ``(rows, width)`` uint8 matrix with ``lens`` true
        byte lengths (each ``1..width``) — either gathered from the
        snapshot's core blob or encoded from arbitrary query labels.
        """
        n = padded.shape[0]
        keys = np.ascontiguousarray(padded).view(self.sdtype).ravel()

        is_brand, brand_pos = _membership(self.brand_keys, keys)
        cand_hit, cand_pos = _membership(self.matrices.index.keys, keys)
        nonascii = (padded & 0x80).any(axis=1)
        hyphen = (padded == _HYPHEN).any(axis=1)
        if self.width >= 4:
            xn = ((lens >= 4)
                  & (padded[:, 0] == 120) & (padded[:, 1] == 110)
                  & (padded[:, 2] == 45) & (padded[:, 3] == 45))
        else:
            xn = np.zeros(n, dtype=bool)
        rows = np.arange(n)
        first = padded[:, 0]
        last = padded[rows, np.maximum(lens - 1, 0)]
        # which bytes occur in each label (NUL padding cleared), to test
        # against the per-bucket allowed-character masks
        present = np.zeros((n, 256), dtype=bool)
        present[rows[:, None], padded] = True
        present[:, 0] = False
        ok_first = ~(present & ~self.hb_first_allow[lens, first]).any(axis=1)
        ok_last = ~(present & ~self.hb_last_allow[lens, last]).any(axis=1)
        homograph = ((self.hb_first[lens, first] & ok_first)
                     | (self.hb_last[lens, last] & ok_last))
        combo = self._combo_window_hits(padded, n)

        fast = cand_hit & ~is_brand
        keep = is_brand | cand_hit | xn | homograph | hyphen | combo | nonascii
        return _VectorFlags(is_brand, brand_pos, cand_pos, nonascii, hyphen,
                            xn, ok_first, ok_last, present, homograph, combo,
                            keep, fast)

    def _combo_window_hits(self, padded: np.ndarray, rows: int) -> np.ndarray:
        """Mask of labels with any ``combo_w``-byte window in the combo
        prefix index.  Padding windows hold NUL bytes and real prefixes
        never do, so out-of-length windows can't false-positive."""
        if self.combo_keys.size == 0 or self.width - self.combo_w + 1 <= 0:
            return np.zeros(rows, dtype=bool)
        codes = pack_window_codes(padded, self.combo_w)
        hit, _ = _membership(self.combo_keys, codes.ravel())
        return hit.reshape(rows, codes.shape[1]).any(axis=1)

    # ------------------------------------------------------------------
    # in-kernel family matchers
    # ------------------------------------------------------------------
    def _resolve_labels(self, padded: np.ndarray,
                        lens: np.ndarray) -> _LabelResolution:
        """Classify every row of a label matrix with the in-kernel matchers.

        Mirrors the ``_classify`` cascade exactly: brand-domain veto and
        wrongTLD (KIND_BRAND, decided per row later), candidate hash join,
        IDN/unicode fallback routing, vector homograph, vector combo.
        Rows the vector reject proves benign stay KIND_NONE.
        """
        mat = self.matrices
        flags = self._flags(padded, lens)
        n = padded.shape[0]
        kind = np.zeros(n, dtype=np.int8)
        type_code = np.full(n, -1, dtype=np.int8)
        brands: List[Optional[str]] = [None] * n
        details: List[Optional[str]] = [None] * n
        fb_code = np.zeros(n, dtype=np.int8)

        # candidate hits, then IDN single substitutions, lead the scalar
        # cascade for non-brand cores; every other xn--/non-ASCII label
        # takes the scalar cascade (steps 2/3 run a per-character DP the
        # byte matrix cannot express)
        fast = flags.fast
        idn_hits = self._resolve_idn(padded, lens, flags)
        if idn_hits:
            fast = fast.copy()
            for r, brand in idn_hits:
                fast[r] = True
                type_code[r] = _HOMOGRAPH_CODE
                brands[r] = brand
        fb_mask = (flags.nonascii | flags.xn) & ~fast
        kind[fb_mask] = KIND_FALLBACK
        fb_code[flags.nonascii & fb_mask] = FB_UNICODE
        fb_code[flags.xn & ~flags.nonascii & fb_mask] = FB_IDN
        brand_mask = flags.is_brand & ~fb_mask
        kind[brand_mask] = KIND_BRAND
        kind[fast] = KIND_MATCH
        index = mat.index
        cand_rows = np.nonzero(flags.fast)[0]
        if cand_rows.size:
            positions = flags.cand_pos[cand_rows]
            type_code[cand_rows] = index.type_codes[positions]
            for r, brand_id in zip(cand_rows.tolist(),
                                   index.brand_ids[positions].tolist()):
                brands[r] = index.names[brand_id]

        rest = flags.keep & (kind == KIND_NONE)
        self._resolve_homograph(padded, lens, flags, rest, kind, type_code,
                                brands, details)
        self._resolve_combo(padded, flags, kind, type_code, brands, details)
        return _LabelResolution(kind, type_code, brands, details,
                                flags.brand_pos, fb_code, flags.keep, fast)

    def _resolve_idn(self, padded: np.ndarray, lens: np.ndarray,
                     flags: _VectorFlags) -> List[Tuple[int, str]]:
        """IDN step: ``(row, brand name)`` for each non-brand ``xn--`` row
        without a candidate hit that spells a brand label with one
        confusable substitution — the scalar cascade's own memoized rule,
        ``SquattingDetector._idn_substitution_brand``, run per row (a
        4096-name scan slice holds a few dozen such rows, a serve batch
        one or two).  Rows the rule cannot prove stay on the scalar
        fallback.
        """
        rule = self.detector._idn_substitution_brand
        hits: List[Tuple[int, str]] = []
        for r in flags.xn.nonzero()[0].tolist():
            if flags.nonascii[r] or flags.is_brand[r] or flags.fast[r]:
                continue
            brand = rule(padded[r, :lens[r]].tobytes().decode("ascii"))
            if brand is not None:
                hits.append((r, brand))
        return hits

    def _resolve_homograph(self, padded, lens, flags, rest, kind, type_code,
                           brands, details) -> None:
        """Vector step 3: resolve homograph-flagged rows.

        Each open row gathers its (length, edge byte) bucket from the
        padded bucket tensor and tests every column in one broadcast: an
        equal-length ASCII candidate *stops* the row when the row reads
        as it positionwise through the confusable-translation table (for
        equal lengths every DP step consumes exactly one character, so
        the positionwise check *is* the DP); a marker stops it when the
        row's bytes all fall in the marker's allowed set.  The first stop
        in insertion order decides the row, as in the scalar walk: a
        candidate is a match, a marker sends the row through the
        detector's scalar bucket walk — still cheap, and counted as a
        homograph assist rather than a fallback.
        """
        mat = self.matrices
        hom_rows = np.nonzero(flags.homograph & rest)[0]
        if hom_rows.size == 0:
            return
        n = hom_rows.size
        L = lens[hom_rows]
        sub = padded[hom_rows]
        first = sub[:, 0]
        last = sub[np.arange(n), np.maximum(L - 1, 0)]
        viable = (mat.hb_first[L, first] & flags.ok_first[hom_rows],
                  mat.hb_last[L, last] & flags.ok_last[hom_rows])
        pres = _pack_byte_mask(flags.present[hom_rows])[:, None, :]
        # the scalar walk tries first-bucket candidates before last-bucket
        # ones, in insertion order with duplicates skipped; re-checking a
        # candidate is idempotent (a miss stays a miss), so the two edge
        # passes need no cross-bucket dedup
        open_mask = np.ones(n, dtype=bool)
        assist = np.zeros(n, dtype=bool)
        for edge, byte in ((0, first), (1, last)):
            bucket = mat.hom_bucket[edge, L, byte]
            active = np.nonzero(open_mask & viable[edge] & (bucket >= 0))[0]
            if active.size == 0:
                continue
            b = bucket[active]
            # the broadcast spans the widest active bucket and the longest
            # active label.  A column past its bucket's ``hom_count`` is an
            # all-NUL candidate, and past a label's length both sides are
            # NUL; NUL reads only as itself, so neither stops a row
            cols = int(mat.hom_count[b].max())
            span = int(L[active].max())
            pairs = (sub[active, None, :span].astype(np.intp) << 8) \
                | mat.hom_enc[b, :cols, :span]
            spells = mat.readable.ravel()[pairs].all(axis=2)
            present = pres[active]
            fits = ((present & mat.hom_allow[b, :cols])
                    == present).all(axis=2)
            stop = np.where(mat.hom_marker[b, :cols], fits, spells)
            hit = stop.any(axis=1)
            rows, b = active[hit], b[hit]
            col = stop[hit].argmax(axis=1)
            open_mask[rows] = False
            marker = mat.hom_marker[b, col]
            assist[rows[marker]] = True
            matched = hom_rows[rows[~marker]]
            kind[matched] = KIND_MATCH
            type_code[matched] = _HOMOGRAPH_CODE
            for r, brand_id in zip(matched.tolist(),
                                   mat.hom_brand[b[~marker],
                                                 col[~marker]].tolist()):
                brands[r] = mat.hom_names[brand_id]
                details[r] = "ascii"
        arows = hom_rows[assist]
        if arows.size:
            self.kernel.homograph_assists += int(arows.size)
            detector = self.detector
            for r in arows:
                r = int(r)
                core = padded[r, :lens[r]].tobytes().decode("utf-8")
                found = detector._ascii_homograph_label(core)
                if found is not None:
                    label, detail = found
                    kind[r] = KIND_MATCH
                    type_code[r] = _HOMOGRAPH_CODE
                    brands[r] = detector._brand_by_label[label].name
                    details[r] = detail

    def _resolve_combo(self, padded, flags, kind, type_code,
                       brands, details) -> None:
        """Vector step 4: exact brand/affix span extraction.

        A hyphen-delimited occurrence is a combo *token* (leftmost token
        wins, as in ``core.split('-')`` order), any occurrence of a
        ``combo_min``-or-longer label is a *substring* candidate (longest
        label wins, earliest position on ties — the scalar window scan's
        strictly-longer-replaces rule).  Token verdicts outrank substring
        verdicts, mirroring ``_match_combo``.

        Long entries (len >= combo_w) are found by joining each row's
        packed ``combo_w``-byte windows against the sorted entry-prefix
        codes; full occurrences and boundaries are verified only at the
        sparse (row, window) hit pairs.  Short token-only entries take the
        dense per-entry occurrence masks.
        """
        mat = self.matrices
        crows = np.nonzero((kind == KIND_NONE) & flags.keep
                           & (flags.hyphen | flags.combo))[0]
        if crows.size == 0 or not mat.combo_entries:
            return
        sub = padded[crows]
        m = crows.size
        hy = flags.hyphen[crows]
        any_hy = bool(hy.any())
        big = np.int64(1 << 62)
        best_tok_pos = np.full(m, big, dtype=np.int64)
        best_tok = np.full(m, -1, dtype=np.int64)
        best_sub_len = np.zeros(m, dtype=np.int64)
        best_sub_pos = np.full(m, big, dtype=np.int64)
        best_sub = np.full(m, -1, dtype=np.int64)
        width = self.width
        self._combo_join(sub, m, hy, any_hy, best_tok_pos, best_tok,
                         best_sub_len, best_sub_pos, best_sub)
        if mat.combo_short_ids:
            ext = np.concatenate([sub, np.zeros((m, 1), dtype=np.uint8)],
                                 axis=1)
            for e_idx in mat.combo_short_ids:
                enc, length, _name, token_ok, sub_ok = \
                    mat.combo_entries[e_idx]
                nwin = width - length + 1
                if nwin <= 0:
                    continue
                occ = np.ones((m, nwin), dtype=bool)
                for j in range(length):
                    occ &= sub[:, j:j + nwin] == enc[j]
                if not occ.any():
                    continue
                if token_ok and any_hy:
                    left = np.empty((m, nwin), dtype=bool)
                    left[:, 0] = True
                    left[:, 1:] = sub[:, :nwin - 1] == _HYPHEN
                    right = ext[:, length:length + nwin]
                    tocc = occ & left & ((right == _HYPHEN) | (right == 0)) \
                        & hy[:, None]
                    thit = tocc.any(axis=1)
                    if thit.any():
                        tpos = np.argmax(tocc, axis=1)
                        better = thit & (tpos < best_tok_pos)
                        best_tok_pos[better] = tpos[better]
                        best_tok[better] = e_idx
                if sub_ok:
                    shit = occ.any(axis=1)
                    spos = np.argmax(occ, axis=1)
                    better = shit & ((length > best_sub_len)
                                     | ((length == best_sub_len)
                                        & (spos < best_sub_pos)))
                    best_sub_len[better] = length
                    best_sub_pos[better] = spos[better]
                    best_sub[better] = e_idx
        for k in np.nonzero(best_tok >= 0)[0]:
            r = int(crows[k])
            kind[r] = KIND_MATCH
            type_code[r] = _COMBO_CODE
            brands[r] = mat.combo_entries[int(best_tok[k])][2]
            details[r] = "token"
        for k in np.nonzero((best_tok < 0) & (best_sub >= 0))[0]:
            r = int(crows[k])
            kind[r] = KIND_MATCH
            type_code[r] = _COMBO_CODE
            brands[r] = mat.combo_entries[int(best_sub[k])][2]
            details[r] = "substring"

    def _combo_join(self, sub, m, hy, any_hy, best_tok_pos, best_tok,
                    best_sub_len, best_sub_pos, best_sub) -> None:
        """Prefix-code join leg of the combo matcher (long entries).

        Packs every ``combo_w``-byte window of ``sub`` into u64 codes,
        joins them against the sorted unique entry-prefix codes, then per
        matching code verifies the candidate entries' remaining bytes and
        boundaries only at the hit (row, window) pairs.  Updates the
        shared best-token / best-substring reduction in place with the
        same strict orderings as the dense path.
        """
        mat = self.matrices
        width = self.width
        w = mat.combo_w
        if mat.combo_entry_codes.size == 0 or width - w + 1 <= 0:
            return
        codes = pack_window_codes(sub, w)
        hit, pos = _membership(mat.combo_entry_codes, codes.ravel())
        nwin = codes.shape[1]
        hit = hit.reshape(m, nwin)
        hrows, hcols = np.nonzero(hit)
        if hrows.size == 0:
            return
        hcodes = pos.reshape(m, nwin)[hrows, hcols]
        big = np.int64(1 << 62)
        for code_idx in np.unique(hcodes):
            sel = hcodes == code_idx
            rows_sel = hrows[sel]
            cols_sel = hcols[sel]
            for e_idx in mat.combo_code_groups[int(code_idx)]:
                enc, length, _name, token_ok, _sub_ok = \
                    mat.combo_entries[e_idx]
                fit = cols_sel <= width - length
                r = rows_sel[fit]
                c = cols_sel[fit]
                ok = np.ones(r.size, dtype=bool)
                for k in range(w, length):
                    ok &= sub[r, c + k] == enc[k]
                r = r[ok]
                c = c[ok]
                if r.size == 0:
                    continue
                # substring reduction: long entries are always in the
                # scalar 4-gram substring index
                tmp = np.full(m, big, dtype=np.int64)
                np.minimum.at(tmp, r, c)
                better = (tmp < big) & ((length > best_sub_len)
                                        | ((length == best_sub_len)
                                           & (tmp < best_sub_pos)))
                best_sub_len[better] = length
                best_sub_pos[better] = tmp[better]
                best_sub[better] = e_idx
                if token_ok and any_hy:
                    leftbyte = sub[r, np.maximum(c - 1, 0)]
                    left = (c == 0) | (leftbyte == _HYPHEN)
                    rb = c + length
                    rbyte = np.where(rb < width,
                                     sub[r, np.minimum(rb, width - 1)], 0)
                    tok = left & ((rbyte == _HYPHEN) | (rbyte == 0)) & hy[r]
                    rt = r[tok]
                    if rt.size:
                        tmp = np.full(m, big, dtype=np.int64)
                        np.minimum.at(tmp, rt, c[tok])
                        better = tmp < best_tok_pos
                        best_tok_pos[better] = tmp[better]
                        best_tok[better] = e_idx

    def _wrongtld_verdict(self, domain: str,
                          brand_pos: int) -> Optional[SquatMatch]:
        """Steps 0 + 5 of the cascade for a row whose core is a brand label."""
        detector = self.detector
        if domain in detector._brand_domains:
            return None  # the brand's own site is not a squat
        brand_domain = self.matrices.brand_domains[brand_pos]
        if brand_domain.lower() == domain:
            return None
        detail = detector.generator.wrongtld.matches(domain, brand_domain)
        if detail is None:
            return None
        return SquatMatch(
            domain=domain,
            brand=self.matrices.brand_names[brand_pos],
            squat_type=SquatType.WRONG_TLD,
            detail=detail,
        )

    # ------------------------------------------------------------------
    # the shared classify-and-emit core behind scan_slice / count_slice
    # ------------------------------------------------------------------
    def _resolve_slice(self, start: int, stop: int,
                       emit: bool = True) -> Tuple[List[SquatMatch],
                                                   np.ndarray]:
        """Classify one id slice: ``(matches, per-type counts)``.

        The single classify-and-emit helper behind :meth:`scan_slice`
        (``emit=True``: SquatMatch objects in id order) and
        :meth:`count_slice` (``emit=False``: histogram only, match rows
        counted without materializing domain strings).
        """
        matches: List[SquatMatch] = []
        counts = np.zeros(len(_TYPE_LIST), dtype=np.int64)
        zone = self.zone
        reg_core = zone.reg_core[start:stop]
        if reg_core.size == 0:
            return matches, counts
        stats = self.kernel
        stats.rows += int(reg_core.size)
        uniq, inv = np.unique(reg_core, return_inverse=True)
        padded, lens = self._gather_labels(uniq)
        res = self._resolve_labels(padded, lens)
        kind_rows = res.kind[inv]
        stats.survivors += int(res.keep[inv].sum())
        stats.fast_hits += int(res.fast[inv].sum())
        interesting = np.nonzero(kind_rows != KIND_NONE)[0]
        if interesting.size == 0:
            return matches, counts
        if not emit:
            match_rows = kind_rows == KIND_MATCH
            if match_rows.any():
                counts += np.bincount(
                    res.type_code[inv][match_rows].astype(np.int64),
                    minlength=len(_TYPE_LIST))
            interesting = interesting[kind_rows[interesting] != KIND_MATCH]
        tld_ids = zone.reg_tld[start:stop]
        tlds = zone.tlds
        core_cache: Dict[int, str] = {}
        classify = self.detector._classify
        for position in interesting:
            u = int(inv[position])
            core = core_cache.get(u)
            if core is None:
                core = padded[u, :lens[u]].tobytes().decode("utf-8")
                core_cache[u] = core
            tld = tlds[tld_ids[position]]
            domain = f"{core}.{tld}" if tld else core
            row_kind = kind_rows[position]
            if row_kind == KIND_MATCH:
                matches.append(SquatMatch(
                    domain=domain,
                    brand=res.brands[u],
                    squat_type=_TYPE_LIST[res.type_code[u]],
                    detail=res.details[u],
                ))
                continue
            if row_kind == KIND_BRAND:
                match = self._wrongtld_verdict(domain, int(res.brand_pos[u]))
            else:
                stats.count_fallback(_FB_REASONS[int(res.fb_code[u])])
                match = classify(domain, core)
            if match is None:
                continue
            if emit:
                matches.append(match)
            else:
                counts[_TYPE_INDEX[match.squat_type]] += 1
        return matches, counts

    # ------------------------------------------------------------------
    def classify_batch(self, domains) -> List[Optional[SquatMatch]]:
        """Vectorized ``classify_domain`` over arbitrary domain names.

        The serving hot path: query names are not zone members, so the
        label matrix is encoded from the queries themselves and resolved
        by the same in-kernel matchers as the zone scan; only
        unrepresentable labels (empty, over-width, punycode, non-ASCII)
        fall back to the reference classifier.  Output is byte-identical
        to per-name :meth:`SquattingDetector.classify_domain` calls, in
        input order.
        """
        n = len(domains)
        verdicts: List[Optional[SquatMatch]] = [None] * n
        normalized: List[str] = [""] * n
        cores: List[str] = [""] * n
        vec_rows: List[int] = []
        encoded: List[bytes] = []
        fallback: List[int] = []
        for i, domain in enumerate(domains):
            name = domain.lower().rstrip(".")
            core = split_domain(name)[0]
            normalized[i] = name
            cores[i] = core
            raw = core.encode("utf-8")
            if 0 < len(raw) <= self.width:
                vec_rows.append(i)
                encoded.append(raw)
            else:
                fallback.append(i)
        stats = self.kernel
        stats.rows += n
        classify = self.detector._classify
        if encoded:
            padded = np.array(encoded, dtype=self.sdtype) \
                .view(np.uint8).reshape(len(encoded), self.width)
            lens = np.fromiter((len(raw) for raw in encoded),
                               dtype=np.int64, count=len(encoded))
            res = self._resolve_labels(padded, lens)
            stats.survivors += int(res.keep.sum())
            stats.fast_hits += int(res.fast.sum())
            for row in np.nonzero(res.kind != KIND_NONE)[0]:
                row = int(row)
                i = vec_rows[row]
                row_kind = res.kind[row]
                if row_kind == KIND_MATCH:
                    verdicts[i] = SquatMatch(
                        domain=normalized[i],
                        brand=res.brands[row],
                        squat_type=_TYPE_LIST[res.type_code[row]],
                        detail=res.details[row],
                    )
                elif row_kind == KIND_BRAND:
                    verdicts[i] = self._wrongtld_verdict(
                        normalized[i], int(res.brand_pos[row]))
                else:
                    stats.count_fallback(_FB_REASONS[int(res.fb_code[row])])
                    verdicts[i] = classify(normalized[i], cores[i])
        for i in fallback:
            stats.count_fallback("empty" if not cores[i] else "width")
            verdicts[i] = classify(normalized[i], cores[i])
        return verdicts

    # ------------------------------------------------------------------
    def scan_slice(self, start: int, stop: int) -> List[SquatMatch]:
        matches, _ = self._resolve_slice(start, stop, emit=True)
        return matches

    def count_slice(self, start: int, stop: int) -> Dict[SquatType, int]:
        _, counts = self._resolve_slice(start, stop, emit=False)
        return {squat_type: int(count)
                for squat_type, count in zip(_TYPE_LIST, counts) if count}


# ----------------------------------------------------------------------
# kernel stats surfacing: the last packed scan's accounting, consumed by
# the perf report (throughput metadata only — never digest input)
# ----------------------------------------------------------------------
_LAST_SCAN_STATS: Optional[KernelStats] = None


def take_last_scan_stats() -> Optional[KernelStats]:
    """Stats of the most recent packed scan in this process, consumed on
    read so a later dict-backed scan cannot be misattributed."""
    global _LAST_SCAN_STATS
    stats, _LAST_SCAN_STATS = _LAST_SCAN_STATS, None
    return stats


def clear_last_scan_stats() -> None:
    global _LAST_SCAN_STATS
    _LAST_SCAN_STATS = None


def _rebuild_context(catalog, generator, path: str,
                     width: int) -> PackedScanContext:
    from repro.squatting.detector import SquattingDetector  # lazy: no cycle
    return PackedScanContext(SquattingDetector(catalog, generator),
                             PackedZone.load(path), width=width)


def _packed_scan_slice(context: PackedScanContext, bounds: Tuple[int, int]
                       ) -> Tuple[List[SquatMatch], KernelStats]:
    before = context.kernel.copy()
    matches = context.scan_slice(*bounds)
    return matches, context.kernel.delta(before)


def _packed_count_slice(context: PackedScanContext, bounds: Tuple[int, int]
                        ) -> Tuple[Dict[SquatType, int], KernelStats]:
    before = context.kernel.copy()
    histogram = context.count_slice(*bounds)
    return histogram, context.kernel.delta(before)


def _run_slices(slice_fn, detector, zone: PackedZone, workers: int,
                width: Optional[int]) -> list:
    """``slice_fn`` over every id slice, results in slice order.

    The merged :class:`KernelStats` are published via
    :func:`take_last_scan_stats`.
    """
    global _LAST_SCAN_STATS
    n = zone.n_registered
    bounds = [(i, min(i + PACKED_CHUNK, n)) for i in range(0, n, PACKED_CHUNK)]
    context = PackedScanContext(detector, zone, width=width)
    results = process_map(slice_fn, bounds, workers, context=context)
    total = KernelStats()
    for _, delta in results:
        total.merge(delta)
    _LAST_SCAN_STATS = total
    return [chunk for chunk, _ in results]


def packed_scan(detector, zone: PackedZone, workers: int = 1,
                width: Optional[int] = None) -> List[SquatMatch]:
    """Vectorized :meth:`SquattingDetector.scan` over a packed zone.

    Slice results concatenate in id order, so output equals the serial
    dict-backed scan for any worker count.  ``width`` forces a (>=
    natural) label-matrix width so repeated scans over differently-sized
    zones — the streaming driver's per-segment delta scans — share one
    cached :class:`DetectorMatrices` build; results are identical at any
    legal width.  The run's :class:`KernelStats` are published via
    :func:`take_last_scan_stats`.
    """
    chunks = _run_slices(_packed_scan_slice, detector, zone, workers, width)
    return [match for chunk in chunks for match in chunk]


def packed_scan_counts(detector, zone: PackedZone, workers: int = 1,
                       width: Optional[int] = None) -> Dict[SquatType, int]:
    """Vectorized :meth:`SquattingDetector.scan_counts` over a packed zone."""
    counts: Dict[SquatType, int] = {t: 0 for t in SquatType}
    for histogram in _run_slices(_packed_count_slice, detector, zone,
                                 workers, width):
        for squat_type, count in histogram.items():
            counts[squat_type] += count
    return counts
