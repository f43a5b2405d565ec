"""Content-digested artifact wrappers for every inter-stage payload.

Every payload that crosses a stage boundary — squat matches, crawl
snapshots, ground-truth pages, CV reports, flagged/verified sets, evasion
measurements — travels inside an :class:`Artifact` carrying a canonical
SHA-256 content digest.  Digests serve two masters:

* **invalidation** — a downstream stage's fingerprint includes its input
  digests, so it re-runs exactly when an upstream artifact's *content*
  changed (not when it was merely recomputed to the same bytes);
* **determinism auditing** — a resumed or incrementally re-run pipeline
  must reproduce the digests of a fresh serial run byte for byte, which
  the incremental test-suite and the bench ledger's incremental layer
  assert.

Digesters are canonical, not ``pickle``-based: pickling sets and dicts can
reorder across processes (``PYTHONHASHSEED``), so each payload type hashes
a sorted/stable textual form instead.  Payloads without a canonical
digester (e.g. a trained model) get a *derived* digest from the producing
stage's fingerprint — sound because every stage is a deterministic
function of (code, config slice, inputs).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping

from repro.perf.cache import content_digest, raster_digest


@dataclass
class Artifact:
    """One named, content-digested inter-stage payload."""

    name: str
    digest: str
    payload: Any
    meta: Dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# digest helpers
# ----------------------------------------------------------------------

def _hash_lines(kind: str, lines: Iterable[str]) -> str:
    """SHA-256 of a type tag plus newline-joined canonical lines."""
    hasher = hashlib.sha256()
    hasher.update(f"{kind}\n".encode())
    for line in lines:
        hasher.update(line.encode("utf-8", "surrogatepass"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def _features_repr(features: Any) -> str:
    """Stable text form of a PageFeatures (order-preserving token lists)."""
    if features is None:
        return "-"
    return repr((
        features.ocr_tokens,
        features.lexical_tokens,
        features.form_tokens,
        features.form_count,
        features.password_input_count,
        features.script_count,
        features.js_indicators,
    ))


def digest_squat_matches(matches: Iterable[Any]) -> str:
    """Canonical digest of a squat-match list (scan output, in scan order)."""
    return _hash_lines("squat_matches", (
        f"{m.domain}|{m.brand}|{m.squat_type.value}|{m.detail or ''}"
        for m in matches
    ))


def digest_packed_zone(zone: Any) -> str:
    """Digest of a packed zone snapshot (the pack stage's artifact).

    The snapshot file already carries a SHA-256 over its payload bytes in
    its header, so the artifact digest is a cheap re-tag of that — no
    records are walked.
    """
    return _hash_lines("packed_zone", [zone.content_digest])


def digest_enrichment(table: Any) -> str:
    """Digest of a bulk-enrichment table (the enrich stage's artifact).

    The table's own :meth:`digest` hashes fully decoded rows — values,
    not intern ids — so this artifact digest is identical however the
    table was produced (serial, concurrent, hedged, fault-swept).
    """
    return _hash_lines("enrichment", [table.digest()])


def digest_crawl_snapshot(snapshot: Any) -> str:
    """Digest of one :class:`~repro.web.crawler.CrawlSnapshot`.

    Folds the snapshot's own canonical :meth:`digest` (the determinism
    contract's unit of comparison) into the artifact address space.
    """
    return _hash_lines("crawl_snapshot", [snapshot.digest()])


def digest_crawl_snapshots(snapshots: Iterable[Any]) -> str:
    """Digest of an ordered series of crawl snapshots (follow-ups)."""
    return _hash_lines("crawl_snapshots",
                       (snapshot.digest() for snapshot in snapshots))


def digest_ground_truth(pages: Iterable[Any]) -> str:
    """Digest of the labelled ground-truth corpus.

    Includes the extracted features: the training stage must be
    invalidated when extractor flags change the features even though the
    underlying captures are identical.
    """
    return _hash_lines("ground_truth", (
        "|".join((
            page.domain, page.brand, str(page.label), page.source,
            content_digest(page.html),
            raster_digest(page.screenshot_pixels),
            content_digest(_features_repr(page.features)),
        ))
        for page in pages
    ))


def digest_cv_reports(reports: Mapping[str, Any]) -> str:
    """Digest of the cross-validation report dict (model name → report)."""
    return _hash_lines("cv_reports", (
        f"{name}|{reports[name]!r}" for name in sorted(reports)
    ))


def digest_detections(flagged: Iterable[Any]) -> str:
    """Digest of the wild-detection (flagged page) list."""
    return _hash_lines("flagged", (
        "|".join((
            detection.domain, detection.profile, detection.brand,
            detection.squat_type.value, repr(detection.score),
            content_digest(detection.capture.html),
            raster_digest(detection.capture.screenshot.pixels),
            content_digest(_features_repr(detection.features)),
        ))
        for detection in flagged
    ))


def digest_verified(verified: Iterable[Any]) -> str:
    """Digest of the verified-phish list."""
    return _hash_lines("verified", (
        f"{v.domain}|{v.brand}|{v.squat_type.value}|{','.join(v.profiles)}"
        for v in verified
    ))


def digest_evasion(measurements: Iterable[Any]) -> str:
    """Digest of an evasion-measurement list."""
    return _hash_lines("evasion", (
        f"{m.domain}|{m.brand}|{m.layout_distance}|"
        f"{m.string_obfuscated}|{m.code_obfuscated}"
        for m in measurements
    ))


def derived_digest(fingerprint: Mapping[str, str], output: str) -> str:
    """Fingerprint-derived digest for payloads without a canonical form.

    Deterministic stages make this sound: same (code, config, inputs) ⇒
    same output, so the fingerprint addresses the content.
    """
    return _hash_lines("derived", (
        output,
        fingerprint.get("code", ""),
        fingerprint.get("config", ""),
        fingerprint.get("inputs", ""),
    ))
