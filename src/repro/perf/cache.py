"""Content-addressed capture cache: skip duplicate render/OCR work.

Squatting crawls are dominated by a handful of page templates — registrar
parking pages, marketplace "for sale" landers, bare login portals, and
template phishing kits stamped out per brand.  Rendering and OCR-ing the
same bytes thousands of times is pure waste, so the pipeline keys the
expensive artifacts by *content digest*:

* **render layer** — ``(served-body digest, UA profile, snapshot epoch)``
  → (executed HTML, screenshot raster).  Two domains serving byte-identical
  markup share one render; a cloaked site serves different markup per UA
  and therefore can never share entries across profiles (the UA is in the
  key *and* the digest differs).
* **feature layer** — ``(HTML digest, raster digest, extractor flags)`` →
  :class:`~repro.features.extraction.PageFeatures`.  OCR, spell
  correction, and tokenization run once per distinct page content.
* **spell memo** — per-checker word → correction memo (see
  :class:`~repro.ocr.spellcheck.SpellChecker`), counted here.

Because every cached computation is a *pure function of the key* (renders
are deterministic, OCR noise is seeded by raster content, spell correction
by word), cache hits return byte-identical artifacts — ``--no-capture-cache``
runs byte-match cached runs, which the test suite asserts.

The cache is a pair of plain dictionaries touched from one thread: the
crawl runs its domain groups in order (see :mod:`repro.web.crawler`), so
the first visit of a key misses and stores, and every later one hits.
Misses therefore equal distinct keys, which keeps the CLI's counter
output byte-deterministic.  Counters still never enter snapshot digests.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional, Tuple

from repro.perf.report import CacheStats

#: sentinel digest for "no raster" feature keys
NO_RASTER = "-"


def content_digest(text: str) -> str:
    """SHA-256 of a text blob (the cache's address space)."""
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def raster_digest(pixels: Optional[Any]) -> str:
    """SHA-256 of a screenshot raster (shape-qualified), or a sentinel."""
    if pixels is None:
        return NO_RASTER
    hasher = hashlib.sha256()
    hasher.update(repr(getattr(pixels, "shape", None)).encode())
    hasher.update(pixels.tobytes())
    return hasher.hexdigest()


class CaptureCache:
    """Process-wide content-addressed cache for rendered-page artifacts.

    One instance serves a whole pipeline run and is shared by every
    browser (crawl lanes and degraded-stage visits) and the feature
    extractor.  With ``enabled=False`` every lookup is a *bypass*:
    it misses unconditionally, stores nothing, and only counts how much
    traffic the cache would have absorbed.
    """

    def __init__(self, enabled: bool = True,
                 stats: Optional[CacheStats] = None) -> None:
        self.enabled = enabled
        self.stats = stats if stats is not None else CacheStats()
        self._render: Dict[Tuple[str, str, int], Tuple[str, Any]] = {}
        self._features: Dict[Tuple[str, str, Tuple], Any] = {}

    # ------------------------------------------------------------------
    # render layer
    # ------------------------------------------------------------------
    @staticmethod
    def render_key(body: str, profile: str, snapshot: int) -> Tuple[str, str, int]:
        """Address of one rendered page: content × UA profile × epoch."""
        return (content_digest(body), profile, snapshot)

    def lookup_render(self, key: Tuple[str, str, int]) -> Optional[Tuple[str, Any]]:
        """Cached ``(executed html, screenshot)`` for a served body, or None."""
        if not self.enabled:
            self.stats.render_bypasses += 1
            return None
        hit = self._render.get(key)
        if hit is not None:
            self.stats.render_hits += 1
        else:
            self.stats.render_misses += 1
        return hit

    def store_render(self, key: Tuple[str, str, int], html: str,
                     screenshot: Any) -> None:
        if not self.enabled:
            return
        self._render.setdefault(key, (html, screenshot))

    # ------------------------------------------------------------------
    # feature layer
    # ------------------------------------------------------------------
    @staticmethod
    def feature_key(html: str, pixels: Optional[Any],
                    flags: Tuple) -> Tuple[str, str, Tuple]:
        """Address of one feature extraction: page content × extractor flags."""
        return (content_digest(html), raster_digest(pixels), flags)

    def lookup_features(self, key: Tuple[str, str, Tuple]) -> Optional[Any]:
        """Cached :class:`PageFeatures` for page content, or None."""
        if not self.enabled:
            self.stats.feature_bypasses += 1
            return None
        hit = self._features.get(key)
        if hit is not None:
            self.stats.feature_hits += 1
        else:
            self.stats.feature_misses += 1
        return hit

    def store_features(self, key: Tuple[str, str, Tuple], features: Any) -> None:
        if not self.enabled:
            return
        self._features.setdefault(key, features)

    # ------------------------------------------------------------------
    def entry_counts(self) -> Dict[str, int]:
        """Number of distinct entries per layer (diagnostics/tests)."""
        return {"render": len(self._render), "features": len(self._features)}

    def render_keys(self):
        """Snapshot of render-layer keys (tests: cloaking isolation)."""
        return list(self._render.keys())
