"""Template-matching OCR engine over bitmap-font rasters.

The engine plays Tesseract's role in §5.1.  It performs genuine recognition
work in three stages, mirroring a classical OCR pipeline:

1. **line segmentation** — find horizontal ink bands;
2. **cell segmentation** — split each band into glyph-pitch cells, detecting
   word gaps from blank columns;
3. **template matching** — score each cell against every font glyph
   (normalized pixel agreement) and emit the best match.

A configurable noise model perturbs a small fraction of glyph cells before
matching, reproducing Tesseract's ~3% character error rate and its
characteristic confusions ("password" → "passwod"), which the spell-check
stage (§5.2) then repairs.  Noise is deterministic per raster content.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ocr.font import FONT, GLYPH_HEIGHT, GLYPH_SPACING, GLYPH_WIDTH

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultInjector

_CELL_PITCH = GLYPH_WIDTH + GLYPH_SPACING

# Pairs that the noise model may swap (classic OCR confusions).
CONFUSION_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("o", "0"), ("l", "1"), ("i", "l"), ("s", "5"), ("e", "c"),
    ("n", "m"), ("u", "v"), ("r", "n"), ("b", "h"), ("g", "q"),
)
_CONFUSION_MAP: Dict[str, str] = {}
for _a, _b in CONFUSION_PAIRS:
    _CONFUSION_MAP.setdefault(_a, _b)
    _CONFUSION_MAP.setdefault(_b, _a)


def _runs_at_least(ink: "np.ndarray", length: int, axis: int) -> "np.ndarray":
    """Mask of pixels lying on a straight ink run of >= ``length`` cells.

    Morphological opening with a 1-D structuring element.  Two cumulative
    sums replace ``2 × length`` rolled-copy min/max reductions: a trailing
    window is fully inked iff its count equals ``length`` (erosion), and a
    pixel survives dilation iff any eroded seed lies in its forward
    window.  A rolled opening's wrap-around never contributes — the
    wrapped erosion rows are zeroed and wrapped dilation windows only
    ever reach those zeroed rows — so the masks are identical.
    """
    if ink.shape[axis] < length:
        return np.zeros_like(ink)
    flat = np.moveaxis(ink, axis, 0)
    n = flat.shape[0]
    counts = np.cumsum(flat != 0, axis=0, dtype=np.int32)
    window = counts[length - 1:].copy()
    window[1:] -= counts[:n - length]
    eroded = np.zeros(flat.shape, dtype=ink.dtype)
    eroded[length - 1:] = window == length
    seeds = np.cumsum(eroded[::-1], axis=0, dtype=np.int32)[::-1]
    ahead = np.zeros(flat.shape, dtype=np.int32)
    ahead[:n - length] = seeds[length:]
    return np.moveaxis((seeds - ahead > 0).astype(ink.dtype), 0, axis)


def remove_form_lines(ink: "np.ndarray") -> "np.ndarray":
    """Strip form-field borders and rules before recognition.

    Classical OCR preprocessing: glyphs in the 5×7 font never produce a
    horizontal run longer than ``GLYPH_WIDTH`` or a vertical run longer than
    ``GLYPH_HEIGHT``, so longer straight runs are box borders / separators
    and are erased.
    """
    # runs live entirely inside the ink bounding box, so scanning only
    # that window (most rasters are largely margin) changes nothing
    rows = np.flatnonzero(ink.any(axis=1))
    cleaned = ink.copy()
    if len(rows) == 0:
        return cleaned
    cols = np.flatnonzero(ink.any(axis=0))
    window = ink[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    horizontal = _runs_at_least(window, GLYPH_WIDTH + 2, axis=1)
    vertical = _runs_at_least(window, GLYPH_HEIGHT + 2, axis=0)
    cleaned[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1][
        (horizontal | vertical) > 0] = 0
    return cleaned


@dataclass
class OCRResult:
    """Recognized text plus diagnostics."""

    text: str
    lines: List[str] = field(default_factory=list)
    mean_confidence: float = 1.0
    cells_scanned: int = 0

    def words(self) -> List[str]:
        return [w for w in self.text.split() if w]


class OCREngine:
    """Recognize text from a (H, W) uint8 grayscale raster."""

    #: noise multiplier applied to rasters the fault injector garbles —
    #: models Tesseract melting down on a page (bad DPI, font fallback)
    GARBLE_NOISE_SCALE = 12.0

    def __init__(self, error_rate: float = 0.03, drop_rate: float = 0.002,
                 fault_injector: Optional["FaultInjector"] = None) -> None:
        """
        Args:
            error_rate: probability a recognized character is replaced by a
                confusion-pair partner (Tesseract-like ~3%).
            drop_rate: probability a character is dropped entirely.
            fault_injector: optional deterministic fault source; rasters it
                selects are recognized with heavily amplified noise.
        """
        self.error_rate = error_rate
        self.drop_rate = drop_rate
        self.fault_injector = fault_injector
        chars = [char for char in FONT if char != " "]
        self._template_chars = chars
        # (T, H*W) stacked template matrix.  Templates and ink cells are
        # 0/1, so |cell - template| sums to cell·1 + template·1
        # - 2·(cell @ template) — one small matmul instead of a
        # (cells × T × H*W) broadcast
        self._template_float = np.stack(
            [FONT[char].ravel() for char in chars]
        ).astype(np.float64)
        self._template_mass = self._template_float.sum(axis=1)

    # ------------------------------------------------------------------
    def recognize(self, pixels: "np.ndarray") -> OCRResult:
        """Run the full segmentation + matching pipeline."""
        ink = (pixels < 128).astype(np.int16)
        ink = remove_form_lines(ink)
        lines: List[str] = []
        confidences: List[float] = []
        cells = 0
        digest = hashlib.sha256(pixels.tobytes()).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        noise_scale = 1.0
        if self.fault_injector is not None and self.fault_injector.check_ocr(digest.hex()):
            noise_scale = self.GARBLE_NOISE_SCALE
        for top, bottom in self._segment_lines(ink):
            band = ink[top:bottom, :]
            text, band_conf, band_cells = self._recognize_band(band, rng, noise_scale)
            cells += band_cells
            if text.strip():
                lines.append(text.strip())
                confidences.extend(band_conf)
        text = "\n".join(lines)
        mean_conf = float(np.mean(confidences)) if confidences else 0.0
        return OCRResult(text=text, lines=lines, mean_confidence=mean_conf, cells_scanned=cells)

    # ------------------------------------------------------------------
    # segmentation
    # ------------------------------------------------------------------
    @staticmethod
    def _segment_lines(ink: "np.ndarray") -> List[Tuple[int, int]]:
        """Find maximal horizontal bands containing ink."""
        row_ink = ink.sum(axis=1)
        bands: List[Tuple[int, int]] = []
        start: Optional[int] = None
        for y, amount in enumerate(row_ink):
            if amount > 0 and start is None:
                start = y
            elif amount == 0 and start is not None:
                bands.append((start, y))
                start = None
        if start is not None:
            bands.append((start, len(row_ink)))
        # merge bands separated by a single blank row (glyph descenders)
        merged: List[Tuple[int, int]] = []
        for band in bands:
            if merged and band[0] - merged[-1][1] <= 1:
                merged[-1] = (merged[-1][0], band[1])
            else:
                merged.append(band)
        return [b for b in merged if b[1] - b[0] >= 3]

    def _recognize_band(
        self, band: "np.ndarray", rng: "np.random.Generator",
        noise_scale: float = 1.0,
    ) -> Tuple[str, List[float], int]:
        """Recognize one text band cell by cell."""
        height, width = band.shape
        if height < GLYPH_HEIGHT:
            padded = np.zeros((GLYPH_HEIGHT, width), dtype=np.int16)
            padded[:height, :] = band
            band = padded
        elif height > GLYPH_HEIGHT:
            # boxed inputs include border rows; take the densest window
            best_offset = 0
            best_mass = -1
            for offset in range(height - GLYPH_HEIGHT + 1):
                mass = int(band[offset:offset + GLYPH_HEIGHT, :].sum())
                if mass > best_mass:
                    best_mass = mass
                    best_offset = offset
            band = band[best_offset:best_offset + GLYPH_HEIGHT, :]

        col_ink = band.sum(axis=0)
        nonzero = np.nonzero(col_ink)[0]
        if len(nonzero) == 0:
            return "", [], 0
        first = int(nonzero[0])
        # glyphs may start with blank columns ('l', 'i'), so the true cell
        # grid can begin up to 2 columns left of the first ink; decode at
        # each plausible alignment and keep the most confident reading
        best: Tuple[str, List[float], int] = ("", [], 0)
        best_conf = -1.0
        for start in range(max(0, first - 2), first + 1):
            decoded = self._decode_at(band, start, rng, noise_scale)
            conf = float(np.mean(decoded[1])) if decoded[1] else 0.0
            if conf > best_conf:
                best_conf = conf
                best = decoded
        return best

    def _decode_at(
        self, band: "np.ndarray", start: int, rng: "np.random.Generator",
        noise_scale: float = 1.0,
    ) -> Tuple[str, List[float], int]:
        """Decode a band assuming the glyph grid begins at column ``start``.

        Every glyph cell of the band is gathered at once and scored against
        the template matrix in one matmul; the blank-run / noise bookkeeping
        is then replayed sequentially.  The replay consumes exactly one
        ``rng.random()`` draw per non-blank cell, in cell order — the same
        stream a cell-by-cell walk draws — so the decoded text does not
        depend on the batching.
        """
        xs = np.arange(start, band.shape[1] - GLYPH_WIDTH + 1, _CELL_PITCH)
        if len(xs) == 0:
            return "", [], 0
        # (H, k, W) gather -> (k, H*W) rows, matching cell.ravel() order
        block = band[:, xs[:, None] + np.arange(GLYPH_WIDTH)[None, :]]
        flat = block.transpose(1, 0, 2).reshape(len(xs), -1)
        mass = flat.sum(axis=1)
        blank = mass == 0
        total = flat.shape[1]
        chars: List[str] = []
        scores: List[int] = []
        rolls: List[float] = []
        n_active = int(len(blank) - blank.sum())
        if n_active:
            active = flat[~blank].astype(np.float64)
            # exact |cell - template| disagreement via the binary identity
            # (all counts are small integers, exact in float64)
            disagreement = (mass[~blank][:, None] + self._template_mass[None, :]
                            - 2.0 * (active @ self._template_float.T))
            matches = disagreement.argmin(axis=1)              # first min
            chars = [self._template_chars[i] for i in matches.tolist()]
            scores = disagreement[np.arange(len(matches)), matches].tolist()
            rolls = rng.random(len(matches)).tolist()
        drop_rate = min(0.2, self.drop_rate * noise_scale)
        error_rate = min(0.6, self.error_rate * noise_scale)
        out: List[str] = []
        confidences: List[float] = []
        blank_run = 0
        j = 0
        for is_blank in blank.tolist():
            if is_blank:
                blank_run += 1
                # a run of 2+ blank cells is a word gap
                if blank_run == 1 and out and out[-1] != " ":
                    out.append(" ")
                continue
            blank_run = 0
            char = chars[j]
            roll = rolls[j]
            if roll < drop_rate:
                j += 1
                continue
            if roll < drop_rate + error_rate:
                char = _CONFUSION_MAP.get(char, char)
            out.append(char)
            confidences.append(float(total - scores[j]) / total)
            j += 1
        return "".join(out), confidences, n_active
