"""Raw feature extraction from one captured page (§5.1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.nlp.stopwords import remove_stopwords
from repro.nlp.tokenizer import tokenize
from repro.ocr.engine import OCREngine
from repro.ocr.spellcheck import SpellChecker
from repro.web.html import (
    Element,
    form_attributes,
    forms,
    lexical_texts,
    parse_html,
    scripts,
)
from repro.web.javascript import ObfuscationIndicators, analyze_scripts


@dataclass
class PageFeatures:
    """The three §5.1 feature families for one page."""

    ocr_tokens: List[str] = field(default_factory=list)
    lexical_tokens: List[str] = field(default_factory=list)
    form_tokens: List[str] = field(default_factory=list)
    form_count: int = 0
    password_input_count: int = 0
    script_count: int = 0
    js_indicators: Optional[ObfuscationIndicators] = None

    def all_tokens(self) -> List[str]:
        return self.ocr_tokens + self.lexical_tokens + self.form_tokens

    def copy(self) -> "PageFeatures":
        """Independent copy of the mutable token lists.

        ``js_indicators`` is shared — it is immutable once analyzed.
        Cache hits return copies so callers can't mutate the cached entry.
        """
        return PageFeatures(
            ocr_tokens=list(self.ocr_tokens),
            lexical_tokens=list(self.lexical_tokens),
            form_tokens=list(self.form_tokens),
            form_count=self.form_count,
            password_input_count=self.password_input_count,
            script_count=self.script_count,
            js_indicators=self.js_indicators,
        )


class FeatureExtractor:
    """HTML + screenshot → :class:`PageFeatures`.

    OCR output goes through tokenization, stopword removal, and spell
    correction (§5.2); HTML-side texts skip correction since they carry no
    recognition noise.
    """

    def __init__(
        self,
        ocr_engine: Optional[OCREngine] = None,
        spell_checker: Optional[SpellChecker] = None,
        use_ocr: bool = True,
        use_spellcheck: bool = True,
        extra_lexicon: Optional[list] = None,
        cache=None,
    ) -> None:
        """
        Args:
            extra_lexicon: additional correction targets, typically the
                brand names of the catalog (§5.2 corrects OCR output against
                brand and form vocabulary).
            cache: optional :class:`~repro.perf.cache.CaptureCache`;
                memoizes whole extractions by page-content digest and
                enables the spell checker's word memo.
        """
        self.ocr = ocr_engine or OCREngine()
        self.spell = spell_checker or SpellChecker()
        if extra_lexicon:
            self.spell.add_words(extra_lexicon)
        self.use_ocr = use_ocr
        self.use_spellcheck = use_spellcheck
        self.cache = cache
        if cache is not None and cache.enabled:
            # word-level correction is pure, so memoizing it cannot change
            # output; gated on the cache flag so --no-capture-cache runs
            # measure the uncached baseline
            self.spell.enable_memo(cache.stats)

    def extract(self, html: str, screenshot_pixels=None) -> PageFeatures:
        """Extract features from page markup and (optionally) its raster."""
        if self.cache is not None:
            key = self.cache.feature_key(
                html, screenshot_pixels if self.use_ocr else None,
                (self.use_ocr, self.use_spellcheck))
            cached = self.cache.lookup_features(key)
            if cached is not None:
                return cached.copy()
            features = self._extract(html, screenshot_pixels)
            self.cache.store_features(key, features.copy())
            return features
        return self._extract(html, screenshot_pixels)

    def _extract(self, html: str, screenshot_pixels=None) -> PageFeatures:
        tree = parse_html(html)
        features = PageFeatures()

        # OCR family
        if self.use_ocr and screenshot_pixels is not None:
            recognized = self.ocr.recognize(screenshot_pixels).text
            if self.use_spellcheck:
                recognized = self.spell.correct_text(recognized.replace("\n", " "))
            features.ocr_tokens = remove_stopwords(tokenize(recognized))

        # lexical family (h/p/a/title tags)
        texts = lexical_texts(tree)
        lexical_blob = " ".join(" ".join(values) for values in texts.values())
        features.lexical_tokens = remove_stopwords(tokenize(lexical_blob))

        # form family
        features.form_tokens = remove_stopwords(tokenize(" ".join(form_attributes(tree))))
        page_forms = forms(tree)
        features.form_count = len(page_forms)
        features.password_input_count = sum(
            1
            for form in page_forms
            for node in form.iter()
            if node.tag == "input" and node.get("type") == "password"
        )

        # script indicators (used by the evasion analysis, not the embedding)
        script_bodies = scripts(tree)
        features.script_count = len(script_bodies)
        features.js_indicators = analyze_scripts(script_bodies)
        return features

    def extract_capture(self, capture) -> PageFeatures:
        """Extract from a :class:`~repro.web.browser.PageCapture`."""
        pixels = capture.screenshot.pixels if capture.screenshot is not None else None
        return self.extract(capture.html, pixels)
