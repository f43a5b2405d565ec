"""Keyword-frequency embedding (§5.2).

The vocabulary seeds from all brand names, then grows with the most frequent
keywords of the ground-truth corpus; each page becomes a sparse vector of
per-channel keyword frequencies plus a few numeric features.  Channels can
be toggled for the feature-family ablation (the paper's central claim is
that the OCR channel survives obfuscation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.features.extraction import PageFeatures
from repro.nlp.vocab import Vocabulary


@dataclass
class EmbeddingConfig:
    """Which feature families enter the vector, and vocabulary sizing."""

    use_ocr: bool = True
    use_lexical: bool = True
    use_forms: bool = True
    use_numeric: bool = True
    # keywords learned from the ground-truth corpus, on top of the brand-name
    # seeds (paper: 987 dimensions ≈ 766 brand names + ~220 corpus keywords)
    extra_keywords: int = 285
    min_keyword_count: int = 3


class FeatureEmbedder:
    """Fit a vocabulary on training pages, then vectorize any page."""

    NUMERIC_FEATURES = ("form_count", "password_input_count", "script_count")

    def __init__(
        self,
        brand_names: Sequence[str],
        config: Optional[EmbeddingConfig] = None,
    ) -> None:
        self.config = config or EmbeddingConfig()
        self.vocabulary = Vocabulary()
        for name in brand_names:
            self.vocabulary.add(name)
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(self, pages: Sequence[PageFeatures]) -> "FeatureEmbedder":
        """Grow the vocabulary with frequent ground-truth keywords."""
        token_lists = [page.all_tokens() for page in pages]
        self.vocabulary.fit_frequent(
            token_lists,
            max_words=len(self.vocabulary) + self.config.extra_keywords,
            min_count=self.config.min_keyword_count,
        )
        self._fitted = True
        return self

    def feature_names(self) -> List[str]:
        """Channel-prefixed name of every vector position.

        ``ocr:password``, ``lexical:paypal``, ``form:username``,
        ``numeric:form_count`` — used to interpret classifier feature
        importances.
        """
        names: List[str] = []
        words = self.vocabulary.words()
        for enabled, channel in ((self.config.use_ocr, "ocr"),
                                 (self.config.use_lexical, "lexical"),
                                 (self.config.use_forms, "form")):
            if enabled:
                names.extend(f"{channel}:{word}" for word in words)
        if self.config.use_numeric:
            names.extend(f"numeric:{name}" for name in self.NUMERIC_FEATURES)
        return names

    @property
    def dimension(self) -> int:
        """Length of the emitted vectors."""
        channels = sum(
            1 for enabled in (self.config.use_ocr, self.config.use_lexical,
                              self.config.use_forms) if enabled
        )
        numeric = len(self.NUMERIC_FEATURES) if self.config.use_numeric else 0
        return channels * len(self.vocabulary) + numeric

    # ------------------------------------------------------------------
    def transform_one(self, page: PageFeatures) -> "np.ndarray":
        """Vectorize one page."""
        return self.transform([page])[0]

    def transform(self, pages: Sequence[PageFeatures]) -> "np.ndarray":
        """Vectorize a batch of pages into an (n, d) matrix.

        The whole batch is built as one allocation per channel: tokens from
        every page resolve to (row, column) pairs and a single scatter-add
        fills the channel block.  Counts are whole floats, so accumulation
        order can't change a byte versus a per-page, per-token build.
        """
        if not self._fitted:
            raise RuntimeError("embedder must be fitted before transform")
        if not pages:
            return np.zeros((0, self.dimension))
        n = len(pages)
        vocab_size = len(self.vocabulary)
        blocks: List[np.ndarray] = []
        channel_tokens = (
            (self.config.use_ocr, "ocr_tokens"),
            (self.config.use_lexical, "lexical_tokens"),
            (self.config.use_forms, "form_tokens"),
        )
        for enabled, attr in channel_tokens:
            if not enabled:
                continue
            rows: List[int] = []
            cols: List[int] = []
            for row, page in enumerate(pages):
                for token in getattr(page, attr):
                    index = self.vocabulary.index(token)
                    if index is not None:
                        rows.append(row)
                        cols.append(index)
            block = np.zeros((n, vocab_size))
            if rows:
                np.add.at(block, (np.array(rows), np.array(cols)), 1.0)
            blocks.append(block)
        if self.config.use_numeric:
            blocks.append(np.array([
                [float(getattr(page, name)) for name in self.NUMERIC_FEATURES]
                for page in pages
            ]))
        if not blocks:
            return np.zeros((n, 0))
        return np.concatenate(blocks, axis=1)

    def fit_transform(self, pages: Sequence[PageFeatures]) -> "np.ndarray":
        self.fit(pages)
        return self.transform(pages)
