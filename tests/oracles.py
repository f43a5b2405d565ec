"""Reference oracles for the vectorized hot paths of the classifier (§5).

Each kernel in ``src`` replaced a straightforward implementation: the
per-feature split loop and per-row node walk of the CART tree, the
rolled-copy opening and cell-by-cell decode of the OCR engine, the
per-page embedding build and the length-bucket spell-check scan.  Those
implementations live here, unchanged, as oracles; nothing in ``src``
imports this module.

Plain functions take the component whose state they read.  Where an
oracle runs inside a component's own loop (the tree recursion, which
draws from ``self.rng`` and accumulates ``self._importance`` in a fixed
order; the band decode inside ``recognize``'s alignment retry; the
search inside ``correct_word``'s dictionary and memo checks), a small
subclass swaps it in.  Kernel → oracle → equivalence tests:

- ``DecisionTree`` split scan, indexed build and batch descent →
  :class:`ReferenceTree` (:func:`best_split_reference`,
  :func:`predict_proba_reference`) → ``test_ml_models.py::
  TestVectorizedEquivalence::test_tree_matches_reference``;
- ``RandomForest``'s indexed bootstrap → :class:`ReferenceForest` →
  ``test_ml_models.py::TestVectorizedEquivalence::
  test_forest_matches_reference``;
- ``ocr.engine._runs_at_least`` and ``remove_form_lines`` →
  :func:`runs_at_least_reference`, :func:`remove_form_lines_reference` →
  ``test_ocr.py::TestLegacyEquivalence::test_runs_at_least_matches_reference``
  and ``::test_remove_form_lines_matches_reference``;
- ``OCREngine._decode_at`` → :class:`ReferenceOCREngine`
  (:func:`decode_at_reference`) → ``test_ocr.py::TestLegacyEquivalence::
  test_recognize_matches_reference_*``;
- ``FeatureEmbedder.transform`` → :func:`transform_one_reference` →
  ``test_features.py::TestEmbedding::test_batch_transform_matches_reference``;
- ``SpellChecker._search`` → :class:`ReferenceSpellChecker`
  (:func:`search_reference`) → ``test_spellcheck.py::
  TestDeletionIndexEquivalence``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.features.embedding import FeatureEmbedder
from repro.features.extraction import PageFeatures
from repro.ml.base import check_xy
from repro.ml.forest import RandomForest
from repro.ml.tree import DecisionTree, _Node
from repro.ocr.engine import _CELL_PITCH, _CONFUSION_MAP, OCREngine
from repro.ocr.font import FONT, GLYPH_HEIGHT, GLYPH_WIDTH
from repro.ocr.spellcheck import MAX_DISTANCE, SpellChecker, damerau_levenshtein


# ----------------------------------------------------------------------
# CART tree and random forest
# ----------------------------------------------------------------------
def best_split_reference(tree: DecisionTree, x: "np.ndarray",
                         y: "np.ndarray") -> tuple:
    """Per-feature split loop: the first feature whose best boundary beats
    the running best by a strict ``>`` wins."""
    n = x.shape[0]
    positives = y.sum()
    features = tree._candidate_features(x.shape[1])

    best_gain = 1e-12
    best = (-1, 0.0)
    parent_gini = tree._gini(positives, n)
    for feature in features:
        column = x[:, feature]
        order = np.argsort(column, kind="stable")
        sorted_col = column[order]
        sorted_y = y[order]
        # cumulative positives left of each boundary
        cum_pos = np.cumsum(sorted_y)
        boundaries = np.nonzero(sorted_col[1:] > sorted_col[:-1])[0]
        if len(boundaries) == 0:
            continue
        left_n = boundaries + 1
        right_n = n - left_n
        valid = (left_n >= tree.min_samples_leaf) & (right_n >= tree.min_samples_leaf)
        if not valid.any():
            continue
        left_pos = cum_pos[boundaries]
        right_pos = positives - left_pos
        gini_left = tree._gini_vec(left_pos, left_n)
        gini_right = tree._gini_vec(right_pos, right_n)
        children = (left_n * gini_left + right_n * gini_right) / n
        gains = np.where(valid, parent_gini - children, -1.0)
        index = int(gains.argmax())
        if gains[index] > best_gain:
            best_gain = float(gains[index])
            boundary = boundaries[index]
            threshold = (sorted_col[boundary] + sorted_col[boundary + 1]) / 2.0
            best = (int(feature), float(threshold))
    return best


def predict_proba_reference(tree: DecisionTree, x: "np.ndarray") -> "np.ndarray":
    """Per-row walk down the fitted node tree."""
    out = np.empty(x.shape[0])
    for i, row in enumerate(x):
        node = tree._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out[i] = node.prediction
    return out


class ReferenceTree(DecisionTree):
    """A tree built by copied-slice recursion over the per-feature split
    loop, and predicted by the per-row walk."""

    def _build_indexed(self, x, y, idx, depth):
        return self._build(x[idx], y[idx], depth)

    def _build(self, x: "np.ndarray", y: "np.ndarray", depth: int) -> _Node:
        prediction = float(y.mean())
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or prediction in (0.0, 1.0)
        ):
            return _Node(prediction=prediction)
        feature, threshold = best_split_reference(self, x, y)
        if feature < 0:
            return _Node(prediction=prediction)
        mask = x[:, feature] <= threshold
        # weighted impurity decrease, accumulated for feature importances
        n = len(y)
        parent_gini = self._gini(y.sum(), n)
        left_gini = self._gini(y[mask].sum(), mask.sum())
        right_gini = self._gini(y[~mask].sum(), n - mask.sum())
        children_gini = (mask.sum() * left_gini + (n - mask.sum()) * right_gini) / n
        self._importance[feature] += (n / self._n_samples) * (parent_gini - children_gini)
        left = self._build(x[mask], y[mask], depth + 1)
        right = self._build(x[~mask], y[~mask], depth + 1)
        return _Node(
            prediction=prediction, feature=feature, threshold=threshold,
            left=left, right=right,
        )

    def predict_proba(self, x) -> "np.ndarray":
        self._require_fitted("_root")
        x, _ = check_xy(x)
        return predict_proba_reference(self, x)


class ReferenceForest(RandomForest):
    """A forest whose trees are :class:`ReferenceTree` fitted on the
    copied bootstrap ``x[sample]`` rather than on sample indices."""

    def _fit_one_tree(self, index: int, x: "np.ndarray", y: "np.ndarray") -> DecisionTree:
        tree_rng = np.random.default_rng([self.seed, index])
        n = x.shape[0]
        sample = tree_rng.integers(0, n, size=n)
        tree = ReferenceTree(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self._features_per_split(x.shape[1]),
            rng=tree_rng,
        )
        return tree.fit(x[sample], y[sample])


# ----------------------------------------------------------------------
# OCR
# ----------------------------------------------------------------------
def runs_at_least_reference(ink: "np.ndarray", length: int,
                            axis: int) -> "np.ndarray":
    """Rolled-copy opening: min over ``length`` shifts, then max back."""
    if ink.shape[axis] < length:
        return np.zeros_like(ink)
    windows = [np.roll(ink, shift, axis=axis) for shift in range(length)]
    eroded = np.minimum.reduce(windows)
    # zero out the wrap-around region introduced by roll
    if axis == 0:
        eroded[:length - 1, :] = 0
    else:
        eroded[:, :length - 1] = 0
    dilations = [np.roll(eroded, -shift, axis=axis) for shift in range(length)]
    return np.maximum.reduce(dilations)


def remove_form_lines_reference(ink: "np.ndarray") -> "np.ndarray":
    """Form-line removal by rolled-copy openings over the whole raster."""
    horizontal = runs_at_least_reference(ink, GLYPH_WIDTH + 2, axis=1)
    vertical = runs_at_least_reference(ink, GLYPH_HEIGHT + 2, axis=0)
    cleaned = ink.copy()
    cleaned[(horizontal | vertical) > 0] = 0
    return cleaned


_TEMPLATE_CHARS = [char for char in FONT if char != " "]
_TEMPLATE_MATRIX = np.stack(
    [FONT[char].astype(np.int16).ravel() for char in _TEMPLATE_CHARS]
)


def _match_cell(cell: "np.ndarray") -> Tuple[str, float]:
    """Score a glyph cell against all templates; return best match."""
    total = cell.size
    disagreement = np.abs(_TEMPLATE_MATRIX - cell.ravel()).sum(axis=1)
    index = int(disagreement.argmin())
    score = float(total - disagreement[index]) / total
    return _TEMPLATE_CHARS[index], score


def _apply_noise(engine: OCREngine, char: str, rng: "np.random.Generator",
                 noise_scale: float = 1.0) -> str:
    if char == " ":
        return char
    drop_rate = min(0.2, engine.drop_rate * noise_scale)
    error_rate = min(0.6, engine.error_rate * noise_scale)
    roll = rng.random()
    if roll < drop_rate:
        return ""
    if roll < drop_rate + error_rate:
        return _CONFUSION_MAP.get(char, char)
    return char


def decode_at_reference(
    engine: OCREngine, band: "np.ndarray", start: int,
    rng: "np.random.Generator", noise_scale: float = 1.0,
) -> Tuple[str, List[float], int]:
    """Cell-by-cell decode: match, then roll noise, one cell at a time."""
    out: List[str] = []
    confidences: List[float] = []
    cells = 0
    x = start
    blank_run = 0
    while x + GLYPH_WIDTH <= band.shape[1]:
        cell = band[:, x:x + GLYPH_WIDTH]
        if cell.sum() == 0:
            blank_run += 1
            x += _CELL_PITCH
            # a run of 2+ blank cells is a word gap
            if blank_run == 1 and out and out[-1] != " ":
                out.append(" ")
            continue
        blank_run = 0
        char, confidence = _match_cell(cell)
        cells += 1
        char = _apply_noise(engine, char, rng, noise_scale)
        if char:
            out.append(char)
            confidences.append(confidence)
        x += _CELL_PITCH
    text = "".join(out)
    return text, confidences, cells


class ReferenceOCREngine(OCREngine):
    """An engine whose bands decode cell by cell."""

    def _decode_at(self, band, start, rng, noise_scale=1.0):
        return decode_at_reference(self, band, start, rng, noise_scale)


# ----------------------------------------------------------------------
# embedding
# ----------------------------------------------------------------------
def transform_one_reference(embedder: FeatureEmbedder,
                            page: PageFeatures) -> "np.ndarray":
    """Per-page, per-token vector build."""
    if not embedder._fitted:
        raise RuntimeError("embedder must be fitted before transform")
    vocab_size = len(embedder.vocabulary)
    blocks: List[np.ndarray] = []
    channel_tokens = (
        (embedder.config.use_ocr, page.ocr_tokens),
        (embedder.config.use_lexical, page.lexical_tokens),
        (embedder.config.use_forms, page.form_tokens),
    )
    for enabled, tokens in channel_tokens:
        if not enabled:
            continue
        block = np.zeros(vocab_size)
        for token in tokens:
            index = embedder.vocabulary.index(token)
            if index is not None:
                block[index] += 1.0
        blocks.append(block)
    if embedder.config.use_numeric:
        blocks.append(np.array([
            float(getattr(page, name)) for name in embedder.NUMERIC_FEATURES
        ]))
    return np.concatenate(blocks) if blocks else np.zeros(0)


# ----------------------------------------------------------------------
# spell check
# ----------------------------------------------------------------------
def search_reference(by_length: Dict[int, List[str]], lowered: str,
                     max_distance: int = MAX_DISTANCE) -> str:
    """Scan the length-adjacent buckets in length order, each in insertion
    order, and return the first word at distance 1."""
    best: Optional[str] = None
    best_distance = max_distance + 1
    for length in range(len(lowered) - max_distance,
                        len(lowered) + max_distance + 1):
        for candidate in by_length.get(length, ()):
            distance = damerau_levenshtein(lowered, candidate, cap=max_distance)
            if distance < best_distance:
                best_distance = distance
                best = candidate
                if distance == 1:
                    # distance 0 is impossible here (not in dictionary)
                    return best
    return best if best is not None else lowered


class ReferenceSpellChecker(SpellChecker):
    """A checker that keeps per-length word lists and searches them by
    :func:`search_reference`."""

    def __init__(self, *args, **kwargs) -> None:
        self.by_length: Dict[int, List[str]] = defaultdict(list)
        super().__init__(*args, **kwargs)

    def add_word(self, word: str) -> None:
        lowered = word.lower()
        if lowered and lowered not in self:
            self.by_length[len(lowered)].append(lowered)
        super().add_word(word)

    def _search(self, lowered: str) -> str:
        return search_reference(self.by_length, lowered)
