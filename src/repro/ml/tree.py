"""CART decision tree (gini impurity, binary classification).

Split search is fully vectorized: all candidate feature columns are sorted
in one 2-D pass and every boundary's gini gain is scored by
cumulative-class-count scans over the whole (samples × features) block —
no per-feature Python loop.  Prediction is vectorized too: the fitted tree
is flattened into parallel node arrays and a whole matrix descends level
by level.

Both hot paths keep a *reference* twin (``legacy=True``) — the original
per-feature / per-row implementations — used by the equivalence tests to
prove the vectorized paths return byte-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ml.base import Classifier, check_xy


@dataclass
class _Node:
    """One tree node; leaves carry the positive-class probability."""

    prediction: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTree(Classifier):
    """Binary CART tree."""

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_split: int = 4,
        min_samples_leaf: int = 1,
        max_features: Optional[int] = None,
        rng: Optional["np.random.Generator"] = None,
        legacy: bool = False,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng or np.random.default_rng(0)
        self.legacy = legacy
        self._root: Optional[_Node] = None
        self._n_features = 0

    def fit(self, x, y, sample: Optional["np.ndarray"] = None) -> "DecisionTree":
        """Fit on ``x``/``y``, or on the rows ``sample`` indexes into them.

        ``sample`` (bootstrap row indices, possibly repeating) trains the
        tree exactly as ``fit(x[sample], y[sample])`` would — the indexed
        build keeps the sample's row order — without materializing the
        full-width copy.
        """
        x, y = check_xy(x, y)
        if len(y if sample is None else sample) == 0:
            raise ValueError("empty training set")
        self._n_features = x.shape[1]
        self._importance = np.zeros(self._n_features)
        y = y.astype(np.float64)
        if self.legacy:
            if sample is not None:
                x, y = x[sample], y[sample]
            self._n_samples = x.shape[0]
            self._root = self._build(x, y, depth=0)
        else:
            if sample is None:
                sample = np.arange(x.shape[0], dtype=np.int64)
            else:
                sample = np.asarray(sample, dtype=np.int64)
            self._n_samples = len(sample)
            # recurse on row indices into the one full matrix: a node only
            # ever materializes its (rows × candidate-features) block, never
            # a full-width copy of x per side like the reference build does
            self._root = self._build_indexed(x, y, sample, depth=0)
        self._flatten()
        return self

    @property
    def feature_importances(self) -> "np.ndarray":
        """Impurity-decrease importance per feature (sums to 1 if any)."""
        self._require_fitted("_root")
        total = self._importance.sum()
        if total == 0:
            return self._importance.copy()
        return self._importance / total

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict_proba(self, x) -> "np.ndarray":
        self._require_fitted("_root")
        x, _ = check_xy(x)
        if self.legacy:
            return self._predict_proba_reference(x)
        # vectorized descent: every row tracks its current node index and
        # the whole batch steps one level at a time.  The comparisons are
        # the same ``row[feature] <= threshold`` floats as the reference
        # walk, so the leaf assignment (and output) is byte-identical.
        index = np.zeros(x.shape[0], dtype=np.int64)
        active = np.nonzero(self._node_feature[index] >= 0)[0]
        while len(active):
            at = index[active]
            go_left = (x[active, self._node_feature[at]]
                       <= self._node_threshold[at])
            index[active] = np.where(go_left, self._node_left[at],
                                     self._node_right[at])
            active = active[self._node_feature[index[active]] >= 0]
        return self._node_value[index]

    def _predict_proba_reference(self, x: "np.ndarray") -> "np.ndarray":
        """Reference per-row node walk (the pre-vectorization hot path)."""
        out = np.empty(x.shape[0])
        for i, row in enumerate(x):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        return out

    def _flatten(self) -> None:
        """Linearize the node tree into parallel arrays for batch descent.

        ``feature == -1`` marks a leaf; internal nodes carry child indices
        into the same arrays.
        """
        features, thresholds, lefts, rights, values = [], [], [], [], []

        def walk(node: _Node) -> int:
            index = len(features)
            features.append(node.feature if not node.is_leaf else -1)
            thresholds.append(node.threshold)
            lefts.append(0)
            rights.append(0)
            values.append(node.prediction)
            if not node.is_leaf:
                lefts[index] = walk(node.left)
                rights[index] = walk(node.right)
            return index

        walk(self._root)
        self._node_feature = np.array(features, dtype=np.int64)
        self._node_threshold = np.array(thresholds, dtype=np.float64)
        self._node_left = np.array(lefts, dtype=np.int64)
        self._node_right = np.array(rights, dtype=np.int64)
        self._node_value = np.array(values, dtype=np.float64)

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def _build(self, x: "np.ndarray", y: "np.ndarray", depth: int) -> _Node:
        prediction = float(y.mean())
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or prediction in (0.0, 1.0)
        ):
            return _Node(prediction=prediction)
        feature, threshold = self._best_split(x, y)
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

    def _build_indexed(self, x: "np.ndarray", y: "np.ndarray",
                       idx: "np.ndarray", depth: int) -> _Node:
        """The vectorized build: identical recursion to :meth:`_build`, but
        a node carries its *row indices* into the one full matrix instead
        of a full-width copy of its slice — the split search then gathers
        only the (rows × candidate-features) block it actually scans."""
        labels = y[idx]
        prediction = float(labels.mean())
        if (
            depth >= self.max_depth
            or len(idx) < self.min_samples_split
            or prediction in (0.0, 1.0)
        ):
            return _Node(prediction=prediction)
        feature, threshold = self._split_indexed(x, labels, idx)
        if feature < 0:
            return _Node(prediction=prediction)
        go_left = x[idx, feature] <= threshold
        n = len(idx)
        parent_gini = self._gini(labels.sum(), n)
        left_gini = self._gini(labels[go_left].sum(), go_left.sum())
        right_gini = self._gini(labels[~go_left].sum(), n - go_left.sum())
        children_gini = (go_left.sum() * left_gini
                         + (n - go_left.sum()) * right_gini) / n
        self._importance[feature] += (n / self._n_samples) * (parent_gini - children_gini)
        left = self._build_indexed(x, y, idx[go_left], depth + 1)
        right = self._build_indexed(x, y, idx[~go_left], depth + 1)
        return _Node(
            prediction=prediction, feature=feature, threshold=threshold,
            left=left, right=right,
        )

    def _candidate_features(self, total_features: int) -> "np.ndarray":
        if self.max_features and self.max_features < total_features:
            return self.rng.choice(total_features, size=self.max_features,
                                   replace=False)
        return np.arange(total_features)

    def _best_split(self, x: "np.ndarray", y: "np.ndarray") -> tuple:
        if self.legacy:
            return self._best_split_reference(x, y)
        features = self._candidate_features(x.shape[1])
        return self._scan_columns(x[:, features], y, features)

    def _split_indexed(self, x: "np.ndarray", labels: "np.ndarray",
                       idx: "np.ndarray") -> tuple:
        features = self._candidate_features(x.shape[1])
        columns = x[idx[:, None], features[None, :]]
        return self._scan_columns(columns, labels, features)

    def _scan_columns(self, columns: "np.ndarray", y: "np.ndarray",
                      features: "np.ndarray") -> tuple:
        """Best (feature, threshold) over the gathered candidate columns.

        One 2-D pass: sort every candidate column at once, scan cumulative
        positive counts for every boundary of every column, and pick the
        first feature (in candidate order) attaining the maximal gain —
        exactly the winner the reference per-feature loop selects, because
        ``argmax`` breaks ties toward the earlier boundary / feature just
        as the loop's strict ``>`` update does.
        """
        n = columns.shape[0]
        positives = y.sum()
        parent_gini = self._gini(positives, n)

        order = np.argsort(columns, axis=0, kind="stable")
        sorted_cols = np.take_along_axis(columns, order, axis=0)
        cum_pos = np.cumsum(y[order], axis=0)                  # (n, m)

        left_n = np.arange(1, n, dtype=np.int64)[:, None]      # (n-1, 1)
        right_n = n - left_n
        boundary = sorted_cols[1:] > sorted_cols[:-1]          # (n-1, m)
        valid = boundary & (left_n >= self.min_samples_leaf) \
            & (right_n >= self.min_samples_leaf)
        left_pos = cum_pos[:-1]
        right_pos = positives - left_pos
        gini_left = self._gini_vec(left_pos, left_n)
        gini_right = self._gini_vec(right_pos, right_n)
        children = (left_n * gini_left + right_n * gini_right) / n
        gains = np.where(valid, parent_gini - children, -1.0)  # (n-1, m)

        per_feature_row = gains.argmax(axis=0)                 # first max per column
        per_feature_gain = gains[per_feature_row, np.arange(gains.shape[1])]
        winner = int(per_feature_gain.argmax())                # first max across columns
        if per_feature_gain[winner] <= 1e-12:
            return (-1, 0.0)
        row = per_feature_row[winner]
        threshold = (sorted_cols[row, winner] + sorted_cols[row + 1, winner]) / 2.0
        return (int(features[winner]), float(threshold))

    def _best_split_reference(self, x: "np.ndarray", y: "np.ndarray") -> tuple:
        """Reference per-feature split loop (the pre-vectorization search)."""
        n = x.shape[0]
        positives = y.sum()
        features = self._candidate_features(x.shape[1])

        best_gain = 1e-12
        best = (-1, 0.0)
        parent_gini = self._gini(positives, n)
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
            valid = (left_n >= self.min_samples_leaf) & (right_n >= self.min_samples_leaf)
            if not valid.any():
                continue
            left_pos = cum_pos[boundaries]
            right_pos = positives - left_pos
            gini_left = self._gini_vec(left_pos, left_n)
            gini_right = self._gini_vec(right_pos, right_n)
            children = (left_n * gini_left + right_n * gini_right) / n
            gains = np.where(valid, parent_gini - children, -1.0)
            index = int(gains.argmax())
            if gains[index] > best_gain:
                best_gain = float(gains[index])
                boundary = boundaries[index]
                threshold = (sorted_col[boundary] + sorted_col[boundary + 1]) / 2.0
                best = (int(feature), float(threshold))
        return best

    @staticmethod
    def _gini(positives: float, count: float) -> float:
        if count == 0:
            return 0.0
        p = positives / count
        return 2.0 * p * (1.0 - p)

    @staticmethod
    def _gini_vec(positives: "np.ndarray", counts: "np.ndarray") -> "np.ndarray":
        # every caller passes counts >= 1 (boundary side sizes), so the
        # plain divide is safe and skips the where/out masking machinery
        p = positives / counts
        return 2.0 * p * (1.0 - p)
