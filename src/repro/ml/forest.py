"""Random Forest: bagged CART trees with per-split feature subsampling.

The paper's deployed model (Table 7: AUC 0.97).  Probability output is the
mean of member-tree leaf probabilities, which gives the smooth scores the
ROC analysis (Fig 10) needs.

Each tree's randomness comes from ``np.random.default_rng([seed, index])``
— a per-tree stream derived only from the forest seed and the tree's
position, never from how many trees were fitted before it.  That makes
tree fits order-independent, so ``fit(workers=N)`` can fan tree chunks
out through :func:`~repro.perf.engine.process_map` (the forest and the
training matrix are each worker's context) and merge them back in index
order with predictions that byte-match the serial build.  ``workers`` is
a pure throughput knob.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.ml.base import Classifier, check_xy
from repro.ml.tree import DecisionTree
from repro.perf.engine import process_map, work_shards


def _fit_tree_chunk(context, indices: List[int]) -> List[DecisionTree]:
    forest, x, y = context
    return [forest._fit_one_tree(index, x, y) for index in indices]


class RandomForest(Classifier):
    """Bootstrap-aggregated decision trees."""

    def __init__(
        self,
        n_trees: int = 40,
        max_depth: int = 12,
        min_samples_split: int = 4,
        min_samples_leaf: int = 1,
        max_features: Optional[str] = "sqrt",
        seed: int = 7,
    ) -> None:
        if n_trees < 1:
            raise ValueError("need at least one tree")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self._trees: Optional[List[DecisionTree]] = None

    def _features_per_split(self, total: int) -> Optional[int]:
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(total)))
        if self.max_features == "log2":
            return max(1, int(math.log2(total)))
        if self.max_features is None:
            return None
        raise ValueError(f"unsupported max_features {self.max_features!r}")

    def _fit_one_tree(self, index: int, x: "np.ndarray", y: "np.ndarray") -> DecisionTree:
        """Fit tree ``index`` from its own seed stream (order-independent)."""
        tree_rng = np.random.default_rng([self.seed, index])
        n = x.shape[0]
        sample = tree_rng.integers(0, n, size=n)
        tree = DecisionTree(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self._features_per_split(x.shape[1]),
            rng=tree_rng,
        )
        # hand the bootstrap to the indexed build as row indices — same
        # fitted tree, no full-width (n × features) copy per tree
        return tree.fit(x, y, sample=sample)

    def fit(self, x, y, workers: int = 1) -> "RandomForest":
        x, y = check_xy(x, y)
        if len(y) == 0:
            raise ValueError("empty training set")
        chunks = process_map(_fit_tree_chunk,
                             work_shards(range(self.n_trees), workers),
                             workers, context=(self, x, y))
        # merge in index order: chunk results come back in submission order
        self._trees = [tree for part in chunks for tree in part]
        return self

    def predict_proba(self, x) -> "np.ndarray":
        self._require_fitted("_trees")
        x, _ = check_xy(x)
        votes = np.zeros(x.shape[0])
        for tree in self._trees:
            votes += tree.predict_proba(x)
        return votes / len(self._trees)

    @property
    def feature_importances(self) -> "np.ndarray":
        """Mean impurity-decrease importance across member trees."""
        self._require_fitted("_trees")
        stacked = np.stack([tree.feature_importances for tree in self._trees])
        mean = stacked.mean(axis=0)
        total = mean.sum()
        return mean / total if total else mean

    def top_features(self, names: Optional[List[str]] = None, n: int = 10):
        """(name-or-index, importance) pairs, most important first."""
        importances = self.feature_importances
        order = np.argsort(-importances)[:n]
        out = []
        for index in order:
            label = names[index] if names is not None else int(index)
            out.append((label, float(importances[index])))
        return out
