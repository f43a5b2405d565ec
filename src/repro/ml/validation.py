"""Stratified k-fold cross-validation (Table 7 uses 10-fold).

Folds are independent given the split assignment, so ``cross_validate``
can fan them out through :func:`~repro.perf.engine.process_map`, with
``(make_model, x, y)`` as each worker's context.  Every fold's
out-of-fold scores are written back into one pooled array indexed by the
fold's test indices — positions never overlap, so the merged array is
byte-identical no matter how many workers ran or in what order folds
finished.  ``workers`` is a pure throughput knob.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Tuple

import numpy as np

from repro.ml.base import Classifier
from repro.ml.metrics import ClassificationReport, classification_report
from repro.perf.engine import process_map

def _cv_fold(context, split: Tuple["np.ndarray", "np.ndarray"]):
    make_model, x, y = context
    train_idx, test_idx = split
    model = make_model()
    model.fit(x[train_idx], y[train_idx])
    return test_idx, model.predict_proba(x[test_idx])


def stratified_kfold(
    y, k: int = 10, seed: int = 13
) -> Iterator[Tuple["np.ndarray", "np.ndarray"]]:
    """Yield (train_idx, test_idx) pairs with per-class balance."""
    y = np.asarray(y).astype(int)
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(y), dtype=int)
    for cls in np.unique(y):
        members = np.nonzero(y == cls)[0]
        members = members[rng.permutation(len(members))]
        for i, index in enumerate(members):
            fold_of[index] = i % k
    for fold in range(k):
        test_mask = fold_of == fold
        yield np.nonzero(~test_mask)[0], np.nonzero(test_mask)[0]


def cross_validate(
    make_model: Callable[[], Classifier],
    x,
    y,
    k: int = 10,
    seed: int = 13,
    threshold: float = 0.5,
    workers: int = 1,
) -> ClassificationReport:
    """k-fold CV; metrics are computed over the pooled out-of-fold scores.

    Pooling (rather than averaging per-fold metrics) matches how a single
    Table 7 row summarizes one model.  With ``workers > 1`` the folds fit
    concurrently; on spawn-start platforms ``make_model`` must then be
    picklable (a module-level function or callable object, not a lambda).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y).astype(int)
    scores = np.empty(len(y), dtype=np.float64)
    splits = list(stratified_kfold(y, k=k, seed=seed))
    for test_idx, fold_scores in process_map(_cv_fold, splits, workers,
                                             context=(make_model, x, y)):
        scores[test_idx] = fold_scores
    return classification_report(y, scores, threshold=threshold)
