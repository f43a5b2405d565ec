"""Classifiers: Naive Bayes, k-NN, decision tree, random forest."""

import numpy as np
import pytest

from repro.ml import (
    BernoulliNaiveBayes,
    DecisionTree,
    KNearestNeighbors,
    MultinomialNaiveBayes,
    RandomForest,
)
from tests.oracles import ReferenceForest, ReferenceTree


def separable_data(n=240, d=20, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.poisson(0.3, size=(n, d)).astype(float)
    y = (rng.random(n) < 0.5).astype(int)
    x[y == 1, :4] += rng.poisson(2.0, size=(int(y.sum()), 4))
    return x, y


ALL_MODELS = [
    lambda: MultinomialNaiveBayes(),
    lambda: BernoulliNaiveBayes(),
    lambda: KNearestNeighbors(k=5),
    lambda: KNearestNeighbors(k=3, metric="euclidean"),
    lambda: DecisionTree(max_depth=8),
    lambda: RandomForest(n_trees=10, max_depth=8),
]


@pytest.mark.parametrize("make_model", ALL_MODELS)
def test_learns_separable_data(make_model):
    x, y = separable_data()
    model = make_model().fit(x, y)
    accuracy = (model.predict(x) == y).mean()
    # Bernoulli NB binarizes away the count signal, so it sits a bit lower
    assert accuracy > 0.85


@pytest.mark.parametrize("make_model", ALL_MODELS)
def test_predict_proba_in_unit_interval(make_model):
    x, y = separable_data(n=100)
    probs = make_model().fit(x, y).predict_proba(x)
    assert probs.shape == (100,)
    assert (probs >= 0).all() and (probs <= 1).all()


@pytest.mark.parametrize("make_model", ALL_MODELS)
def test_unfitted_raises(make_model):
    with pytest.raises(RuntimeError):
        make_model().predict_proba(np.zeros((2, 3)))


@pytest.mark.parametrize("make_model", ALL_MODELS)
def test_deterministic_refit(make_model):
    x, y = separable_data(n=120)
    a = make_model().fit(x, y).predict_proba(x)
    b = make_model().fit(x, y).predict_proba(x)
    assert np.allclose(a, b)


class TestNaiveBayes:
    def test_rejects_negative_features(self):
        with pytest.raises(ValueError):
            MultinomialNaiveBayes().fit(np.array([[-1.0, 2.0]]), np.array([1]))

    def test_rejects_single_class(self):
        x = np.ones((4, 2))
        with pytest.raises(ValueError):
            MultinomialNaiveBayes().fit(x, np.zeros(4))

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            MultinomialNaiveBayes(alpha=0)

    def test_prior_shifts_probability(self):
        # same likelihoods, skewed priors -> skewed scores on neutral input
        x = np.array([[1.0, 1.0]] * 10)
        y = np.array([1] * 9 + [0])
        model = MultinomialNaiveBayes().fit(x, y)
        assert model.predict_proba(np.array([[1.0, 1.0]]))[0] > 0.8


class TestKNN:
    def test_k1_memorizes(self):
        x, y = separable_data(n=60)
        model = KNearestNeighbors(k=1).fit(x, y)
        assert (model.predict(x) == y).all()

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            KNearestNeighbors(k=0)

    def test_rejects_bad_metric(self):
        with pytest.raises(ValueError):
            KNearestNeighbors(metric="manhattan")

    def test_zero_vector_does_not_crash_cosine(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        model = KNearestNeighbors(k=1).fit(x, y)
        probs = model.predict_proba(np.array([[0.0, 0.0]]))
        assert np.isfinite(probs).all()


class TestTree:
    def test_pure_node_becomes_leaf(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTree(max_depth=4, min_samples_split=2).fit(x, y)
        assert (tree.predict(x) == y).all()

    def test_max_depth_zero_is_prior(self):
        x, y = separable_data(n=100)
        tree = DecisionTree(max_depth=0).fit(x, y)
        probs = tree.predict_proba(x)
        assert np.allclose(probs, y.mean())

    def test_min_samples_leaf_respected(self):
        x = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.array([0] * 9 + [1])
        tree = DecisionTree(min_samples_leaf=3, min_samples_split=2).fit(x, y)
        # the lone positive cannot be isolated with leaf >= 3
        assert tree.predict_proba(np.array([[9.0]]))[0] < 1.0


class TestVectorizedEquivalence:
    """The vectorized tree and indexed-bootstrap forest reproduce the
    reference oracles of ``tests/oracles.py`` byte for byte."""

    @pytest.mark.parametrize("max_features", [None, 3])
    def test_tree_matches_reference(self, max_features):
        for seed in range(4):
            x, y = separable_data(n=150, d=10, seed=seed)
            x = np.round(x)  # integer grid -> plenty of threshold ties
            fast = DecisionTree(max_depth=8, max_features=max_features,
                                rng=np.random.default_rng(seed)).fit(x, y)
            slow = ReferenceTree(max_depth=8, max_features=max_features,
                                 rng=np.random.default_rng(seed)).fit(x, y)
            assert np.array_equal(fast.predict_proba(x),
                                  slow.predict_proba(x))
            assert np.array_equal(fast.feature_importances,
                                  slow.feature_importances)

    def test_forest_matches_reference(self):
        x, y = separable_data(n=120, d=8, seed=5)
        fast = RandomForest(n_trees=6, max_depth=6, seed=11).fit(x, y)
        slow = ReferenceForest(n_trees=6, max_depth=6, seed=11).fit(x, y)
        assert np.array_equal(fast.predict_proba(x), slow.predict_proba(x))
        assert np.array_equal(fast.feature_importances,
                              slow.feature_importances)


class TestParallelTraining:
    """``workers`` is a pure throughput knob: outputs byte-match serial."""

    def test_forest_fit_workers_byte_identical(self):
        x, y = separable_data(n=160, d=12, seed=9)
        serial = RandomForest(n_trees=10, max_depth=6, seed=3).fit(
            x, y, workers=1)
        for workers in (2, 4):
            fanned = RandomForest(n_trees=10, max_depth=6, seed=3).fit(
                x, y, workers=workers)
            assert np.array_equal(serial.predict_proba(x),
                                  fanned.predict_proba(x))
            assert np.array_equal(serial.feature_importances,
                                  fanned.feature_importances)

    def test_cross_validate_workers_byte_identical(self):
        from repro.core.pipeline import ModelFactory
        from repro.ml.validation import cross_validate

        x, y = separable_data(n=160, d=12, seed=4)
        factory = ModelFactory(name="random_forest", rf_trees=8,
                               rf_max_depth=6, knn_k=5)
        serial = cross_validate(factory, x, y, k=4, workers=1)
        for workers in (2, 3):
            fanned = cross_validate(factory, x, y, k=4, workers=workers)
            assert fanned.row() == serial.row()
            assert fanned.auc == serial.auc
            assert fanned.accuracy == serial.accuracy


class TestForest:
    def test_rejects_zero_trees(self):
        with pytest.raises(ValueError):
            RandomForest(n_trees=0)

    def test_probability_is_tree_average(self):
        x, y = separable_data(n=80)
        forest = RandomForest(n_trees=5, max_depth=4).fit(x, y)
        manual = np.mean([t.predict_proba(x) for t in forest._trees], axis=0)
        assert np.allclose(forest.predict_proba(x), manual)

    def test_seed_changes_ensemble(self):
        x, y = separable_data(n=80, seed=2)
        a = RandomForest(n_trees=5, seed=1).fit(x, y).predict_proba(x)
        b = RandomForest(n_trees=5, seed=2).fit(x, y).predict_proba(x)
        assert not np.allclose(a, b)

    def test_unsupported_max_features(self):
        x, y = separable_data(n=40)
        with pytest.raises(ValueError):
            RandomForest(n_trees=2, max_features="third").fit(x, y)
