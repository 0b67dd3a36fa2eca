"""Unit tests for the from-scratch CART implementation."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml import DecisionTreeClassifier
from repro.ml.decision_tree import clone_estimator


def _make_classification(n=400, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 5))
    labels = (features[:, 0] + 0.5 * features[:, 2] > 0).astype(int)
    return features, labels


class TestClassifier:
    def test_fits_separable_data_perfectly(self):
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier().fit(features, labels)
        assert tree.score(features, labels) == 1.0
        assert tree.depth() == 1

    def test_respects_max_depth(self):
        features, labels = _make_classification()
        tree = DecisionTreeClassifier(max_depth=3).fit(features, labels)
        assert tree.depth() <= 3

    def test_min_samples_leaf_enforced(self):
        features, labels = _make_classification(n=200)
        tree = DecisionTreeClassifier(min_samples_leaf=30).fit(
            features, labels
        )

        def leaf_sizes(node):
            if node.is_leaf:
                return [node.n_samples]
            return leaf_sizes(node.left) + leaf_sizes(node.right)

        assert min(leaf_sizes(tree.root_)) >= 30

    def test_arbitrary_label_types(self):
        features, labels = _make_classification(n=100)
        string_labels = np.where(labels == 1, "shared", "private")
        tree = DecisionTreeClassifier(max_depth=4).fit(
            features, string_labels
        )
        predictions = tree.predict(features)
        assert set(predictions.tolist()) <= {"shared", "private"}
        assert tree.score(features, string_labels) > 0.9

    def test_predict_proba_sums_to_one(self):
        features, labels = _make_classification()
        tree = DecisionTreeClassifier(max_depth=5).fit(features, labels)
        probs = tree.predict_proba(features[:20])
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_feature_importances_identify_signal(self):
        features, labels = _make_classification(n=600)
        tree = DecisionTreeClassifier(max_depth=6).fit(features, labels)
        importances = tree.feature_importances_
        assert importances.sum() == pytest.approx(1.0)
        # Features 0 and 2 carry the signal; 1, 3, 4 are noise.
        assert importances[0] > importances[1]
        assert importances[0] > importances[3]

    def test_entropy_criterion_works(self):
        features, labels = _make_classification()
        tree = DecisionTreeClassifier(criterion="entropy", max_depth=6)
        tree.fit(features, labels)
        assert tree.score(features, labels) > 0.9

    def test_pruning_reduces_leaves(self):
        features, labels = _make_classification(n=500, seed=3)
        noisy = labels.copy()
        noisy[::17] = 1 - noisy[::17]
        full = DecisionTreeClassifier().fit(features, noisy)
        pruned = DecisionTreeClassifier(ccp_alpha=0.02).fit(features, noisy)
        assert pruned.n_leaves() < full.n_leaves()

    def test_multiclass(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(300, 3))
        labels = np.digitize(features[:, 0], [-0.5, 0.5])
        tree = DecisionTreeClassifier(max_depth=4).fit(features, labels)
        assert tree.score(features, labels) > 0.95
        assert tree.classes_.size == 3

    def test_single_class_gives_leaf(self):
        features = np.ones((10, 2))
        labels = np.zeros(10)
        tree = DecisionTreeClassifier().fit(features, labels)
        assert tree.depth() == 0
        assert np.all(tree.predict(features) == 0)

    def test_unfitted_predict_raises(self):
        with pytest.raises(ModelError):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))

    def test_wrong_feature_count_raises(self):
        features, labels = _make_classification(n=50)
        tree = DecisionTreeClassifier(max_depth=2).fit(features, labels)
        with pytest.raises(ModelError):
            tree.predict(np.zeros((3, 9)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ModelError):
            DecisionTreeClassifier(criterion="mse")
        with pytest.raises(ModelError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ModelError):
            DecisionTreeClassifier(min_samples_leaf=0)

    def test_deterministic(self):
        features, labels = _make_classification()
        a = DecisionTreeClassifier(max_depth=6).fit(features, labels)
        b = DecisionTreeClassifier(max_depth=6).fit(features, labels)
        assert np.array_equal(a.predict(features), b.predict(features))


class TestCloneEstimator:
    def test_clone_copies_params(self):
        tree = DecisionTreeClassifier(max_depth=7, criterion="entropy")
        clone = clone_estimator(tree)
        assert clone.max_depth == 7
        assert clone.criterion == "entropy"
        assert clone.root_ is None

    def test_clone_with_overrides(self):
        tree = DecisionTreeClassifier(max_depth=7)
        clone = clone_estimator(tree, max_depth=2)
        assert clone.max_depth == 2


class TestDecisionPath:
    def test_path_reaches_predicts_leaf(self):
        features, labels = _make_classification()
        tree = DecisionTreeClassifier(max_depth=5).fit(features, labels)
        for row in features[:50]:
            path = tree.decision_path(row)
            assert path["leaf"]["prediction"] == tree.predict(
                row.reshape(1, -1)
            )[0]

    def test_steps_follow_threshold_comparisons(self):
        features, labels = _make_classification()
        tree = DecisionTreeClassifier(max_depth=4).fit(features, labels)
        path = tree.decision_path(features[0])
        for depth, step in enumerate(path["steps"]):
            assert step["depth"] == depth
            observed = features[0][step["feature"]]
            assert step["value"] == pytest.approx(observed)
            if step["direction"] == "le":
                assert observed <= step["threshold"]
            else:
                assert observed > step["threshold"]
        assert path["leaf"]["depth"] == len(path["steps"])
        assert path["leaf"]["n_samples"] >= 1

    def test_margin_bounds(self):
        features, labels = _make_classification()
        tree = DecisionTreeClassifier(max_depth=6).fit(features, labels)
        for row in features[:20]:
            margin = tree.decision_path(row)["leaf"]["margin"]
            assert 0.0 <= margin <= 1.0

    def test_single_class_margin_is_one(self):
        features = np.zeros((10, 2))
        labels = np.ones(10, dtype=int)
        tree = DecisionTreeClassifier().fit(features, labels)
        assert tree.decision_path(features[0])["leaf"]["margin"] == 1.0

    def test_unfitted_raises(self):
        with pytest.raises(ModelError):
            DecisionTreeClassifier().decision_path(np.zeros(3))

    def test_wrong_feature_count_raises(self):
        features, labels = _make_classification(n=50)
        tree = DecisionTreeClassifier().fit(features, labels)
        with pytest.raises(ModelError):
            tree.decision_path(np.zeros(3))

    def test_path_is_json_friendly(self):
        import json

        features, labels = _make_classification()
        tree = DecisionTreeClassifier(max_depth=4).fit(features, labels)
        json.dumps(tree.decision_path(features[0]))
