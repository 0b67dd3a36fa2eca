"""Unit tests for cross-validation, grid search and ML metrics."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml import (
    DecisionTreeClassifier,
    GridSearchCV,
    KFold,
    cross_val_score,
)
from repro.ml.metrics import geometric_mean, grouped_importance


def _make_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 4))
    labels = (features[:, 0] - features[:, 1] > 0).astype(int)
    return features, labels


class TestModelSelection:
    def test_kfold_partitions_everything(self):
        kfold = KFold(n_splits=3, random_state=1)
        seen = []
        for train, test in kfold.split(20):
            assert set(train) | set(test) == set(range(20))
            assert not set(train) & set(test)
            seen.extend(test.tolist())
        assert sorted(seen) == list(range(20))

    def test_kfold_too_few_samples(self):
        with pytest.raises(ModelError):
            list(KFold(n_splits=5).split(3))

    def test_cross_val_score_returns_per_fold(self):
        features, labels = _make_data()
        scores = cross_val_score(
            DecisionTreeClassifier(max_depth=4), features, labels, KFold(3)
        )
        assert scores.shape == (3,)
        assert np.all(scores > 0.8)

    def test_grid_search_selects_reasonable_depth(self):
        features, labels = _make_data(n=400)
        search = GridSearchCV(
            DecisionTreeClassifier(),
            {"max_depth": [1, 4, 8]},
            KFold(3, random_state=0),
        )
        search.fit(features, labels)
        assert search.best_params_["max_depth"] in (4, 8)
        assert search.best_score_ > 0.85
        assert len(search.results_) == 3

    def test_grid_search_predict_uses_best(self):
        features, labels = _make_data(n=200)
        search = GridSearchCV(
            DecisionTreeClassifier(), {"max_depth": [2, 6]}, KFold(3)
        )
        search.fit(features, labels)
        assert np.mean(search.predict(features) == labels) > 0.85


class TestMetrics:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ModelError):
            geometric_mean([1.0, 0.0])

    def test_grouped_importance(self):
        grouped = grouped_importance(
            np.array([0.5, 0.25, 0.25]), ["a", "b", "a"]
        )
        assert grouped == {"a": 0.75, "b": 0.25}

    def test_grouped_importance_length_mismatch(self):
        with pytest.raises(ModelError):
            grouped_importance(np.array([1.0]), ["a", "b"])
