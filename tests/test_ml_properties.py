"""Hypothesis property tests for the ML substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import DecisionTreeClassifier


@st.composite
def classification_data(draw):
    n = draw(st.integers(10, 80))
    d = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    labels = rng.integers(0, draw(st.integers(2, 4)), size=n)
    return features, labels


@given(classification_data())
@settings(max_examples=40, deadline=None)
def test_predictions_are_seen_labels(data):
    features, labels = data
    tree = DecisionTreeClassifier(max_depth=4).fit(features, labels)
    predictions = tree.predict(features)
    assert set(predictions.tolist()) <= set(labels.tolist())


@given(classification_data())
@settings(max_examples=40, deadline=None)
def test_unbounded_tree_memorizes_consistent_data(data):
    """If no two identical feature rows carry different labels, an
    unrestricted tree must reach 100% training accuracy."""
    features, labels = data
    keys = {}
    consistent = True
    for row, label in zip(map(tuple, features.round(9)), labels):
        if keys.setdefault(row, label) != label:
            consistent = False
            break
    if not consistent:
        return
    tree = DecisionTreeClassifier().fit(features, labels)
    assert tree.score(features, labels) == 1.0


@given(classification_data())
@settings(max_examples=40, deadline=None)
def test_probabilities_are_distributions(data):
    features, labels = data
    tree = DecisionTreeClassifier(max_depth=3).fit(features, labels)
    probs = tree.predict_proba(features)
    assert np.all(probs >= -1e-12)
    assert np.allclose(probs.sum(axis=1), 1.0)


@given(classification_data())
@settings(max_examples=40, deadline=None)
def test_importances_normalized_or_zero(data):
    features, labels = data
    tree = DecisionTreeClassifier(max_depth=5).fit(features, labels)
    total = tree.feature_importances_.sum()
    assert np.all(tree.feature_importances_ >= 0)
    assert total == 0.0 or abs(total - 1.0) < 1e-9


@given(classification_data(), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_depth_limit_respected(data, max_depth):
    features, labels = data
    tree = DecisionTreeClassifier(max_depth=max_depth).fit(features, labels)
    assert tree.depth() <= max_depth
