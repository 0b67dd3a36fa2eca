"""Training pipeline for the SparseAdapt predictive model.

Trains one :class:`~repro.ml.decision_tree.DecisionTreeClassifier` per
runtime parameter, sweeping ``criterion``, ``max_depth``, and
``min_samples_leaf`` with 3-fold cross-validation (paper Section 5.1).
A process-wide cache keyed by the training recipe keeps benchmark and
example code from retraining identical models.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.dataset import TrainingSet, build_training_set, table3_phases
from repro.core.model import SparseAdaptModel
from repro.core.modes import OptimizationMode
from repro.errors import ModelError
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.model_selection import GridSearchCV, KFold

__all__ = [
    "DEFAULT_PARAM_GRID",
    "QUICK_PARAM_GRID",
    "train_model",
    "train_default_model",
    "clear_model_cache",
]

#: Paper hyperparameter sweep (Section 5.1), trimmed to tractable sizes.
DEFAULT_PARAM_GRID: Dict[str, Sequence] = {
    "criterion": ("gini", "entropy"),
    "max_depth": (6, 10, 14),
    "min_samples_leaf": (1, 5, 20),
}

#: Fast grid for tests and examples.
QUICK_PARAM_GRID: Dict[str, Sequence] = {
    "criterion": ("gini",),
    "max_depth": (10,),
    "min_samples_leaf": (5,),
}

_MODEL_CACHE: Dict[tuple, SparseAdaptModel] = {}


def train_model(
    training_set: TrainingSet,
    l1_type: str = "cache",
    param_grid: Optional[Dict[str, Sequence]] = None,
    n_folds: int = 3,
    seed: int = 0,
) -> SparseAdaptModel:
    """Fit the per-parameter tree ensemble on a training set."""
    if training_set.n_examples < n_folds:
        raise ModelError("training set smaller than the number of folds")
    param_grid = param_grid or DEFAULT_PARAM_GRID
    trees: Dict[str, object] = {}
    chosen: Dict[str, dict] = {}
    parameters = list(training_set.labels)
    if l1_type == "spm":
        parameters = [p for p in parameters if p != "l1_kb"]
    for name in parameters:
        labels = training_set.labels[name]
        if np.unique(labels).size == 1:
            # Degenerate phase mix: a single-leaf tree is still valid.
            tree = DecisionTreeClassifier(max_depth=1)
            tree.fit(training_set.features, labels)
            trees[name] = tree
            chosen[name] = {"constant": True}
            continue
        single_candidate = all(len(v) == 1 for v in param_grid.values())
        if single_candidate:
            params = {key: values[0] for key, values in param_grid.items()}
            tree = DecisionTreeClassifier(**params)
            tree.fit(training_set.features, labels)
            trees[name] = tree
            chosen[name] = params
            continue
        search = GridSearchCV(
            DecisionTreeClassifier(),
            param_grid,
            KFold(n_splits=n_folds, shuffle=True, random_state=seed),
        )
        search.fit(training_set.features, labels)
        trees[name] = search.best_estimator_
        chosen[name] = dict(search.best_params_)
    return SparseAdaptModel(trees=trees, l1_type=l1_type, hyperparameters=chosen)


def train_default_model(
    mode: OptimizationMode,
    kernel: str = "spmspv",
    l1_type: str = "cache",
    quick: bool = True,
    k_samples: int = 24,
    seed: int = 0,
) -> SparseAdaptModel:
    """Train (or fetch from cache) the stock model for a mode/kernel.

    The stock model uses the reduced Table-3 sweep of
    :func:`repro.core.dataset.default_grid`. ``quick=True`` skips the
    hyperparameter search (single sensible setting) — appropriate for
    tests and examples; benchmarks regenerating Figure 9/10 use the
    full grid.
    """
    key = (mode, kernel, l1_type, quick, k_samples, seed)
    if key in _MODEL_CACHE:
        return _MODEL_CACHE[key]
    from repro.obs import profile as obs_profile

    with obs_profile.span("model_training"):
        phases = table3_phases(kernel, l1_type=l1_type, seed=seed)
        training_set = build_training_set(
            phases, mode, k_samples=k_samples, seed=seed
        )
        model = train_model(
            training_set,
            l1_type=l1_type,
            param_grid=QUICK_PARAM_GRID if quick else DEFAULT_PARAM_GRID,
            seed=seed,
        )
    _MODEL_CACHE[key] = model
    return model


def clear_model_cache() -> None:
    """Drop all cached stock models (used by tests)."""
    _MODEL_CACHE.clear()
