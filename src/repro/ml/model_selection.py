"""Cross-validation and hyperparameter search.

The paper trains its decision trees "using k-fold cross-validation with
k = 3, while sweeping the hyperparameters of criterion, max_depth, and
min_samples_leaf" (Section 5.1). :class:`GridSearchCV` reproduces that
procedure for any estimator exposing ``fit``/``score``/``get_params``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError

__all__ = ["KFold", "cross_val_score", "GridSearchCV"]


class KFold:
    """Deterministic k-fold splitter with optional shuffling."""

    def __init__(
        self,
        n_splits: int = 3,
        shuffle: bool = True,
        random_state: Optional[int] = 0,
    ) -> None:
        if n_splits < 2:
            raise ModelError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, n_samples: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_indices, test_indices)`` for each fold."""
        if n_samples < self.n_splits:
            raise ModelError(
                f"cannot split {n_samples} samples into {self.n_splits} folds"
            )
        indices = np.arange(n_samples)
        if self.shuffle:
            rng = np.random.default_rng(self.random_state)
            rng.shuffle(indices)
        folds = np.array_split(indices, self.n_splits)
        for i in range(self.n_splits):
            test = folds[i]
            train = np.concatenate(
                [folds[j] for j in range(self.n_splits) if j != i]
            )
            yield train, test


def cross_val_score(
    estimator,
    features: np.ndarray,
    labels: np.ndarray,
    kfold: Optional[KFold] = None,
) -> np.ndarray:
    """Per-fold scores of an unfitted estimator under k-fold CV."""
    from repro.ml.decision_tree import clone_estimator

    kfold = kfold or KFold()
    features = np.asarray(features)
    labels = np.asarray(labels)
    scores = []
    for train_idx, test_idx in kfold.split(features.shape[0]):
        fold_model = clone_estimator(estimator)
        fold_model.fit(features[train_idx], labels[train_idx])
        scores.append(fold_model.score(features[test_idx], labels[test_idx]))
    return np.array(scores)


@dataclass
class GridSearchCV:
    """Exhaustive hyperparameter search with k-fold cross-validation.

    Parameters
    ----------
    estimator:
        Prototype estimator (unfitted) providing ``get_params``.
    param_grid:
        Mapping from parameter name to the sequence of values to sweep.
    kfold:
        Fold splitter; defaults to the paper's 3-fold CV.
    """

    estimator: object
    param_grid: Dict[str, Sequence]
    kfold: KFold = field(default_factory=KFold)
    best_params_: Optional[dict] = None
    best_score_: float = -np.inf
    best_estimator_: Optional[object] = None
    results_: List[dict] = field(default_factory=list)

    def _candidates(self) -> Iterator[dict]:
        names = sorted(self.param_grid)
        for values in itertools.product(*(self.param_grid[n] for n in names)):
            yield dict(zip(names, values))

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "GridSearchCV":
        """Evaluate every grid point, refit the best on all data."""
        from repro.ml.decision_tree import clone_estimator

        features = np.asarray(features)
        labels = np.asarray(labels)
        self.results_ = []
        self.best_score_ = -np.inf
        self.best_params_ = None
        for params in self._candidates():
            candidate = clone_estimator(self.estimator, **params)
            scores = cross_val_score(candidate, features, labels, self.kfold)
            mean_score = float(scores.mean())
            self.results_.append({"params": params, "mean_score": mean_score})
            if mean_score > self.best_score_:
                self.best_score_ = mean_score
                self.best_params_ = params
        if self.best_params_ is None:
            raise ModelError("param_grid produced no candidates")
        self.best_estimator_ = clone_estimator(
            self.estimator, **self.best_params_
        )
        self.best_estimator_.fit(features, labels)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict with the refitted best estimator."""
        if self.best_estimator_ is None:
            raise ModelError("search has not been fit")
        return self.best_estimator_.predict(features)
