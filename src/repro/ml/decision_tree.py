"""The CART classification tree, from scratch.

The paper's predictive model is "an ensemble of decision trees, one per
configuration parameter", trained with Scikit-learn's
``DecisionTreeClassifier`` while sweeping ``criterion``, ``max_depth``,
and ``min_samples_leaf`` with 3-fold cross-validation (Section 5.1).
Scikit-learn is not available offline, so this module implements the
same estimator: binary axis-aligned splits chosen by impurity decrease
(Gini or entropy), depth and leaf-size limits, minimal cost-complexity
pruning, and Gini feature importance (used for Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import ModelError

__all__ = [
    "TreeNode",
    "DecisionTable",
    "DecisionTreeClassifier",
    "clone_estimator",
]

_CRITERIA = ("gini", "entropy")


@dataclass
class TreeNode:
    """One node of a fitted tree.

    Leaves have ``feature == -1``; internal nodes route samples with
    ``x[feature] <= threshold`` to ``left`` and the rest to ``right``.
    """

    feature: int = -1
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    value: np.ndarray = field(default_factory=lambda: np.zeros(0))
    n_samples: int = 0
    impurity: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0

    def count_leaves(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.count_leaves() + self.right.count_leaves()

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())


class DecisionTable:
    """A fitted tree as flat preorder lists indexed by node id::

        feature[n]     splitting feature, -1 for leaves
        threshold[n]   split threshold (x[feature] <= threshold -> left)
        left[n]        left child node id (0 for leaves)
        right[n]       right child node id (0 for leaves)
        parent[n]      parent node id (0 for the root)
        leaf_class[n]  index of the node's first maximal class
        n_samples[n]   training samples that reached the node
        value[n]       the node's class probabilities (a float64 row)

    :meth:`leaf` walks the plain Python lists, which beats both the
    linked-node chase and numpy scalar indexing for one row; every
    prediction, probability and decision path of the classifier is
    read off the leaf it returns.
    """

    __slots__ = (
        "root",
        "classes",
        "feature",
        "threshold",
        "left",
        "right",
        "parent",
        "leaf_class",
        "n_samples",
        "value",
    )

    def __init__(self, root: TreeNode, classes: np.ndarray) -> None:
        self.root = root
        self.classes = classes
        self.feature: List[int] = []
        self.threshold: List[float] = []
        self.left: List[int] = []
        self.right: List[int] = []
        self.parent: List[int] = []
        self.leaf_class: List[int] = []
        self.n_samples: List[int] = []
        values = []

        def visit(node: TreeNode, parent: int) -> int:
            index = len(self.feature)
            self.feature.append(-1 if node.is_leaf else int(node.feature))
            self.threshold.append(float(node.threshold))
            self.left.append(0)
            self.right.append(0)
            self.parent.append(parent)
            self.leaf_class.append(int(np.argmax(node.value)))
            self.n_samples.append(int(node.n_samples))
            values.append(node.value)
            if not node.is_leaf:
                self.left[index] = visit(node.left, index)
                self.right[index] = visit(node.right, index)
            return index

        visit(root, 0)
        self.value = np.array(values, dtype=np.float64)

    def leaf(self, row) -> int:
        """Node id of the leaf a sample (a sequence of floats) reaches."""
        feature = self.feature
        threshold = self.threshold
        left = self.left
        right = self.right
        node = 0
        feat = feature[0]
        while feat >= 0:
            node = (
                left[node] if row[feat] <= threshold[node] else right[node]
            )
            feat = feature[node]
        return node

    def predict_row(self, row) -> object:
        """Decoded prediction for one sample (a sequence of floats)."""
        return self.classes[self.leaf_class[self.leaf(row)]]


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log2(p)))


class DecisionTreeClassifier:
    """CART classification tree with Gini or entropy splitting."""

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        ccp_alpha: float = 0.0,
    ) -> None:
        if criterion not in _CRITERIA:
            raise ModelError(f"criterion must be one of {_CRITERIA}")
        if max_depth is not None and max_depth < 1:
            raise ModelError("max_depth must be >= 1 when given")
        if min_samples_split < 2:
            raise ModelError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ModelError("min_samples_leaf must be >= 1")
        if ccp_alpha < 0:
            raise ModelError("ccp_alpha must be non-negative")
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.ccp_alpha = ccp_alpha
        self.root_: Optional[TreeNode] = None
        self.classes_: Optional[np.ndarray] = None
        self.n_features_: int = 0
        self.feature_importances_: Optional[np.ndarray] = None
        self._table: Optional[DecisionTable] = None

    def get_params(self) -> dict:
        """Constructor parameters, for model-selection clones."""
        return {
            "criterion": self.criterion,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "ccp_alpha": self.ccp_alpha,
        }

    # -- criterion ---------------------------------------------------------
    def _impurity_from_counts(self, counts: np.ndarray) -> float:
        if self.criterion == "gini":
            return _gini(counts)
        return _entropy(counts)

    def _batch_impurity(self, counts: np.ndarray, sizes: np.ndarray):
        """Impurity of many splits' sides; classes on the last axis."""
        p = counts / sizes[:, None]
        if self.criterion == "gini":
            return 1.0 - np.sum(p * p, axis=-1)
        logs = np.zeros_like(p)
        np.log2(p, where=p > 0, out=logs)
        return -np.sum(p * logs, axis=-1)

    def _split_gains(self, y_sorted, rows, positions):
        """Impurity decrease of the splits ``[:pos] | [pos:]``.

        ``y_sorted`` holds one row of node labels per feature, in that
        feature's ascending order. Split ``k`` cuts row ``rows[k]``
        before ``positions[k]``; the gains come from cumulative class
        counts along each sorted row.
        """
        n = y_sorted.shape[1]
        # Integer counts, exact in float64 after the gather.
        prefix = np.cumsum(
            y_sorted[:, :, None] == np.arange(self._n_classes),
            axis=1,
            dtype=np.int32,
        )
        total = prefix[0, -1].astype(np.float64)
        parent_impurity = self._impurity_from_counts(total)
        left_counts = prefix[rows, positions - 1].astype(np.float64)
        right_counts = total - left_counts
        n_left = positions.astype(np.float64)
        n_right = n - n_left
        weighted = (
            n_left * self._batch_impurity(left_counts, n_left)
            + n_right * self._batch_impurity(right_counts, n_right)
        ) / n
        return parent_impurity - weighted

    # -- fitting ---------------------------------------------------------
    def _check_fitted(self) -> TreeNode:
        if self.root_ is None or self.classes_ is None:
            raise ModelError("estimator is not fitted; call fit() first")
        return self.root_

    def fit(self, features, labels) -> "DecisionTreeClassifier":
        """Fit the tree; labels may be any hashable values."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ModelError("X must be a 2-D array")
        if features.shape[0] == 0:
            raise ModelError("cannot fit on an empty dataset")
        labels = np.asarray(labels)
        if labels.shape[0] != features.shape[0]:
            raise ModelError("X and y must have the same number of rows")
        self.classes_, encoded = np.unique(labels, return_inverse=True)
        self._n_classes = self.classes_.size
        self.n_features_ = features.shape[1]
        self._importance_raw = np.zeros(self.n_features_)
        # Presort once: row f lists the samples in stable x[:, f] order.
        # Children inherit order-preserving partitions of the rows, and
        # node indices stay ascending, so each row equals what a stable
        # argsort of the node's own column would give.
        presorted = np.ascontiguousarray(
            np.argsort(features, axis=0, kind="stable").T
        )
        self.root_ = self._build(
            features,
            encoded.astype(np.int64),
            np.arange(features.shape[0]),
            presorted,
            depth=0,
        )
        if self.ccp_alpha > 0.0:
            self._prune(self.root_)
        total = self._importance_raw.sum()
        if total > 0:
            self.feature_importances_ = self._importance_raw / total
        else:
            self.feature_importances_ = np.zeros(self.n_features_)
        return self

    def _build(
        self,
        features: np.ndarray,
        encoded: np.ndarray,
        indices: np.ndarray,
        presorted: np.ndarray,
        depth: int,
    ) -> TreeNode:
        counts = np.bincount(encoded[indices], minlength=self._n_classes)
        impurity = self._impurity_from_counts(counts)
        node = TreeNode(
            value=counts / counts.sum(),
            n_samples=indices.size,
            impurity=impurity,
        )
        if (
            impurity <= 1e-12
            or indices.size < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node

        best_feature, best_threshold, best_gain = self._best_split(
            features, encoded, presorted
        )
        if best_feature < 0:
            return node

        # Only the node's own samples are ever looked up in this mask.
        go_left = features[:, best_feature] <= best_threshold
        left_idx = indices[go_left[indices]]
        right_idx = indices[~go_left[indices]]
        if (
            left_idx.size < self.min_samples_leaf
            or right_idx.size < self.min_samples_leaf
        ):
            return node

        node.feature = best_feature
        node.threshold = best_threshold
        self._importance_raw[best_feature] += best_gain * indices.size
        sorted_left = go_left[presorted]
        n_features = presorted.shape[0]
        node.left = self._build(
            features,
            encoded,
            left_idx,
            presorted[sorted_left].reshape(n_features, -1),
            depth + 1,
        )
        node.right = self._build(
            features,
            encoded,
            right_idx,
            presorted[~sorted_left].reshape(n_features, -1),
            depth + 1,
        )
        return node

    def _best_split(
        self,
        features: np.ndarray,
        encoded: np.ndarray,
        sorted_rows: np.ndarray,
    ):
        """(feature, threshold, gain) of the best split at one node.

        Every feature is scored in one array pass over its presorted
        row, at the positions where x changes; ``feature`` is -1 when
        no split decreases the impurity. Splits fall between distinct
        consecutive x values and honor ``min_samples_leaf`` on both
        sides; ties go to the first position, then to the first
        feature.
        """
        n = sorted_rows.shape[1]
        lo = self.min_samples_leaf
        hi = n - self.min_samples_leaf
        if hi < lo:
            return -1, 0.0, 0.0
        positions = np.arange(lo, hi + 1)
        n_features = sorted_rows.shape[0]
        x_sorted = features[sorted_rows, np.arange(n_features)[:, None]]
        distinct = x_sorted[:, positions] > x_sorted[:, positions - 1] + 1e-15
        rows, columns = np.nonzero(distinct)
        if not rows.size:
            return -1, 0.0, 0.0
        # Only splits between distinct x values are scored; the rest
        # stay -inf, so argmax and the tie order see the full grid.
        gains = np.full(distinct.shape, -np.inf)
        gains[rows, columns] = self._split_gains(
            encoded[sorted_rows], rows, positions[columns]
        )
        best_columns = np.argmax(gains, axis=1)
        row_gains = gains[np.arange(n_features), best_columns]

        best_gain = 0.0
        best_feature = -1
        best_threshold = 0.0
        for row, gain in enumerate(row_gains.tolist()):
            if gain > best_gain + 1e-15:
                pos = positions[best_columns[row]]
                best_gain = gain
                best_feature = row
                best_threshold = float(
                    0.5 * (x_sorted[row, pos - 1] + x_sorted[row, pos])
                )
        return best_feature, best_threshold, best_gain

    # -- pruning ----------------------------------------------------------
    def _prune(self, node: TreeNode) -> None:
        """Minimal cost-complexity pruning with parameter ``ccp_alpha``.

        Repeatedly collapses the internal node whose effective alpha
        (impurity increase per removed leaf) is below the configured
        threshold, weakest link first.
        """
        while True:
            weakest = self._weakest_link(node, node.n_samples)
            if weakest is None:
                return
            alpha, target = weakest
            if alpha > self.ccp_alpha:
                return
            target.feature = -1
            target.left = None
            target.right = None

    def _weakest_link(self, root: TreeNode, total: int):
        best = None

        def visit(node: TreeNode):
            nonlocal best
            if node.is_leaf:
                return node.impurity * node.n_samples / total, 1
            left_cost, left_leaves = visit(node.left)
            right_cost, right_leaves = visit(node.right)
            subtree_cost = left_cost + right_cost
            leaves = left_leaves + right_leaves
            node_cost = node.impurity * node.n_samples / total
            if leaves > 1:
                alpha = (node_cost - subtree_cost) / (leaves - 1)
                if best is None or alpha < best[0]:
                    best = (alpha, node)
            return subtree_cost, leaves

        visit(root)
        return best

    # -- inference ---------------------------------------------------------
    @property
    def table(self) -> "DecisionTable":
        """The fitted tree as a :class:`DecisionTable`.

        Built on first use and rebuilt whenever ``root_`` is replaced
        (a refit, a model-file load); the table keeps the root it was
        built from, so identity, not an ``id()``, tracks the tree.
        """
        table = self._table
        if table is None or table.root is not self.root_:
            root = self._check_fitted()
            table = self._table = DecisionTable(root, self.classes_)
        return table

    def predict_proba(self, features) -> np.ndarray:
        """Class-probability estimates, one row per sample."""
        table = self.table
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        if features.shape[1] != self.n_features_:
            raise ModelError(
                f"expected {self.n_features_} features, got {features.shape[1]}"
            )
        leaf = table.leaf
        leaves = [leaf(row) for row in features.tolist()]
        return table.value[np.array(leaves, dtype=np.intp)]

    def predict(self, features) -> np.ndarray:
        """Predicted class labels."""
        probs = self.predict_proba(features)
        return self.classes_[np.argmax(probs, axis=1)]

    def score(self, features, labels) -> float:
        """Mean accuracy on the given data."""
        labels = np.asarray(labels)
        return float(np.mean(self.predict(features) == labels))

    def decision_path(self, features) -> dict:
        """Root-to-leaf trace explaining the prediction for ONE sample.

        Returns ``{"steps": [...], "leaf": {...}}``. Each step records
        the comparison made at one internal node::

            {"depth": 0, "feature": 4, "threshold": 0.24,
             "value": 0.31, "direction": "gt"}

        ``direction`` is ``"le"`` when the sample went left
        (``value <= threshold``) and ``"gt"`` otherwise. The leaf entry
        carries its depth, training-sample count, class probabilities
        (``value``), the decoded ``prediction`` (exactly like
        :meth:`predict`) and ``margin``: the probability gap between
        the winning class and the runner-up (1.0 for a single-class
        leaf).
        """
        table = self.table
        sample = np.asarray(features, dtype=np.float64).reshape(-1)
        if sample.size != self.n_features_:
            raise ModelError(
                f"expected {self.n_features_} features, got {sample.size}"
            )
        row = sample.tolist()
        leaf = table.leaf(row)
        ancestors = []
        node = leaf
        while node:
            node = table.parent[node]
            ancestors.append(node)
        steps = []
        for depth, node in enumerate(reversed(ancestors)):
            feature = table.feature[node]
            threshold = table.threshold[node]
            observed = row[feature]
            steps.append(
                {
                    "depth": depth,
                    "feature": feature,
                    "threshold": threshold,
                    "value": observed,
                    "direction": "le" if observed <= threshold else "gt",
                }
            )
        probabilities = table.value[leaf]
        best = table.leaf_class[leaf]
        prediction = self.classes_[best]
        item = getattr(prediction, "item", None)
        if probabilities.size > 1:
            others = np.delete(probabilities, best)
            margin = float(probabilities[best] - others.max())
        else:
            margin = 1.0
        return {
            "steps": steps,
            "leaf": {
                "depth": len(steps),
                "n_samples": table.n_samples[leaf],
                "value": probabilities.tolist(),
                "prediction": item() if callable(item) else prediction,
                "margin": margin,
            },
        }

    # -- introspection -------------------------------------------------------
    def depth(self) -> int:
        """Depth of the fitted tree (0 for a single leaf)."""
        return self._check_fitted().depth()

    def n_leaves(self) -> int:
        """Number of leaves of the fitted tree."""
        return self._check_fitted().count_leaves()


def clone_estimator(estimator, **overrides):
    """Return an unfitted copy of ``estimator`` with parameter overrides."""
    params = estimator.get_params()
    params.update(overrides)
    return type(estimator)(**params)
