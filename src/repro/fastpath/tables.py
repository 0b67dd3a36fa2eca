"""Flat decision tables compiled from fitted CART trees.

A fitted :class:`~repro.ml.decision_tree.DecisionTreeClassifier` is a
linked ``TreeNode`` structure; walking it costs a Python attribute
chase per level. Compilation flattens the tree into preorder lists
indexed by node id::

    feature[n]     splitting feature, -1 for leaves
    threshold[n]   split threshold (x[feature] <= threshold -> left)
    left[n]        left child node id
    right[n]       right child node id
    leaf_class[n]  argmax class index of the node's probabilities

Single-row prediction (the controller's per-epoch case) walks these
plain Python lists, which beats both the node chase and numpy scalar
indexing.

Equivalence with the scalar estimator is exact: the node comparisons
(``x <= threshold``) and the leaf argmax decode reproduce
:meth:`~repro.ml.decision_tree.DecisionTreeClassifier.predict`
operation for operation, and ``tests/test_fastpath_equivalence.py``
asserts identical outputs.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import ModelError

__all__ = ["CompiledTree", "compile_tree", "compile_forest"]


class CompiledTree:
    """One fitted tree as flat preorder lists (see module docstring)."""

    __slots__ = (
        "feature",
        "threshold",
        "left",
        "right",
        "leaf_class",
        "classes_",
    )

    def __init__(
        self,
        feature: List[int],
        threshold: List[float],
        left: List[int],
        right: List[int],
        leaf_class: List[int],
        classes: np.ndarray,
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.leaf_class = leaf_class
        self.classes_ = classes

    def predict_row(self, row) -> object:
        """Decoded prediction for one sample (flat-list walk)."""
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
        return self.classes_[self.leaf_class[node]]


# ---------------------------------------------------------------------------
def compile_tree(tree) -> CompiledTree:
    """Flatten one fitted classifier into a :class:`CompiledTree`."""
    if tree.root_ is None or tree.classes_ is None:
        raise ModelError("estimator is not fitted; call fit() first")
    feature: List[int] = []
    threshold: List[float] = []
    left: List[int] = []
    right: List[int] = []
    leaf_class: List[int] = []

    def visit(node) -> int:
        index = len(feature)
        feature.append(node.feature if not node.is_leaf else -1)
        threshold.append(float(node.threshold))
        left.append(0)
        right.append(0)
        # The first maximal class, as DecisionTreeClassifier.predict
        # decodes it.
        leaf_class.append(int(np.argmax(node.value)))
        if not node.is_leaf:
            left[index] = visit(node.left)
            right[index] = visit(node.right)
        return index

    visit(tree.root_)
    return CompiledTree(
        feature, threshold, left, right, leaf_class, tree.classes_
    )


def compile_forest(model) -> Dict[str, CompiledTree]:
    """Compile a :class:`~repro.core.model.SparseAdaptModel` ensemble.

    Returns ``{parameter: CompiledTree}``, one flat table per predicted
    runtime parameter.
    """
    from repro.obs import profile as obs_profile

    with obs_profile.span("forest_compile"):
        return {
            name: compile_tree(model.trees[name])
            for name in model.predicted_parameters()
        }
