"""Machine-learning substrate: the paper's CART classifier and its CV.

Public API::

    from repro.ml import (
        DecisionTreeClassifier, KFold, GridSearchCV, cross_val_score,
    )
"""

from repro.ml import metrics
from repro.ml.decision_tree import (
    DecisionTreeClassifier,
    TreeNode,
    clone_estimator,
)
from repro.ml.model_selection import GridSearchCV, KFold, cross_val_score

__all__ = [
    "DecisionTreeClassifier",
    "TreeNode",
    "clone_estimator",
    "KFold",
    "GridSearchCV",
    "cross_val_score",
    "metrics",
]
