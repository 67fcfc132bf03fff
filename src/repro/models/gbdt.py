"""Second-order gradient boosting — the "XGB" stand-in.

xgboost is not installed, so this implements its core: additive shallow
trees fit to per-example gradients/hessians of logistic, softmax or squared
loss, with shrinkage and XGBoost leaf weights -G/(H+λ) (see
``repro.models.tree``). Every task boosts one (n, k) raw-score matrix: k is
the class count for multiclass and 1 otherwise (the last class's log-odds,
or the regression value). Also doubles as the "GBDT selector" model
(importance by total split gain).
"""
from __future__ import annotations

import numpy as np

from repro.models.logistic import sigmoid, softmax
from repro.models.tree import RegressionTree, gain_shares

_MAX_DEPTH = 3
_LEARNING_RATE = 0.3  # shrinkage on each tree's output


class GBDT:
    """Boosting over trees that see every feature, so training draws nothing
    at random."""

    def __init__(self, *, task: str, n_rounds: int = 30):
        self.task = task
        self.n_rounds = n_rounds

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GBDT":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y).ravel()
        self._gains = np.zeros(X.shape[1])
        if self.task == "regression":
            Y = y.astype(float)[:, None]
            self.base_ = np.array([Y.mean()])
        else:
            self.classes_ = np.unique(y)
            scored = self.classes_[-1:] if self.task == "binary" else self.classes_
            Y = (y[:, None] == scored).astype(float)
            if self.task == "binary":
                p0 = np.clip(Y.mean(), 1e-3, 1 - 1e-3)
                self.base_ = np.array([np.log(p0 / (1 - p0))])
            else:
                self.base_ = np.zeros(len(scored))
        F = np.tile(self.base_, (len(y), 1))
        self.trees_: list[list[RegressionTree]] = []
        for _ in range(self.n_rounds):
            if self.task == "regression":
                G, H = F - Y, np.ones_like(F)
            else:
                P = self._proba(F)
                G, H = P - Y, np.maximum(P * (1 - P), 1e-6)
            trees = [RegressionTree(max_depth=_MAX_DEPTH).fit(X, G[:, c], H[:, c])
                     for c in range(F.shape[1])]
            for t in trees:
                self._gains += t.gains_
            F += self._round(trees, X)
            self.trees_.append(trees)
        return self

    @staticmethod
    def _round(trees: list[RegressionTree], X: np.ndarray) -> np.ndarray:
        """One round's shrunken contribution to every score column."""
        return _LEARNING_RATE * np.column_stack([t.predict(X) for t in trees])

    def _raw(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        F = np.tile(self.base_, (X.shape[0], 1))
        for trees in self.trees_:
            F += self._round(trees, X)
        return F

    def _proba(self, F: np.ndarray) -> np.ndarray:
        """Last-class probability (binary) or class probabilities."""
        return sigmoid(F) if self.task == "binary" else softmax(F)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.task == "regression":
            raise ValueError("predict_proba undefined for regression")
        P = self._proba(self._raw(X))
        return np.hstack([1 - P, P]) if self.task == "binary" else P

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.task == "regression":
            return self._raw(X)[:, 0]
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    def feature_importances(self) -> np.ndarray:
        return gain_shares(self._gains)
