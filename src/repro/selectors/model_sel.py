"""Embedded selectors: LR / GBDT feature importances (§VII-A3).

"Featuretools + LR/GBDT Selector": fit the selector model on base features
plus the whole FT pool, rank the pooled features by the model's importance
(|coefficient| for LR, total split gain for GBDT), keep the top-n.
"""
from __future__ import annotations

import numpy as np

from repro.models.gbdt import GBDT
from repro.models.logistic import LogisticRegression


def _top_by_importance(pool, imps: np.ndarray, n: int):
    pooled = imps[len(imps) - len(pool):]  # the base features come first
    order = np.argsort(-pooled, kind="stable")[:n]
    return [pool[i] for i in order]


def lr_importance_select(pool, evaluator, n: int):
    tr = evaluator.splits.train
    m = LogisticRegression(task=evaluator.splits.task).fit(
        evaluator.matrix(tr, pool), evaluator.labels(tr))
    return _top_by_importance(pool, m.feature_importances(), n)


def gbdt_importance_select(pool, evaluator, n: int):
    tr = evaluator.splits.train
    m = GBDT(task=evaluator.splits.task, n_rounds=20).fit(
        evaluator.matrix(tr, pool), evaluator.labels(tr))
    return _top_by_importance(pool, m.feature_importances(), n)
