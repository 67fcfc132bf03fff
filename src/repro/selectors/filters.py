"""Filter selectors: Mutual Information, Chi-square, Gini index.

Each scores every pooled feature against the training labels independently
and keeps the top-n. Chi2 and Gini are defined for classification only
(paper Table III leaves them "-" on the Merchant regression dataset).
"""
from __future__ import annotations

import numpy as np

from repro.core.evaluator import DownstreamEvaluator
from repro.core.executor import FeatureFrame
from repro.core.proxy import N_BINS, _bin_feature, mutual_information

_N_THRESHOLDS = 16  # Gini split candidates: quantiles of the feature


class NotApplicableError(ValueError):
    """Selector undefined for this task (e.g. Chi2 on regression)."""


def _top_scored(pool: list[FeatureFrame], evaluator: DownstreamEvaluator, n: int,
                score) -> list[FeatureFrame]:
    """Keep the top-n pooled features by ``score(column, train labels)``."""
    tr = evaluator.splits.train
    X, y = evaluator.matrix(tr, pool, base=False), evaluator.labels(tr)
    scores = np.array([score(X[:, j], y) for j in range(X.shape[1])])
    order = np.argsort(-np.nan_to_num(scores, nan=-np.inf), kind="stable")[:n]
    return [pool[i] for i in order]


def mi_select(pool, evaluator, n: int) -> list[FeatureFrame]:
    task = evaluator.splits.task
    return _top_scored(pool, evaluator, n,
                       lambda x, y: mutual_information(x, y, task=task))


def chi2_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson χ² of the (binned feature × class) contingency table."""
    bx = _bin_feature(x, N_BINS)
    _, by = np.unique(y, return_inverse=True)
    ux = np.unique(bx)
    k = by.max() + 1
    obs = np.zeros((len(ux), k))
    for i, b in enumerate(ux):
        m = bx == b
        obs[i] = np.bincount(by[m], minlength=k)
    row = obs.sum(axis=1, keepdims=True)
    col = obs.sum(axis=0, keepdims=True)
    exp = row @ col / obs.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = np.where(exp > 0, (obs - exp) ** 2 / exp, 0.0)
    return float(cells.sum())


def chi2_select(pool, evaluator, n: int) -> list[FeatureFrame]:
    if evaluator.splits.task == "regression":
        raise NotApplicableError("Chi2 selector is classification-only")
    return _top_scored(pool, evaluator, n, chi2_statistic)


def gini_gain(x: np.ndarray, y: np.ndarray) -> float:
    """Best single-split Gini impurity decrease of feature x."""
    _, yi = np.unique(y, return_inverse=True)
    k = yi.max() + 1
    n = len(yi)

    def gini(counts: np.ndarray) -> float:
        tot = counts.sum()
        if tot == 0:
            return 0.0
        p = counts / tot
        return 1.0 - float((p * p).sum())

    total = np.bincount(yi, minlength=k).astype(float)
    parent = gini(total)
    best = 0.0
    for t in np.unique(np.quantile(x, np.linspace(0, 1, _N_THRESHOLDS + 1)[1:-1])):
        m = x <= t
        nl = int(m.sum())
        if nl == 0 or nl == n:
            continue
        left = np.bincount(yi[m], minlength=k).astype(float)
        g = parent - (nl / n) * gini(left) - ((n - nl) / n) * gini(total - left)
        best = max(best, float(g))
    return best


def gini_select(pool, evaluator, n: int) -> list[FeatureFrame]:
    if evaluator.splits.task == "regression":
        raise NotApplicableError("Gini selector is classification-only")
    return _top_scored(pool, evaluator, n, gini_gain)
