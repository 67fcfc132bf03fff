"""Low-cost proxies for feature quality (§V-C warm-up, §VI-C1, §VII-E2).

Three proxies from the paper's Table VIII, all returning *higher = better*
scores for a single candidate feature column against the labels:

- ``MI``  — binned mutual information (base 2); features are quantile-binned
  (missing values form their own bin), regression labels are quantile-binned
  too;
- ``SC``  — |Spearman rank correlation|;
- ``LR``  — the validation metric of a logistic-regression model trained on
  base features + the candidate (the most expensive proxy).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

#: quantile bins per column for MI (features and regression labels) and for
#: the Chi2 selector's contingency tables
N_BINS = 8


def _bin_feature(x: np.ndarray, n_bins: int) -> np.ndarray:
    """Quantile-bin a float column; NaNs become their own bin id."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -1, dtype=int)
    ok = np.isfinite(x)
    if ok.sum() == 0:
        return out
    xs = x[ok]
    edges = np.unique(np.quantile(xs, np.linspace(0, 1, n_bins + 1)[1:-1]))
    out[ok] = np.searchsorted(edges, xs, side="right")
    return out


def mutual_information(x: np.ndarray, y: np.ndarray, *, task: str = "binary") -> float:
    """I(X;Y) in bits from the joint histogram of binned X and (binned) Y."""
    bx = _bin_feature(x, N_BINS)
    if task == "regression":
        by = _bin_feature(np.asarray(y, dtype=float), N_BINS)
    else:
        _, by = np.unique(np.asarray(y), return_inverse=True)
    n = bx.size
    if n == 0:
        return 0.0
    # Joint cells of (bx, by) in order of first occurrence, with exact
    # integer counts; the terms are summed one by one in that order.
    bx, by = bx + 1, by + 1  # missing-value bins (-1) → 0
    ny = int(by.max()) + 1
    code = bx * ny + by
    cells, first = np.unique(code, return_index=True)
    cells = cells[np.argsort(first)]
    c = np.bincount(code)[cells]
    px = np.bincount(bx)[cells // ny]
    py = np.bincount(by)[cells % ny]
    p = c / n
    mi = np.cumsum(p * np.log2(p * n * n / (px * py)))[-1]
    return float(max(mi, 0.0))


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """|Spearman ρ| — monotonic dependency strength (Table VIII "SC")."""
    x = pd.Series(np.asarray(x, dtype=float)).fillna(0.0)
    y = pd.Series(np.asarray(y, dtype=float))
    rx, ry = x.rank(), y.rank()
    sx, sy = rx.std(), ry.std()
    if sx < 1e-12 or sy < 1e-12:
        return 0.0
    rho = float(np.corrcoef(rx, ry)[0, 1])
    return abs(rho) if np.isfinite(rho) else 0.0


def make_proxy(name: str, *, task: str, y_valid: np.ndarray | None = None):
    """Build ``proxy(X_train, y_train[, X_valid]) -> score`` (higher=better).

    ``X_train``/``X_valid`` are ``DownstreamEvaluator.matrix`` outputs:
    base features, then the candidate as the last column. ``MI`` and ``SC``
    score that column on the training rows alone. ``LR`` trains a logistic /
    ridge model on the whole matrix and scores the validation rows (needs
    the ``y_valid`` context).
    """
    if name == "MI":
        return lambda X, y, Xv=None: mutual_information(X[:, -1], y, task=task)
    if name == "SC":
        return lambda X, y, Xv=None: spearman(X[:, -1], y)
    if name == "LR":
        from repro.models.logistic import LogisticRegression
        from repro.models.metrics import task_loss

        if y_valid is None:
            raise ValueError("LR proxy needs y_valid")

        def _lr_proxy(X, y, Xv):
            m = LogisticRegression(task=task, n_iter=80).fit(X, y)
            return -task_loss(task, y_valid, m, Xv)

        return _lr_proxy
    raise ValueError(f"unknown proxy {name!r} (expected MI, SC or LR)")
