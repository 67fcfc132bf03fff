"""Histogram-split regression tree — the shared base learner.

A single CART-style regressor supporting (a) plain squared-error targets
(random forest / GBDT residuals) and (b) XGBoost-style second-order leaf
weights when gradient/hessian vectors are supplied.

Fitting is fully vectorised with the standard histogram trick: each feature
is quantile-binned once per ``fit`` (int16 codes); at every node the per-bin
gradient/hessian sums come from ``np.bincount`` and a cumulative sum yields
every split's gain in one shot, so cost is O(n + bins·d) per node instead of
per-threshold boolean scans. Prediction descends index masks level by level
(vectorised over rows).
"""
from __future__ import annotations

import numpy as np

_MIN_LEAF = 4  # fewest rows on either side of a split
_N_BINS = 32  # quantile bins per feature
_REG_LAMBDA = 1.0  # L2 on leaf weights (the λ in −Σg/(Σh+λ))


def gain_shares(gains: np.ndarray) -> np.ndarray:
    """Each feature's share of the total split gain (as is, if no split)."""
    tot = gains.sum()
    return gains / tot if tot > 0 else gains


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value: float):
        self.feature = -1
        self.threshold = 0.0
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None
        self.value = value


class RegressionTree:
    """Depth-limited regression tree on quantile-binned splits.

    When ``fit`` receives ``hess``, leaf values are −Σg/(Σh+λ) and the split
    gain is the XGBoost structure score; otherwise ``grad`` is treated as
    the regression target (mean leaves / variance-reduction gain).
    """

    def __init__(self, *, max_depth: int, feature_frac: float = 1.0, seed: int = 0):
        self.max_depth = max_depth
        self.feature_frac = feature_frac
        self.seed = seed
        self.root: _Node | None = None
        # Total gain contributed by each feature (impurity importance).
        self.gains_: np.ndarray | None = None

    def fit(self, X: np.ndarray, grad: np.ndarray, hess: np.ndarray | None = None
            ) -> "RegressionTree":
        X = np.asarray(X, dtype=float)
        g = np.asarray(grad, dtype=float).ravel()
        if hess is None:
            h = np.ones_like(g)
            g = -g  # squared loss: grad=-y, hess=1 ⇒ mean-valued leaves
        else:
            h = np.asarray(hess, dtype=float).ravel()
        n, d = X.shape
        self._rng = np.random.default_rng(self.seed)
        self.gains_ = np.zeros(d)

        # quantile binning, once per tree
        codes = np.empty((n, d), dtype=np.int16)
        edges: list[np.ndarray] = []
        probs = np.linspace(0, 1, _N_BINS + 1)[1:-1]
        Xf = np.nan_to_num(X, nan=0.0)
        for f in range(d):
            e = np.unique(np.quantile(Xf[:, f], probs))
            edges.append(e)
            codes[:, f] = np.searchsorted(e, Xf[:, f], side="right")
        self._edges = edges
        self.root = self._build(codes, g, h, np.arange(n), depth=0)
        return self

    def _leaf_value(self, g_sum: float, h_sum: float) -> float:
        return -g_sum / (h_sum + _REG_LAMBDA)

    def _build(self, codes: np.ndarray, g: np.ndarray, h: np.ndarray,
               idx: np.ndarray, depth: int) -> _Node:
        gs, hs = g[idx].sum(), h[idx].sum()
        node = _Node(self._leaf_value(gs, hs))
        n = idx.size
        if depth >= self.max_depth or n < 2 * _MIN_LEAF:
            return node
        d = codes.shape[1]
        lam = _REG_LAMBDA
        parent = gs * gs / (hs + lam)
        feats = np.arange(d)
        if self.feature_frac < 1.0 and d > 1:
            m = max(1, int(round(d * self.feature_frac)))
            feats = self._rng.choice(d, size=m, replace=False)
        gv, hv = g[idx], h[idx]
        best_gain, best_f, best_b = 1e-9, -1, -1
        for f in feats:
            nb = len(self._edges[f]) + 1
            if nb < 2:
                continue
            c = codes[idx, f]
            cnt = np.bincount(c, minlength=nb)
            gsum = np.bincount(c, weights=gv, minlength=nb)
            hsum = np.bincount(c, weights=hv, minlength=nb)
            ccum = np.cumsum(cnt)[:-1]
            gcum = np.cumsum(gsum)[:-1]
            hcum = np.cumsum(hsum)[:-1]
            ok = (ccum >= _MIN_LEAF) & (n - ccum >= _MIN_LEAF)
            if not ok.any():
                continue
            gain = (gcum**2 / (hcum + lam)
                    + (gs - gcum) ** 2 / (hs - hcum + lam) - parent)
            gain[~ok] = -np.inf
            b = int(np.argmax(gain))
            if gain[b] > best_gain:
                best_gain, best_f, best_b = float(gain[b]), int(f), b
        if best_f < 0:
            return node
        self.gains_[best_f] += best_gain
        node.feature = best_f
        node.threshold = float(self._edges[best_f][best_b])
        mask = codes[idx, best_f] <= best_b  # ⟺ x < edges[best_b]
        node.left = self._build(codes, g, h, idx[mask], depth + 1)
        node.right = self._build(codes, g, h, idx[~mask], depth + 1)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.nan_to_num(np.asarray(X, dtype=float), nan=0.0)
        out = np.empty(X.shape[0])
        self._predict_into(self.root, X, np.arange(X.shape[0]), out)
        return out

    def _predict_into(self, node: _Node, X: np.ndarray, idx: np.ndarray,
                      out: np.ndarray) -> None:
        if node.left is None:
            out[idx] = node.value
            return
        # Strict <: matches fit-time codes from searchsorted(side="right"),
        # where bin(x) <= b  ⟺  x < edges[b]. A <= here mis-routes rows that
        # sit exactly on an edge (common for tie-heavy count features) and
        # makes boosting diverge on its own training residuals.
        mask = X[idx, node.feature] < node.threshold
        self._predict_into(node.left, X, idx[mask], out)
        self._predict_into(node.right, X, idx[~mask], out)
