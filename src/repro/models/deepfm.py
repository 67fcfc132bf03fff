"""DeepFM (Guo et al., IJCAI'17) — numpy re-implementation.

The paper's deep downstream model. Since torch is unavailable, this is a
compact manual-backprop DeepFM over dense numeric fields: each input
feature i owns an embedding v_i, and the shared embedding x_i * v_i feeds
both the FM second-order interaction term and a one-hidden-layer MLP; a
linear term completes the classic DeepFM sum. Binary head = sigmoid,
regression head = identity. Trained with Adam on mini-batches.
"""
from __future__ import annotations

import numpy as np

from repro.models.logistic import sigmoid, standardise

_EMBED_DIM = 4
_HIDDEN = 16  # MLP hidden units
_EPOCHS = 15
_BATCH_SIZE = 256
_L2 = 1e-4
_LR, _B1, _B2, _EPS = 0.01, 0.9, 0.999, 1e-8  # Adam


class _Adam:
    def __init__(self, shapes):
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = _B1 * self.m[i] + (1 - _B1) * g
            self.v[i] = _B2 * self.v[i] + (1 - _B2) * g * g
            mh = self.m[i] / (1 - _B1**self.t)
            vh = self.v[i] / (1 - _B2**self.t)
            p -= _LR * mh / (np.sqrt(vh) + _EPS)


class DeepFM:
    def __init__(self, *, task: str, seed: int):
        if task == "multiclass":
            raise ValueError("DeepFM only works for binary/regression tasks (per paper §VII-C)")
        self.task = task
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DeepFM":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        Xs, self._mu, self._sd = standardise(X)
        n, d = Xs.shape
        k, h = _EMBED_DIM, _HIDDEN
        rng = np.random.default_rng(self.seed)
        if self.task == "binary":
            self.classes_ = np.array(sorted(np.unique(y)))
            y = (y == self.classes_[-1]).astype(float)
        # parameters
        self.w = np.zeros(d)                       # linear
        self.b = np.zeros(1)
        self.V = rng.normal(0, 0.05, (d, k))       # shared embeddings
        self.W1 = rng.normal(0, np.sqrt(2.0 / (d * k)), (d * k, h))
        self.b1 = np.zeros(h)
        self.W2 = rng.normal(0, np.sqrt(2.0 / h), (h, 1))
        self.b2 = np.zeros(1)
        params = [self.w, self.b, self.V, self.W1, self.b1, self.W2, self.b2]
        opt = _Adam([p.shape for p in params])
        for _ in range(_EPOCHS):
            order = rng.permutation(n)
            for s in range(0, n, _BATCH_SIZE):
                idx = order[s : s + _BATCH_SIZE]
                self._step(Xs[idx], y[idx], params, opt)
        return self

    def _forward(self, X):
        # returns (raw score, cache for backprop)
        n, d = X.shape
        k = _EMBED_DIM
        lin = X @ self.w + self.b[0]
        E = X[:, :, None] * self.V[None, :, :]          # n × d × k
        S = E.sum(axis=1)                               # Σ_i x_i v_i
        S2 = (E * E).sum(axis=1)                        # Σ_i x_i² v_i²
        fm = 0.5 * (S * S - S2).sum(axis=1)
        Z = E.reshape(n, d * k)
        H = np.maximum(Z @ self.W1 + self.b1, 0.0)
        deep = (H @ self.W2).ravel() + self.b2[0]
        return lin + fm + deep, (X, E, S, Z, H)

    def _step(self, X, y, params, opt):
        n, d = X.shape
        k = _EMBED_DIM
        raw, (X_, E, S, Z, H) = self._forward(X)
        if self.task == "binary":
            p = sigmoid(raw)
            dr = (p - y) / n
        else:
            dr = (raw - y) / n
        # linear
        gw = X.T @ dr + _L2 * self.w
        gb = np.array([dr.sum()])
        # FM: d fm/d v_ik = x_i (S_k − x_i v_ik)
        #   → gV[i,k] = Σ_n dr_n x_ni S_nk − (Σ_n dr_n x_ni²) V_ik
        XD = X * dr[:, None]                            # n × d
        gV = XD.T @ S - ((X * X).T @ dr)[:, None] * self.V
        # deep path
        dH = dr[:, None] @ self.W2.T
        dH[H <= 0] = 0.0
        gW2 = H.T @ dr[:, None] + _L2 * self.W2
        gb2 = np.array([dr.sum()])
        gW1 = Z.T @ dH + _L2 * self.W1
        gb1 = dH.sum(axis=0)
        dZ = dH @ self.W1.T                             # n × (d·k)
        dE = dZ.reshape(n, d, k)
        gV += (X[:, :, None] * dE).sum(axis=0) + _L2 * self.V
        # the linear/FM x-gradient also flows to w via gw above only; done
        opt.step(params, [gw, gb, gV, gW1, gb1, gW2, gb2])

    def _raw_scores(self, X):
        X = np.asarray(X, dtype=float)
        Xs = (X - self._mu) / self._sd
        raw, _ = self._forward(Xs)
        return raw

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.task != "binary":
            raise ValueError("predict_proba undefined for regression")
        p = sigmoid(self._raw_scores(X))
        return np.column_stack([1 - p, p])

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.task == "regression":
            return self._raw_scores(X)
        return self.classes_[(self._raw_scores(X) > 0).astype(int)]
