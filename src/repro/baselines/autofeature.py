"""AutoFeature (Liu et al., ICDE'22) — RL feature augmentation, MAB & DQN.

For one-to-one relationship tables: candidate actions are "augment feature
i". Rewards are validation-loss improvements of the downstream model.

- **MAB**: UCB1 over arms; each pull adds the arm's feature, observes the
  reward, and reverts the addition when it hurts.
- **DQN**: a tiny numpy Q-network over (inclusion-bit-vector) states trained
  by ε-greedy episodes with one-step TD targets.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.arda import direct_join_pool
from repro.core.evaluator import DownstreamEvaluator
from repro.core.executor import FeatureFrame
from repro.core.feataug import DatasetContext

_MAB_ITERS = 24  # arm pulls
_HIDDEN, _LR = 16, 0.05  # Q-network width and SGD step
_EPISODES, _STEPS = 3, 8
_GAMMA = 0.5  # TD discount
_EPS = 0.3  # ε-greedy exploration rate


def _mab(pool, evaluator, n_features: int) -> list:
    n = len(pool)
    counts = np.zeros(n)
    means = np.zeros(n)
    included: list[int] = []
    cur_loss = evaluator.valid_loss([])
    for t in range(1, _MAB_ITERS + 1):
        avail = [i for i in range(n) if i not in included]
        if not avail or len(included) >= n_features:
            break
        ucb = np.array([
            means[i] + np.sqrt(2 * np.log(t) / counts[i]) if counts[i] > 0 else np.inf
            for i in avail
        ])
        arm = avail[int(np.argmax(ucb))]
        trial = included + [arm]
        loss = evaluator.valid_loss([pool[i] for i in trial])
        reward = cur_loss - loss
        counts[arm] += 1
        means[arm] += (reward - means[arm]) / counts[arm]
        if reward > 0:
            included = trial
            cur_loss = loss
    return included


class _QNet:
    """Q(s) -> per-action values; one hidden layer, SGD on TD error."""

    def __init__(self, n: int, seed: int):
        rng = np.random.default_rng(seed)
        self.W1 = rng.normal(0, 0.3, (n, _HIDDEN))
        self.b1 = np.zeros(_HIDDEN)
        self.W2 = rng.normal(0, 0.3, (_HIDDEN, n))
        self.b2 = np.zeros(n)

    def forward(self, s: np.ndarray):
        h = np.maximum(s @ self.W1 + self.b1, 0.0)
        return h @ self.W2 + self.b2, h

    def update(self, s: np.ndarray, a: int, target: float) -> None:
        q, h = self.forward(s)
        err = q[a] - target
        gW2 = np.outer(h, np.eye(len(q))[a] * err)
        dh = err * self.W2[:, a]
        dh[h <= 0] = 0.0
        self.W2 -= _LR * gW2
        self.b2[a] -= _LR * err
        self.W1 -= _LR * np.outer(s, dh)
        self.b1 -= _LR * dh


def _dqn(pool, evaluator, n_features: int, rng) -> list:
    n = len(pool)
    qnet = _QNet(n, seed=int(rng.integers(0, 2**31)))
    best: tuple[float, list[int]] | None = None
    for _ in range(_EPISODES):
        included: list[int] = []
        cur_loss = evaluator.valid_loss([])
        for _ in range(min(_STEPS, n_features)):
            s = np.zeros(n)
            s[included] = 1.0
            avail = [i for i in range(n) if i not in included]
            if not avail:
                break
            if rng.random() < _EPS:
                a = int(rng.choice(avail))
            else:
                q, _ = qnet.forward(s)
                q[included] = -np.inf
                a = int(np.argmax(q))
            trial = included + [a]
            loss = evaluator.valid_loss([pool[i] for i in trial])
            reward = cur_loss - loss
            s2 = np.zeros(n)
            s2[trial] = 1.0
            q2, _ = qnet.forward(s2)
            qnet.update(s, a, reward + _GAMMA * float(q2.max()))
            if reward > 0:
                included, cur_loss = trial, loss
            if best is None or cur_loss < best[0]:
                best = (cur_loss, list(included))
    return best[1] if best else []


def autofeature_mab(ctx: DatasetContext, evaluator: DownstreamEvaluator, *,
                    seed: int) -> list[FeatureFrame]:
    pool = direct_join_pool(ctx, prefix=f"afmab{seed}")
    return [pool[i] for i in _mab(pool, evaluator, ctx.budget.n_features)]


def autofeature_dqn(ctx: DatasetContext, evaluator: DownstreamEvaluator, *,
                    seed: int) -> list[FeatureFrame]:
    pool = direct_join_pool(ctx, prefix=f"afdqn{seed}")
    rng = np.random.default_rng(seed + 13)
    return [pool[i] for i in _dqn(pool, evaluator, ctx.budget.n_features, rng)]
