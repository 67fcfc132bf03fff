"""Wrapper selectors: Forward / Backward greedy search (§VII-A3).

Forward adds, per step, the candidate whose inclusion most improves the
downstream model's validation metric; Backward starts from the pool and
removes the most harmful feature per step.

Budget substitution (DESIGN.md §5): a full wrapper pass is
O(n·|pool|) downstream-model fits, infeasible for the DeepFM grid, so the
pool is pre-screened to ``_POOL_CAP`` by MI and each greedy step scores a
random sample of ``_SAMPLE_CAP`` candidates — classic stochastic-greedy
selection.
"""
from __future__ import annotations

import numpy as np

from repro.core.evaluator import DownstreamEvaluator
from repro.core.executor import FeatureFrame
from repro.selectors.filters import mi_select

_POOL_CAP = 24  # MI pre-screen cap before the greedy search
_SAMPLE_CAP = 6  # candidates scored per greedy step


def _prescreen(pool, evaluator):
    return mi_select(pool, evaluator, _POOL_CAP) if len(pool) > _POOL_CAP else list(pool)


def forward_select(pool: list[FeatureFrame], evaluator: DownstreamEvaluator,
                   n: int, *, seed: int):
    cand = _prescreen(pool, evaluator)
    rng = np.random.default_rng(seed)
    chosen: list[FeatureFrame] = []
    while len(chosen) < n and cand:
        k = min(_SAMPLE_CAP, len(cand))
        sample_idx = rng.choice(len(cand), size=k, replace=False)
        losses = [evaluator.valid_loss([*chosen, cand[i]]) for i in sample_idx]
        j = int(np.argmin(losses))
        pick = cand.pop(int(sample_idx[j]))
        chosen.append(pick)
    return chosen


def backward_select(pool: list[FeatureFrame], evaluator: DownstreamEvaluator,
                    n: int, *, seed: int):
    chosen = _prescreen(pool, evaluator)
    rng = np.random.default_rng(seed)
    while len(chosen) > n:
        k = min(_SAMPLE_CAP, len(chosen))
        sample_idx = rng.choice(len(chosen), size=k, replace=False)
        losses = [
            evaluator.valid_loss([f for j, f in enumerate(chosen) if j != i])
            for i in sample_idx
        ]
        worst = int(sample_idx[int(np.argmin(losses))])
        chosen.pop(worst)
    return chosen
