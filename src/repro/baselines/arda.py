"""ARDA (Chepurko et al., VLDB'20) — random-injection feature selection.

For one-to-one relationship tables the relevant table's columns can be
joined directly; ARDA ranks them by training a random forest on the real
candidates *plus injected random-noise probes* and keeps candidates whose
importance clears a multiple of the noise level, picking the threshold that
maximises validation performance.
"""
from __future__ import annotations

import numpy as np

from repro.core.evaluator import DownstreamEvaluator
from repro.core.executor import FeatureFrame
from repro.core.feataug import DatasetContext
from repro.models.forest import RandomForest

#: noise probes injected next to the real candidates, and the multiples of
#: their median importance tried as the keep threshold
_N_NOISE = 8
_THRESHOLDS = (0.5, 1.0, 2.0)


def direct_join_pool(ctx: DatasetContext, prefix: str) -> list[FeatureFrame]:
    """Each non-key relevant-table column as a directly-joinable feature
    (the one-to-one relevant tables have numeric columns only)."""
    Rp = ctx.executor.R.toPandas()
    keys = list(ctx.bundle.keys)
    pool = []
    for c in Rp.columns:
        if c in keys:
            continue
        name = f"{prefix}_{c}"
        pool.append(FeatureFrame(name=name, keys=ctx.bundle.keys,
                                 frame=Rp[[*keys, c]].rename(columns={c: name}),
                                 sql=f"direct join {c}"))
    return pool


def arda_features(ctx: DatasetContext, evaluator: DownstreamEvaluator, *,
                  seed: int) -> list[FeatureFrame]:
    bundle, budget = ctx.bundle, ctx.budget
    rng = np.random.default_rng(seed + 31)
    pool = direct_join_pool(ctx, prefix=f"arda{seed}")

    tr = evaluator.splits.train
    F = evaluator.matrix(tr, pool, base=False)
    X = np.hstack([F, rng.normal(0, 1, (F.shape[0], _N_NOISE))])
    y = evaluator.labels(tr)
    rf = RandomForest(task=bundle.task, n_trees=12, seed=seed).fit(X, y)
    imps = rf.feature_importances()
    feat_imp, noise_imp = imps[: len(pool)], imps[len(pool):]
    level = max(float(np.median(noise_imp)), 1e-12)

    best = None
    for tau in _THRESHOLDS:
        keep = [pool[i] for i in np.argsort(-feat_imp)
                if feat_imp[i] > tau * level][: budget.n_features]
        if not keep:
            continue
        loss = evaluator.valid_loss(keep)
        if best is None or loss < best[0]:
            best = (loss, keep)
    if best is None:  # nothing beats noise — fall back to top-n by importance
        return [pool[i] for i in np.argsort(-feat_imp)[: budget.n_features]]
    return best[1]
