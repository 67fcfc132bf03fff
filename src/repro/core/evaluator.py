"""Downstream-model evaluation of candidate features (Problem 1).

The training table is split 0.6/0.2/0.2 into train/valid/test (the paper's
ratios, §VII-A6). A candidate feature set is scored by training the chosen
downstream model on the augmented train split and measuring validation
*loss* (1−AUC, 1−macroF1 or RMSE); the test split is touched only for final
reporting.

The split frames live driver-side (the training table is small; the heavy
table is the relevant one, which stays in Spark): each evaluation stacks the
per-key feature frames of generated Spark SQL queries, aligned to a split's
rows by Definition 3, and trains a fresh, seeded numpy model. The search
scores a candidate several times, so ``TableSplits`` memoises each aligned
column per (split, SQL text), shared by every evaluator of a context.

``DownstreamEvaluator.matrix`` / ``labels`` are the only conversion from
feature frames to model input; proxies, selectors and baselines read them too.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.executor import _CACHE_CAP, FeatureFrame, merge_features
from repro.models import make_model
from repro.models.metrics import task_loss, task_metric


def _clean(X: np.ndarray) -> np.ndarray:
    """NaN → 0 (absent group), ±inf → clamped (degenerate aggregates)."""
    return np.nan_to_num(X, nan=0.0, posinf=1e12, neginf=-1e12)


@dataclass
class TableSplits:
    """Driver-side train/valid/test slices of the training table D."""

    train: pd.DataFrame
    valid: pd.DataFrame
    test: pd.DataFrame
    base_features: tuple[str, ...]
    task: str
    label: str = "label"
    #: per split: the base-feature block (key ``None``) and each feature's
    #: aligned column by SQL text; read-only, ``_CACHE_CAP`` per split (LRU)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def aligned(self, split: pd.DataFrame, key, build) -> np.ndarray:
        """``build()``, memoised per (split, ``key``); ``split`` must be one
        of the three splits."""
        name = next((n for n in ("train", "valid", "test") if split is getattr(self, n)), None)
        if name is None:
            raise ValueError("aligned columns exist only for train, valid or test")
        memo = self._memo.setdefault(name, OrderedDict())
        if key in memo:
            memo.move_to_end(key)
            return memo[key]
        out = memo[key] = build()
        out.flags.writeable = False
        if len(memo) > _CACHE_CAP:
            memo.popitem(last=False)
        return out


def make_splits(D: pd.DataFrame, base_features, task: str, *,
                seed: int) -> TableSplits:
    """Shuffle-split D by the paper's 0.6/0.2/0.2 ratios."""
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(D))
    n_tr = int(len(D) * 0.6)
    n_va = int(len(D) * 0.2)
    D = D.reset_index(drop=True)
    return TableSplits(
        train=D.iloc[idx[:n_tr]].reset_index(drop=True),
        valid=D.iloc[idx[n_tr : n_tr + n_va]].reset_index(drop=True),
        test=D.iloc[idx[n_tr + n_va :]].reset_index(drop=True),
        base_features=tuple(base_features),
        task=task,
    )


@dataclass
class EvalResult:
    valid_loss: float
    valid_metric: float
    test_metric: float
    n_features: int = 0
    feature_names: tuple[str, ...] = field(default_factory=tuple)


class DownstreamEvaluator:
    """Trains the downstream model on (base + candidate) features."""

    def __init__(self, splits: TableSplits, model_name: str, *, seed: int):
        self.splits = splits
        self.model_name = model_name
        self.seed = seed
        self.n_fits = 0

    # -- model input: the one FeatureFrame -> array conversion -------------
    def matrix(self, split: pd.DataFrame, feats: list[FeatureFrame], *,
               base: bool = True) -> np.ndarray:
        """Model input on ``split``'s rows: the base features (unless
        ``base=False``), then one Definition-3 column per feature."""
        cols = [self._column(split, f) for f in feats]
        if base:
            cols.insert(0, self.splits.aligned(split, None, lambda: _clean(
                split[list(self.splits.base_features)].to_numpy(dtype=float))))
        return np.column_stack(cols) if cols else np.empty((len(split), 0))

    def labels(self, split: pd.DataFrame) -> np.ndarray:
        return split[self.splits.label].to_numpy()

    def feature_on(self, split: pd.DataFrame, f: FeatureFrame) -> np.ndarray:
        """One candidate feature aligned to a split's rows."""
        return self._column(split, f)

    def _column(self, split: pd.DataFrame, f: FeatureFrame) -> np.ndarray:
        return self.splits.aligned(split, f.sql, lambda: _clean(
            merge_features(split, [f])[f.name].to_numpy(dtype=float)))

    def _fit(self, feats: list[FeatureFrame]):
        tr = self.splits.train
        model = make_model(self.model_name, self.splits.task, seed=self.seed)
        model.fit(self.matrix(tr, feats), self.labels(tr))
        self.n_fits += 1
        return model

    def valid_loss(self, feats: list[FeatureFrame]) -> float:
        """L(A(D^q_train), D^q_valid) — the search objective (Problem 1)."""
        model = self._fit(feats)
        va = self.splits.valid
        return task_loss(self.splits.task, self.labels(va), model, self.matrix(va, feats))

    def evaluate(self, feats: list[FeatureFrame]) -> EvalResult:
        """Full report: valid loss/metric + held-out test metric."""
        model = self._fit(feats)
        va, te = self.splits.valid, self.splits.test
        Xv, yv = self.matrix(va, feats), self.labels(va)
        return EvalResult(
            valid_loss=task_loss(self.splits.task, yv, model, Xv),
            valid_metric=task_metric(self.splits.task, yv, model, Xv),
            test_metric=task_metric(self.splits.task, self.labels(te), model,
                                    self.matrix(te, feats)),
            n_features=len(feats),
            feature_names=tuple(f.name for f in feats),
        )
