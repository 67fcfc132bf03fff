"""Downstream-model evaluation of candidate features (Problem 1).

The training table is split 0.6/0.2/0.2 into train/valid/test (the paper's
ratios, §VII-A6). A candidate feature set is scored by training the chosen
downstream model on the augmented train split and measuring validation
*loss* (1−AUC, 1−macroF1 or RMSE); the test split is touched only for final
reporting.

The split frames live driver-side (the training table is small; the heavy
table is the relevant one, which stays in Spark): each evaluation merges the
per-key feature frames produced by generated Spark SQL queries into the
splits and trains a fresh, seeded numpy model.

``DownstreamEvaluator.matrix`` / ``labels`` are the only conversion from
feature frames to model input; proxies, selectors and baselines read them too.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.executor import FeatureFrame, merge_features
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
    keys: tuple[str, ...]
    base_features: tuple[str, ...]
    task: str
    label: str = "label"


def make_splits(D: pd.DataFrame, keys, base_features, task: str, *,
                seed: int = 0) -> TableSplits:
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
        keys=tuple(keys),
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

    def __init__(self, splits: TableSplits, model_name: str, *, seed: int = 0):
        self.splits = splits
        self.model_name = model_name
        self.seed = seed
        self.n_fits = 0

    # -- model input: the one FeatureFrame -> array conversion -------------
    def matrix(self, split: pd.DataFrame, feats: list[FeatureFrame], *,
               base: bool = True) -> np.ndarray:
        """Model input on ``split``'s rows: the base features (unless
        ``base=False``), then one Definition-3 column per feature."""
        merged = merge_features(split, feats)
        cols = [*(self.splits.base_features if base else ()), *(f.name for f in feats)]
        return _clean(merged[cols].to_numpy(dtype=float))

    def labels(self, split: pd.DataFrame) -> np.ndarray:
        return split[self.splits.label].to_numpy()

    def feature_on(self, split: pd.DataFrame, f: FeatureFrame) -> np.ndarray:
        """One candidate feature aligned to a split's rows."""
        return self.matrix(split, [f], base=False)[:, 0]

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
