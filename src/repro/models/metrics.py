"""Evaluation metrics (numpy re-implementations of the paper's metrics).

The paper reports AUC (Tmall/Instacart/Student), macro-F1 (Covtype/Household)
and RMSE (Merchant). ``task_loss`` converts each metric into a *loss* so the
search components can uniformly minimise (Problem 1).
"""
from __future__ import annotations

import numpy as np


def auc_score(y_true: np.ndarray, y_score: np.ndarray) -> float:
    """ROC AUC via the rank statistic (Mann-Whitney U), ties share ranks."""
    y_true = np.asarray(y_true, dtype=float).ravel()
    y_score = np.asarray(y_score, dtype=float).ravel()
    pos = y_true == 1
    n_pos = int(pos.sum())
    n_neg = y_true.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    order = np.argsort(y_score, kind="mergesort")
    ranks = np.empty(y_score.size, dtype=float)
    sorted_scores = y_score[order]
    # average ranks over tied groups
    i = 0
    while i < sorted_scores.size:
        j = i
        while j + 1 < sorted_scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def macro_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Macro-averaged F1 over the classes present in ``y_true``."""
    y_true = np.asarray(y_true).ravel()
    y_pred = np.asarray(y_pred).ravel()
    f1s = []
    for c in np.unique(y_true):
        tp = float(np.sum((y_pred == c) & (y_true == c)))
        fp = float(np.sum((y_pred == c) & (y_true != c)))
        fn = float(np.sum((y_pred != c) & (y_true == c)))
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(f1s))


def rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true, dtype=float).ravel()
    y_pred = np.asarray(y_pred, dtype=float).ravel()
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


def task_metric(task: str, y_true: np.ndarray, model, X: np.ndarray) -> float:
    """The paper's reported metric (higher-is-better except RMSE)."""
    if task == "binary":
        return auc_score(y_true, model.predict_proba(X)[:, 1])
    if task == "multiclass":
        return macro_f1(y_true, model.predict(X))
    if task == "regression":
        return rmse(y_true, model.predict(X))
    raise ValueError(f"unknown task {task!r}")


def task_loss(task: str, y_true: np.ndarray, model, X: np.ndarray) -> float:
    """Uniform minimisation target: 1-AUC / 1-macroF1 / RMSE (Problem 1)."""
    m = task_metric(task, y_true, model, X)
    return m if task == "regression" else 1.0 - m


def metric_name(task: str) -> str:
    return {"binary": "AUC", "multiclass": "F1", "regression": "RMSE"}[task]


def higher_is_better(task: str) -> bool:
    return task != "regression"
