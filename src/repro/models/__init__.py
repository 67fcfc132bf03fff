"""Downstream ML models implemented from scratch in numpy.

The paper trains scikit-learn LR / RF, xgboost XGB and a DeepFM as the
*downstream* models whose validation loss drives the search. None of those
libraries are installed offline, so this package reimplements them:

- :mod:`repro.models.logistic` — (multinomial) logistic regression,
- :mod:`repro.models.tree` — histogram-split decision trees,
- :mod:`repro.models.forest` — random forest (bagging),
- :mod:`repro.models.gbdt` — second-order gradient boosting (XGB stand-in),
- :mod:`repro.models.deepfm` — factorization machine + MLP with manual
  backprop,
- :mod:`repro.models.metrics` — AUC / macro-F1 / RMSE.

All models follow a scikit-style ``fit(X, y)`` / ``predict(X)`` /
``predict_proba(X)`` API on dense ``numpy`` arrays. The paper treats each
model as a fixed black box, so its settings are module constants; only the
number of training rounds (LR steps, GBDT rounds, RF trees) differs between
callers. RF and DeepFM draw at random and are deterministic in their
``seed``; LR and GBDT draw nothing, so ``make_model`` gives them no seed.
"""
from repro.models.deepfm import DeepFM
from repro.models.forest import RandomForest
from repro.models.gbdt import GBDT
from repro.models.logistic import LogisticRegression
from repro.models.metrics import auc_score, macro_f1, rmse

MODEL_NAMES = ("LR", "XGB", "RF", "DeepFM")


def make_model(name: str, task: str, *, seed: int):
    """Instantiate a downstream model by its paper name.

    ``task`` is ``"binary"``, ``"multiclass"`` or ``"regression"``. The
    returned object supports ``fit``/``predict`` (+ ``predict_proba`` for
    classifiers). "XGB" maps to our GBDT because xgboost is unavailable.
    """
    if name == "LR":
        return LogisticRegression(task=task)
    if name == "XGB":
        return GBDT(task=task)
    if name == "RF":
        return RandomForest(task=task, seed=seed)
    if name == "DeepFM":
        return DeepFM(task=task, seed=seed)
    raise ValueError(f"unknown model {name!r}")


__all__ = [
    "DeepFM",
    "GBDT",
    "LogisticRegression",
    "MODEL_NAMES",
    "RandomForest",
    "auc_score",
    "macro_f1",
    "make_model",
    "rmse",
]
