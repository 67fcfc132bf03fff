"""Table III — overall performance on the four one-to-many datasets.

Grid: {Tmall, Instacart, Student, Merchant} × {LR, XGB, RF, DeepFM} ×
{FT, FT+LR, FT+GBDT, FT+MI, FT+Chi2, FT+Gini, FT+Forward, FT+Backward,
Random, FeatAug}. Metrics: AUC (binary) / RMSE (Merchant regression), on
the held-out test split, exactly one seeded repetition (the paper averages
5; DESIGN.md §5).
"""
from __future__ import annotations

import pandas as pd

from repro.core.config import BudgetProfile
from repro.datasets import ONE_TO_MANY
from repro.experiments.harness import (
    DEFAULT_SCALE,
    DEFAULT_SEED,
    TABLE3_METHODS,
    budget_from_env,
    run_grid,
)

MODELS = ("LR", "XGB", "RF", "DeepFM")


def run_table3(spark, *, scale: float = DEFAULT_SCALE,
               budget: BudgetProfile | None = None, seed: int = DEFAULT_SEED,
               datasets=tuple(ONE_TO_MANY), models=MODELS,
               methods=TABLE3_METHODS, save: bool = True) -> pd.DataFrame:
    return run_grid(spark, ONE_TO_MANY, "table3", datasets=datasets,
                    models=models, methods=methods, scale=scale,
                    budget=budget or budget_from_env(), seed=seed, save=save)
