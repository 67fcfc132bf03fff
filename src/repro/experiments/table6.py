"""Table VI — single-table & one-to-one performance (Covtype, Household).

Grid: {Covtype, Household} × {LR, XGB, RF} (DeepFM excluded — multiclass,
§VII-C) × {FT, FT+LR, FT+GBDT, FT+MI, FT+Chi2, FT+Gini, ARDA,
AutoFeat-MAB, AutoFeat-DQN, Random, FeatAug}. Forward/Backward are "-" in
the paper's Table VI and are omitted here too. Metric: macro-F1.
"""
from __future__ import annotations

import pandas as pd

from repro.core.config import BudgetProfile
from repro.datasets import ONE_TO_ONE
from repro.experiments.harness import (
    DEFAULT_SCALE,
    DEFAULT_SEED,
    budget_from_env,
    run_grid,
)

MODELS = ("LR", "XGB", "RF")
METHODS = ("FT", "FT+LR", "FT+GBDT", "FT+MI", "FT+Chi2", "FT+Gini",
           "ARDA", "AutoFeat-MAB", "AutoFeat-DQN", "Random", "FeatAug")


def run_table6(spark, *, scale: float = DEFAULT_SCALE,
               budget: BudgetProfile | None = None, seed: int = DEFAULT_SEED,
               datasets=tuple(ONE_TO_ONE), models=MODELS, methods=METHODS,
               save: bool = True) -> pd.DataFrame:
    return run_grid(spark, ONE_TO_ONE, "table6", datasets=datasets,
                    models=models, methods=methods, scale=scale,
                    budget=budget or budget_from_env(), seed=seed, save=save)
