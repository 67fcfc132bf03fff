"""Table VIII — low-cost proxy sweep: SC vs MI vs LR.

Grid: 4 one-to-many datasets × 4 models × 3 proxies. The proxy drives both
the QTI node evaluations and the warm-up round; everything else is Full
FeatAug.
"""
from __future__ import annotations

import pandas as pd

from repro.core.config import SWEEP, BudgetProfile
from repro.datasets import ONE_TO_MANY
from repro.experiments.harness import (
    DEFAULT_SCALE,
    DEFAULT_SEED,
    budget_from_env,
    run_grid,
)
from repro.experiments.table3 import MODELS

PROXIES = ("SC", "MI", "LR")


def run_table8(spark, *, scale: float = DEFAULT_SCALE,
               budget: BudgetProfile | None = None, seed: int = DEFAULT_SEED,
               datasets=tuple(ONE_TO_MANY), models=MODELS, proxies=PROXIES,
               save: bool = True) -> pd.DataFrame:
    return run_grid(spark, ONE_TO_MANY, "table8", datasets=datasets,
                    models=models, methods=[f"FeatAug({p})" for p in proxies],
                    scale=scale, budget=budget or budget_from_env(SWEEP),
                    seed=seed, save=save)
