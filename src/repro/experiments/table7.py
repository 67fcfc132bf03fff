"""Table VII — ablation: NoQTI / NoWU / Full FeatAug.

Grid: 4 one-to-many datasets × 4 models × 3 variants.
- NoQTI: one template over all candidate WHERE attributes (no beam search);
- NoWU: TPE on real loss only, for warmup_topk+gen_iters iterations (the
  paper's 50+40=90-iteration accounting);
- Full: both components on.
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

VARIANTS = ("FeatAug(NoQTI)", "FeatAug(NoWU)", "FeatAug(Full)")


def run_table7(spark, *, scale: float = DEFAULT_SCALE,
               budget: BudgetProfile | None = None, seed: int = DEFAULT_SEED,
               datasets=tuple(ONE_TO_MANY), models=MODELS,
               save: bool = True) -> pd.DataFrame:
    return run_grid(spark, ONE_TO_MANY, "table7", datasets=datasets,
                    models=models, methods=VARIANTS, scale=scale,
                    budget=budget or budget_from_env(SWEEP), seed=seed,
                    save=save)
