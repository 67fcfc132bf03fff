"""The paper's evaluation grids as data, and the one function that runs them.

``GRIDS`` maps each performance table (§VII, Tables III, VI, VII, VIII) to
its dataset generators, downstream models, methods and default budget;
``run_table`` runs any of them. ``descriptor_tables`` builds the dataset and
query-template descriptors (Tables I/II over the one-to-many datasets,
IV/V over the one-to-one ones).
"""
from __future__ import annotations

import os
import time
from pathlib import Path

import pandas as pd

from repro.baselines import (arda_features, autofeature_dqn, autofeature_mab,
                             featuretools_features, random_features)
from repro.core.config import BENCH, SWEEP, BudgetProfile
from repro.core.feataug import DatasetContext, run_feataug
from repro.core.template import template_count
from repro.datasets import ONE_TO_MANY, ONE_TO_ONE
from repro.models import MODEL_NAMES
from repro.models.metrics import metric_name
from repro.selectors import (NotApplicableError, backward_select, chi2_select, forward_select,
                             gbdt_importance_select, gini_select, lr_importance_select,
                             mi_select)

#: default data scale for benches — R tables ~18–22k rows, D ~1–1.5k rows
DEFAULT_SCALE = float(os.environ.get("REPRO_SCALE", "0.6"))
DEFAULT_SEED = int(os.environ.get("REPRO_SEED", "0"))

#: ``run_feataug`` switches per FeatAug method name (Tables III, VII, VIII)
FEATAUG_VARIANTS = {
    "FeatAug": {},
    "FeatAug(Full)": {},
    "FeatAug(NoQTI)": {"use_qti": False},
    "FeatAug(NoWU)": {"use_warmup": False},
    **{f"FeatAug({p})": {"proxy": p} for p in ("SC", "MI", "LR")},
}


def _ft(select):
    """``FT+<selector>``: ``select`` over the Featuretools pool."""
    return lambda ctx, pool, ev, seed: select(pool, ev, ctx.budget.n_features)


#: every other method: name -> ``features(ctx, Featuretools pool, the cell's
#: evaluator, seed)``, the features ``run_method`` evaluates
METHODS = {
    "FT": lambda ctx, pool, ev, seed: pool[: ctx.budget.n_features],
    "FT+LR": _ft(lr_importance_select),
    "FT+GBDT": _ft(gbdt_importance_select),
    "FT+MI": _ft(mi_select),
    "FT+Chi2": _ft(chi2_select),
    "FT+Gini": _ft(gini_select),
    "FT+Forward": lambda ctx, pool, ev, seed: forward_select(
        pool, ev, ctx.budget.n_features, seed=seed),
    "FT+Backward": lambda ctx, pool, ev, seed: backward_select(
        pool, ev, ctx.budget.n_features, seed=seed),
    "Random": lambda ctx, pool, ev, seed: random_features(ctx, seed=seed),
    "ARDA": lambda ctx, pool, ev, seed: arda_features(ctx, ev, seed=seed),
    "AutoFeat-MAB": lambda ctx, pool, ev, seed: autofeature_mab(ctx, ev, seed=seed),
    "AutoFeat-DQN": lambda ctx, pool, ev, seed: autofeature_dqn(ctx, ev, seed=seed),
}

#: "tableN" -> (dataset generators, models, methods, default budget).
#: One seeded repetition per cell (the paper averages 5; DESIGN.md §5).
#: - III: Featuretools + 7 selectors + Random + FeatAug; AUC, or RMSE on
#:   Merchant.
#: - VI: DeepFM is left out (multiclass, §VII-C), and so are Forward and
#:   Backward ("-" in the paper); macro-F1.
#: - VII: the ablation. NoQTI searches one template over every WHERE
#:   attribute; NoWU runs TPE on the real loss only.
#: - VIII: the low-cost proxy drives both QTI and the warm-up round.
GRIDS = {
    "table3": (ONE_TO_MANY, MODEL_NAMES,
               ("FT", "FT+LR", "FT+GBDT", "FT+MI", "FT+Chi2", "FT+Gini",
                "FT+Forward", "FT+Backward", "Random", "FeatAug"), BENCH),
    "table6": (ONE_TO_ONE, ("LR", "XGB", "RF"),
               ("FT", "FT+LR", "FT+GBDT", "FT+MI", "FT+Chi2", "FT+Gini", "ARDA",
                "AutoFeat-MAB", "AutoFeat-DQN", "Random", "FeatAug"), BENCH),
    "table7": (ONE_TO_MANY, MODEL_NAMES,
               ("FeatAug(NoQTI)", "FeatAug(NoWU)", "FeatAug(Full)"), SWEEP),
    "table8": (ONE_TO_MANY, MODEL_NAMES,
               ("FeatAug(SC)", "FeatAug(MI)", "FeatAug(LR)"), SWEEP),
}


def results_dir() -> Path:
    d = Path(os.environ.get("REPRO_RESULTS", Path(__file__).resolve().parents[3] / "results"))
    d.mkdir(parents=True, exist_ok=True)
    return d


def save_and_print(df: pd.DataFrame, name: str) -> pd.DataFrame:
    """Write results/<name>.csv and print a paper-shaped pivot."""
    out = results_dir() / f"{name}.csv"
    df.to_csv(out, index=False)
    print(f"\n=== {name} (written to {out}) ===")
    if {"dataset", "model", "method", "value"} <= set(df.columns):
        for model, g in df.groupby("model", sort=False):
            pivot = g.pivot_table(index="method", columns="dataset",
                                  values="value", sort=False)
            print(f"\n-- model: {model}")
            print(pivot.round(4).to_string())
    else:
        print(df.to_string(index=False))
    return df


def descriptor_tables(spark, gens: dict, *, scale: float = DEFAULT_SCALE
                      ) -> tuple[pd.DataFrame, pd.DataFrame]:
    """(dataset stats, query-template info) over ``gens``, each bundle built once.

    Stats are the paper's Table I/IV columns: # of tables, rows in R and the
    train/valid/test sizes. Template info is Table II/V: F, #A, #attr, K and
    the template-set size 2^|attr|.
    """
    stats, templates = [], []
    for gen in gens.values():
        b = gen(spark, scale=scale, seed=7)
        s = b.splits(seed=0)
        stats.append({
            "dataset": b.name,
            "n_tables": b.info.get("n_tables", 2),
            "rows_in_R": b.n_r_rows,
            "train/valid/test": f"{len(s.train)}/{len(s.valid)}/{len(s.test)}",
        })
        templates.append({
            "dataset": b.name,
            "F": f"{len(b.aggs)} fns ({', '.join(b.aggs[:5])}, …)",
            "n_A": len(b.agg_attrs),
            "n_attr": len(b.where_attrs),
            "K": ", ".join(b.keys),
            "n_T": template_count(len(b.where_attrs)),
        })
    return pd.DataFrame(stats), pd.DataFrame(templates)


def run_method(method: str, ctx: DatasetContext, pool, model: str, *,
               seed: int) -> dict:
    """Run one method of any table grid for one (dataset, model) scenario:
    a FeatAug search, or ``METHODS[method]``'s features scored by one
    evaluation.

    ``pool`` is the Featuretools feature pool, read only by the ``FT*``
    methods. Returns {method, dataset, model, metric, value, seconds};
    ``value`` is NaN when the selector is undefined for the task (paper's
    "-").
    """
    t0 = time.time()
    value = float("nan")
    features = METHODS.get(method)
    if features is not None:
        evaluator = ctx.evaluator(model, seed=seed)
        try:
            value = evaluator.evaluate(features(ctx, pool, evaluator, seed)).test_metric
        except NotApplicableError:
            pass  # Chi2 / Gini on regression — paper reports "-"
    elif method in FEATAUG_VARIANTS:
        value = run_feataug(ctx, model, seed=seed,
                            **FEATAUG_VARIANTS[method]).result.test_metric
    else:
        raise ValueError(f"unknown method {method!r}")
    return {
        "dataset": ctx.bundle.name,
        "model": model,
        "method": method,
        "metric": metric_name(ctx.bundle.task),
        "value": value,
        "seconds": round(time.time() - t0, 2),
    }


def run_table(spark, table: str, *, scale: float = DEFAULT_SCALE,
              budget: BudgetProfile | None = None, seed: int = DEFAULT_SEED,
              datasets=None, models=None, methods=None,
              save: bool = True) -> pd.DataFrame:
    """One ``run_method`` row per (dataset, model, method) cell of
    ``GRIDS[table]``; each of budget/datasets/models/methods left as None
    takes the grid's value. With ``save`` the rows also go to
    ``results/<table>.csv``."""
    gens, grid_models, grid_methods, grid_budget = GRIDS[table]
    budget = budget or grid_budget
    methods = methods or grid_methods
    rows = []
    for name in datasets or gens:
        bundle = gens[name](spark, scale=scale, seed=7)
        ctx = DatasetContext(spark, bundle, budget, seed=seed)
        try:
            pool = (featuretools_features(ctx.executor, bundle)
                    if any(m.startswith("FT") for m in methods) else None)
            for model in models or grid_models:
                for method in methods:
                    rows.append(run_method(method, ctx, pool, model, seed=seed))
        finally:
            ctx.close()
    df = pd.DataFrame(rows)
    return save_and_print(df, table) if save else df
