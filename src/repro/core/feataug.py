"""The FEATAUG framework end to end (Figure 2).

``DatasetContext`` prepares the shared, method-independent state for one
dataset (checkpointed relevant-table view, profiled WHERE-attribute domains,
train/valid/test splits); ``run_feataug`` then executes the two components:

1. Query Template Identification (optional — the NoQTI ablation replaces it
   with the single user-provided template over all candidate attributes);
2. SQL Query Generation per identified template (warm-up + TPE; the NoWU
   ablation drops the proxy warm-up round).

The output is the augmented-table evaluation (validation + held-out test
metric of the downstream model trained with base + generated features).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import BudgetProfile
from repro.core.evaluator import DownstreamEvaluator, EvalResult
from repro.core.executor import FeatureFrame, QueryExecutor
from repro.core.generation import PoolSearcher, generate_queries, run_pools
from repro.core.proxy import make_proxy
from repro.core.qti import identify_templates
from repro.core.space import QuerySpace, lift_config, profile_domains
from repro.core.template import QueryTemplate
from repro.core.tpe import Problem
from repro.datasets.base import DatasetBundle

_uid = itertools.count()


class DatasetContext:
    """Method-independent per-dataset state, shared across methods/models."""

    def __init__(self, spark, bundle: DatasetBundle, budget: BudgetProfile,
                 *, seed: int):
        self.spark = spark
        self.bundle = bundle
        self.budget = budget
        self.seed = seed
        self.executor = QueryExecutor(spark, bundle.R, view=f"rel_{bundle.name.lower()}_{next(_uid)}")
        self.domains = profile_domains(
            bundle.R, list(bundle.where_attrs),
            cat_cap=budget.cat_domain_cap, grid=budget.grid_size,
        )
        self.splits = bundle.splits(seed=seed)

    def space(self, combo) -> QuerySpace:
        t = QueryTemplate(self.bundle.aggs, self.bundle.agg_attrs,
                          tuple(combo), self.bundle.keys)
        return QuerySpace(t, self.domains)

    def evaluator(self, model_name: str, *, seed: int) -> DownstreamEvaluator:
        return DownstreamEvaluator(self.splits, model_name, seed=seed)

    def close(self) -> None:
        self.executor.unpersist()


@dataclass
class FeatAugOutput:
    result: EvalResult
    features: list[FeatureFrame]
    templates: list[tuple[str, ...]]
    stats: dict = field(default_factory=dict)


def _combo_rng(seed: int, combo, universe) -> np.random.Generator:
    idx = [universe.index(a) for a in combo]
    return np.random.default_rng([seed, 1000003, *idx])


def run_feataug(ctx: DatasetContext, model_name: str, *, seed: int = 0,
                use_qti: bool = True, use_warmup: bool = True,
                proxy: str = "MI") -> FeatAugOutput:
    """Run FeatAug for one (dataset, downstream model) scenario.

    ``use_qti=False`` → NoQTI ablation, ``use_warmup=False`` → NoWU
    ablation, ``proxy`` ∈ {"MI", "SC", "LR"} → Table VIII sweep.
    """
    bundle, budget = ctx.bundle, ctx.budget
    evaluator = ctx.evaluator(model_name, seed=seed)
    proxy_fn = make_proxy(proxy, task=bundle.task,
                          y_valid=evaluator.labels(evaluator.splits.valid))
    run_tag = next(_uid)
    universe = tuple(bundle.where_attrs)

    stats: dict = {"proxy": proxy, "use_qti": use_qti, "use_warmup": use_warmup}
    n_queries_before = ctx.executor.n_queries  # the context's running total

    searchers: dict[tuple, PoolSearcher] = {}

    def get_searcher(combo) -> PoolSearcher:
        combo = tuple(combo)
        if combo not in searchers:
            searchers[combo] = PoolSearcher(
                ctx.space(combo), ctx.executor, evaluator, proxy_fn,
                prefix=f"f{run_tag}t{len(searchers)}",
            )
        return searchers[combo]

    node_best: dict[tuple, list] = {}  # stays empty under NoQTI

    if use_qti:
        def effectiveness(layer) -> list[float]:
            # Optimization O1: short in-pool TPE searches maximising the
            # proxy — each node's effectiveness estimate (best query's proxy
            # value). The layer's nodes search in lockstep rounds. Child nodes
            # warm-start from their parents' best queries (the parent's pool
            # embeds in the child's with the new dim = None, so these are memo
            # hits), so beam expansion refines instead of restarting.
            layer = [tuple(c) for c in layer]
            pool = [get_searcher(c) for c in layer]
            problems = []
            for combo, s in zip(layer, pool):
                rng = _combo_rng(seed, combo, universe)
                warm = []
                for drop in combo:
                    parent = tuple(a for a in combo if a != drop)
                    if parent in node_best:
                        ps = searchers[parent].space
                        for cfg, _ in node_best[parent][:2]:
                            lifted = lift_config(ps, s.space, cfg)
                            warm.append((lifted, s.proxy_loss(lifted)))
                problems.append(Problem(
                    s.proxy_loss, s.space.shape, budget.qti_samples,
                    int(rng.integers(0, 2**31)), warm_start=warm,
                    n_startup=0 if warm else max(2, budget.qti_samples // 2)))
            scores = []
            for combo, trials in zip(layer, run_pools(pool, problems)):
                node_best[combo] = sorted(trials, key=lambda t: t[1])[:3]
                scores.append(-min(loss for _, loss in trials))
            return scores

        combos, qti_stats = identify_templates(universe, effectiveness, budget)
        stats["qti_nodes_evaluated"] = qti_stats.n_nodes_evaluated
        per_pool = budget.queries_per_template
    else:
        combos = [universe]
        per_pool = budget.n_features

    # SQL Query Generation over all templates' pools together (§V).
    chosen, _ = generate_queries(
        [get_searcher(c) for c in combos], budget,
        seeds=[seed + 101 * (i + 1) for i in range(len(combos))],
        use_warmup=use_warmup, top_m=per_pool,
        proxy_warm=[node_best.get(tuple(c)) for c in combos],
    )

    # Dedupe across pools (identical SQL and near-identical value columns —
    # e.g. COUNT(price) vs COUNT(quantity) under the same predicate), keep
    # the paper's feature budget. Value-dedupe keeps the small budget from
    # being burned on redundant columns.
    chosen.sort(key=lambda t: t[1])
    feats: list[FeatureFrame] = []
    seen_sql: set[str] = set()
    kept_cols: list[np.ndarray] = []
    train = evaluator.splits.train
    for f, _ in chosen:
        if f.sql in seen_sql:
            continue
        col = evaluator.feature_on(train, f)
        sd = col.std()
        if sd < 1e-12:
            continue  # constant feature
        corrs = [np.corrcoef(col, c)[0, 1] for c in kept_cols]
        if any(np.isfinite(r) and abs(r) > 0.985 for r in corrs):
            continue
        seen_sql.add(f.sql)
        kept_cols.append(col)
        feats.append(f)
        if len(feats) >= budget.n_features:
            break

    result = evaluator.evaluate(feats)
    stats.update(
        n_features=len(feats),
        n_spark_queries=ctx.executor.n_queries - n_queries_before,
        n_model_fits=evaluator.n_fits,
        n_failed_queries=sum(s.n_failed for s in searchers.values()),
    )
    return FeatAugOutput(result=result, features=feats,
                         templates=[tuple(c) for c in combos], stats=stats)
