"""The "Random" baseline (§VII-A3).

Randomly chooses query templates from the template set, then randomly picks
predicate-aware SQL queries from each template's pool — same feature budget
as FeatAug, no proxy, no TPE, no beam search.
"""
from __future__ import annotations

import numpy as np

from repro.core.feataug import DatasetContext, FeatAugOutput
from repro.core.generation import PoolSearcher


def run_random(ctx: DatasetContext, model_name: str, *, seed: int = 0) -> FeatAugOutput:
    bundle, budget = ctx.bundle, ctx.budget
    rng = np.random.default_rng(seed + 77)
    evaluator = ctx.evaluator(model_name, seed=seed)
    universe = tuple(bundle.where_attrs)
    max_size = min(budget.qti_depth, len(universe))

    feats = []
    seen_sql: set[str] = set()
    combos: list[tuple[str, ...]] = []
    for t in range(budget.n_templates):
        size = int(rng.integers(1, max_size + 1))
        combo = tuple(universe[i] for i in sorted(
            rng.choice(len(universe), size=size, replace=False)))
        combos.append(combo)
        searcher = PoolSearcher(ctx.space(combo), ctx.executor, evaluator,
                                proxy_fn=None, prefix=f"rnd{seed}t{t}")
        for _ in range(budget.queries_per_template):
            f = searcher.frame(searcher.space.sample(rng))
            if f is not None and f.sql not in seen_sql:
                seen_sql.add(f.sql)
                feats.append(f)

    result = evaluator.evaluate(feats[: budget.n_features])
    return FeatAugOutput(result=result, features=feats, templates=combos,
                         stats={"method": "Random"})
