"""The "Random" baseline (§VII-A3).

Randomly chooses query templates from the template set, then randomly picks
predicate-aware SQL queries from each template's pool — same feature budget
as FeatAug, no proxy, no TPE, no beam search.
"""
from __future__ import annotations

import numpy as np

from repro.core.executor import QUERY_ERRORS, FeatureFrame
from repro.core.feataug import DatasetContext


def random_features(ctx: DatasetContext, *, seed: int) -> list[FeatureFrame]:
    """The distinct queries that ran among ``queries_per_template`` random
    pool queries from each of ``n_templates`` random templates (at most
    ``n_features``)."""
    bundle, budget = ctx.bundle, ctx.budget
    rng = np.random.default_rng(seed + 77)
    universe = tuple(bundle.where_attrs)
    max_size = min(budget.qti_depth, len(universe))

    queries = []
    for _ in range(budget.n_templates):
        size = int(rng.integers(1, max_size + 1))
        combo = tuple(universe[i] for i in sorted(
            rng.choice(len(universe), size=size, replace=False)))
        space = ctx.space(combo)
        queries += [space.decode(space.sample(rng))
                    for _ in range(budget.queries_per_template)]

    ctx.executor.prefetch(queries)
    feats: list[FeatureFrame] = []
    seen_sql: set[str] = set()
    for i, q in enumerate(queries):
        try:
            f = ctx.executor.feature_frame(q, f"rnd{seed}_{i}")
        except QUERY_ERRORS:
            continue
        if f.sql not in seen_sql:
            seen_sql.add(f.sql)
            feats.append(f)
    return feats
