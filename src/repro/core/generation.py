"""SQL Query Generation component (§V, Figure 3).

Two TPE rounds over the query pool of a fixed template:

1. **Warm-Up Phase** — TPE maximises a *low-cost proxy* (default MI between
   the generated feature and the labels). The top-k distinct proxy queries
   are then evaluated with the real downstream model and become the seeded
   surrogate observations.
2. **Query-Generation Phase** — TPE minimises the *real* validation loss,
   warm-started from those observations.

The NoWU ablation (paper Table VII) replaces both rounds with a single
real-loss TPE run of ``warmup_topk + gen_iters`` iterations — the paper's
"50+40=90 iterations" accounting, which charges the warm-up's real
evaluations to the baseline.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BudgetProfile
from repro.core.evaluator import DownstreamEvaluator
from repro.core.executor import FeatureFrame, QueryExecutor
from repro.core.space import QuerySpace
from repro.core.tpe import run_tpe


@dataclass
class GenerationStats:
    n_proxy_evals: int = 0
    n_real_evals: int = 0


class PoolSearcher:
    """Caches decode→execute→proxy/real-eval per config for one pool."""

    def __init__(self, space: QuerySpace, executor: QueryExecutor,
                 evaluator: DownstreamEvaluator, proxy_fn, *, prefix: str):
        self.space = space
        self.executor = executor
        self.evaluator = evaluator
        self.proxy_fn = proxy_fn
        self.prefix = prefix
        self._frames: dict[tuple, FeatureFrame] = {}
        self._proxy: dict[tuple, float] = {}
        self._real: dict[tuple, float] = {}

    def frame(self, cfg: tuple) -> FeatureFrame:
        if cfg not in self._frames:
            q = self.space.decode(cfg)
            name = f"{self.prefix}_{len(self._frames)}"
            self._frames[cfg] = self.executor.feature_frame(q, name)
        return self._frames[cfg]

    def proxy_score(self, cfg: tuple) -> float:
        """Higher = better; degenerate features score 0."""
        if cfg not in self._proxy:
            f, ev = self.frame(cfg), self.evaluator
            tr, va = ev.splits.train, ev.splits.valid
            self._proxy[cfg] = float(self.proxy_fn(
                ev.matrix(tr, [f]), ev.labels(tr), ev.matrix(va, [f])))
        return self._proxy[cfg]

    def real_loss(self, cfg: tuple) -> float:
        if cfg not in self._real:
            self._real[cfg] = float(self.evaluator.valid_loss([self.frame(cfg)]))
        return self._real[cfg]

    @property
    def n_proxy(self) -> int:
        return len(self._proxy)

    @property
    def n_real(self) -> int:
        return len(self._real)


def generate_queries(searcher: PoolSearcher, budget: BudgetProfile, *, seed: int,
                     use_warmup: bool = True, top_m: int | None = None,
                     proxy_warm: list | None = None
                     ) -> tuple[list[tuple[FeatureFrame, float]], GenerationStats]:
    """Search one query pool; return the top-m (feature, real-loss) pairs.

    ``proxy_warm`` optionally seeds the warm-up round's surrogate with
    (config, −proxy) observations already collected for this pool by the
    QTI component's node evaluations.
    """
    top_m = top_m if top_m is not None else budget.queries_per_template
    shape = searcher.space.shape

    if use_warmup:
        # Round 1: maximise the proxy (negate — run_tpe minimises).
        proxy_trials = run_tpe(
            lambda cfg: -searcher.proxy_score(cfg), shape,
            budget.warmup_iters, seed=seed,
            warm_start=proxy_warm,
            n_startup=0 if proxy_warm else 6,
        )
        # Top-k distinct configs by proxy, real-evaluated → seed surrogate.
        seen: set[tuple] = set()
        ranked = [c for c, _ in sorted(proxy_trials, key=lambda t: t[1])
                  if not (c in seen or seen.add(c))]
        warm = [(cfg, searcher.real_loss(cfg)) for cfg in ranked[: budget.warmup_topk]]
        trials = run_tpe(searcher.real_loss, shape, budget.gen_iters,
                         seed=seed + 1, warm_start=warm,
                         n_startup=0)  # the seed observations replace startup
    else:
        trials = run_tpe(searcher.real_loss, shape,
                         budget.warmup_topk + budget.gen_iters, seed=seed + 1)

    stats = GenerationStats(n_proxy_evals=searcher.n_proxy, n_real_evals=searcher.n_real)

    # Rank all real-evaluated configs (deduped) by validation loss.
    best: dict[tuple, float] = {}
    for cfg, loss in trials:
        best[cfg] = min(loss, best.get(cfg, float("inf")))
    ranked = sorted(best.items(), key=lambda t: t[1])[:top_m]
    return [(searcher.frame(cfg), loss) for cfg, loss in ranked], stats
