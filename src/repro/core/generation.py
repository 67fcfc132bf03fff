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

The template pools are independent searches, so ``generate_queries`` runs
all of them together in lockstep rounds (``tpe.run_lockstep``): every pool
proposes, ``QueryExecutor.prefetch`` runs the round's new queries
concurrently, then each pool scores its proposals in template order. Every
``PoolSearcher`` still builds its frames in its own order, so feature names,
per-pool SQL sequences and losses are those of running the pools one after
another. A candidate whose query fails becomes an ``inf`` trial and is
counted; it is never returned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import BudgetProfile
from repro.core.evaluator import DownstreamEvaluator
from repro.core.executor import QUERY_ERRORS, FeatureFrame, QueryExecutor
from repro.core.space import QuerySpace
from repro.core.tpe import Problem, Trial, run_lockstep


@dataclass
class GenerationStats:
    n_proxy_evals: int = 0
    n_real_evals: int = 0


class PoolSearcher:
    """Caches decode→execute→proxy/real-eval per config for one pool.

    A config whose query fails to run has no frame (``None``): its proxy
    score is −inf and its real loss +inf, and ``n_failed`` counts it.
    """

    def __init__(self, space: QuerySpace, executor: QueryExecutor,
                 evaluator: DownstreamEvaluator, proxy_fn, *, prefix: str):
        self.space = space
        self.executor = executor
        self.evaluator = evaluator
        self.proxy_fn = proxy_fn
        self.prefix = prefix
        self.n_failed = 0
        self._frames: dict[tuple, FeatureFrame | None] = {}
        self._proxy: dict[tuple, float] = {}
        self._real: dict[tuple, float] = {}

    def frame(self, cfg: tuple) -> FeatureFrame | None:
        if cfg not in self._frames:
            q = self.space.decode(cfg)
            name = f"{self.prefix}_{len(self._frames)}"
            try:
                self._frames[cfg] = self.executor.feature_frame(q, name)
            except QUERY_ERRORS:
                self._frames[cfg] = None
                self.n_failed += 1
        return self._frames[cfg]

    def proxy_score(self, cfg: tuple) -> float:
        """Higher = better; degenerate features score 0."""
        if cfg not in self._proxy:
            f, ev = self.frame(cfg), self.evaluator
            tr, va = ev.splits.train, ev.splits.valid
            self._proxy[cfg] = -math.inf if f is None else float(self.proxy_fn(
                ev.matrix(tr, [f]), ev.labels(tr), ev.matrix(va, [f])))
        return self._proxy[cfg]

    def proxy_loss(self, cfg: tuple) -> float:
        """−proxy: the objective of the proxy searches (TPE minimises)."""
        return -self.proxy_score(cfg)

    def real_loss(self, cfg: tuple) -> float:
        if cfg not in self._real:
            f = self.frame(cfg)
            self._real[cfg] = math.inf if f is None else float(self.evaluator.valid_loss([f]))
        return self._real[cfg]

    @property
    def n_proxy(self) -> int:
        return len(self._proxy)

    @property
    def n_real(self) -> int:
        return len(self._real)


def run_pools(searchers: list[PoolSearcher], problems: list[Problem]) -> list[list[Trial]]:
    """``run_lockstep`` over one problem per pool (the pools share one
    executor); each round's queries are prefetched together."""
    def prefetch(proposals: list[list[tuple]]) -> None:
        searchers[0].executor.prefetch(
            [s.space.decode(c) for s, cfgs in zip(searchers, proposals) for c in cfgs])
    return run_lockstep(problems, before_round=prefetch)


def generate_queries(searchers: list[PoolSearcher], budget: BudgetProfile, *,
                     seeds: list[int], use_warmup: bool, top_m: int,
                     proxy_warm: list
                     ) -> tuple[list[tuple[FeatureFrame, float]], GenerationStats]:
    """Search the template pools together; return each pool's ``top_m``
    (feature, real-loss) pairs, concatenated in pool order.

    Pool ``i`` searches with ``seeds[i]``. ``proxy_warm[i]``, when not
    None, seeds its warm-up round's surrogate with (config, −proxy)
    observations already collected for that pool by the QTI component's
    node evaluations.
    """

    if use_warmup:
        # Round 1: maximise the proxy.
        proxy_trials = run_pools(searchers, [
            Problem(s.proxy_loss, s.space.shape, budget.warmup_iters, seed,
                    warm_start=pw, n_startup=0 if pw else 6)
            for s, seed, pw in zip(searchers, seeds, proxy_warm)])
        # Top-k distinct configs by proxy, real-evaluated → seed surrogate.
        warm = []
        for s, trials in zip(searchers, proxy_trials):
            seen: set[tuple] = set()
            ranked = [c for c, _ in sorted(trials, key=lambda t: t[1])
                      if not (c in seen or seen.add(c))]
            warm.append([(cfg, s.real_loss(cfg)) for cfg in ranked[: budget.warmup_topk]])
        trials = run_pools(searchers, [
            Problem(s.real_loss, s.space.shape, budget.gen_iters, seed + 1,
                    warm_start=w, n_startup=0)  # the seed observations replace startup
            for s, seed, w in zip(searchers, seeds, warm)])
    else:
        trials = run_pools(searchers, [
            Problem(s.real_loss, s.space.shape, budget.warmup_topk + budget.gen_iters,
                    seed + 1)
            for s, seed in zip(searchers, seeds)])

    stats = GenerationStats(n_proxy_evals=sum(s.n_proxy for s in searchers),
                            n_real_evals=sum(s.n_real for s in searchers))

    # Per pool, rank its real-evaluated configs (deduped, failures dropped)
    # by validation loss.
    pairs: list[tuple[FeatureFrame, float]] = []
    for s, pool_trials in zip(searchers, trials):
        best: dict[tuple, float] = {}
        for cfg, loss in pool_trials:
            if loss < math.inf:
                best[cfg] = min(loss, best.get(cfg, math.inf))
        ranked = sorted(best.items(), key=lambda t: t[1])[:top_m]
        pairs += [(s.frame(cfg), loss) for cfg, loss in ranked]
    return pairs, stats
