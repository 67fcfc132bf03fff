"""Tree-structured Parzen Estimator over finite-domain spaces (§V-B).

hyperopt is not installed, so this reimplements Bergstra et al. (2011)'s
categorical TPE, which is exactly what FeatAug needs: every query-vector
dimension (agg function, agg attr, predicate value grids, key bits) is a
finite domain (§V-A / Example 10).

Mechanics per ``suggest`` call, given the observation history (config tuple,
loss to *minimise*):

1. split observations into "good" (best ``γ`` quantile, the paper's
   10–15%) and "bad";
2. per dimension, build smoothed count densities ``Pg`` / ``Pb`` (Laplace
   prior = uniform Parzen prior over the options);
3. draw ``n_candidates`` configs from ``Pg`` and keep the one maximising
   ``Σ log Pg − log Pb`` — the Expected-Improvement surrogate being the
   density ratio — preferring configurations not yet evaluated.

Warm-starting (§V-C) is just seeding the history with proxy-selected,
real-evaluated observations before the loop.

**Lockstep rounds.** FeatAug runs many short searches that do not depend on
each other (the QTI nodes of a beam layer, the template pools).
``run_lockstep`` drives them together: in each round every active search
proposes (its whole startup batch at once, since startup draws ignore
losses), a ``before_round`` hook sees all proposals (the search prefetches
their Spark queries concurrently), then the objectives run in a fixed
order. Each search keeps its own ``TPE`` state, so its trials are exactly
those it would get alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Config = tuple[int, ...]
Trial = tuple[Config, float]


#: good-quantile γ, EI candidates drawn per suggest, Laplace prior count
_GAMMA = 0.15
_N_CANDIDATES = 24
_PRIOR = 1.0


class TPE:
    def __init__(self, shape: tuple[int, ...], *, seed: int, n_startup: int):
        if any(s < 1 for s in shape):
            raise ValueError("every dimension needs at least one option")
        self.shape = shape
        self.n_startup = n_startup
        self.rng = np.random.default_rng(seed)

    # -- densities ----------------------------------------------------------
    def _density(self, configs: list[Config], dim: int) -> np.ndarray:
        k = self.shape[dim]
        counts = np.full(k, _PRIOR)
        for c in configs:
            counts[c[dim]] += 1.0
        return counts / counts.sum()

    def _random(self) -> Config:
        return tuple(int(self.rng.integers(0, s)) for s in self.shape)

    def suggest(self, trials: list[Trial]) -> Config:
        """Next configuration to evaluate, given (config, loss) history."""
        seen = {c for c, _ in trials}
        if len(trials) < self.n_startup:
            for _ in range(50):
                c = self._random()
                if c not in seen:
                    return c
            return self._random()
        order = sorted(trials, key=lambda t: t[1])
        n_good = max(1, math.ceil(_GAMMA * len(order)))
        good = [c for c, _ in order[:n_good]]
        bad = [c for c, _ in order[n_good:]] or good
        pg = [self._density(good, d) for d in range(len(self.shape))]
        pb = [self._density(bad, d) for d in range(len(self.shape))]
        log_ratio = [np.log(g) - np.log(b) for g, b in zip(pg, pb)]

        best, best_score = None, -np.inf
        fallback, fallback_score = None, -np.inf
        for _ in range(_N_CANDIDATES):
            c = tuple(
                int(self.rng.choice(self.shape[d], p=pg[d]))
                for d in range(len(self.shape))
            )
            score = float(sum(log_ratio[d][c[d]] for d in range(len(self.shape))))
            if score > fallback_score:
                fallback, fallback_score = c, score
            if c not in seen and score > best_score:
                best, best_score = c, score
        if best is not None:
            return best
        # all candidates already seen — perturb the best-scoring one
        c = list(fallback)
        d = int(self.rng.integers(0, len(self.shape)))
        c[d] = int(self.rng.integers(0, self.shape[d]))
        return tuple(c)


@dataclass
class Problem:
    """One independent TPE search: ``objective(config) -> loss`` (lower is
    better) over ``shape``, ``n_iters`` suggestions after ``warm_start``."""

    objective: Callable[[Config], float]
    shape: tuple[int, ...]
    n_iters: int
    seed: int = 0
    warm_start: list[Trial] | None = None
    n_startup: int = 6


def run_lockstep(problems: list[Problem], *, before_round=None) -> list[list[Trial]]:
    """Drive independent TPE problems in lockstep rounds.

    Returns each problem's full trial history (warm-start observations
    included), identical to running it alone. ``before_round(proposals)``,
    if given, is called once per round with one list of configs per
    problem, before any of them is evaluated. Objective values that are NaN
    are recorded as +inf so broken configurations (e.g. degenerate queries)
    are never "good".
    """
    tpes = [TPE(p.shape, seed=p.seed, n_startup=p.n_startup) for p in problems]
    trials = [list(p.warm_start or []) for p in problems]
    left = [p.n_iters for p in problems]
    while any(left):
        proposals: list[list[Config]] = []
        for tpe, hist, n in zip(tpes, trials, left):
            batch: list[Config] = []
            # Startup draws read only the configs seen so far, never a loss,
            # so a problem's remaining startup draws share one round.
            while len(batch) < n and (not batch or len(hist) + len(batch) < tpe.n_startup):
                batch.append(tpe.suggest(hist + [(c, math.nan) for c in batch]))
            proposals.append(batch)
        if before_round is not None:
            before_round(proposals)
        for p, hist, batch in zip(problems, trials, proposals):
            for cfg in batch:
                loss = float(p.objective(cfg))
                hist.append((cfg, math.inf if math.isnan(loss) else loss))
        left = [n - len(b) for n, b in zip(left, proposals)]
    return trials

