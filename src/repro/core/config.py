"""Search-budget profiles.

The paper's budgets (200 warm-up proxy iterations, top-50 real-evaluated,
40 real TPE iterations, 8 templates x 5 queries, 5 repetitions on a 32-vCPU
box) are scaled down ~8x so the full table grid fits a single-node 3-hour
reproduction; every knob here is overridable (the Forward/Backward
selectors' caps are constants in ``repro.selectors.wrappers``). DESIGN.md §5
documents the substitution.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class BudgetProfile:
    """The iteration counts and caps FeatAug and the baselines read."""

    # -- final feature budget (paper: 8 x 5 = 40) --------------------------
    n_templates: int = 4
    queries_per_template: int = 4

    # -- SQL Query Generation (§V; paper: 200 / 50 / 40) -------------------
    warmup_iters: int = 24
    warmup_topk: int = 6
    gen_iters: int = 10

    # -- Query Template Identification (§VI) -------------------------------
    qti_beam: int = 2          # beam width β
    qti_depth: int = 3         # max combo size
    qti_samples: int = 10      # in-pool proxy searches per evaluated node

    # -- search-space discretisation ---------------------------------------
    cat_domain_cap: int = 12   # top-k categorical values per attribute
    grid_size: int = 9         # quantile grid points per numeric attribute

    @property
    def n_features(self) -> int:
        return self.n_templates * self.queries_per_template

    def scaled(self, **kw) -> "BudgetProfile":
        return replace(self, **kw)


#: default benchmark profile
BENCH = BudgetProfile()

#: reduced profile for the FeatAug-only sweeps (Tables VII/VIII: 48 full
#: FeatAug runs each) — within each table all variants share this budget,
#: so the ablation/proxy comparisons stay internally fair (DESIGN.md §5)
SWEEP = BudgetProfile(
    n_templates=3,
    queries_per_template=4,
    warmup_iters=16,
    warmup_topk=4,
    gen_iters=7,
    qti_samples=8,
)

#: tiny profile for unit tests — a handful of Spark queries end to end
TINY = BudgetProfile(
    n_templates=2,
    queries_per_template=2,
    warmup_iters=5,
    warmup_topk=2,
    gen_iters=3,
    qti_beam=1,
    qti_depth=2,
    qti_samples=3,
    cat_domain_cap=6,
    grid_size=5,
)
