"""The seven feature selectors combined with Featuretools (§VII-A3).

``select(method, pool, evaluator, n, seed=, budget=)`` returns the chosen
:class:`FeatureFrame` subset:

- filter selectors — ``MI``, ``Chi2``, ``Gini`` (:mod:`filters`);
- embedded selectors — ``LR``, ``GBDT`` model importances (:mod:`model_sel`);
- wrapper selectors — ``Forward``, ``Backward`` greedy search with the
  downstream model (:mod:`wrappers`).

Chi2 and Gini are classification-only (the paper reports "-" on the
regression dataset); ``select`` raises ``NotApplicableError`` there.
"""
from repro.selectors.filters import NotApplicableError, chi2_select, gini_select, mi_select
from repro.selectors.model_sel import gbdt_importance_select, lr_importance_select
from repro.selectors.wrappers import backward_select, forward_select


def select(method: str, pool, evaluator, n: int, *, seed: int = 0, budget):
    """Dispatch a selector by its paper name over a FeatureFrame pool."""
    if method == "MI":
        return mi_select(pool, evaluator, n)
    if method == "Chi2":
        return chi2_select(pool, evaluator, n)
    if method == "Gini":
        return gini_select(pool, evaluator, n)
    if method == "LR":
        return lr_importance_select(pool, evaluator, n)
    if method == "GBDT":
        return gbdt_importance_select(pool, evaluator, n)
    if method == "Forward":
        return forward_select(pool, evaluator, n, seed=seed, budget=budget)
    if method == "Backward":
        return backward_select(pool, evaluator, n, seed=seed, budget=budget)
    raise ValueError(f"unknown selector {method!r}")


__all__ = ["NotApplicableError", "select",
           "mi_select", "chi2_select", "gini_select",
           "lr_importance_select", "gbdt_importance_select",
           "forward_select", "backward_select"]
