"""The seven feature selectors combined with Featuretools (§VII-A3).

Each takes the Featuretools pool, the cell's evaluator and the feature
budget ``n`` and returns the chosen :class:`FeatureFrame` subset; the
harness's method table calls them by their paper names ``FT+<name>``:

- filter selectors — ``MI``, ``Chi2``, ``Gini`` (:mod:`filters`);
- embedded selectors — ``LR``, ``GBDT`` model importances (:mod:`model_sel`);
- wrapper selectors — ``Forward``, ``Backward`` greedy search with the
  downstream model (:mod:`wrappers`), which also take a ``seed``.

Chi2 and Gini are classification-only (the paper reports "-" on the
regression dataset); they raise ``NotApplicableError`` there.
"""
from repro.selectors.filters import NotApplicableError, chi2_select, gini_select, mi_select
from repro.selectors.model_sel import gbdt_importance_select, lr_importance_select
from repro.selectors.wrappers import backward_select, forward_select

__all__ = ["NotApplicableError",
           "mi_select", "chi2_select", "gini_select",
           "lr_importance_select", "gbdt_importance_select",
           "forward_select", "backward_select"]
