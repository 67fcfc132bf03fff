"""Synthetic stand-ins for the paper's six evaluation datasets.

Network access is unavailable, so each Kaggle/Tianchi dataset is replaced by
a deterministic generator preserving the schema shape, the (one-to-many or
one-to-one) relationship, and a *planted predicate-dependent signal* — the
label derives from an aggregation of relevant-table rows restricted by a
category-equality + range-window predicate, diluted with noise, so that
predicate-aware queries (FeatAug) can recover more signal than predicate-free
aggregations (Featuretools). See DESIGN.md §4 for the per-dataset mapping.
"""
from repro.datasets.base import DatasetBundle
from repro.datasets.covtype import covtype
from repro.datasets.household import household
from repro.datasets.instacart import instacart
from repro.datasets.merchant import merchant
from repro.datasets.student import student
from repro.datasets.tmall import tmall

#: the paper's four one-to-many datasets (Tables I–III, VII, VIII)
ONE_TO_MANY = {
    "Tmall": tmall,
    "Instacart": instacart,
    "Student": student,
    "Merchant": merchant,
}

#: the paper's single-table / one-to-one datasets (Tables IV–VI)
ONE_TO_ONE = {
    "Covtype": covtype,
    "Household": household,
}

__all__ = ["DatasetBundle", "ONE_TO_MANY", "ONE_TO_ONE",
           "tmall", "instacart", "student", "merchant", "covtype", "household"]
