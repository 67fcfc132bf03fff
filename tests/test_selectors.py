"""The seven Featuretools selectors on a driver-side pool (no Spark): one
pooled feature carries the label signal, the rest are noise."""
import numpy as np
import pandas as pd
import pytest

from repro.core.evaluator import DownstreamEvaluator, make_splits
from repro.core.executor import FeatureFrame
from repro.selectors import (
    NotApplicableError,
    backward_select,
    chi2_select,
    forward_select,
    gbdt_importance_select,
    gini_select,
    lr_importance_select,
    mi_select,
)
from repro.selectors.wrappers import _POOL_CAP, _SAMPLE_CAP

N_ROWS, N = 600, 3
SIGNAL = 5  # pool position of the signal feature, so no selector wins by order

SELECTORS = {
    "MI": mi_select,
    "Chi2": chi2_select,
    "Gini": gini_select,
    "LR": lr_importance_select,
    "GBDT": gbdt_importance_select,
    "Forward": lambda pool, ev, n: forward_select(pool, ev, n, seed=0),
    "Backward": lambda pool, ev, n: backward_select(pool, ev, n, seed=0),
}


def _setup(task: str, n_pool: int = 8):
    """(evaluator, pool): ``pool[SIGNAL]`` drives the label, the other
    ``n_pool - 1`` features and the one base feature are noise."""
    rng = np.random.default_rng(0)
    cols = rng.normal(size=(n_pool, N_ROWS))
    y = cols[SIGNAL] + 0.3 * rng.normal(size=N_ROWS)
    D = pd.DataFrame({"k": np.arange(N_ROWS), "b0": rng.normal(size=N_ROWS),
                      "label": (y > 0).astype(int) if task == "binary" else y})
    splits = make_splits(D, ("b0",), task, seed=0)
    pool = [FeatureFrame(name=f"p{i}", keys=("k",),
                         frame=pd.DataFrame({"k": D["k"], f"p{i}": c}), sql=f"pool {i}")
            for i, c in enumerate(cols)]
    return DownstreamEvaluator(splits, "LR", seed=0), pool


def _kept(chosen, pool) -> bool:
    return any(f is pool[SIGNAL] for f in chosen)


@pytest.fixture(scope="module")
def binary():
    return _setup("binary")


@pytest.mark.parametrize("name", SELECTORS)
def test_returns_at_most_n_distinct_pool_members(binary, name):
    ev, pool = binary
    chosen = SELECTORS[name](pool, ev, N)
    assert 1 <= len(chosen) <= N
    assert len({id(f) for f in chosen}) == len(chosen)
    assert all(any(f is p for p in pool) for f in chosen)


@pytest.mark.parametrize("name", ["MI", "Chi2", "Gini"])
def test_filters_rank_signal_first(binary, name):
    ev, pool = binary
    assert SELECTORS[name](pool, ev, N)[0] is pool[SIGNAL]


@pytest.mark.parametrize("name", ["LR", "GBDT"])
def test_importances_keep_signal(binary, name):
    ev, pool = binary
    assert _kept(SELECTORS[name](pool, ev, N), pool)


def test_forward_picks_signal_first(binary):
    # a pool no larger than the per-step sample: every step scores all of it
    ev, pool = binary
    assert forward_select(pool[-_SAMPLE_CAP:], ev, N, seed=0)[0] is pool[SIGNAL]


def test_backward_keeps_signal(binary):
    ev, pool = binary
    assert _kept(backward_select(pool, ev, N, seed=0), pool)


def test_backward_prescreens_large_pool_by_mi():
    ev, pool = _setup("binary", n_pool=30)
    chosen = backward_select(pool, ev, N, seed=0)
    assert _kept(chosen, pool)
    # one fit per sampled candidate per step, from the MI pre-screen down to N
    assert ev.n_fits == sum(min(_SAMPLE_CAP, m) for m in range(N + 1, _POOL_CAP + 1))


@pytest.mark.parametrize("name", ["Chi2", "Gini"])
def test_classification_only_filters_raise_on_regression(name):
    ev, pool = _setup("regression")
    with pytest.raises(NotApplicableError):
        SELECTORS[name](pool, ev, N)
