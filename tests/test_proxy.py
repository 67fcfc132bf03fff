"""Low-cost proxies: MI, Spearman, LR."""
import numpy as np
import pytest

from repro.core.proxy import _bin_feature, make_proxy, mutual_information, spearman


class TestBinning:
    def test_nan_own_bin(self):
        x = np.array([1.0, np.nan, 2.0, np.nan])
        b = _bin_feature(x, 4)
        assert (b[[1, 3]] == -1).all()
        assert (b[[0, 2]] >= 0).all()

    def test_all_nan(self):
        assert (_bin_feature(np.array([np.nan, np.nan]), 4) == -1).all()

    def test_quantile_bins_roughly_balanced(self):
        x = np.random.default_rng(0).normal(0, 1, 1000)
        b = _bin_feature(x, 4)
        counts = np.bincount(b)
        assert counts.min() > 150


class TestMI:
    def test_dependent_beats_independent(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 2000)
        x_dep = y + 0.3 * rng.normal(0, 1, 2000)
        x_ind = rng.normal(0, 1, 2000)
        assert mutual_information(x_dep, y) > mutual_information(x_ind, y) + 0.2

    def test_perfect_dependency_close_to_entropy(self):
        y = np.array([0, 1] * 500)
        x = y.astype(float)
        assert mutual_information(x, y) == pytest.approx(1.0, abs=0.05)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            assert mutual_information(rng.normal(0, 1, 200), rng.integers(0, 3, 200)) >= 0.0

    def test_regression_labels_binned(self):
        rng = np.random.default_rng(2)
        y = rng.normal(0, 1, 1000)
        x = y + 0.1 * rng.normal(0, 1, 1000)
        assert mutual_information(x, y, task="regression") > 0.5

    def test_constant_feature_zero(self):
        y = np.array([0, 1] * 100)
        assert mutual_information(np.ones(200), y) == pytest.approx(0.0, abs=1e-9)


def _mi_dict_loop(x, y, *, task="binary", n_bins=8):
    """The dict-loop ``mutual_information`` that the vectorised one replaced."""
    bx = _bin_feature(x, n_bins)
    if task == "regression":
        by = _bin_feature(np.asarray(y, dtype=float), n_bins)
    else:
        _, by = np.unique(np.asarray(y), return_inverse=True)
    n = bx.size
    if n == 0:
        return 0.0
    joint = {}
    for a, b in zip(bx, by):
        joint[(a, b)] = joint.get((a, b), 0) + 1
    px, py = {}, {}
    for (a, b), c in joint.items():
        px[a] = px.get(a, 0) + c
        py[b] = py.get(b, 0) + c
    mi = 0.0
    for (a, b), c in joint.items():
        p = c / n
        mi += p * np.log2(p * n * n / (px[a] * py[b]))
    return float(max(mi, 0.0))


class TestMIBitIdentical:
    @pytest.mark.parametrize("task", ["binary", "multiclass", "regression"])
    def test_equals_dict_loop(self, task):
        rng = np.random.default_rng(3)
        for i in range(60):
            n = int(rng.integers(1, 700))
            x = rng.normal(0, 1, n) * (1e5 if i % 4 == 0 else 1.0)
            if i % 3 == 0:
                x[rng.random(n) < 0.25] = np.nan
            if i % 5 == 0:
                x[rng.random(n) < 0.1] = rng.choice([np.inf, -np.inf])
            if i % 7 == 0:
                x[:] = 2.5  # constant column
            if i % 11 == 0:
                x[:] = np.nan
            if task == "binary":
                y = rng.integers(0, 2, n)
            elif task == "multiclass":
                y = rng.choice(["a", "b", "c", "d"], n)
            else:
                y = np.where(np.isfinite(x), x, 0.0) + rng.normal(0, 1, n)
            got, want = mutual_information(x, y, task=task), _mi_dict_loop(x, y, task=task)
            assert got == want and np.signbit(got) == np.signbit(want)

    def test_empty(self):
        assert mutual_information(np.array([]), np.array([])) == 0.0


class TestSpearman:
    def test_monotonic_is_one(self):
        x = np.arange(100, dtype=float)
        assert spearman(x, np.exp(x / 20)) == pytest.approx(1.0)

    def test_anti_monotonic_abs(self):
        x = np.arange(100, dtype=float)
        assert spearman(x, -x) == pytest.approx(1.0)

    def test_constant_zero(self):
        assert spearman(np.ones(50), np.arange(50.0)) == 0.0

    def test_independent_near_zero(self):
        rng = np.random.default_rng(3)
        assert spearman(rng.normal(0, 1, 2000), rng.normal(0, 1, 2000)) < 0.1


class TestMakeProxy:
    def test_mi_and_sc_callables(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 300)
        x = y + 0.2 * rng.normal(0, 1, 300)
        for name in ("MI", "SC"):
            p = make_proxy(name, task="binary")
            assert p(x[:, None], y) > p(rng.normal(0, 1, (300, 1)), y)

    def test_lr_requires_context(self):
        with pytest.raises(ValueError):
            make_proxy("LR", task="binary")

    def test_lr_scores_signal_higher(self):
        rng = np.random.default_rng(4)
        n = 400
        base = rng.normal(0, 1, (n, 2))
        y = (rng.normal(0, 1, n) > 0).astype(int)
        x_sig = y + 0.2 * rng.normal(0, 1, n)
        nv = 200
        basev = rng.normal(0, 1, (nv, 2))
        yv = (rng.normal(0, 1, nv) > 0).astype(int)
        xv_sig = yv + 0.2 * rng.normal(0, 1, nv)
        p = make_proxy("LR", task="binary", y_valid=yv)
        s_sig = p(np.column_stack([base, x_sig]), y, np.column_stack([basev, xv_sig]))
        s_noise = p(np.column_stack([base, rng.normal(0, 1, n)]), y,
                    np.column_stack([basev, rng.normal(0, 1, nv)]))
        assert s_sig > s_noise

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            make_proxy("XGB", task="binary")
