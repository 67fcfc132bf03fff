"""Downstream models: learning, determinism, API contracts."""
import numpy as np
import pytest

from repro.models import MODEL_NAMES, deepfm, make_model
from repro.models.forest import RandomForest
from repro.models.gbdt import GBDT
from repro.models.logistic import LogisticRegression
from repro.models.metrics import auc_score, macro_f1, rmse
from repro.models.tree import RegressionTree


def _binary_data(n=500, d=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    y = (X[:, 0] + 0.6 * X[:, 1] + 0.4 * rng.normal(0, 1, n) > 0).astype(int)
    return X, y


def _multi_data(n=500, d=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    y = np.digitize(X[:, 0] + 0.5 * X[:, 1], [-0.6, 0.6])  # 3 ordinal classes
    return X, y


def _reg_data(n=500, d=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    y = 2 * X[:, 0] - X[:, 2] + 0.2 * rng.normal(0, 1, n)
    return X, y


BIN_MODELS = list(MODEL_NAMES)
MULTI_MODELS = ["LR", "XGB", "RF"]
REG_MODELS = list(MODEL_NAMES)


@pytest.mark.parametrize("name", BIN_MODELS)
class TestBinary:
    def test_learns_signal(self, name):
        X, y = _binary_data()
        Xt, yt = _binary_data(seed=1)
        m = make_model(name, "binary", seed=0).fit(X, y)
        assert auc_score(yt, m.predict_proba(Xt)[:, 1]) > 0.85

    def test_proba_rows_sum_to_one(self, name):
        X, y = _binary_data(n=200)
        m = make_model(name, "binary", seed=0).fit(X, y)
        P = m.predict_proba(X[:50])
        assert P.shape == (50, 2)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic_in_seed(self, name):
        X, y = _binary_data(n=200)
        p1 = make_model(name, "binary", seed=3).fit(X, y).predict_proba(X[:20])
        p2 = make_model(name, "binary", seed=3).fit(X, y).predict_proba(X[:20])
        np.testing.assert_array_equal(p1, p2)

    def test_predict_returns_original_labels(self, name):
        X, y = _binary_data(n=200)
        y5 = np.where(y == 1, 5, 2)  # labels {2, 5}
        m = make_model(name, "binary", seed=0).fit(X, y5)
        assert set(np.unique(m.predict(X))) <= {2, 5}


@pytest.mark.parametrize("name", MULTI_MODELS)
class TestMulticlass:
    def test_learns_signal(self, name):
        X, y = _multi_data()
        m = make_model(name, "multiclass", seed=0).fit(X, y)
        assert macro_f1(y, m.predict(X)) > 0.8

    def test_proba_shape(self, name):
        X, y = _multi_data(n=200)
        m = make_model(name, "multiclass", seed=0).fit(X, y)
        assert m.predict_proba(X[:10]).shape == (10, 3)


@pytest.mark.parametrize("name", REG_MODELS)
class TestRegression:
    def test_fits_linear_signal(self, name):
        X, y = _reg_data()
        m = make_model(name, "regression", seed=0).fit(X, y)
        assert rmse(y, m.predict(X)) < 0.75 * np.std(y)

    def test_predict_proba_raises(self, name):
        X, y = _reg_data(n=100)
        m = make_model(name, "regression", seed=0).fit(X, y)
        with pytest.raises(ValueError):
            m.predict_proba(X)


class TestRegressionTree:
    def test_mean_leaf_on_constant_target(self):
        X = np.random.default_rng(0).normal(0, 1, (50, 3))
        t = RegressionTree(max_depth=3).fit(X, np.full(50, 7.0))
        # reg_lambda shrinks the leaf slightly toward 0: 50*7/(50+1)
        np.testing.assert_allclose(t.predict(X), 50 * 7.0 / 51, rtol=1e-9)

    def test_single_split_recovered(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (400, 2))
        y = np.where(X[:, 0] > 0.5, 10.0, -10.0)
        t = RegressionTree(max_depth=1).fit(X, y)
        assert t.root.feature == 0
        assert abs(t.root.threshold - 0.5) < 0.1
        pred = t.predict(X)
        assert (np.sign(pred) == np.sign(y)).mean() > 0.95

    def test_gains_concentrate_on_signal_feature(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (300, 4))
        y = 3 * X[:, 2] + 0.1 * rng.normal(0, 1, 300)
        t = RegressionTree(max_depth=4).fit(X, y)
        assert np.argmax(t.gains_) == 2

    def test_min_leaf_respected(self):
        X = np.arange(7, dtype=float).reshape(-1, 1)
        t = RegressionTree(max_depth=5).fit(X, np.arange(7, dtype=float))
        assert t.root.left is None  # 7 rows < 2 * 4 (the minimum leaf) → no split

    def test_nan_inputs_do_not_crash(self):
        X = np.random.default_rng(3).normal(0, 1, (100, 2))
        X[::7, 0] = np.nan
        t = RegressionTree(max_depth=2).fit(X, X[:, 1])
        assert np.isfinite(t.predict(X)).all()

    def test_second_order_leaf_value(self):
        # g = p - y with constant h: leaf = -sum(g)/(sum(h)+lambda)
        X = np.zeros((10, 1))
        g = np.full(10, 2.0)
        h = np.ones(10)
        t = RegressionTree(max_depth=2).fit(X, g, h)
        np.testing.assert_allclose(t.predict(X), -20.0 / 11.0)


class TestImportances:
    def test_gbdt_importances_sum_to_one(self):
        X, y = _binary_data(n=300)
        m = GBDT(task="binary", n_rounds=10).fit(X, y)
        imps = m.feature_importances()
        assert imps.shape == (X.shape[1],)
        assert imps.sum() == pytest.approx(1.0)
        assert np.argmax(imps) in (0, 1)

    def test_rf_importances_favour_signal(self):
        X, y = _binary_data(n=300)
        m = RandomForest(task="binary", n_trees=8, seed=0).fit(X, y)
        assert np.argmax(m.feature_importances()) in (0, 1)

    def test_lr_importances_favour_signal(self):
        X, y = _binary_data(n=300)
        m = LogisticRegression(task="binary").fit(X, y)
        assert np.argmax(m.feature_importances()) in (0, 1)


class TestDeepFM:
    def test_multiclass_rejected(self):
        with pytest.raises(ValueError):
            make_model("DeepFM", "multiclass")

    def test_learns_interaction(self, monkeypatch):
        # XOR-ish product signal — linear part can't, FM/deep part can
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (800, 4))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        monkeypatch.setattr(deepfm, "_EPOCHS", 40)
        m = make_model("DeepFM", "binary", seed=0).fit(X, y)
        assert auc_score(y, m.predict_proba(X)[:, 1]) > 0.75


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_only_rf_and_deepfm_depend_on_seed(name):
    # LR and GBDT draw nothing at random: every GBDT tree sees all features
    for task, data in (("binary", _binary_data), ("multiclass", _multi_data),
                       ("regression", _reg_data)):
        if name == "DeepFM" and task == "multiclass":
            continue
        X, y = data(n=200)
        p0, p7 = (make_model(name, task, seed=s).fit(X, y).predict(X) for s in (0, 7))
        assert np.array_equal(p0, p7) == (name in ("LR", "XGB")), task


def test_make_model_unknown_raises():
    with pytest.raises(ValueError):
        make_model("SVM", "binary")
