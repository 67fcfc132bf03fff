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
            make_model("DeepFM", "multiclass", seed=0)

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


#: (task, model) -> first three rows of ``predict_proba`` (classification) or
#: ``predict`` (regression) after fitting on the n=200 data above with
#: seed 0; ``"imp"`` entries are the GBDT / RF ``feature_importances()``.
PINNED = {
    ("binary", "LR"): [[0.5189931514813649, 0.481006848518635],
                       [0.00020783747011624142, 0.9997921625298838],
                       [0.999952499555414, 4.7500444586007666e-05]],
    ("binary", "XGB"): [[0.8852832137934762, 0.11471678620652377],
                        [0.008047155879073786, 0.9919528441209262],
                        [0.9726053039381373, 0.02739469606186276]],
    ("binary", "XGB", "imp"): [0.5702280047615119, 0.2522479169592415, 0.07255421629459383,
                               0.02631038038127884, 0.05391123155012057, 0.024748250053253373],
    ("binary", "RF"): [[0.823637336974974, 0.1763626630250259],
                       [0.017056615303050048, 0.9829433846969499],
                       [0.9341276461838787, 0.06587235381612136]],
    ("binary", "RF", "imp"): [0.6072276672841149, 0.26561842232929306, 0.05873235864674539,
                              0.02363984500538514, 0.03198311988554614, 0.012798586848915296],
    ("binary", "DeepFM"): [[0.5873847842657969, 0.4126152157342031],
                           [0.22530046342982368, 0.7746995365701763],
                           [0.7185387330340873, 0.2814612669659126]],
    ("multiclass", "LR"): [[0.04821088807056666, 0.8217663039727434, 0.13002280795668983],
                           [1.9086172757144018e-07, 0.007230669979356692, 0.9927691391589156],
                           [0.9992135416760297, 0.0007864545358393136, 3.788130880381275e-09]],
    ("multiclass", "XGB"): [[0.0018351904770929413, 0.9917445776592089, 0.006420231863698057],
                            [4.565337317537878e-05, 0.00024452257478046086, 0.9997098240520441],
                            [0.9951646846707798, 0.004802804734592467, 3.2510594627739916e-05]],
    ("multiclass", "XGB", "imp"): [0.6763875303032886, 0.283701279912628, 0.007643799166735242,
                                   0.008447458386974027, 0.01145912096126691,
                                   0.012360811269107257],
    ("multiclass", "RF"): [[1.3608371481003687e-09, 0.9259408341166939, 0.07405916452246904],
                           [1.0444458064250036e-09, 1.0444458064250036e-09, 0.9999999979111084],
                           [0.9999999978654882, 1.0672559478823523e-09, 1.0672559478823523e-09]],
    ("multiclass", "RF", "imp"): [0.652952040980909, 0.2282137089138241, 0.022739423294558785,
                                  0.02629574759869748, 0.04062227354718583,
                                  0.029176805664824876],
    ("regression", "LR"): [-0.3882393865464604, 3.2874913089288653, -3.4051758771031775],
    ("regression", "XGB"): [-0.5795213978577605, 3.887849678215788, -3.194770506970208],
    ("regression", "XGB", "imp"): [0.7906614637873989, 0.0010984214396213485,
                                   0.19972004552309147, 0.004831676495399038,
                                   0.0019233977870058293, 0.0017649949674835644],
    ("regression", "RF"): [-0.39015620558010333, 2.780145513233921, -2.1145788968190047],
    ("regression", "RF", "imp"): [0.7384020498705215, 0.006723264778949069, 0.22999862792112408,
                                  0.006039785815026655, 0.014879797414999826,
                                  0.0039564741993791145],
    ("regression", "DeepFM"): [-0.6980797315271934, 1.0014713310244496, -0.9121224533410799],
}


@pytest.mark.parametrize("task,name", sorted({k[:2] for k in PINNED}))
def test_outputs_pinned(task, name):
    # refactors of the model code must leave every output unchanged
    data = {"binary": _binary_data, "multiclass": _multi_data, "regression": _reg_data}[task]
    X, y = data(n=200)
    m = make_model(name, task, seed=0).fit(X, y)
    out = m.predict(X[:3]) if task == "regression" else m.predict_proba(X[:3])
    np.testing.assert_allclose(out, PINNED[task, name], rtol=1e-9, atol=0)
    if (task, name, "imp") in PINNED:
        np.testing.assert_allclose(m.feature_importances(), PINNED[task, name, "imp"],
                                   rtol=1e-9, atol=0)


def test_make_model_unknown_raises():
    with pytest.raises(ValueError):
        make_model("SVM", "binary", seed=0)
