"""Split handling and downstream evaluation (pandas/numpy only)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import evaluator as evaluator_mod
from repro.core.evaluator import DownstreamEvaluator, TableSplits, make_splits
from repro.core.executor import FeatureFrame, merge_features


def _toy_table(n=300, seed=0):
    rng = np.random.default_rng(seed)
    sig = rng.normal(0, 1, n)
    return pd.DataFrame({
        "k": np.arange(n),
        "b1": rng.normal(0, 1, n),
        "sig": sig,
        "label": (sig + 0.4 * rng.normal(0, 1, n) > 0).astype(int),
    }), sig


class TestMakeSplits:
    def test_ratios(self):
        D, _ = _toy_table(1000)
        s = make_splits(D, ("b1",), "binary", seed=0)
        assert len(s.train) == 600 and len(s.valid) == 200 and len(s.test) == 200

    def test_disjoint_and_complete(self):
        D, _ = _toy_table(200)
        s = make_splits(D, ("b1",), "binary", seed=1)
        ks = np.concatenate([s.train.k, s.valid.k, s.test.k])
        assert len(ks) == 200 and len(set(ks)) == 200

    def test_seed_changes_split(self):
        D, _ = _toy_table(200)
        a = make_splits(D, ("b1",), "binary", seed=0)
        b = make_splits(D, ("b1",), "binary", seed=1)
        assert set(a.train.k) != set(b.train.k)


def _feature(D: pd.DataFrame, col: str, name: str) -> FeatureFrame:
    f = D[["k", col]].rename(columns={col: name})
    return FeatureFrame(name=name, keys=("k",), frame=f, sql=f"SELECT k, {col} AS {name}")


class TestMergeFeatures:
    def test_left_join_and_fill(self):
        base = pd.DataFrame({"k": [1, 2, 3], "x": [0.0, 0.0, 0.0]})
        f = FeatureFrame("f1", ("k",),
                         pd.DataFrame({"k": [1, 3], "f1": [5.0, 7.0]}), sql="SELECT f1")
        out = merge_features(base, [f])
        assert list(out["f1"]) == [5.0, 0.0, 7.0]  # absent key filled with 0

    def test_composite_key_merge(self):
        base = pd.DataFrame({"a": [1, 1], "b": [1, 2], "x": [0, 0]})
        f = FeatureFrame("g", ("a", "b"),
                         pd.DataFrame({"a": [1], "b": [2], "g": [9.0]}), sql="SELECT g")
        out = merge_features(base, [f])
        assert list(out["g"]) == [0.0, 9.0]

    def test_no_features_noop(self):
        base = pd.DataFrame({"k": [1]})
        assert merge_features(base, []).equals(base)


def _evaluator_on(split: pd.DataFrame) -> DownstreamEvaluator:
    return DownstreamEvaluator(TableSplits(split, split, split, ("b1",), "binary"),
                               "LR", seed=0)


class TestMatrix:
    def test_base_first_then_features_in_order(self):
        split = pd.DataFrame({"k": [1, 2, 3], "b1": [0.5, 1.5, 2.5], "label": [0, 1, 0]})
        ev = _evaluator_on(split)
        f1 = FeatureFrame("f1", ("k",), pd.DataFrame({"k": [1, 3], "f1": [5.0, 7.0]}),
                          sql="SELECT f1")
        f2 = FeatureFrame("f2", ("k",), pd.DataFrame({"k": [2], "f2": [9.0]}), sql="SELECT f2")
        X = ev.matrix(split, [f1, f2])
        # absent keys are 0 (Definition 3)
        np.testing.assert_array_equal(X, [[0.5, 5.0, 0.0], [1.5, 0.0, 9.0], [2.5, 7.0, 0.0]])
        np.testing.assert_array_equal(
            X, merge_features(split, [f1, f2])[["b1", "f1", "f2"]].to_numpy(dtype=float))
        np.testing.assert_array_equal(ev.matrix(split, [f1, f2], base=False), X[:, 1:])
        np.testing.assert_array_equal(ev.matrix(split, []), [[0.5], [1.5], [2.5]])

    def test_subset_key_feature_on_composite_key_split(self):
        split = pd.DataFrame({"a": [1, 1, 2, 3], "b": [1, 2, 1, 1],
                              "b1": [0.0, 1.0, 2.0, 3.0], "label": [0, 1, 1, 0]})
        ev = _evaluator_on(split)
        g = FeatureFrame("g", ("a",), pd.DataFrame({"a": [1, 2], "g": [4.0, 6.0]}),
                         sql="SELECT g")
        h = FeatureFrame("h", ("a", "b"), pd.DataFrame({"a": [1], "b": [2], "h": [3.0]}),
                         sql="SELECT h")
        X = ev.matrix(split, [g, h])
        np.testing.assert_array_equal(X[:, 1], [4.0, 4.0, 6.0, 0.0])  # broadcast over b
        np.testing.assert_array_equal(X[:, 2], [0.0, 3.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            X, merge_features(split, [g, h])[["b1", "g", "h"]].to_numpy(dtype=float))

    def test_non_finite_values_cleaned(self):
        split = pd.DataFrame({"k": [1, 2, 3], "b1": [np.nan, 1.0, 2.0], "label": [0, 1, 0]})
        ev = _evaluator_on(split)
        f = FeatureFrame("f", ("k",), pd.DataFrame({"k": [1, 2, 3],
                                                    "f": [np.nan, np.inf, -np.inf]}),
                         sql="SELECT f")
        np.testing.assert_array_equal(ev.matrix(split, [f]),
                                      [[0.0, 0.0], [1.0, 1e12], [2.0, -1e12]])

    @staticmethod
    def _composite_splits():
        rng = np.random.default_rng(3)
        n = 60
        D = pd.DataFrame({"a": rng.integers(0, 8, n), "b": np.arange(n) % 5,
                          "b1": rng.normal(0, 1, n), "label": rng.integers(0, 2, n)})
        D = D.drop_duplicates(["a", "b"])
        s = make_splits(D, ("b1",), "binary", seed=0)
        full = D[["a", "b"]].iloc[::2].reset_index(drop=True)  # half the keys absent
        vals = rng.normal(0, 1, len(full))
        vals[:3] = [np.nan, np.inf, -np.inf]
        g = full.assign(g=vals)
        sub = pd.DataFrame({"a": [0, 2, 3, 5], "h": [1.5, np.nan, -2.0, np.inf]})
        feats = [FeatureFrame("g", ("a", "b"), g, sql="SELECT g"),
                 FeatureFrame("h", ("a",), sub, sql="SELECT h")]
        return s, feats

    def test_memoised_equals_merge_on_every_split(self):
        s, feats = self._composite_splits()
        ev = DownstreamEvaluator(s, "LR", seed=0)
        for split in (s.train, s.valid, s.test):
            expected = np.nan_to_num(
                merge_features(split, feats)[["b1", "g", "h"]].to_numpy(dtype=float),
                nan=0.0, posinf=1e12, neginf=-1e12)
            for _ in range(2):  # fills the memo, then reads it
                np.testing.assert_array_equal(ev.matrix(split, feats), expected)
                np.testing.assert_array_equal(ev.matrix(split, feats[::-1], base=False),
                                              expected[:, [2, 1]])
            assert (ev.matrix(split, feats) == 0).any()  # absent keys, NaN
            assert np.abs(ev.matrix(split, feats)).max() == 1e12  # ±inf clamped

    def test_second_call_is_memo_hit_and_read_only(self, monkeypatch):
        s, feats = self._composite_splits()
        calls = []
        monkeypatch.setattr(evaluator_mod, "merge_features",
                            lambda base, fs: calls.append(fs) or merge_features(base, fs))
        ev1, ev2 = DownstreamEvaluator(s, "LR", seed=0), DownstreamEvaluator(s, "XGB", seed=0)
        first = ev1.feature_on(s.valid, feats[0])
        assert len(calls) == 1
        again = ev2.feature_on(s.valid, feats[0])  # memo shared by the splits' evaluators
        X = ev2.matrix(s.valid, feats)
        assert len(calls) == 2  # only h on valid was new
        np.testing.assert_array_equal(again, first)
        np.testing.assert_array_equal(X[:, 1], first)
        for col in (first, again):
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 1.0

    def test_frames_without_sql_are_not_confused(self):
        s, _ = self._composite_splits()
        ev = DownstreamEvaluator(s, "LR", seed=0)
        keys = s.train[["a", "b"]]
        # the memo keys columns by SQL text, so a frame must carry one
        with pytest.raises(TypeError, match="sql"):
            FeatureFrame("f1", ("a", "b"), keys.assign(f1=1.0))
        f1 = FeatureFrame("f1", ("a", "b"), keys.assign(f1=1.0), sql="SELECT f1")
        f2 = FeatureFrame("f2", ("a", "b"), keys.assign(f2=2.0), sql="SELECT f2")
        np.testing.assert_array_equal(ev.feature_on(s.train, f1), np.ones(len(keys)))
        np.testing.assert_array_equal(ev.feature_on(s.train, f2), np.full(len(keys), 2.0))
        np.testing.assert_array_equal(ev.matrix(s.train, [f1, f2], base=False),
                                      np.tile([1.0, 2.0], (len(keys), 1)))

    def test_frame_that_is_not_a_split(self):
        s, feats = self._composite_splits()
        ev = DownstreamEvaluator(s, "LR", seed=0)
        other = s.train.iloc[::-1].reset_index(drop=True)  # equal rows, not a split
        expected = ev.matrix(s.train, feats)  # fill the train memo
        for call in (lambda: ev.matrix(other, feats), lambda: ev.matrix(other, []),
                     lambda: ev.feature_on(other, feats[0])):
            with pytest.raises(ValueError, match="train, valid or test"):
                call()
        np.testing.assert_array_equal(ev.matrix(s.train, feats), expected)

    def test_labels(self):
        D, _ = _toy_table(100)
        s = make_splits(D, ("b1",), "binary", seed=0)
        ev = DownstreamEvaluator(s, "LR", seed=0)
        for split in (s.train, s.valid, s.test):
            np.testing.assert_array_equal(ev.labels(split), split["label"].to_numpy())


class TestDownstreamEvaluator:
    def test_signal_feature_lowers_loss(self):
        D, _ = _toy_table(400)
        s = make_splits(D, ("b1",), "binary", seed=0)
        ev = DownstreamEvaluator(s, "LR", seed=0)
        base_loss = ev.valid_loss([])
        sig_loss = ev.valid_loss([_feature(D, "sig", "f_sig")])
        assert sig_loss < base_loss - 0.1

    def test_evaluate_reports_test_metric(self):
        D, _ = _toy_table(400)
        s = make_splits(D, ("b1",), "binary", seed=0)
        ev = DownstreamEvaluator(s, "LR", seed=0)
        res = ev.evaluate([_feature(D, "sig", "f")])
        assert 0.8 < res.test_metric <= 1.0
        assert res.valid_loss == pytest.approx(1 - res.valid_metric)
        assert res.n_features == 1 and res.feature_names == ("f",)

    def test_counts_fits(self):
        D, _ = _toy_table(200)
        s = make_splits(D, ("b1",), "binary", seed=0)
        ev = DownstreamEvaluator(s, "LR", seed=0)
        ev.valid_loss([])
        ev.valid_loss([])
        assert ev.n_fits == 2

    def test_feature_on_aligns_rows(self):
        D, _ = _toy_table(100)
        s = make_splits(D, ("b1",), "binary", seed=0)
        ev = DownstreamEvaluator(s, "LR", seed=0)
        x = ev.feature_on(s.train, _feature(D, "sig", "f"))
        expected = D.set_index("k").loc[s.train["k"], "sig"].to_numpy()
        np.testing.assert_allclose(x, expected)

    def test_deterministic(self):
        D, _ = _toy_table(200)
        s = make_splits(D, ("b1",), "binary", seed=0)
        r1 = DownstreamEvaluator(s, "XGB", seed=2).evaluate([])
        r2 = DownstreamEvaluator(s, "XGB", seed=2).evaluate([])
        assert r1.test_metric == r2.test_metric
