"""Experiment harness: descriptor tables + a micro Table-III/VI/VII/VIII pass."""
from collections import Counter

import pytest

from repro.core.config import TINY
from repro.datasets import ONE_TO_MANY, ONE_TO_ONE
from repro.experiments import descriptor_tables, harness, run_table

SCALE = 0.1


def _counted(gens: dict) -> tuple[dict, Counter]:
    """``gens`` with each generator wrapped in a per-dataset call counter."""
    calls = Counter()

    def wrap(name, gen):
        def counted(*args, **kwargs):
            calls[name] += 1
            return gen(*args, **kwargs)
        return counted
    return {n: wrap(n, g) for n, g in gens.items()}, calls


def _forbid_ft_pool(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("Featuretools pool built for a FeatAug-only grid")
    monkeypatch.setattr(harness, "featuretools_features", fail)


@pytest.fixture(scope="module")
def one_to_many_tables(spark):
    gens, calls = _counted(ONE_TO_MANY)
    return calls, *descriptor_tables(spark, gens, scale=SCALE)


class TestDescriptorTables:
    def test_table1(self, one_to_many_tables):
        calls, df, _ = one_to_many_tables
        assert calls == {name: 1 for name in ONE_TO_MANY}
        assert list(df["dataset"]) == ["Tmall", "Instacart", "Student", "Merchant"]
        assert (df["rows_in_R"] > 100).all()

    def test_table2(self, one_to_many_tables):
        _, _, df = one_to_many_tables
        assert (df["n_T"] == 2 ** df["n_attr"]).all()
        assert df.loc[df.dataset == "Tmall", "K"].iloc[0] == "user_id, merchant_id"

    def test_table4_and_5(self, spark):
        gens, calls = _counted(ONE_TO_ONE)
        t4, t5 = descriptor_tables(spark, gens, scale=SCALE)
        assert calls == {name: 1 for name in ONE_TO_ONE}
        assert list(t4["dataset"]) == ["Covtype", "Household"]
        assert (t5["n_T"] == 2 ** t5["n_attr"]).all()


class TestMethodNames:
    """Checked without Spark, before any grid spends hours reaching a cell."""

    @pytest.mark.parametrize("table", harness.GRIDS)
    def test_every_grid_method_is_known(self, table):
        methods = harness.GRIDS[table][2]
        assert set(methods) <= harness.METHODS.keys() | harness.FEATAUG_VARIANTS.keys()

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match=r"FT\+Lasso"):
            harness.run_method("FT+Lasso", None, None, "LR", seed=0)


class TestMicroGrids:
    """One dataset × one model micro-runs of each table harness."""

    def test_table3_subset(self, spark, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        df = run_table(spark, "table3", scale=SCALE, budget=TINY, seed=0,
                       datasets=("Instacart",), models=("LR",),
                       methods=("FT", "FT+MI", "Random", "FeatAug"))
        assert len(df) == 4
        assert df["value"].notna().all()
        assert (tmp_path / "table3.csv").exists()

    def test_table3_regression_dashes(self, spark, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        df = run_table(spark, "table3", scale=SCALE, budget=TINY, seed=0,
                       datasets=("Merchant",), models=("LR",),
                       methods=("FT", "FT+Chi2", "FT+Gini"))
        assert df.loc[df.method == "FT", "value"].notna().all()
        assert df.loc[df.method.isin(["FT+Chi2", "FT+Gini"]), "value"].isna().all()
        assert (df["metric"] == "RMSE").all()

    def test_table6_subset(self, spark, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        df = run_table(spark, "table6", scale=SCALE, budget=TINY, seed=0,
                       datasets=("Household",), models=("LR", "XGB"),
                       methods=("FT", "ARDA", "AutoFeat-MAB", "FeatAug"))
        assert len(df) == 8 and df["value"].notna().all()
        assert (df["metric"] == "F1").all()

    def test_table7_subset(self, spark, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        _forbid_ft_pool(monkeypatch)
        df = run_table(spark, "table7", scale=SCALE, budget=TINY, seed=0,
                       datasets=("Instacart",), models=("LR",))
        assert set(df["method"]) == {"FeatAug(NoQTI)", "FeatAug(NoWU)", "FeatAug(Full)"}

    def test_table8_subset(self, spark, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        _forbid_ft_pool(monkeypatch)
        df = run_table(spark, "table8", scale=SCALE, budget=TINY, seed=0,
                       datasets=("Instacart",), models=("LR",))
        assert set(df["method"]) == {"FeatAug(SC)", "FeatAug(MI)", "FeatAug(LR)"}
        assert df["value"].notna().all()
