"""QueryExecutor: Catalyst execution, memoisation; merge_features: Definition 3."""
import pandas as pd

from repro.core.executor import merge_features
from repro.core.space import Predicate, Query
from repro.core.sqlgen import build_sql
from repro.oracle import assert_equivalent


class TestFeatureFrame:
    def test_matches_pandas_groupby(self, lineitem_executor, lineitem_small):
        q = Query("SUM", "l_extendedprice", (), ("l_orderkey",))
        f = lineitem_executor.feature_frame(q, "f_sum")
        pdf = lineitem_small.toPandas()
        expected = pdf.groupby("l_orderkey")["l_extendedprice"].sum()
        got = f.frame.set_index("l_orderkey")["f_sum"]
        pd.testing.assert_series_equal(got.sort_index(), expected.sort_index(),
                                       check_names=False, rtol=1e-9)

    def test_predicate_filters_rows(self, lineitem_executor, lineitem_small):
        q = Query("COUNT", "l_quantity",
                  (Predicate("l_returnflag", "eq", "string", value="N"),),
                  ("l_orderkey",))
        f = lineitem_executor.feature_frame(q, "f_cnt")
        pdf = lineitem_small.toPandas()
        expected = pdf[pdf.l_returnflag == "N"].groupby("l_orderkey").size()
        got = f.frame.set_index("l_orderkey")["f_cnt"]
        pd.testing.assert_series_equal(got.sort_index().astype(int),
                                       expected.sort_index().astype(int),
                                       check_names=False)

    def test_frame_columns_are_keys_plus_name(self, lineitem_executor):
        q = Query("AVG", "l_quantity", (), ("l_orderkey",))
        f = lineitem_executor.feature_frame(q, "myfeat")
        assert list(f.frame.columns) == ["l_orderkey", "myfeat"]
        assert f.keys == ("l_orderkey",)
        assert f.sql == build_sql(q, lineitem_executor.view)


class TestMemoisation:
    def test_cache_hit_on_repeat(self, lineitem_executor):
        q = Query("MIN", "l_quantity", (), ("l_orderkey",))
        before_q = lineitem_executor.n_queries
        lineitem_executor.feature_frame(q, "a")
        mid_hits = lineitem_executor.n_cache_hits
        lineitem_executor.feature_frame(q, "b")  # same SQL, new name
        assert lineitem_executor.n_queries == before_q + 1
        assert lineitem_executor.n_cache_hits == mid_hits + 1

    def test_renamed_output_does_not_mutate_cache(self, lineitem_executor):
        q = Query("MAX", "l_quantity", (), ("l_orderkey",))
        a = lineitem_executor.feature_frame(q, "n1")
        b = lineitem_executor.feature_frame(q, "n2")
        assert "n1" in a.frame.columns and "n2" in b.frame.columns


class TestAugment:
    def test_definition3_matches_oracle(self, spark, lineitem_executor, lineitem_small):
        """merge_features == the paper's Definition-3 SQL run on DuckDB."""
        from repro import synth_data
        orders = synth_data.orders(spark, sf=0.001, seed=1)
        q = Query("AVG", "l_extendedprice",
                  (Predicate("l_quantity", "range", "number", lo=10),),
                  ("l_orderkey",))
        f = lineitem_executor.feature_frame(q, "feature")
        D = orders.select("o_orderkey", "o_totalprice") \
                  .withColumnRenamed("o_orderkey", "l_orderkey").toPandas()
        aug = merge_features(D, [f])
        inner = build_sql(q, "li", "duckdb")
        oracle_sql = (
            f"WITH qr AS ({inner}) "
            "SELECT d.l_orderkey AS l_orderkey, d.o_totalprice AS o_totalprice, "
            "COALESCE(qr.feature, 0.0) AS feature "
            "FROM d LEFT JOIN qr ON d.l_orderkey = qr.l_orderkey"
        )
        assert_equivalent(spark.createDataFrame(aug), oracle_sql, d=D, li=lineitem_small)
