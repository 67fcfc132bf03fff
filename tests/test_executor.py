"""QueryExecutor: Catalyst execution, memoisation, prefetch rounds;
merge_features: Definition 3."""
import traceback

import pandas as pd
import pytest

from repro.core.config import TINY
from repro.core.executor import QUERY_ERRORS, FeatureFrame, QueryExecutor, merge_features
from repro.core.feataug import DatasetContext
from repro.core.space import Predicate, Query
from repro.core.sqlgen import build_sql
from repro.core.template import PAPER_AGGS
from repro.oracle import assert_equivalent
from tests import synth_data


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


def _stored_rdds(spark) -> dict[int, int]:
    """RDD id -> cached partitions, for every RDD with blocks in storage."""
    return {i.id(): i.numCachedPartitions()
            for i in spark.sparkContext._jsc.sc().getRDDStorageInfo()}


class TestSetUp:
    def test_one_job_and_one_cached_partition(self, spark):
        """Set-up runs exactly one Spark job, the one that fills the
        checkpoint, and stores R as one partition."""
        sc = spark.sparkContext
        group = "executor-setup"
        R = spark.range(3000, numPartitions=3).selectExpr("id % 7 AS k", "id AS a")
        before = _stored_rdds(spark)
        sc.setJobGroup(group, "QueryExecutor set-up")
        try:
            ex = QueryExecutor(spark, R, view="setup_test")
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        n_jobs = len(sc.statusTracker().getJobIdsForGroup(group))
        try:
            assert n_jobs == 1
            stored = {i: n for i, n in _stored_rdds(spark).items() if i not in before}
            assert list(stored.values()) == [1]
            assert ex.R.rdd.getNumPartitions() == 1
            assert ex.run_sql("SELECT COUNT(*) AS n FROM setup_test")["n"].tolist() == [3000]
        finally:
            ex.unpersist()

    def test_queries_do_not_carry_rs_rows(self, spark, tmall_ctx):
        """A bundle's R is built from pandas, so its plan holds its rows;
        a generated query reads the checkpoint instead."""
        assert "LocalRelation" in tmall_ctx.bundle.R._jdf.queryExecution().analyzed().toString()
        q = Query("SUM", "price", (), tmall_ctx.bundle.keys)
        plan = spark.sql(build_sql(q, tmall_ctx.executor.view))._jdf.queryExecution()
        optimized = plan.optimizedPlan().toString()
        assert "LocalRelation" not in optimized and "LogicalRDD" in optimized

    def test_close_frees_everything_stored(self, spark, tiny_tmall):
        before = set(_stored_rdds(spark))
        ctx = DatasetContext(spark, tiny_tmall, TINY, seed=0)
        assert set(_stored_rdds(spark)) > before
        ctx.close()
        assert set(_stored_rdds(spark)) == before
        assert not spark.catalog.tableExists(ctx.executor.view)


class TestMemoisation:
    def test_cache_hit_on_repeat(self, lineitem_executor):
        q = Query("MIN", "l_quantity", (), ("l_orderkey",))
        before_q = lineitem_executor.n_queries
        lineitem_executor.feature_frame(q, "a")
        lineitem_executor.feature_frame(q, "b")  # same SQL, new name
        assert lineitem_executor.n_queries == before_q + 1

    def test_renamed_output_does_not_mutate_cache(self, lineitem_executor):
        q = Query("MAX", "l_quantity", (), ("l_orderkey",))
        a = lineitem_executor.feature_frame(q, "n1")
        b = lineitem_executor.feature_frame(q, "n2")
        assert "n1" in a.frame.columns and "n2" in b.frame.columns


def _count_collects(monkeypatch, ex) -> list:
    """Record every SQL text the executor sends to Spark."""
    sent, collect = [], ex._collect
    monkeypatch.setattr(ex, "_collect", lambda sql: sent.append(sql) or collect(sql))
    return sent


class TestPrefetch:
    PRED = (Predicate("l_discount", "range", "number", lo=0.013),)

    def test_frames_equal_standalone_for_all_aggs(self, spark, lineitem_executor):
        ex = lineitem_executor
        qs = [Query(agg, "l_quantity", self.PRED, ("l_orderkey",)) for agg in PAPER_AGGS]
        sqls = [build_sql(q, ex.view) for q in qs]
        alone = [spark.sql(sql).toPandas() for sql in sqls]
        before = ex.n_queries
        ex.prefetch(qs)
        assert ex.n_queries == before + len(PAPER_AGGS)
        for sql, want in zip(sqls, alone):
            got = ex.run_sql(sql)
            pd.testing.assert_frame_equal(got.sort_values("l_orderkey").reset_index(drop=True),
                                          want.sort_values("l_orderkey").reset_index(drop=True),
                                          check_exact=True)
        assert ex.n_queries == before + len(PAPER_AGGS)

    def test_duplicates_and_hits_not_sent(self, monkeypatch, lineitem_executor):
        ex = lineitem_executor
        hit = Query("SUM", "l_tax", self.PRED, ("l_orderkey",))
        ex.feature_frame(hit, "h")
        new = [Query(a, "l_tax", self.PRED, ("l_orderkey",)) for a in ("MIN", "MAX", "AVG")]
        sent = _count_collects(monkeypatch, ex)
        before = ex.n_queries
        ex.prefetch([new[0], hit, new[1], new[0], new[2], new[1]])
        want = [build_sql(q, ex.view) for q in new]
        assert sorted(sent) == sorted(want)
        assert ex.n_queries == before + 3
        assert list(ex._cache)[-3:] == want  # memoised in input order
        for i, q in enumerate([*new, hit]):
            ex.feature_frame(q, f"n{i}")
        assert len(sent) == 3 and ex.n_queries == before + 3

    def test_failed_query_does_not_stop_its_round(self, monkeypatch, lineitem_executor):
        ex = lineitem_executor
        bad = Query("SUM", "no_such_col", (), ("l_orderkey",))
        good = [Query(a, "l_linenumber", self.PRED, ("l_orderkey",)) for a in ("SUM", "MEDIAN")]
        sent = _count_collects(monkeypatch, ex)
        before = ex.n_queries
        ex.prefetch([good[0], bad, good[1]])
        assert ex.n_queries == before + 3
        for i, q in enumerate(good):
            assert len(ex.feature_frame(q, f"g{i}").frame) > 0
        for _ in range(2):  # the failure is memoised: raised again, not rerun
            with pytest.raises(Exception, match="no_such_col"):
                ex.feature_frame(bad, "bad")
        assert len(sent) == 3 and ex.n_queries == before + 3

    def test_standalone_failure_memoised(self, monkeypatch, lineitem_executor):
        ex = lineitem_executor
        bad = Query("AVG", "no_such_col", (), ("l_orderkey",))
        sent = _count_collects(monkeypatch, ex)
        for _ in range(2):
            with pytest.raises(Exception, match="no_such_col"):
                ex.feature_frame(bad, "bad")
        assert len(sent) == 1

    def test_memoised_failure_traceback_does_not_grow(self, lineitem_executor):
        ex = lineitem_executor
        sql = build_sql(Query("MAX", "no_such_col", (), ("l_orderkey",)), ex.view)
        before, depths = ex.n_queries, []
        for _ in range(3):
            try:
                ex.run_sql(sql)
            except QUERY_ERRORS as e:
                depths.append(len(traceback.extract_tb(e.__traceback__)))
        assert len(depths) == 3 and len(set(depths)) == 1
        assert ex.n_queries == before + 1


class TestAugment:
    def test_definition3_matches_oracle(self, spark, lineitem_executor, lineitem_small):
        """merge_features == the paper's Definition-3 SQL run on DuckDB."""
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

    def test_definition3_null_keys_match_oracle(self, spark):
        """A NULL key in D matches no group of q(R), not even R's NULL-key
        group, exactly as in the SQL LEFT JOIN."""
        R = pd.DataFrame({"k": pd.array([1, 1, None, None, 3], dtype="Int64"),
                          "a": [1.0, 2.0, 40.0, 59.0, 5.0]})
        spark.createDataFrame(R).createOrReplaceTempView("r_null_keys")
        D = pd.DataFrame({"k": [1.0, 2.0, None, 3.0], "y": [0.5, 1.5, 2.5, 3.5]})
        q = Query("SUM", "a", (), ("k",))
        got = spark.sql(build_sql(q, "r_null_keys")).toPandas()
        assert got["k"].isna().sum() == 1  # q(R) has the NULL-key group (99.0)
        f = FeatureFrame("feature", ("k",), got, sql=build_sql(q, "r_null_keys"))
        aug = merge_features(D, [f])
        oracle_sql = (
            f"WITH qr AS ({build_sql(q, 'r_null_keys', 'duckdb')}) "
            "SELECT d.k AS k, d.y AS y, COALESCE(qr.feature, 0.0) AS feature "
            "FROM d LEFT JOIN qr ON d.k = qr.k"
        )
        assert_equivalent(aug, oracle_sql, d=D, r_null_keys=R)
        assert aug.loc[aug["k"].isna(), "feature"].tolist() == [0.0]
