"""DuckDB-oracle equivalence of every generated SQL shape.

Every aggregation function × predicate shape is rendered by
:mod:`repro.core.sqlgen` in both dialects and executed on Spark (Catalyst)
and DuckDB over identical TPC-H-lite input, and over a small adversarial
table; rows must match. This is what catches a wrong window subquery for
ENTROPY/MAD, a dropped NULL-key group, a mis-rendered literal, or a kurtosis
semantics drift — not just "it ran".
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.space import Predicate, Query
from repro.core.sqlgen import build_sql
from repro.core.template import PAPER_AGGS
from repro.oracle import assert_equivalent

# MODE is checked separately on tie-free data (tie-breaking is
# implementation-defined in both engines).
ORACLE_AGGS = [a for a in PAPER_AGGS if a != "MODE"]

PRED_SHAPES = {
    "none": (),
    "eq": (Predicate("l_returnflag", "eq", "string", value="N"),),
    "range": (Predicate("l_quantity", "range", "number", lo=10, hi=40),),
    "one_sided_ts": (Predicate("l_shipdate", "range", "timestamp",
                               lo="1994-01-01 00:00:00"),),
    "conjunction": (
        Predicate("l_returnflag", "eq", "string", value="A"),
        Predicate("l_quantity", "range", "number", lo=5, hi=45),
        Predicate("l_shipdate", "range", "timestamp",
                  hi="1997-06-01 00:00:00"),
    ),
}


@pytest.fixture(scope="module")
def li(spark, lineitem_small):
    lineitem_small.createOrReplaceTempView("li")
    return lineitem_small


@pytest.mark.parametrize("agg", ORACLE_AGGS)
@pytest.mark.parametrize("shape", list(PRED_SHAPES))
def test_spark_matches_duckdb(spark, li, agg, shape):
    q = Query(agg, "l_extendedprice", PRED_SHAPES[shape], ("l_orderkey",))
    spark_df = spark.sql(build_sql(q, "li", "spark"))
    assert_equivalent(spark_df, build_sql(q, "li", "duckdb"), li=li)


@pytest.mark.parametrize("agg", ["SUM", "AVG", "COUNT", "ENTROPY", "MEDIAN"])
def test_composite_group_keys(spark, li, agg):
    q = Query(agg, "l_quantity", (), ("l_orderkey", "l_linenumber"))
    spark_df = spark.sql(build_sql(q, "li", "spark"))
    assert_equivalent(spark_df, build_sql(q, "li", "duckdb"), li=li)


@pytest.mark.parametrize("agg", ["COUNT", "SUM", "VAR", "MAD"])
def test_integer_agg_attr(spark, li, agg):
    q = Query(agg, "l_linenumber",
              (Predicate("l_returnflag", "eq", "string", value="R"),),
              ("l_orderkey",))
    spark_df = spark.sql(build_sql(q, "li", "spark"))
    assert_equivalent(spark_df, build_sql(q, "li", "duckdb"), li=li)


def test_mode_on_tie_free_data(spark):
    pdf = pd.DataFrame({
        "k": [1, 1, 1, 2, 2, 2, 2],
        "v": [5.0, 5.0, 9.0, 1.0, 1.0, 1.0, 3.0],  # unique modes per group
    })
    spark.createDataFrame(pdf).createOrReplaceTempView("modes")
    q = Query("MODE", "v", (), ("k",))
    spark_df = spark.sql(build_sql(q, "modes", "spark"))
    assert_equivalent(spark_df, build_sql(q, "modes", "duckdb"), modes=pdf)


def test_date_predicate_literals(spark):
    pdf = pd.DataFrame({
        "k": [1, 1, 2, 2],
        "d": pd.to_datetime(["2023-01-01", "2023-06-01", "2023-02-01", "2023-09-01"]).date,
        "v": [1.0, 2.0, 3.0, 4.0],
    })
    spark.createDataFrame(pdf).createOrReplaceTempView("dts")
    q = Query("SUM", "v",
              (Predicate("d", "range", "date", lo="2023-01-15", hi="2023-07-01"),),
              ("k",))
    spark_df = spark.sql(build_sql(q, "dts", "spark"))
    assert_equivalent(spark_df, build_sql(q, "dts", "duckdb"), dts=pdf)


def test_entropy_of_constant_group_is_zero(spark):
    pdf = pd.DataFrame({"k": [1, 1, 1], "v": [4.0, 4.0, 4.0]})
    spark.createDataFrame(pdf).createOrReplaceTempView("ent1")
    q = Query("ENTROPY", "v", (), ("k",))
    row = spark.sql(build_sql(q, "ent1", "spark")).collect()[0]
    assert row["feature"] == pytest.approx(0.0)


def test_entropy_uniform_two_values_is_one_bit(spark):
    pdf = pd.DataFrame({"k": [1] * 4, "v": [1.0, 1.0, 2.0, 2.0]})
    spark.createDataFrame(pdf).createOrReplaceTempView("ent2")
    q = Query("ENTROPY", "v", (), ("k",))
    row = spark.sql(build_sql(q, "ent2", "spark")).collect()[0]
    assert row["feature"] == pytest.approx(1.0)


def test_mad_hand_computed(spark):
    pdf = pd.DataFrame({"k": [1] * 5, "v": [1.0, 2.0, 4.0, 8.0, 16.0]})
    # median=4; |v-4| = [3,2,0,4,12]; median = 3
    spark.createDataFrame(pdf).createOrReplaceTempView("madt")
    q = Query("MAD", "v", (), ("k",))
    row = spark.sql(build_sql(q, "madt", "spark")).collect()[0]
    assert row["feature"] == pytest.approx(3.0)


ADV_PREDS = {
    "none": (),
    "eq": (Predicate("c", "eq", "string", value="a  b"),
           Predicate("d", "eq", "string", value="o'k")),
    "range": (Predicate("x", "range", "number", lo=2, hi=7.5),),
}


@pytest.fixture(scope="module")
def adv(spark):
    """~300 rows that every predicate shape must get right: a NULL-key group,
    NULL values, a group whose values are all NULL (k=1), a group that every
    predicate filters out (k=2), and literals that differ only by a doubled
    space ('a  b' vs 'a b') or carry a quote (o'k vs ok)."""
    g = np.random.default_rng(0)
    cs, ds = ["a  b", "a b", None], ["o'k", "ok", None]
    rows = [(None, cs[i % 3], ds[i % 2], 2.0 + i % 5, None if i == 3 else float(i % 5))
            for i in range(12)]
    rows += [(1, cs[i % 2], ds[i % 2], 5.0, None) for i in range(6)]
    rows += [(2, "a b", "ok", 100.0, float(i)) for i in range(4)]
    for k in range(3, 60):
        for _ in range(g.integers(1, 9)):
            x = None if g.random() < 0.1 else int(g.integers(0, 21)) / 2
            a = None if g.random() < 0.1 else int(g.integers(0, 13)) / 2
            rows.append((k, cs[g.integers(0, 3)], ds[g.integers(0, 3)], x, a))
    pdf = pd.DataFrame(rows, columns=["k", "c", "d", "x", "a"]).astype(
        {"k": "Int64", "x": float, "a": float})  # NaN reaches both engines as NULL
    # one cached partition: each query stays one small job
    sdf = spark.createDataFrame(pdf).coalesce(1).cache()
    sdf.createOrReplaceTempView("adv")
    yield pdf
    sdf.unpersist()


@pytest.mark.parametrize("agg", ORACLE_AGGS)
@pytest.mark.parametrize("shape", list(ADV_PREDS))
def test_adversarial_spark_matches_duckdb(spark, adv, agg, shape):
    q = Query(agg, "a", ADV_PREDS[shape], ("k",))
    got = spark.sql(build_sql(q, "adv", "spark")).toPandas()
    assert got["k"].isna().sum() == 1  # the NULL-key group is kept
    assert_equivalent(got, build_sql(q, "adv", "duckdb"), adv=adv)
