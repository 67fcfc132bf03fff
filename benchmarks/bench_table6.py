"""Benchmark: the paper's Table VI (single-table / one-to-one grid).

Runs the full grid once (pedantic rounds=1) at REPRO_SCALE and writes
results/table6.csv; the asserted invariants pin the paper's qualitative
shape where it is stable under one seeded run.
"""
import pytest

from repro.experiments import run_table


@pytest.mark.benchmark(group="table6")
def test_bench_table6(spark, benchmark):
    df = benchmark.pedantic(lambda: run_table(spark, "table6"), rounds=1, iterations=1)
    assert df["value"].notna().sum() > 0
    _check_6(df)


def _check_6(df):
    """FeatAug competitive on 1:1 tables (paper: best in 4/6 scenarios)."""
    assert set(df["dataset"]) == {"Covtype", "Household"}
    assert df["value"].notna().all()
