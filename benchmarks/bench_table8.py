"""Benchmark: the paper's Table VIII (low-cost proxy sweep SC/MI/LR).

Runs the full grid once (pedantic rounds=1) at REPRO_SCALE and writes
results/table8.csv; the asserted invariants pin the paper's qualitative
shape where it is stable under one seeded run.
"""
import pytest

from repro.experiments import run_table


@pytest.mark.benchmark(group="table8")
def test_bench_table8(spark, benchmark):
    df = benchmark.pedantic(lambda: run_table(spark, "table8"), rounds=1, iterations=1)
    assert df["value"].notna().sum() > 0
    _check_8(df)


def _check_8(df):
    """All three proxies must produce a full grid of results."""
    assert df["value"].notna().all()
    assert set(m.split("(")[1][:-1] for m in df["method"]) == {"SC", "MI", "LR"}
