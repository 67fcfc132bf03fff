"""Benchmark: the paper's Table VII (NoQTI / NoWU / Full ablation).

Runs the full grid once (pedantic rounds=1) at REPRO_SCALE and writes
results/table7.csv; the asserted invariants pin the paper's qualitative
shape where it is stable under one seeded run.
"""
import pytest

from repro.experiments import run_table


@pytest.mark.benchmark(group="table7")
def test_bench_table7(spark, benchmark):
    df = benchmark.pedantic(lambda: run_table(spark, "table7"), rounds=1, iterations=1)
    assert df["value"].notna().sum() > 0
    _check_7(df)


def _check_7(df):
    """Full should beat NoQTI in most scenarios (paper: 15/16)."""
    piv = df.pivot_table(index=["dataset", "model"], columns="method", values="value")
    wins = 0
    for (ds, _), row in piv.iterrows():
        if df.loc[df.dataset == ds, "metric"].iloc[0] == "RMSE":
            wins += int(row["FeatAug(Full)"] <= row["FeatAug(NoQTI)"] + 1e-9)
        else:
            wins += int(row["FeatAug(Full)"] >= row["FeatAug(NoQTI)"] - 1e-9)
    assert wins >= len(piv) * 0.5, f"Full beat NoQTI in only {wins}/{len(piv)}"
