"""Benchmark: Tables IV & V (Covtype/Household descriptors)."""
import pytest

from repro.datasets import ONE_TO_ONE
from repro.experiments import descriptor_tables, save_and_print


@pytest.mark.benchmark(group="table4_5")
def test_bench_table4_5(spark, benchmark):
    def run():
        t4, t5 = descriptor_tables(spark, ONE_TO_ONE)
        return save_and_print(t4, "table4"), save_and_print(t5, "table5")

    t4, t5 = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(t4) == 2 and len(t5) == 2
