"""Benchmark: Tables I & II (dataset + template descriptors, one-to-many)."""
import pytest

from repro.datasets import ONE_TO_MANY
from repro.experiments import descriptor_tables, save_and_print


@pytest.mark.benchmark(group="table1_2")
def test_bench_table1_2(spark, benchmark):
    def run():
        t1, t2 = descriptor_tables(spark, ONE_TO_MANY)
        return save_and_print(t1, "table1"), save_and_print(t2, "table2")

    t1, t2 = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(t1) == 4 and len(t2) == 4
