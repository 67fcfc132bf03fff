"""Reproduce one of the paper's tables and write results/<table>.csv.

Usage: spark-submit jobs/run.py {info,3,6,7,8}   (or: python jobs/run.py ...)
  info      Tables I, II, IV, V (dataset / query-template descriptors)
  3 6 7 8   Tables III, VI, VII, VIII (the grids in experiments.GRIDS)
Env: REPRO_SCALE (default 0.6), REPRO_SEED (default 0).
"""
import argparse

from pyspark.sql import SparkSession

from repro.datasets import ONE_TO_MANY, ONE_TO_ONE
from repro.experiments import GRIDS, descriptor_tables, run_table, save_and_print


def dataset_info(spark: SparkSession) -> None:
    for gens, names in ((ONE_TO_MANY, ("table1", "table2")),
                        (ONE_TO_ONE, ("table4", "table5"))):
        for df, name in zip(descriptor_tables(spark, gens), names):
            save_and_print(df, name)


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        # few shuffle partitions: the search loop runs hundreds of small
        # GROUP BY queries, each paying per-task overhead
        .config("spark.sql.shuffle.partitions", 4)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("table", choices=["info", *(t.removeprefix("table") for t in GRIDS)])
    table = ap.parse_args(argv).table
    spark = get_spark(f"feataug-table-{table}")
    spark.sparkContext.setLogLevel("ERROR")
    if table == "info":
        dataset_info(spark)
    else:
        run_table(spark, f"table{table}")
    spark.stop()


if __name__ == "__main__":
    main()
