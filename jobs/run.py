"""Reproduce one of the paper's tables and write results/<table>.csv.

Usage: spark-submit jobs/run.py {info,3,6,7,8}   (or: python jobs/run.py ...)
  info      Tables I, II, IV, V (dataset / query-template descriptors)
  3 6 7 8   Tables III, VI, VII, VIII
Env: REPRO_SCALE (default 0.6), REPRO_SEED, REPRO_FAST=1 for a quick pass.
"""
import argparse
import os

from pyspark.sql import SparkSession

from repro.experiments import (
    DEFAULT_SCALE,
    run_table3,
    run_table6,
    run_table7,
    run_table8,
    save_and_print,
    table1_rows,
    table2_rows,
)
from repro.experiments.table4_5 import table4_rows, table5_rows


def dataset_info(spark: SparkSession) -> None:
    save_and_print(table1_rows(spark, scale=DEFAULT_SCALE), "table1")
    save_and_print(table2_rows(spark, scale=DEFAULT_SCALE), "table2")
    save_and_print(table4_rows(spark, scale=DEFAULT_SCALE), "table4")
    save_and_print(table5_rows(spark, scale=DEFAULT_SCALE), "table5")


TABLES = {"info": dataset_info, "3": run_table3, "6": run_table6,
          "7": run_table7, "8": run_table8}


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", "8"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("table", choices=TABLES)
    table = ap.parse_args(argv).table
    spark = get_spark(f"feataug-table-{table}")
    spark.sparkContext.setLogLevel("ERROR")
    TABLES[table](spark)
    spark.stop()


if __name__ == "__main__":
    main()
