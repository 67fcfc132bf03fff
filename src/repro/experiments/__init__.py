"""Experiment harness for the paper's tables (see DESIGN.md §6).

``run_table(spark, "tableN")`` runs one performance grid of ``GRIDS``
(Tables III, VI, VII, VIII), returns a tidy pandas DataFrame, writes
``results/tableN.csv`` and prints a paper-shaped pivot.
``descriptor_tables`` builds the dataset and query-template descriptors
(Tables I/II, IV/V). Data scale and seed default to the environment:
``REPRO_SCALE`` (default 0.6), ``REPRO_SEED`` (default 0).
"""
from repro.experiments.harness import GRIDS, descriptor_tables, run_table, save_and_print

__all__ = ["GRIDS", "descriptor_tables", "run_table", "save_and_print"]
