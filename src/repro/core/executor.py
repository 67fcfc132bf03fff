"""Catalyst execution of generated queries + training-table augmentation.

The relevant table is cached once as a temp view; every candidate query in
the search loop is one ``spark.sql`` round-trip whose generated WHERE clause
Catalyst pushes below the aggregation. Results (small per-key frames) are
collected to pandas for the driver-side model training, and memoised by SQL
text — TPE frequently revisits configurations.

``merge_features`` implements Definition 3 (training table LEFT JOIN query
results, absent groups filled with 0) on the driver-side splits;
``DownstreamEvaluator.matrix`` is its one caller.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.space import Query
from repro.core.sqlgen import build_sql

#: memoised query results kept per executor (least recently used evicted)
_CACHE_CAP = 1024


@dataclass
class FeatureFrame:
    """One augmentable feature: its name, join keys and per-key values."""

    name: str
    keys: tuple[str, ...]
    frame: pd.DataFrame  # columns: *keys, name
    sql: str = ""


class QueryExecutor:
    """Runs generated predicate-aware SQL over a cached relevant table."""

    def __init__(self, spark: SparkSession, R: DataFrame, view: str):
        self.spark = spark
        self.view = view
        # Small-data search loop: a coalesced cache = less per-task overhead
        # per generated query (hundreds of queries per scenario). The session
        # builder keeps shuffle partitions low for the same reason.
        n_rows = R.count()
        n_parts = max(1, min(R.rdd.getNumPartitions(), n_rows // 250_000 + 1))
        self.R = R.coalesce(n_parts).cache()
        self.R.count()  # materialise the cache before the search loop
        self.R.createOrReplaceTempView(view)
        self.n_queries = 0
        self.n_cache_hits = 0
        self._cache: OrderedDict[str, pd.DataFrame] = OrderedDict()

    def run_sql(self, sql: str) -> pd.DataFrame:
        """Execute SQL text (memoised) and return the result as pandas."""
        if sql in self._cache:
            self.n_cache_hits += 1
            self._cache.move_to_end(sql)
            return self._cache[sql]
        self.n_queries += 1
        pdf = self.spark.sql(sql).toPandas()
        self._cache[sql] = pdf
        if len(self._cache) > _CACHE_CAP:
            self._cache.popitem(last=False)
        return pdf

    def feature_frame(self, q: Query, name: str) -> FeatureFrame:
        """Execute ``q(R)`` and package the result as a named feature."""
        sql = build_sql(q, self.view, dialect="spark")
        pdf = self.run_sql(sql)
        pdf = pdf.rename(columns={"feature": name})
        return FeatureFrame(name=name, keys=q.keys, frame=pdf, sql=sql)

    def unpersist(self) -> None:
        self.R.unpersist()
        self.spark.catalog.dropTempView(self.view)


def merge_features(base: pd.DataFrame, feats: list[FeatureFrame]) -> pd.DataFrame:
    """Definition 3: left-join each feature frame into ``base`` on its
    (possibly subset) key columns and fill absent groups with 0."""
    out = base
    for f in feats:
        cols = [*f.keys, f.name]
        out = out.merge(f.frame[cols], on=list(f.keys), how="left")
    names = [f.name for f in feats]
    if names:
        out[names] = out[names].astype(float).fillna(0.0)
    return out

