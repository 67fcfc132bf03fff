"""Catalyst execution of generated queries + training-table augmentation.

The relevant table is stored once, as one partition, by an eager local
checkpoint under a temp view; the job that fills it is set-up's only Spark
action. Its plan is a ``LogicalRDD`` over the stored blocks, so no query
carries R's source plan (for a pandas-built R, a ``LocalRelation`` holding
every row). Every candidate query in the search loop is one ``spark.sql``
round-trip whose generated WHERE clause Catalyst pushes below the
aggregation. Results (small per-key frames) are collected to pandas for the
driver-side model training, and memoised by SQL text — TPE frequently
revisits configurations.

Each query is a single-task job whose cost is mostly fixed overhead, so the
search hands the executor a whole lockstep round of candidates at once:
``prefetch`` renders them with ``build_sql``, skips memo hits and
duplicates, and runs the misses concurrently on a per-call thread pool as
wide as Spark's default parallelism. Only the calling thread touches the
memo: it takes each result through ``run_sql``'s miss path in input order.
A query that fails is memoised as its exception, which ``run_sql`` raises,
so one failed candidate neither stops the rest of its round nor reruns.

``merge_features`` implements Definition 3 (training table LEFT JOIN query
results, absent groups filled with 0) on the driver-side splits; the
evaluator calls it once per (split, SQL text) to fill its column memo.
"""
from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import pandas as pd
from py4j.protocol import Py4JError
from pyspark.errors import PySparkException
from pyspark.sql import DataFrame, SparkSession

from repro.core.space import Query
from repro.core.sqlgen import build_sql

#: memoised query results kept per executor (least recently used evicted)
_CACHE_CAP = 1024

#: what a failed query raises: Spark analysis/execution errors, JVM errors
QUERY_ERRORS = (PySparkException, Py4JError)


@dataclass
class FeatureFrame:
    """One augmentable feature: its name, join keys and per-key values."""

    name: str
    keys: tuple[str, ...]
    frame: pd.DataFrame  # columns: *keys, name
    sql: str  # what produced ``frame``; the evaluator memoises columns by it


class QueryExecutor:
    """Runs generated predicate-aware SQL over a checkpointed relevant table."""

    def __init__(self, spark: SparkSession, R: DataFrame, view: str):
        self.spark = spark
        self.view = view
        # One stored partition: each generated query is one small task, so
        # per-task overhead, not scan width, bounds the search loop. The
        # session builder keeps shuffle partitions low for the same reason.
        self.R = R.coalesce(1).localCheckpoint()
        self.R.createOrReplaceTempView(view)
        self.n_queries = 0
        self._cache: OrderedDict[str, pd.DataFrame | Exception] = OrderedDict()
        self._inflight: dict[str, Future] = {}

    def _collect(self, sql: str) -> pd.DataFrame | Exception:
        """One Spark round-trip; a failed query returns its exception."""
        try:
            return self.spark.sql(sql).toPandas()
        except QUERY_ERRORS as e:
            return e

    def run_sql(self, sql: str) -> pd.DataFrame:
        """Execute SQL text (memoised) and return the result as pandas."""
        if sql in self._cache:
            self._cache.move_to_end(sql)
            out = self._cache[sql]
        else:
            self.n_queries += 1
            fut = self._inflight.pop(sql, None)
            out = fut.result() if fut is not None else self._collect(sql)
            self._cache[sql] = out
            if len(self._cache) > _CACHE_CAP:
                self._cache.popitem(last=False)
        if isinstance(out, Exception):
            # a bare re-raise would append this call's frames to the stored
            # exception's traceback on every memo hit
            raise out.with_traceback(None)
        return out

    def prefetch(self, queries: list[Query]) -> None:
        """Run the memo misses among ``queries`` concurrently and memoise
        them in input order; later ``feature_frame`` calls on them are hits."""
        misses = list(dict.fromkeys(
            sql for sql in (build_sql(q, self.view, dialect="spark") for q in queries)
            if sql not in self._cache))
        if not misses:
            return
        width = min(len(misses), self.spark.sparkContext.defaultParallelism)
        with ThreadPoolExecutor(width) as pool:
            self._inflight = {sql: pool.submit(self._collect, sql) for sql in misses}
            for sql in misses:
                try:
                    self.run_sql(sql)
                except QUERY_ERRORS:
                    pass  # memoised; the candidate's own run_sql raises it

    def feature_frame(self, q: Query, name: str) -> FeatureFrame:
        """Execute ``q(R)`` and package the result as a named feature."""
        sql = build_sql(q, self.view, dialect="spark")
        pdf = self.run_sql(sql)
        pdf = pdf.rename(columns={"feature": name})
        return FeatureFrame(name=name, keys=q.keys, frame=pdf, sql=sql)

    def unpersist(self) -> None:
        """Drop the view and free the checkpoint's blocks, which
        ``DataFrame.unpersist`` leaves in place."""
        self.spark.catalog.dropTempView(self.view)
        self.R._jdf.queryExecution().analyzed().rdd().unpersist(True)


def merge_features(base: pd.DataFrame, feats: list[FeatureFrame]) -> pd.DataFrame:
    """Definition 3: left-join each feature frame into ``base`` on its
    (possibly subset) key columns and fill absent groups with 0. As in the
    SQL ``LEFT JOIN``, a NULL key matches nothing, not even a NULL-key group."""
    out = base
    for f in feats:
        keys = list(f.keys)
        out = out.merge(f.frame[[*keys, f.name]].dropna(subset=keys), on=keys, how="left")
    names = [f.name for f in feats]
    if names:
        out[names] = out[names].astype(float).fillna(0.0)
    return out

