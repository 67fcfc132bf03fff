"""Per-search correctness gate and the SQL-sequence hash.

A search passes the gate when every kept feature's frame

- equals its query rerun standalone on Spark (``build_sql``, no memo), and
- equals the DuckDB oracle (``repro.oracle``) for that ``Query``; MODE's
  tie-breaking is implementation-defined in both engines, so for MODE the
  Spark value must be one of the group's modal values instead,

and the number of kept features is within the budget's ``n_features``.

The Spark half runs in the benchmark process. The DuckDB half needs the
relevant table on the Python side, which FeatAug itself never holds, so it
runs in a child process (``python3 checks.py JOBS``) that reads R from the
parquet copy Spark wrote; the driver's peak RSS stays FeatAug's own.
"""
from __future__ import annotations

import hashlib
import json
import pickle
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pandas as pd

HERE = Path(__file__).resolve().parent


def sql_hash(sql_seq: list[str]) -> str:
    return hashlib.sha256("\n".join(sql_seq).encode()).hexdigest()[:16]


def _sorted(pdf: pd.DataFrame, keys) -> pd.DataFrame:
    return pdf.sort_values(list(keys)).reset_index(drop=True)


def gate(spark, out, record, view: str, budget) -> tuple[list[str], list[tuple]]:
    """The Spark half of one search's gate: its problems (empty = passed) and
    the (name, query, frame) jobs left for ``oracle_problems``."""
    from repro.core.sqlgen import build_sql

    problems, jobs = [], []
    if len(out.features) > budget.n_features:
        problems.append(f"{len(out.features)} features > budget {budget.n_features}")
    for f in out.features:
        q = record.queries.get(f.name)
        if q is None:
            problems.append(f"{f.name}: no captured query")
            continue
        frame = f.frame.rename(columns={f.name: "feature"})
        try:
            standalone = spark.sql(build_sql(q, view, dialect="spark")).toPandas()
            pd.testing.assert_frame_equal(_sorted(frame, q.keys),
                                          _sorted(standalone, q.keys), check_dtype=False)
        except AssertionError as e:
            problems.append(f"{f.name} ({q.agg}): {str(e).splitlines()[0]}")
        except Exception as e:  # a query that fails to rerun fails the search
            traceback.print_exc(file=sys.stderr)
            problems.append(f"{f.name} ({q.agg}): raised {type(e).__name__}")
        jobs.append((f.name, q, frame))
    if not np.isfinite(out.result.test_metric):
        problems.append("non-finite test metric")
    return problems, jobs


def oracle_problems(jobs: list[tuple[Path, list[tuple]]], work: Path) -> list[list[str]]:
    """Run the DuckDB half for every search's (R parquet dir, jobs) in one
    child process; returns the problems per search."""
    job_file = work / "oracle_jobs.pkl"
    with open(job_file, "wb") as fh:
        pickle.dump(jobs, fh)
    proc = subprocess.run([sys.executable, str(HERE / "checks.py"), str(job_file)],
                          stdout=subprocess.PIPE, text=True, timeout=150)
    job_file.unlink()
    if proc.returncode != 0:
        return [["DuckDB oracle check did not run"] if js else [] for _, js in jobs]
    return json.loads(proc.stdout.splitlines()[-1])


# -- the child process ------------------------------------------------------

class _Collected:
    """A collected Spark result, in the shape ``assert_equivalent`` reads."""

    def __init__(self, pdf: pd.DataFrame):
        self.pdf = pdf

    def toPandas(self) -> pd.DataFrame:
        return self.pdf


def _mode_ok(con, frame: pd.DataFrame, q) -> None:
    from repro.core.sqlgen import where_sql

    keys = ", ".join(q.keys)
    sql = (
        f"WITH c AS (SELECT {keys}, {q.agg_attr} AS feature, COUNT({q.agg_attr}) AS n FROM R "
        f"{where_sql(q)} GROUP BY {keys}, {q.agg_attr}) "
        f"SELECT {keys}, feature, n = MAX(n) OVER (PARTITION BY {keys}) AS modal FROM c"
    )
    counts = con.execute(sql).fetchdf()
    n_groups = len(counts[list(q.keys)].drop_duplicates())
    if n_groups != len(frame):
        raise AssertionError(f"MODE group count {len(frame)} != {n_groups}")
    valued = frame.dropna(subset=["feature"])
    hit = valued.merge(counts[counts["modal"]], on=[*q.keys, "feature"], how="left")
    if hit["modal"].isna().any():
        raise AssertionError("MODE value is not a modal value of its group")


def _oracle_main(job_file: str) -> int:
    import duckdb

    from repro.core.sqlgen import build_sql
    from repro.oracle import assert_equivalent

    with open(job_file, "rb") as fh:
        jobs = pickle.load(fh)
    con = duckdb.connect()
    out = []
    for r_dir, search_jobs in jobs:
        R = con.execute(f"SELECT * FROM read_parquet('{r_dir}/*.parquet')").arrow()
        con.register("R", R)
        problems = []
        for name, q, frame in search_jobs:
            try:
                if q.agg == "MODE":
                    _mode_ok(con, frame, q)
                else:
                    assert_equivalent(_Collected(frame), build_sql(q, "R", dialect="duckdb"), R=R)
            except AssertionError as e:
                problems.append(f"{name} ({q.agg}): oracle: {str(e).splitlines()[0]}")
        out.append(problems)
    con.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(_oracle_main(sys.argv[1]))
