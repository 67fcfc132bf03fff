"""Render a :class:`~repro.core.space.Query` to SQL text.

The generated text is the paper's canonical shape (Definition 2):

.. code-block:: sql

    SELECT k, agg(a) AS feature FROM R
    WHERE pred(p1) AND ... AND pred(pw)
    GROUP BY k

Most of the 15 aggregation functions map to builtins shared by Spark SQL and
DuckDB; three need special handling:

- ``ENTROPY`` (base-2 Shannon entropy of the value distribution inside each
  group) and ``MAD`` (median absolute deviation) have no Spark builtin and
  are rendered as two-level CTE aggregations valid in both dialects;
- ``KURTOSIS``: Spark's builtin is the *population excess* kurtosis
  (m4/m2² − 3) while DuckDB's is the sample-adjusted estimator, so the
  DuckDB dialect renders the population formula explicitly — this is what
  lets the oracle tests pin Spark's semantics exactly.
"""
from __future__ import annotations

from repro.core.space import Predicate, Query

#: agg-name → single-level aggregate expression, identical in Spark SQL and DuckDB
_SHARED = {
    "SUM": "SUM({a})",
    "MIN": "MIN({a})",
    "MAX": "MAX({a})",
    "COUNT": "COUNT({a})",
    "AVG": "AVG({a})",
    "COUNT_DISTINCT": "COUNT(DISTINCT {a})",
    "VAR": "VAR_POP({a})",
    "VAR_SAMPLE": "VAR_SAMP({a})",
    "STD": "STDDEV_POP({a})",
    "STD_SAMPLE": "STDDEV_SAMP({a})",
    "MEDIAN": "MEDIAN({a})",
    "MODE": "MODE({a})",
}

#: every aggregate Spark computes in one GROUP BY pass (FT's wide pass too)
SPARK_AGGS = {**_SHARED, "KURTOSIS": "KURTOSIS({a})"}


def literal(v, sql_type: str) -> str:
    """SQL literal for a domain value (dialect-shared syntax)."""
    if sql_type == "string":
        return "'" + str(v).replace("'", "''") + "'"
    if sql_type == "date":
        return f"DATE '{v}'"
    if sql_type == "timestamp":
        return f"TIMESTAMP '{v}'"
    return repr(float(v)) if isinstance(v, float) else str(int(v))


def predicate_sql(p: Predicate) -> str:
    if p.kind == "eq":
        return f"{p.attr} = {literal(p.value, p.sql_type)}"
    clauses = []
    if p.lo is not None:
        clauses.append(f"{p.attr} >= {literal(p.lo, p.sql_type)}")
    if p.hi is not None:
        clauses.append(f"{p.attr} <= {literal(p.hi, p.sql_type)}")
    return " AND ".join(clauses)


def where_sql(q: Query) -> str:
    parts = [predicate_sql(p) for p in q.predicates]
    return ("WHERE " + " AND ".join(parts)) if parts else ""


def _two_level(q: Query, table: str, inner_agg: str, outer: str) -> str:
    """Shared CTE scaffold for ENTROPY / MAD / explicit KURTOSIS."""
    keys = ", ".join(q.keys)
    on = " AND ".join(f"flt.{k} = st.{k}" for k in q.keys)
    fkeys = ", ".join(f"flt.{k}" for k in q.keys)
    return (
        f"WITH flt AS (SELECT {keys}, {q.agg_attr} AS v FROM {table} {where_sql(q)}),\n"
        f"     st AS (SELECT {keys}, {inner_agg} AS s FROM flt GROUP BY {keys})\n"
        f"SELECT {fkeys}, {outer} AS feature\n"
        f"FROM flt JOIN st ON {on} GROUP BY {fkeys}"
    )


def _entropy_sql(q: Query, table: str) -> str:
    # two group-bys: per-(group, value) counts, then Σ −(c/t)·log2(c/t)
    keys = ", ".join(q.keys)
    ckeys = ", ".join(f"cnt.{k}" for k in q.keys)
    on = " AND ".join(f"cnt.{k} = tot.{k}" for k in q.keys)
    return (
        f"WITH flt AS (SELECT {keys}, {q.agg_attr} AS v FROM {table} {where_sql(q)}),\n"
        f"     cnt AS (SELECT {keys}, v, COUNT(*) AS c FROM flt GROUP BY {keys}, v),\n"
        f"     tot AS (SELECT {keys}, SUM(c) AS t FROM cnt GROUP BY {keys})\n"
        f"SELECT {ckeys}, SUM(-(c * 1.0 / t) * LOG2(c * 1.0 / t)) AS feature\n"
        f"FROM cnt JOIN tot ON {on} GROUP BY {ckeys}"
    )


def build_sql(q: Query, table: str, dialect: str = "spark") -> str:
    """Render ``q`` against ``table``; ``dialect`` ∈ {"spark", "duckdb"}."""
    if dialect not in ("spark", "duckdb"):
        raise ValueError(f"unknown dialect {dialect!r}")
    single = SPARK_AGGS if dialect == "spark" else _SHARED
    if q.agg in single:
        keys = ", ".join(q.keys)
        expr = single[q.agg].format(a=q.agg_attr)
        parts = (f"SELECT {keys}, {expr} AS feature FROM {table}", where_sql(q),
                 f"GROUP BY {keys}")
        return " ".join(p for p in parts if p)
    if q.agg == "ENTROPY":
        return _entropy_sql(q, table)
    if q.agg == "MAD":
        return _two_level(q, table, "MEDIAN(v)", "MEDIAN(ABS(v - s))")
    if q.agg == "KURTOSIS":
        # DuckDB: population excess kurtosis m4/m2^2 - 3 (Spark semantics)
        return _two_level(
            q, table, "AVG(v)",
            "(SUM(POW(v - s, 4)) / COUNT(*)) / POW(SUM(POW(v - s, 2)) / COUNT(*), 2) - 3",
        )
    raise ValueError(f"unknown aggregation {q.agg!r}")
