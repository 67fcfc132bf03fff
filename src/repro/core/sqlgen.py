"""Render a :class:`~repro.core.space.Query` to SQL text.

Every aggregate renders, in both dialects, as the paper's Definition 2:

.. code-block:: sql

    SELECT k, agg(a) AS feature FROM R
    WHERE pred(p1) AND ... AND pred(pw)
    GROUP BY k

Most of the 15 aggregation functions map to builtins shared by Spark SQL and
DuckDB. Three have no builtin with Spark's semantics; their ``FROM`` is a
subquery over the filtered rows that adds a per-group window column (no CTE,
no join, so NULL-key groups are kept like everywhere else):

- ``MAD`` (median absolute deviation): ``MEDIAN(ABS(v - s))``, s = median;
- ``ENTROPY`` (base-2 Shannon entropy of the group's value distribution):
  ``SUM(-p * LOG2(p))``, ``p`` each distinct value's share of the group;
- ``KURTOSIS``, DuckDB only: Spark's builtin is the *population excess*
  kurtosis (m4/m2² − 3), DuckDB's the sample-adjusted estimator, so the
  DuckDB dialect spells out the population formula around the group's mean
  ``s`` — this is what lets the oracle tests pin Spark's semantics exactly.
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

#: agg-name → (inner columns, inner GROUP BY, outer aggregate); consulted after
#: the dialect's single-level table, so only DuckDB reaches KURTOSIS here
_TWO_LEVEL = {
    "MAD": ("{a} AS v, MEDIAN({a}) OVER (PARTITION BY {k}) AS s", "",
            "MEDIAN(ABS(v - s))"),
    "ENTROPY": ("COUNT(*) * 1.0 / SUM(COUNT(*)) OVER (PARTITION BY {k}) AS p",
                "GROUP BY {k}, {a}", "SUM(-p * LOG2(p))"),
    "KURTOSIS": ("{a} AS v, AVG({a}) OVER (PARTITION BY {k}) AS s", "",
                 "(SUM(POW(v - s, 4)) / COUNT(v)) / POW(SUM(POW(v - s, 2)) / COUNT(v), 2) - 3"),
}


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


def _clauses(*parts: str) -> str:
    return " ".join(p for p in parts if p)


def build_sql(q: Query, table: str, dialect: str = "spark") -> str:
    """Render ``q`` against ``table``; ``dialect`` ∈ {"spark", "duckdb"}."""
    if dialect not in ("spark", "duckdb"):
        raise ValueError(f"unknown dialect {dialect!r}")
    keys = ", ".join(q.keys)
    single = SPARK_AGGS if dialect == "spark" else _SHARED
    if q.agg in single:
        outer = single[q.agg].format(a=q.agg_attr)
        source = _clauses(table, where_sql(q))
    elif q.agg in _TWO_LEVEL:
        cols, group, outer = (s.format(a=q.agg_attr, k=keys) for s in _TWO_LEVEL[q.agg])
        source = f"({_clauses(f'SELECT {keys}, {cols} FROM {table}', where_sql(q), group)})"
    else:
        raise ValueError(f"unknown aggregation {q.agg!r}")
    return f"SELECT {keys}, {outer} AS feature FROM {source} GROUP BY {keys}"
