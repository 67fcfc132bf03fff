"""Templates, one-hot encodings, SQL rendering (Spark only for the literal
round-trip through the DuckDB oracle)."""
import math

import numpy as np
import pandas as pd
import pytest

from repro.core.qti import TemplatePredictor, identify_templates
from repro.core.config import TINY
from repro.core.space import Predicate, Query
from repro.core.sqlgen import build_sql, literal, predicate_sql, where_sql
from repro.core.template import PAPER_AGGS, QueryTemplate, one_hot, template_count
from repro.oracle import assert_equivalent


class TestTemplate:
    def test_paper_has_15_aggs(self):
        assert len(PAPER_AGGS) == 15

    def test_quadruple_fields(self):
        t = QueryTemplate(("SUM", "AVG"), ("price",), ("dept", "ts"), ("cname",))
        assert t.aggs == ("SUM", "AVG")
        assert t.agg_attrs == ("price",)
        assert t.where_attrs == ("dept", "ts") and t.keys == ("cname",)

    def test_unknown_agg_rejected(self):
        with pytest.raises(ValueError):
            QueryTemplate(("GEOMEAN",), ("a",), ("b",), ("k",))

    def test_template_count(self):
        assert template_count(6) == 64  # paper Example 8: 2^6
        assert template_count(10) == 1024

    def test_one_hot_paper_example(self):
        # universe {A..F}, combo {A,C,E,F} → [1,0,1,0,1,1] (§VI-C2)
        u = ("A", "B", "C", "D", "E", "F")
        np.testing.assert_array_equal(one_hot({"A", "C", "E", "F"}, u),
                                      [1, 0, 1, 0, 1, 1])

    def test_one_hot_unknown_attr_raises(self):
        with pytest.raises(ValueError):
            one_hot({"Z"}, ("A", "B"))


class TestLiterals:
    def test_string_quoting_and_escape(self):
        assert literal("Electronics", "string") == "'Electronics'"
        assert literal("O'Brien", "string") == "'O''Brien'"

    def test_numbers(self):
        assert literal(3, "number") == "3"
        assert literal(3.5, "number") == "3.5"

    def test_date_and_timestamp(self):
        assert literal("2023-07-01", "date") == "DATE '2023-07-01'"
        assert literal("2023-07-01 10:00:00", "timestamp").startswith("TIMESTAMP ")


class TestPredicateSQL:
    def test_eq(self):
        p = Predicate("dept", "eq", "string", value="Electronics")
        assert predicate_sql(p) == "dept = 'Electronics'"

    def test_two_sided_range(self):
        p = Predicate("ts", "range", "number", lo=1, hi=9)
        assert predicate_sql(p) == "ts >= 1 AND ts <= 9"

    def test_one_sided_low(self):
        assert predicate_sql(Predicate("ts", "range", "number", lo=5)) == "ts >= 5"

    def test_one_sided_high(self):
        assert predicate_sql(Predicate("ts", "range", "number", hi=5)) == "ts <= 5"

    def test_where_empty_when_no_predicates(self):
        q = Query("SUM", "a", (), ("k",))
        assert where_sql(q) == ""


def _q(agg, preds=(), keys=("k",)):
    return Query(agg, "a", tuple(preds), keys)


@pytest.fixture(scope="module")
def plan_r(spark):
    spark.createDataFrame(pd.DataFrame({"k": [1, 2], "c": ["x", "y"], "a": [1.0, 2.0]})) \
        .createOrReplaceTempView("plan_r")


class TestBuildSQL:
    @pytest.mark.parametrize("agg", [a for a in PAPER_AGGS
                                     if a not in ("ENTROPY", "MAD", "KURTOSIS")])
    def test_simple_aggs_shape(self, agg):
        sql = build_sql(_q(agg), "R")
        assert sql.startswith("SELECT k, ")
        assert "AS feature FROM R" in sql
        assert sql.endswith("GROUP BY k")

    def test_count_distinct(self):
        assert "COUNT(DISTINCT a)" in build_sql(_q("COUNT_DISTINCT"), "R")

    @pytest.mark.parametrize("agg", ["ENTROPY", "MAD"])
    def test_two_level_shared_dialects(self, agg):
        s1 = build_sql(_q(agg), "R", "spark")
        s2 = build_sql(_q(agg), "R", "duckdb")
        assert s1 == s2
        assert s1.startswith("SELECT k, ") and s1.endswith(") GROUP BY k")
        assert "OVER (PARTITION BY k)" in s1 and "JOIN" not in s1

    def test_kurtosis_dialects_differ(self):
        spark = build_sql(_q("KURTOSIS"), "R", "spark")
        duck = build_sql(_q("KURTOSIS"), "R", "duckdb")
        assert "KURTOSIS(a)" in spark
        assert "POW" in duck and "KURTOSIS" not in duck

    def test_predicates_rendered_in_where(self):
        q = _q("SUM", [Predicate("d", "eq", "string", value="x"),
                       Predicate("t", "range", "number", lo=1, hi=2)])
        sql = build_sql(q, "R")
        assert "WHERE d = 'x' AND t >= 1 AND t <= 2" in sql

    def test_composite_keys(self):
        q = Query("AVG", "a", (), ("k1", "k2"))
        sql = build_sql(q, "R")
        assert "SELECT k1, k2," in sql and sql.endswith("GROUP BY k1, k2")

    def test_two_level_with_predicate_and_composite_keys(self):
        q = Query("MAD", "a", (Predicate("d", "eq", "string", value="x"),), ("k1", "k2"))
        sql = build_sql(q, "R")
        assert "OVER (PARTITION BY k1, k2)" in sql and "JOIN" not in sql
        assert "FROM (SELECT k1, k2, " in sql and "FROM R WHERE d = 'x') GROUP BY k1, k2" in sql

    @pytest.mark.parametrize("agg", ["SUM", "KURTOSIS", "ENTROPY"])
    def test_double_space_literal_kept(self, spark, agg):
        # 'a  b' and 'a b' are different values; key 3 has only 'a b' rows
        R = pd.DataFrame({
            "k": [1, 1, 1, 1, 2, 2, 2, 2, 3],
            "c": ["a  b", "a  b", "a  b", "a b"] * 2 + ["a b"],
            "a": [1.0, 2.0, 4.0, 100.0, 3.0, 5.0, 9.0, 200.0, 7.0],
        })
        spark.createDataFrame(R).createOrReplaceTempView("lit_r")
        q = _q(agg, [Predicate("c", "eq", "string", value="a  b")])
        spark_sql, duck_sql = build_sql(q, "lit_r", "spark"), build_sql(q, "lit_r", "duckdb")
        assert "c = 'a  b'" in spark_sql and "c = 'a  b'" in duck_sql
        assert_equivalent(spark.sql(spark_sql), duck_sql, lit_r=R)

    def test_unknown_agg_and_dialect(self):
        with pytest.raises(ValueError):
            build_sql(Query("FOO", "a", (), ("k",)), "R")
        with pytest.raises(ValueError):
            build_sql(_q("SUM"), "R", dialect="mysql")

    @pytest.mark.parametrize("keys", [("k",), ("k", "c")])
    @pytest.mark.parametrize("agg", PAPER_AGGS)
    def test_no_join_in_plan(self, spark, plan_r, agg, keys):
        q = _q(agg, [Predicate("c", "eq", "string", value="x")], keys)
        sqls = [build_sql(q, "plan_r", d) for d in ("spark", "duckdb")]
        assert not any("JOIN" in sql for sql in sqls)
        qe = spark.sql(sqls[0])._jdf.queryExecution()
        assert "Join" not in qe.optimizedPlan().toString()
        assert "Join" not in qe.executedPlan().toString()


class TestQTIPure:
    """identify_templates over a synthetic effectiveness function."""

    UNIVERSE = ("A", "B", "C", "D", "E", "F")

    @staticmethod
    def _score(combo):
        # planted: {A, C} is the best pair; singletons A > C > rest
        s = set(combo)
        score = 0.0
        score += 2.0 if "A" in s else 0.0
        score += 1.0 if "C" in s else 0.0
        score += 1.5 if {"A", "C"} <= s else 0.0
        return score - 0.1 * len(s)

    @classmethod
    def _eff(cls, layer):
        return [cls._score(c) for c in layer]

    def test_finds_planted_combo(self):
        combos, stats = identify_templates(
            self.UNIVERSE, self._eff, TINY.scaled(qti_beam=2, qti_depth=3, n_templates=3))
        assert ("A", "C") in [c[:2] if len(c) >= 2 else c for c in combos] or \
               any(set(c) >= {"A", "C"} for c in combos)

    @classmethod
    def _recorded(cls, budget):
        """identify_templates, plus each layer its ``effectiveness`` saw."""
        layers = []
        _, stats = identify_templates(
            cls.UNIVERSE, lambda layer: layers.append(list(layer)) or cls._eff(layer), budget)
        return layers, stats

    def test_layer1_evaluates_all_singletons(self):
        layers, stats = self._recorded(TINY.scaled(qti_beam=1, qti_depth=2, n_templates=2))
        assert sorted(layers[0]) == [(a,) for a in self.UNIVERSE]
        assert stats.n_nodes_evaluated == sum(map(len, layers))

    def test_predictor_prunes_children(self):
        beta = 2
        layers, stats = self._recorded(TINY.scaled(qti_beam=beta, qti_depth=3, n_templates=2))
        # every child of each layer's beam not scored before is generated:
        # either evaluated in the next layer or ranked out by the predictor
        scored = {frozenset(c) for c in layers[0]}
        generated = len(layers[0])
        for layer in layers[:-1]:
            beam = sorted(layer, key=lambda c: -self._score(c))[:beta]
            children = {frozenset((*node, a)) for node in beam
                        for a in self.UNIVERSE if a not in node} - scored
            generated += len(children)
            scored |= children
        assert stats.n_nodes_evaluated == sum(map(len, layers))
        assert stats.n_nodes_evaluated + stats.n_nodes_predicted_only == generated
        assert stats.n_nodes_predicted_only > 0
        assert all(len(layer) <= beta for layer in layers[1:])

    def test_cost_bound_matches_paper_formula(self):
        # (|attr| + Σ_{i=2}^{depth} β) · cost_p with the O2 predictor
        beta, depth = 2, 3
        _, stats = identify_templates(self.UNIVERSE, self._eff,
                                      TINY.scaled(qti_beam=beta, qti_depth=depth,
                                                  n_templates=2))
        assert stats.n_nodes_evaluated <= len(self.UNIVERSE) + (depth - 1) * beta

    def test_returns_requested_count(self):
        combos, _ = identify_templates(self.UNIVERSE, self._eff,
                                       TINY.scaled(qti_beam=1, qti_depth=2,
                                                   n_templates=4))
        assert len(combos) == 4
        assert len(set(map(tuple, combos))) == 4

    def test_failed_nodes_do_not_blind_the_predictor(self):
        # every query of a B-node failed (-inf); the predictor still ranks
        # A's children from the finite scores and evaluates (A, F)
        def eff(layer):
            w = {"A": 2.0, "F": 1.0}
            return [-math.inf if "B" in c else
                    sum(w.get(a, 0.0) for a in c) + (2.0 if {"A", "F"} <= set(c) else 0.0)
                    for c in layer]

        combos, stats = identify_templates(self.UNIVERSE, eff,
                                           TINY.scaled(qti_beam=1, qti_depth=2,
                                                       n_templates=1))
        assert combos == [("A", "F")] and stats.n_nodes_predicted_only == 4

    def test_depth_capped_by_universe(self):
        combos, _ = identify_templates(("A", "B"), self._eff,
                                       TINY.scaled(qti_beam=1, qti_depth=5,
                                                   n_templates=2))
        assert all(len(c) <= 2 for c in combos)


class TestTemplatePredictor:
    def test_learns_additive_scores(self):
        u = ("A", "B", "C")
        combos = [("A",), ("B",), ("C",), ("A", "B")]
        scores = [3.0, 1.0, 0.5, 4.0]
        p = TemplatePredictor(u).fit(combos, scores)
        pred = p.predict([("A", "C"), ("B", "C")])
        assert pred[0] > pred[1]  # A-containing combo predicted stronger
