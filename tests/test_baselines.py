"""Baselines: Featuretools-lite, Random, ARDA, AutoFeature."""
from collections import OrderedDict

import numpy as np
import pandas as pd
import pytest

from repro.baselines import (
    arda_features,
    autofeature_dqn,
    autofeature_mab,
    featuretools_features,
    random_features,
)
from repro.baselines import arda
from repro.baselines.featuretools_lite import ft_name
from repro.core.executor import QUERY_ERRORS


@pytest.fixture(scope="module")
def ft_pool(tmall_ctx):
    return featuretools_features(tmall_ctx.executor, tmall_ctx.bundle)


class TestFeaturetoolsLite:
    def test_pool_size_is_F_times_A(self, tmall_ctx, ft_pool):
        b = tmall_ctx.bundle
        assert len(ft_pool) == len(b.aggs) * len(b.agg_attrs)

    def test_agg_major_order(self, tmall_ctx, ft_pool):
        b = tmall_ctx.bundle
        expected = [ft_name(agg, a) for agg in b.aggs for a in b.agg_attrs]
        assert [f.name for f in ft_pool] == expected

    def test_no_predicates_anywhere(self, ft_pool):
        assert all("WHERE" not in f.sql for f in ft_pool)

    def test_wide_pass_matches_per_query_execution(self, tmall_ctx, ft_pool):
        """The single wide aggregation must equal the one-query-per-feature
        path (what Featuretools semantically computes)."""
        from repro.core.space import Query
        b = tmall_ctx.bundle
        f_wide = next(f for f in ft_pool if f.name == ft_name("AVG", "price"))
        q = Query("AVG", "price", (), b.keys)
        f_single = tmall_ctx.executor.feature_frame(q, "avg_price_single")
        merged = f_wide.frame.merge(f_single.frame, on=list(b.keys))
        np.testing.assert_allclose(merged[f_wide.name], merged["avg_price_single"],
                                   rtol=1e-9)

    def test_entropy_and_mad_present(self, ft_pool):
        names = {f.name for f in ft_pool}
        assert ft_name("ENTROPY", "price") in names
        assert ft_name("MAD", "price") in names


class TestRandom:
    def test_runs_and_respects_budget(self, tmall_ctx):
        feats = random_features(tmall_ctx, seed=0)
        assert 1 <= len(feats) <= tmall_ctx.budget.n_features
        assert len({f.sql for f in feats}) == len(feats)
        metric = tmall_ctx.evaluator("LR", seed=0).evaluate(feats).test_metric
        assert 0.0 <= metric <= 1.0

    def test_seed_changes_queries(self, tmall_ctx):
        a = random_features(tmall_ctx, seed=0)
        b = random_features(tmall_ctx, seed=1)
        assert [f.sql for f in a] != [f.sql for f in b]

    def test_skips_a_failed_query(self, monkeypatch, tmall_ctx):
        """A query Spark rejects is dropped; the others are still returned.
        The failure runs against an empty memo, so the shared one keeps no
        stored exception."""
        ex = tmall_ctx.executor
        want = random_features(tmall_ctx, seed=0)
        bad = want[1].sql
        collect = ex._collect
        monkeypatch.setattr(ex, "_cache", OrderedDict())
        monkeypatch.setattr(ex, "_collect",
                            lambda sql: collect("SELECT no_such_col" if sql == bad else sql))
        got = random_features(tmall_ctx, seed=0)
        assert [(f.name, f.sql) for f in got] == [(f.name, f.sql) for f in want if f.sql != bad]
        with pytest.raises(QUERY_ERRORS, match="no_such_col"):
            ex.run_sql(bad)


class TestARDA:
    def test_selects_relevant_columns(self, household_ctx):
        ev = household_ctx.evaluator("LR", seed=0)
        feats = arda_features(household_ctx, ev, seed=0)
        assert 1 <= len(feats) <= household_ctx.budget.n_features
        # the planted poverty drivers should clear the noise bar
        names = " ".join(f.name for f in feats)
        assert ("education_years" in names or "monthly_rent" in names
                or "overcrowding" in names)
        assert ev.evaluate(feats).test_metric > ev.evaluate([]).test_metric

    def test_top_n_by_importance_when_nothing_beats_noise(self, monkeypatch, household_ctx):
        """Every noise probe outranks every candidate, so no threshold keeps
        one: ARDA returns the ``n_features`` most important candidates and
        scores no threshold."""

        class NoiseWins:  # importances: candidate i gets (i + 1) / 1000, noise 1
            def __init__(self, **_):
                pass

            def fit(self, X, y):
                self.n_real = X.shape[1] - arda._N_NOISE
                return self

            def feature_importances(self):
                return np.r_[np.arange(1, self.n_real + 1) / 1000, np.ones(arda._N_NOISE)]

        ev = household_ctx.evaluator("LR", seed=0)
        monkeypatch.setattr(arda, "RandomForest", NoiseWins)
        monkeypatch.setattr(ev, "valid_loss", lambda feats: pytest.fail("scored a threshold"))
        pool = arda.direct_join_pool(household_ctx, prefix="arda0")
        n = household_ctx.budget.n_features
        assert len(pool) > n
        feats = arda_features(household_ctx, ev, seed=0)
        assert [f.name for f in feats] == [f.name for f in pool[::-1][:n]]


class TestAutoFeature:
    @pytest.mark.parametrize("mode", ["MAB", "DQN"])
    def test_runs_and_improves(self, household_ctx, mode):
        ev = household_ctx.evaluator("LR", seed=0)
        search = {"MAB": autofeature_mab, "DQN": autofeature_dqn}[mode]
        feats = search(household_ctx, ev, seed=0)
        assert len(feats) <= household_ctx.budget.n_features
        base = ev.evaluate([]).test_metric
        assert ev.evaluate(feats).test_metric >= base - 0.02  # never much worse
