"""Baselines: Featuretools-lite, Random, ARDA, AutoFeature."""
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
from repro.baselines.featuretools_lite import ft_name


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


class TestAutoFeature:
    @pytest.mark.parametrize("mode", ["MAB", "DQN"])
    def test_runs_and_improves(self, household_ctx, mode):
        ev = household_ctx.evaluator("LR", seed=0)
        search = {"MAB": autofeature_mab, "DQN": autofeature_dqn}[mode]
        feats = search(household_ctx, ev, seed=0)
        assert len(feats) <= household_ctx.budget.n_features
        base = ev.evaluate([]).test_metric
        assert ev.evaluate(feats).test_metric >= base - 0.02  # never much worse
