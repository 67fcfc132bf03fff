"""Baselines: Featuretools-lite, Random, ARDA, AutoFeature."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines import (
    featuretools_features,
    run_arda,
    run_autofeature,
    run_random,
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
        out = run_random(tmall_ctx, "LR", seed=0)
        assert 1 <= len(out.features) <= tmall_ctx.budget.n_features * 2
        assert len(out.templates) == tmall_ctx.budget.n_templates
        assert 0.0 <= out.result.test_metric <= 1.0

    def test_seed_changes_queries(self, tmall_ctx):
        a = run_random(tmall_ctx, "LR", seed=0)
        b = run_random(tmall_ctx, "LR", seed=1)
        assert [f.sql for f in a.features] != [f.sql for f in b.features]


class TestARDA:
    def test_selects_relevant_columns(self, household_ctx):
        out = run_arda(household_ctx, "LR", seed=0)
        assert 1 <= len(out.features) <= household_ctx.budget.n_features
        # the planted poverty drivers should clear the noise bar
        names = " ".join(f.name for f in out.features)
        assert ("education_years" in names or "monthly_rent" in names
                or "overcrowding" in names)
        base = household_ctx.evaluator("LR").evaluate([]).test_metric
        assert out.result.test_metric > base

    def test_stats_record_threshold(self, household_ctx):
        out = run_arda(household_ctx, "LR", seed=0)
        assert out.stats["method"] == "ARDA"
        assert "tau" in out.stats


class TestAutoFeature:
    @pytest.mark.parametrize("mode", ["MAB", "DQN"])
    def test_runs_and_improves(self, household_ctx, mode):
        out = run_autofeature(household_ctx, "LR", mode=mode, seed=0)
        assert out.stats["method"] == f"AutoFeat-{mode}"
        base = household_ctx.evaluator("LR").evaluate([]).test_metric
        assert out.result.test_metric >= base - 0.02  # never much worse

    def test_unknown_mode_raises(self, household_ctx):
        with pytest.raises(ValueError):
            run_autofeature(household_ctx, "LR", mode="PPO")
