"""FeatAug end-to-end on the tiny Tmall context (all ablations/proxies)."""
import pytest

from repro.core import evaluator
from repro.core.config import TINY
from repro.core.executor import QueryExecutor
from repro.core.feataug import DatasetContext, run_feataug


def _record_merges(monkeypatch) -> list:
    """Record the (split, SQL) of every Definition-3 merge from now on."""
    merged, merge_features = [], evaluator.merge_features

    def recorded(base, feats):
        merged.extend((id(base), f.sql) for f in feats)
        return merge_features(base, feats)

    monkeypatch.setattr(evaluator, "merge_features", recorded)
    return merged


class TestFullRun:
    @pytest.fixture(scope="class")
    def full(self, tmall_ctx):
        return run_feataug(tmall_ctx, "LR", seed=0)

    def test_produces_features_within_budget(self, tmall_ctx, full):
        assert 1 <= len(full.features) <= tmall_ctx.budget.n_features
        assert len({f.sql for f in full.features}) == len(full.features)

    def test_templates_within_depth(self, tmall_ctx, full):
        assert len(full.templates) == tmall_ctx.budget.n_templates
        assert all(1 <= len(t) <= tmall_ctx.budget.qti_depth for t in full.templates)
        assert all(set(t) <= set(tmall_ctx.bundle.where_attrs) for t in full.templates)

    def test_beats_base_features(self, tmall_ctx, full):
        base = tmall_ctx.evaluator("LR", seed=0).evaluate([]).test_metric
        assert full.result.test_metric > base

    def test_stats_recorded(self, full):
        for k in ("n_spark_queries", "n_model_fits", "qti_nodes_evaluated"):
            assert full.stats[k] > 0
        assert full.stats["n_failed_queries"] == 0

    def test_deterministic(self, tmall_ctx, full, monkeypatch):
        merged = _record_merges(monkeypatch)
        again = run_feataug(tmall_ctx, "LR", seed=0)
        assert merged == []  # a warm rerun aligns nothing
        assert again.result.test_metric == full.result.test_metric
        assert [f.sql for f in again.features] == [f.sql for f in full.features]
        a, b = (run_feataug(tmall_ctx, "LR", seed=0, use_qti=False) for _ in range(2))
        assert a.result.test_metric == b.result.test_metric
        assert [f.sql for f in a.features] == [f.sql for f in b.features]
        assert len(merged) == len(set(merged))  # at most once per (split, SQL)


    def test_same_feature_frame_sequence_on_fresh_contexts(self, spark, tiny_tmall,
                                                           monkeypatch):
        """The order of every executor request, not just the final features,
        is a function of the seed: concurrent rounds must not perturb it."""
        calls = []
        feature_frame = QueryExecutor.feature_frame

        def recorded(ex, q, name):
            f = feature_frame(ex, q, name)
            calls[-1].append((name.split("t", 1)[1], f.sql.replace(ex.view, "R")))
            return f

        monkeypatch.setattr(QueryExecutor, "feature_frame", recorded)
        merged = _record_merges(monkeypatch)
        metrics = []
        for _ in range(2):
            calls.append([])
            ctx = DatasetContext(spark, tiny_tmall, TINY, seed=0)
            try:
                metrics.append(run_feataug(ctx, "LR", seed=3).result.test_metric)
            finally:
                ctx.close()
            # a cold search aligns each feature at most once per split
            assert merged and len(merged) == len(set(merged))
            merged.clear()
        assert calls[0] == calls[1] and len(calls[0]) > 10
        assert metrics[0] == metrics[1]

    def test_spark_query_count_is_per_run(self, spark, tiny_tmall, monkeypatch):
        """``n_spark_queries`` counts this run's Spark queries, not the
        context's: every distinct SQL text on a fresh context, none warm."""
        sqls = set()
        feature_frame = QueryExecutor.feature_frame

        def recorded(ex, q, name):
            f = feature_frame(ex, q, name)
            sqls.add(f.sql)
            return f

        monkeypatch.setattr(QueryExecutor, "feature_frame", recorded)
        ctx = DatasetContext(spark, tiny_tmall, TINY, seed=0)
        try:
            cold = run_feataug(ctx, "LR", seed=1)
            assert cold.stats["n_spark_queries"] == len(sqls) > 0
            assert run_feataug(ctx, "LR", seed=1).stats["n_spark_queries"] == 0
        finally:
            ctx.close()


class TestAblations:
    def test_noqti_single_template(self, tmall_ctx):
        out = run_feataug(tmall_ctx, "LR", seed=0, use_qti=False)
        assert out.templates == [tuple(tmall_ctx.bundle.where_attrs)]
        assert out.stats["use_qti"] is False

    def test_nowu_runs(self, tmall_ctx):
        out = run_feataug(tmall_ctx, "LR", seed=0, use_warmup=False)
        assert out.stats["use_warmup"] is False
        assert len(out.features) >= 1


class TestProxies:
    @pytest.mark.parametrize("proxy", ["SC", "LR"])
    def test_alternative_proxies_run(self, tmall_ctx, proxy):
        out = run_feataug(tmall_ctx, "LR", seed=0, proxy=proxy)
        assert out.stats["proxy"] == proxy
        assert 0.0 <= out.result.test_metric <= 1.0

    def test_unknown_proxy_raises(self, tmall_ctx):
        with pytest.raises(ValueError):
            run_feataug(tmall_ctx, "LR", seed=0, proxy="RMSE")


class TestModels:
    @pytest.mark.parametrize("model", ["XGB", "DeepFM"])
    def test_other_downstream_models(self, tmall_ctx, model):
        out = run_feataug(tmall_ctx, model, seed=0)
        assert 0.0 <= out.result.test_metric <= 1.0
