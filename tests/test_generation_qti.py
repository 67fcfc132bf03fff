"""SQL Query Generation + QTI over a real (tiny) Spark context."""
import numpy as np
import pytest

from repro.core.config import TINY
from repro.core.generation import PoolSearcher, generate_queries
from repro.core.proxy import make_proxy


@pytest.fixture()
def searcher(tmall_ctx):
    evaluator = tmall_ctx.evaluator("LR")
    proxy = make_proxy("MI", task="binary")
    combo = ("action_type", "ts_day")
    return PoolSearcher(tmall_ctx.space(combo), tmall_ctx.executor,
                        evaluator, proxy, prefix="tgen")


class TestPoolSearcher:
    def test_frame_cached_per_config(self, searcher):
        cfg = searcher.space.sample(np.random.default_rng(0))
        f1 = searcher.frame(cfg)
        f2 = searcher.frame(cfg)
        assert f1 is f2

    def test_proxy_and_real_memoised(self, searcher):
        cfg = searcher.space.sample(np.random.default_rng(1))
        p1, p2 = searcher.proxy_score(cfg), searcher.proxy_score(cfg)
        assert p1 == p2 and searcher.n_proxy == 1
        l1, l2 = searcher.real_loss(cfg), searcher.real_loss(cfg)
        assert l1 == l2 and searcher.n_real == 1

    def test_proxy_nonnegative_mi(self, searcher):
        cfg = searcher.space.sample(np.random.default_rng(2))
        assert searcher.proxy_score(cfg) >= 0.0


class TestGenerateQueries:
    def test_warmup_path(self, searcher):
        pairs, stats = generate_queries(searcher, TINY, seed=0, use_warmup=True)
        assert 1 <= len(pairs) <= TINY.queries_per_template
        losses = [l for _, l in pairs]
        assert losses == sorted(losses)
        assert stats.n_proxy_evals > 0
        # real evals = warmup_topk seeds + gen_iters (minus memo repeats)
        assert stats.n_real_evals <= TINY.warmup_topk + TINY.gen_iters

    def test_nowu_path_skips_proxy(self, tmall_ctx):
        s = PoolSearcher(tmall_ctx.space(("category",)), tmall_ctx.executor,
                         tmall_ctx.evaluator("LR"), make_proxy("MI", task="binary"),
                         prefix="tnowu")
        pairs, stats = generate_queries(s, TINY, seed=0, use_warmup=False)
        assert stats.n_proxy_evals == 0
        assert len(pairs) >= 1

    def test_deterministic(self, tmall_ctx):
        def run(prefix):
            s = PoolSearcher(tmall_ctx.space(("brand",)), tmall_ctx.executor,
                             tmall_ctx.evaluator("LR"), make_proxy("MI", task="binary"),
                             prefix=prefix)
            pairs, _ = generate_queries(s, TINY, seed=5)
            return [(f.sql, round(l, 12)) for f, l in pairs]

        assert run("d1") == run("d2")

    def test_top_m_respected(self, searcher):
        pairs, _ = generate_queries(searcher, TINY, seed=1, top_m=1)
        assert len(pairs) == 1
