"""SQL Query Generation + QTI over a real (tiny) Spark context."""
import dataclasses
import math

import numpy as np
import pytest

from repro.core.config import TINY
from repro.core.generation import PoolSearcher, generate_queries
from repro.core.proxy import make_proxy

TOP_M = TINY.queries_per_template


@pytest.fixture()
def searcher(tmall_ctx):
    evaluator = tmall_ctx.evaluator("LR", seed=0)
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
        pairs, stats = generate_queries([searcher], TINY, seeds=[0], use_warmup=True,
                                        top_m=TOP_M, proxy_warm=[None])
        assert 1 <= len(pairs) <= TINY.queries_per_template
        losses = [l for _, l in pairs]
        assert losses == sorted(losses)
        assert stats.n_proxy_evals > 0
        # real evals = warmup_topk seeds + gen_iters (minus memo repeats)
        assert stats.n_real_evals <= TINY.warmup_topk + TINY.gen_iters

    def test_nowu_path_skips_proxy(self, tmall_ctx):
        s = PoolSearcher(tmall_ctx.space(("category",)), tmall_ctx.executor,
                         tmall_ctx.evaluator("LR", seed=0), make_proxy("MI", task="binary"),
                         prefix="tnowu")
        pairs, stats = generate_queries([s], TINY, seeds=[0], use_warmup=False,
                                        top_m=TOP_M, proxy_warm=[None])
        assert stats.n_proxy_evals == 0
        assert len(pairs) >= 1

    def test_deterministic(self, tmall_ctx):
        def run(prefix):
            s = PoolSearcher(tmall_ctx.space(("brand",)), tmall_ctx.executor,
                             tmall_ctx.evaluator("LR", seed=0), make_proxy("MI", task="binary"),
                             prefix=prefix)
            pairs, _ = generate_queries([s], TINY, seeds=[5], use_warmup=True,
                                        top_m=TOP_M, proxy_warm=[None])
            return [(f.sql, round(l, 12)) for f, l in pairs]

        assert run("d1") == run("d2")

    def test_top_m_respected(self, searcher):
        pairs, _ = generate_queries([searcher], TINY, seeds=[1], use_warmup=True,
                                    top_m=1, proxy_warm=[None])
        assert len(pairs) == 1


class TestLockstepPools:
    COMBOS = (("category",), ("action_type", "ts_day"))

    @staticmethod
    def _searcher(ctx, combo, prefix):
        return PoolSearcher(ctx.space(combo), ctx.executor, ctx.evaluator("LR", seed=0),
                            make_proxy("MI", task="binary"), prefix=prefix)

    @staticmethod
    def _rows(pairs):
        return [(f.name.split("_")[-1], f.sql, loss) for f, loss in pairs]

    def test_pools_together_equal_pools_alone(self, tmall_ctx):
        together = [self._searcher(tmall_ctx, c, f"lk{i}") for i, c in enumerate(self.COMBOS)]
        pairs, _ = generate_queries(together, TINY, seeds=[3, 4], use_warmup=True,
                                    top_m=TOP_M, proxy_warm=[None, None])
        alone = []
        for i, (c, seed) in enumerate(zip(self.COMBOS, (3, 4))):
            s = self._searcher(tmall_ctx, c, f"la{i}")
            alone += generate_queries([s], TINY, seeds=[seed], use_warmup=True,
                                      top_m=TOP_M, proxy_warm=[None])[0]
        assert self._rows(pairs) == self._rows(alone)
        assert sum(s.n_failed for s in together) == 0

    def test_failed_query_becomes_inf_trial(self, tmall_ctx, monkeypatch):
        a, b = (self._searcher(tmall_ctx, c, f"lf{i}") for i, c in enumerate(self.COMBOS))
        first: list = []
        decode = a.space.decode

        def broken_decode(cfg):
            # the first config the pool ever proposes queries a missing column
            first.append(cfg)
            q = decode(cfg)
            return dataclasses.replace(q, agg_attr="no_such_col") if cfg == first[0] else q

        monkeypatch.setattr(a.space, "decode", broken_decode)
        pairs, _ = generate_queries([a, b], TINY, seeds=[7, 8], use_warmup=True,
                                    top_m=TOP_M, proxy_warm=[None, None])
        assert a.n_failed + b.n_failed == 1
        assert a.frame(first[0]) is None and a.real_loss(first[0]) == math.inf
        assert pairs and all(math.isfinite(loss) for _, loss in pairs)
        assert not any("no_such_col" in f.sql for f, _ in pairs)
