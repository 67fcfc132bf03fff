"""Span tracing of FeatAug's layers, applied from outside the program.

Every hook here replaces a public function or method of ``repro`` with a
wrapper for the life of one benchmark process; nothing inside ``src/`` is
instrumented. A span is (name, start, end, parent, run id); the layer is the
name's first dotted component. Spans stay in memory and are summarised when
the run ends.

``Recorder`` is the one hook that is on in untraced runs too: it wraps
``QueryExecutor.feature_frame`` to capture each candidate ``Query`` (for the
correctness gate and ``candidates_per_s``) and the SQL sequence (for the
determinism hash).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import evaluator as evaluator_mod
from repro.core import executor as executor_mod
from repro.core import feataug as feataug_mod
from repro.core import tpe as tpe_mod


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass
class SearchRecord:
    """What one search asked the executor for, in order."""

    queries: dict = field(default_factory=dict)   # feature name -> Query
    sql: list = field(default_factory=list)       # view-normalised SQL per call


class Recorder:
    """Captures ``feature_frame`` calls into the current ``SearchRecord``."""

    def __init__(self):
        self.current: SearchRecord | None = None
        orig = executor_mod.QueryExecutor.feature_frame
        recorder = self

        def feature_frame(ex, q, name):
            ff = orig(ex, q, name)
            if recorder.current is not None:
                recorder.current.queries[name] = q
                recorder.current.sql.append(ff.sql.replace(ex.view, "R"))
            return ff

        self._restore = [(executor_mod.QueryExecutor, "feature_frame", orig)]
        executor_mod.QueryExecutor.feature_frame = feature_frame

    def close(self) -> None:
        for owner, attr, orig in self._restore:
            setattr(owner, attr, orig)


class Tracer:
    """In-memory span recorder plus the per-boundary counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, list] = {}
        self.run: int | None = None
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording ----------------------------------------------------------
    def count(self, key: str, value=1) -> None:
        if self.run is not None:
            self.counts.setdefault(key, []).append((self.run, value))

    def span(self, name: str, fn, *args, **kwargs):
        if self.run is None:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        sp = Span(name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else None, self.run)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def patch(self, owner, attr: str, make) -> None:
        orig = getattr(owner, attr)
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    # -- the layer hooks ----------------------------------------------------
    def install(self) -> None:
        t = self
        self.patch(feataug_mod, "QueryExecutor",
                   lambda f: t.wrap("context.executor_init", f))
        self.patch(feataug_mod, "profile_domains",
                   lambda f: t.wrap("space.profile_domains", f))
        self.patch(executor_mod, "build_sql", lambda f: t.wrap("sqlgen.build_sql", f))
        self.patch(evaluator_mod, "merge_features",
                   lambda f: t.wrap("merge.merge_features", f))
        self.patch(evaluator_mod.DownstreamEvaluator, "feature_on",
                   lambda f: t.wrap("merge.feature_on", f))
        self.patch(evaluator_mod.DownstreamEvaluator, "valid_loss",
                   lambda f: t.wrap("evaluator.valid_loss", f))
        self.patch(evaluator_mod.DownstreamEvaluator, "evaluate",
                   lambda f: t.wrap("evaluator.evaluate", f))

        def run_sql(orig):
            def traced(ex, sql):
                before, t0 = ex.n_queries, time.perf_counter()
                try:
                    return t.span("executor.run_sql", orig, ex, sql)
                except Exception:
                    t.count("executor.failed_queries")
                    raise
                finally:
                    if ex.n_queries != before:  # a memo miss went to Spark
                        t.count("executor.miss_ms", 1e3 * (time.perf_counter() - t0))
            return traced
        self.patch(executor_mod.QueryExecutor, "run_sql", run_sql)

        def make_proxy(orig):
            def traced(*args, **kwargs):
                return t.wrap("proxy.score", orig(*args, **kwargs))
            return traced
        self.patch(feataug_mod, "make_proxy", make_proxy)

        def suggest(orig):
            def traced(tpe, trials):
                cfg = t.span("tpe.suggest", orig, tpe, trials)
                t.count("tpe.distinct", int(cfg not in {c for c, _ in trials}))
                return cfg
            return traced
        self.patch(tpe_mod.TPE, "suggest", suggest)

        def generate_queries(orig):
            def traced(*args, **kwargs):
                pairs, st = t.span("generation.generate_queries", orig, *args, **kwargs)
                t.count("generation.pairs", len(pairs))
                t.count("generation.proxy_evals", st.n_proxy_evals)
                t.count("generation.real_evals", st.n_real_evals)
                return pairs, st
            return traced
        self.patch(feataug_mod, "generate_queries", generate_queries)

        def identify_templates(orig):
            def traced(attrs, effectiveness, *args, **kwargs):
                node = t.wrap("qti.node", effectiveness)
                combos, st = t.span("qti.identify_templates", orig, attrs, node,
                                    *args, **kwargs)
                t.count("qti.nodes_evaluated", st.n_nodes_evaluated)
                t.count("qti.nodes_predicted_only", st.n_nodes_predicted_only)
                return combos, st
            return traced
        self.patch(feataug_mod, "identify_templates", identify_templates)

    def close(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- summaries ----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        out = [sp.end - sp.start for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent] -= sp.end - sp.start
        return out

    def per_run(self, runs) -> list[dict]:
        """Totals per traced run id (one search): per span name ``.calls``,
        ``.self_s`` and ``.durations``; per layer ``.self_s`` and busy time
        ``.s`` (its outermost spans); and every counter's values."""
        selfs = self.self_times()
        res = {run: {"spans": 0} for run in runs}
        for sp, st in zip(self.spans, selfs):
            d = res.get(sp.run)
            if d is None:
                continue
            dur = sp.end - sp.start
            d["spans"] += 1
            d[f"{sp.name}.calls"] = d.get(f"{sp.name}.calls", 0) + 1
            d[f"{sp.name}.self_s"] = d.get(f"{sp.name}.self_s", 0.0) + st
            d.setdefault(f"{sp.name}.durations", []).append(dur)
            d[f"{sp.layer}.self_s"] = d.get(f"{sp.layer}.self_s", 0.0) + st
            if sp.parent is None or self.spans[sp.parent].layer != sp.layer:
                d[f"{sp.layer}.s"] = d.get(f"{sp.layer}.s", 0.0) + dur
        for key, vals in self.counts.items():
            for run, v in vals:
                if run in res:
                    res[run].setdefault(key, []).append(v)
        return [res[r] for r in runs]


#: layers whose spans make up a search, in call-graph order
SEARCH_LAYERS = ("feataug", "qti", "generation", "tpe", "executor", "sqlgen",
                 "merge", "proxy", "evaluator")


def median(xs) -> float:
    return float(np.median(xs)) if len(xs) else float("nan")


def layer_metrics(tracer: Tracer, setup_runs, cold_runs, warm_traced, warm_plain_s,
                  kept: list[int]) -> tuple[dict[str, tuple[float, str]], dict]:
    """The per-layer metrics: medians over the run's searches of each one's
    totals. ``warm_traced`` holds (run id, search_s) of the traced warm
    reruns, ``warm_plain_s`` the search_s of the untraced ones. Values that
    are 0 or may be negative by design (failed queries, warm Spark queries,
    tracing overhead) go to the second dict, for the info line."""
    setup, cold = tracer.per_run(setup_runs), tracer.per_run(cold_runs)
    warm = tracer.per_run([r for r, _ in warm_traced])

    def med(key, src=cold):
        return median([d.get(key, 0.0) for d in src])

    def med_n(key, src=cold):
        return median([len(d.get(key, ())) for d in src])

    def med_sum(key, src=cold):
        return median([sum(d.get(key, ())) for d in src])

    misses = [v for d in cold for v in d.get("executor.miss_ms", ())]
    pairs = [sum(d.get("generation.pairs", ())) for d in cold]
    m = {
        "datasets.generate_s": (med("datasets.generate.self_s", setup), "s"),
        "context.executor_init_s": (med("context.executor_init.self_s", setup), "s"),
        "space.profile_domains_s": (med("space.profile_domains.self_s", setup), "s"),
        "executor.run_sql.calls": (med("executor.run_sql.calls"), "count"),
        "executor.run_sql.s": (med("executor.s"), "s"),
        "executor.spark_queries": (med_n("executor.miss_ms"), "count"),
        "executor.cache_hit_ratio": (median([1 - len(d.get("executor.miss_ms", ()))
                                             / max(1, d.get("executor.run_sql.calls", 0))
                                             for d in cold]), "ratio"),
        "executor.query_ms.p50": (float(np.percentile(misses, 50)), "ms"),
        "executor.query_ms.p95": (float(np.percentile(misses, 95)), "ms"),
        "sqlgen.build_sql.calls": (med("sqlgen.build_sql.calls"), "count"),
        "sqlgen.build_sql.s": (med("sqlgen.s"), "s"),
        "merge.calls": (med("merge.merge_features.calls"), "count"),
        "merge.s": (med("merge.s"), "s"),
        "proxy.calls": (med("proxy.score.calls"), "count"),
        "proxy.s": (med("proxy.s"), "s"),
        "evaluator.fits": (median([d.get("evaluator.valid_loss.calls", 0)
                                   + d.get("evaluator.evaluate.calls", 0) for d in cold]),
                           "count"),
        "evaluator.valid_loss.self_s": (med("evaluator.valid_loss.self_s"), "s"),
        "evaluator.evaluate.self_s": (med("evaluator.evaluate.self_s"), "s"),
        "tpe.suggest.calls": (med("tpe.suggest.calls"), "count"),
        "tpe.suggest.s": (med("tpe.s"), "s"),
        "tpe.distinct_ratio": (median([np.mean(d.get("tpe.distinct", [1])) for d in cold]),
                               "ratio"),
        "generation.generate_queries.self_s": (med("generation.generate_queries.self_s"), "s"),
        "generation.proxy_evals": (med_sum("generation.proxy_evals"), "count"),
        "generation.real_evals": (med_sum("generation.real_evals"), "count"),
        "qti.identify_templates.s": (med("qti.s"), "s"),
        "qti.nodes_evaluated": (med_sum("qti.nodes_evaluated"), "count"),
        "qti.nodes_predicted_only": (med_sum("qti.nodes_predicted_only"), "count"),
        "qti.node_s.p50": (median([median(d.get("qti.node.durations", ())) for d in cold]),
                           "s"),
        "feataug.features_kept": (median(kept), "count"),
        "feataug.dedup_kept_ratio": (median([k / max(1, p) for k, p in zip(kept, pairs)]),
                                     "ratio"),
    }
    for layer in SEARCH_LAYERS:
        m[f"{layer}.self_s"] = (med(f"{layer}.self_s"), "s")
    for layer in SEARCH_LAYERS:
        m[f"warm.{layer}.self_s"] = (med(f"{layer}.self_s", warm), "s")
    traced_s = median([s for _, s in warm_traced])
    m["trace.spans"] = (med("spans"), "count")
    m["trace.warm_search_s"] = (traced_s, "s")
    info = {
        "executor.failed_queries": med_n("executor.failed_queries"),
        "warm.executor.spark_queries": med_n("executor.miss_ms", warm),
        "trace.overhead_s": traced_s - median(warm_plain_s),
    }
    return m, info
