"""One benchmark run of one workload: a warm-up, then cold searches, each
followed by warm reruns on its context, then the checks.

Imported by ``run.py`` once ``src`` is on the path and Spark is up.
"""
from __future__ import annotations

import json
import resource
import shutil
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import checks
import spans
from repro.core.config import BENCH
from repro.core.feataug import DatasetContext, run_feataug
from repro.datasets import ONE_TO_MANY
from repro.models.metrics import higher_is_better

MIN_WARM = 3   # warm reruns per cold search, at least

E2E_UNITS = {"search_s": "s", "warm_search_s": "s", "candidates_per_s": "1/s",
             "setup_s": "s", "test_loss": "loss", "driver_peak_rss_mb": "MiB"}


def cached_mb(spark) -> float:
    """Spark block-manager storage of every cached RDD (the context's R)."""
    infos = spark.sparkContext._jsc.sc().getRDDStorageInfo()
    return sum(i.memSize() for i in infos) / 2**20


class Bench:
    """One run of one workload: set-ups, searches, checks and their records."""

    def __init__(self, spark, wl, seed: int, trace: bool, work: Path):
        self.spark, self.wl, self.seed, self.trace = spark, wl, seed, trace
        self.work = work
        self.oracle_dir = work / "oracle"
        self.gen = ONE_TO_MANY[wl.dataset]
        self.budget = BENCH.scaled(**wl.budget)
        self.recorder = spans.Recorder()
        self.tracer = spans.Tracer()
        if trace:
            self.tracer.install()
        self._ids = iter(range(1, 1 << 30))
        self.failed = self.attempted = 0
        self.oracle_jobs: list[tuple] = []   # (R parquet dir, jobs) per cold search
        self.setups: list[float] = []
        self.setup_runs: list[int] = []
        self.cached: list[float] = []
        self.searches: list[dict] = []

    def close(self) -> None:
        self.recorder.close()
        self.tracer.close()
        shutil.rmtree(self.oracle_dir, ignore_errors=True)

    def warmup(self) -> None:
        """Untimed: one search with this workload's budget, which JIT-compiles
        the Spark and Arrow paths for its query shapes; LR is enough for that."""
        bundle = self.gen(self.spark, scale=self.wl.warmup_scale, seed=self.seed)
        ctx = DatasetContext(self.spark, bundle, self.budget, seed=self.seed)
        run_feataug(ctx, "LR", seed=self.seed)
        ctx.close()

    def data_seed(self, j: int) -> int:
        """Seed of the data of cold search ``j``: derived from --seed, and
        distinct across runs' seeds."""
        return self.seed * self.wl.cold + j

    def setup(self, data_seed: int):
        """Timed: dataset-bundle generation + ``DatasetContext``."""
        run = next(self._ids) if self.trace else None
        self.tracer.run = run
        t0 = time.perf_counter()
        try:
            bundle = self.tracer.span("datasets.generate", self.gen, self.spark,
                                      scale=self.wl.scale, seed=data_seed)
            ctx = DatasetContext(self.spark, bundle, self.budget, seed=data_seed)
        finally:
            self.tracer.run = None
        self.setups.append(time.perf_counter() - t0)
        self.setup_runs.append(run)
        self.cached.append(cached_mb(self.spark))
        return ctx

    def search(self, ctx, seed: int, *, kind: str, traced: bool) -> dict | None:
        """One timed ``run_feataug``; cold searches also pass the gate."""
        rec = self.recorder.current = spans.SearchRecord()
        run = next(self._ids) if traced else None
        self.tracer.run = run
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.tracer.span("feataug.run_feataug", run_feataug, ctx,
                                   self.wl.model, seed=seed)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        finally:
            self.tracer.run = None
            self.recorder.current = None
        dt = time.perf_counter() - t0
        m = out.result.test_metric
        s = {"kind": kind, "data_seed": ctx.seed, "seed": seed, "search_s": dt,
             "run": run, "candidates": len(set(rec.sql)), "sql_hash": checks.sql_hash(rec.sql),
             "test_loss": 1.0 - m if higher_is_better(ctx.bundle.task) else m,
             "n_features": len(out.features), "problems": []}
        if kind == "cold":
            s["problems"], jobs = checks.gate(self.spark, out, rec, ctx.executor.view,
                                              self.budget)
            r_dir = self.oracle_dir / f"R{len(self.oracle_jobs)}.parquet"
            ctx.bundle.R.write.mode("overwrite").parquet(str(r_dir))
            self.oracle_jobs.append((r_dir, jobs))
        self.searches.append(s)
        return s

    def finish_checks(self) -> None:
        """The DuckDB half of the cold searches' gates, then determinism:
        searches on one dataset with one search seed must emit the same SQL
        and the same loss."""
        cold = [s for s in self.searches if s["kind"] == "cold"]
        for s, problems in zip(cold, checks.oracle_problems(self.oracle_jobs, self.work)):
            s["problems"] += problems
        first: dict[tuple, dict] = {}
        for s in self.searches:
            ref = first.setdefault((s["data_seed"], s["seed"]), s)
            if (s["sql_hash"], s["test_loss"]) != (ref["sql_hash"], ref["test_loss"]):
                s["problems"].append("disagrees with the first search on its data and seed")
        self.failed += sum(1 for s in self.searches if s["problems"])


def within(t_start: float, last: float, window: float) -> bool:
    """Would one more step of ``last`` seconds end inside the window?"""
    return time.perf_counter() - t_start + last <= window


def run(spark, wl, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run workload ``wl``; print the info line and return the result."""
    b = Bench(spark, wl, seed, trace, work)
    phases: dict[str, float] = {}
    t = time.perf_counter()
    b.warmup()
    phases["warmup"] = time.perf_counter() - t

    # A fixed amount of work, whatever the machine's speed: set-ups without a
    # search, then cold searches 0 .. cold-1, each on a fresh context over its
    # own dataset. Search seeds do not follow --seed, so runs differ in their
    # data but not in the TPE draws, and every run at one seed does the same
    # searches. Several datasets per run damp the dataset-to-dataset spread.
    # Each cold search is followed by warm reruns on its context, whose memo
    # now holds every query (the Table VII/VIII sweep pattern), for a share of
    # --seconds and at least MIN_WARM times; they repeat identical work, so
    # their count does not change what is measured. In traced runs they
    # alternate untraced/traced: the two medians give the tracing overhead.
    t = time.perf_counter()
    for i in range(wl.setups - wl.cold):
        b.setup(b.data_seed(i % wl.cold)).close()
    cold, warm, settings = [], [], {}
    for j in range(wl.cold):
        ctx = b.setup(b.data_seed(j))
        s = b.search(ctx, j, kind="cold", traced=trace)
        reruns = []
        t0 = time.perf_counter()
        while s is not None:
            w = b.search(ctx, j, kind="warm", traced=trace and len(reruns) % 2 == 1)
            if w is None:
                break
            reruns.append(w)
            if len(reruns) >= MIN_WARM and not within(t0, w["search_s"], seconds / wl.cold):
                break
        settings = {
            "master": spark.sparkContext.master,
            "spark.sql.shuffle.partitions": spark.conf.get("spark.sql.shuffle.partitions"),
            "spark.driver.memory": spark.sparkContext.getConf().get("spark.driver.memory"),
            "r_partitions": ctx.executor.R.rdd.getNumPartitions(),
            "cores": spark.sparkContext.defaultParallelism,
        }
        ctx.close()
        if s is None or len(reruns) < MIN_WARM:
            break
        cold.append(s)
        warm += reruns
    phases["searches"] = time.perf_counter() - t
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    b.finish_checks()
    b.close()
    if len(cold) < wl.cold:
        return {"error": "a search raised; see the traceback above"}

    info = {
        "workload": asdict(wl), "seed": seed, "spark": settings, "phases_s": phases,
        "setup_s": b.setups,
        "searches": [{k: v for k, v in s.items() if k != "run"} for s in b.searches],
        "error_rate": {"value": b.failed / b.attempted, "unit": "ratio"},
    }
    result = {"correct": b.failed == 0, "attempted": b.attempted, "failed": b.failed}
    if trace:
        m, info["trace"] = spans.layer_metrics(
            b.tracer, b.setup_runs, [s["run"] for s in cold],
            [(s["run"], s["search_s"]) for s in warm if s["run"] is not None],
            [s["search_s"] for s in warm if s["run"] is None],
            [s["n_features"] for s in cold])
        m["context.cached_mb"] = (spans.median(b.cached), "MiB")
        m["trace.search_s"] = (spans.median([s["search_s"] for s in cold]), "s")
    else:
        m = {
            "search_s": spans.median([s["search_s"] for s in cold]),
            # Warm cost differs by up to 1.6x between datasets (the kept
            # features set the merge and fit work), so datasets are averaged.
            "warm_search_s": sum(spans.median([w["search_s"] for w in warm
                                               if w["data_seed"] == c["data_seed"]])
                                 for c in cold) / len(cold),
            "candidates_per_s": spans.median([s["candidates"] / s["search_s"] for s in cold]),
            "setup_s": spans.median(b.setups),
            "test_loss": spans.median([s["test_loss"] for s in cold]),
            "driver_peak_rss_mb": peak_rss_mb,
        }
        m = {k: (v, E2E_UNITS[k]) for k, v in m.items()}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    print(json.dumps({"info": info}))
    return {**result, "metrics": metrics}
