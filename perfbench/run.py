"""FeatAug search benchmark: whole ``run_feataug`` searches, one at a time.

    python3 perfbench/run.py --workload tmall_lr_cold --seed 1 --seconds 3 --trace 0

A closed loop with one client: one driver process, Spark ``local[N]`` with
N = min(4, cores), and the next search starts when the previous one ended.
``--seed`` makes the inputs: cold search j of a run uses search seed j on
data seeded by ``--seed`` and j. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from spans recorded around the calls into each layer (see
``spans.py``). The last stdout line is the JSON result; README.md names every
metric and workload. This file holds the CLI, the workloads and the Spark
session; ``bench.py`` runs one workload.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_build" / "perfbench"
DRIVER_MEM = "2g"


@dataclass(frozen=True)
class Workload:
    dataset: str
    scale: float
    model: str
    budget: dict          # BENCH fields cut so a run fits its time slot
    warmup_scale: float   # data scale of the untimed JIT warm-up search
    setups: int           # timed set-ups per run, one per cold search included
    cold: int             # cold searches per run, search seeds 0 .. cold-1


_SMALL = dict(n_templates=2, queries_per_template=2, warmup_iters=5,
              warmup_topk=2, gen_iters=3, qti_depth=2, qti_samples=3)
WORKLOADS = {
    "tmall_lr_cold": Workload("Tmall", 0.6, "LR", _SMALL, 0.3, setups=6, cold=3),
    "merchant_xgb_large": Workload(
        "Merchant", 6.0, "XGB", {**_SMALL, "qti_samples": 2, "warmup_iters": 3, "gen_iters": 2},
        0.15, setups=1, cold=1),
}


def start_spark():
    from pyspark.sql import SparkSession

    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark")
    # Both JVMs (launcher and driver): temp files in the checkout, and no
    # hsperfdata file, which the JVM would write under /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={WORK / 'tmp'}"
    cores = min(4, os.cpu_count() or 1)
    # The same session settings as jobs/_common.py, plus a fixed master and
    # heap, and every scratch file kept inside the checkout.
    spark = (
        SparkSession.builder.master(f"local[{cores}]").appName("perfbench")
        .config("spark.driver.memory", DRIVER_MEM)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", str(WORK / "spark"))
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for the JVM it launched to exit."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=3,
                    help="window of the warm reruns, split over the cold searches "
                         "(at least 3 each); the set-ups and cold searches are a "
                         "fixed number per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "core" / "feataug.py").is_file():
        print(f"perfbench: no FeatAug sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    for d in ("spark", "tmp"):
        (WORK / d).mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    import tempfile
    tempfile.tempdir = None  # re-read TMPDIR

    from bench import run

    spark = start_spark()
    try:
        result = run(spark, WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), WORK)
    finally:
        stop_spark(spark)
    if "error" in result:
        print(f"perfbench: {result['error']}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
