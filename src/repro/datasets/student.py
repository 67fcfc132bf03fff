"""Student stand-in — game-play answer correctness (binary, AUC).

Training table = game sessions; relevant table = the time-series event log.
Planted signal: *mean elapsed time on checkpoint events in mid-game levels*
(``AVG(elapsed) WHERE event_name='checkpoint' AND 5<=level<=12``) — slow
checkpoint progress predicts a wrong answer. Every session gets some
checkpoint rows so the signal feature is defined for most keys.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets.base import DatasetBundle, standardise

EVENTS = np.array([
    "navigate_click", "person_click", "cutscene_click",
    "object_click", "checkpoint", "notification_click",
])
EVENT_P = np.array([0.26, 0.15, 0.12, 0.19, 0.21, 0.07])


def student(spark: SparkSession, *, scale: float = 1.0, seed: int = 7) -> DatasetBundle:
    rng = np.random.default_rng(seed + 2)
    n_sessions = max(60, int(1500 * scale))
    n_events = max(900, int(28000 * scale))

    # per-session "slowness" latent drives checkpoint elapsed times
    slowness = rng.normal(0, 1, n_sessions)

    sid = rng.integers(1, n_sessions + 1, n_events)
    event = rng.choice(EVENTS, n_events, p=EVENT_P / EVENT_P.sum())
    level = rng.integers(0, 23, n_events)
    is_signal = (event == "checkpoint") & (level >= 5) & (level <= 15)
    base_elapsed = np.exp(rng.normal(6.0, 0.5, n_events))
    elapsed = base_elapsed * np.where(is_signal, np.exp(1.1 * slowness[sid - 1]), 1.0)
    R = pd.DataFrame(
        {
            "session_id": sid,
            "event_name": event,
            "level": level,
            "room": rng.choice([f"r_{i}" for i in range(1, 9)], n_events),
            "fqid": rng.choice([f"f_{i}" for i in range(1, 31)], n_events),
            "elapsed": np.round(elapsed, 1),
            "hover": np.round(np.exp(rng.normal(3.0, 1.0, n_events)), 1),
        }
    )

    keys = np.arange(1, n_sessions + 1)
    device = rng.integers(0, 2, n_sessions)
    n_ev = R.groupby("session_id").size().reindex(keys, fill_value=0).to_numpy(float)
    score = (
        -1.9 * standardise(slowness)
        + 0.3 * standardise(n_ev)
        + 0.2 * (device - 0.5)
        + 0.9 * rng.normal(0, 1, n_sessions)
    )
    label = (score > np.quantile(score, 0.5)).astype(int)

    D = pd.DataFrame(
        {"session_id": keys, "device": device,
         "n_events": n_ev.astype(int), "label": label}
    )

    return DatasetBundle(
        name="Student",
        D=D,
        R=spark.createDataFrame(R),
        keys=("session_id",),
        base_features=("device", "n_events"),
        agg_attrs=("elapsed", "hover", "level"),
        where_attrs=("event_name", "level", "room", "fqid", "hover"),
        task="binary",
        info={"n_tables": 2,
              "planted": "AVG(elapsed) WHERE event_name='checkpoint' AND level BETWEEN 5 AND 15"},
    )
