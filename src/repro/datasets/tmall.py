"""Tmall stand-in — repeat-buyer prediction (binary, AUC).

Schema mirrors the IJCAI-15 repeat-buyer data: the training table is
(user_id, merchant_id) pairs with user profile features; the relevant table
is the joined user-behaviour log. The composite foreign key
K = [user_id, merchant_id] exercises the paper's ``k ⊆ K`` subset encoding.

Planted signal: a pair is a repeat buyer mostly because of its *recent
purchase count at that merchant* —
``COUNT(*) WHERE action_type='purchase' AND ts_day >= 150`` — diluted by a
weaker all-action volume signal (what a predicate-free Featuretools COUNT
sees) and profile/noise terms.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets.base import DatasetBundle, standardise

ACTIONS = np.array(["click", "cart", "favorite", "purchase"])
ACTION_P = np.array([0.62, 0.13, 0.10, 0.15])


def tmall(spark: SparkSession, *, scale: float = 1.0, seed: int = 7) -> DatasetBundle:
    rng = np.random.default_rng(seed)
    n_pairs = max(60, int(2400 * scale))
    n_users = max(20, int(900 * scale))
    n_merchants = max(6, int(60 * scale))
    n_logs = max(600, int(36000 * scale))

    pairs = pd.DataFrame(
        {"user_id": rng.integers(1, n_users + 1, 2 * n_pairs),
         "merchant_id": rng.integers(1, n_merchants + 1, 2 * n_pairs)}
    ).drop_duplicates().head(n_pairs).reset_index(drop=True)
    n_pairs = len(pairs)

    # skewed activity per pair
    w = rng.gamma(0.8, 1.0, n_pairs)
    pick = rng.choice(n_pairs, size=n_logs, p=w / w.sum())
    R = pd.DataFrame(
        {
            "user_id": pairs["user_id"].to_numpy()[pick],
            "merchant_id": pairs["merchant_id"].to_numpy()[pick],
            "action_type": rng.choice(ACTIONS, n_logs, p=ACTION_P),
            "category": rng.choice([f"cat_{i}" for i in range(1, 13)], n_logs),
            "brand": rng.choice([f"b_{i}" for i in range(1, 21)], n_logs),
            "ts_day": rng.integers(0, 181, n_logs),
            "price": np.round(np.exp(rng.normal(3.2, 0.8, n_logs)), 2),
            "quantity": rng.integers(1, 6, n_logs),
        }
    )

    keys = ["user_id", "merchant_id"]
    recent_purch = R[(R["action_type"] == "purchase")
                     & (R["ts_day"] >= 150)].groupby(keys).size()
    clicks = R[R["action_type"] == "click"].groupby(keys).size()
    key = pd.MultiIndex.from_frame(pairs[keys])
    rp = recent_purch.reindex(key, fill_value=0).to_numpy(dtype=float)
    ck = clicks.reindex(key, fill_value=0).to_numpy(dtype=float)

    age = rng.integers(18, 61, n_pairs)
    gender = rng.integers(0, 3, n_pairs)
    score = (
        1.6 * standardise(rp)
        + 0.45 * standardise(np.log1p(ck))
        + 0.35 * standardise(age)
        + 1.0 * rng.normal(0, 1, n_pairs)
    )
    label = (score > np.quantile(score, 0.65)).astype(int)

    D = pairs.copy()
    D["age"] = age
    D["gender"] = gender
    D["label"] = label

    return DatasetBundle(
        name="Tmall",
        D=D,
        R=spark.createDataFrame(R),
        keys=("user_id", "merchant_id"),
        base_features=("age", "gender"),
        agg_attrs=("price", "ts_day", "quantity"),
        where_attrs=("action_type", "category", "brand", "ts_day", "price"),
        task="binary",
        info={"n_tables": 3, "planted": "COUNT WHERE action_type='purchase' AND ts_day>=150"},
    )
