"""Covtype stand-in — forest cover type (multiclass-4, macro-F1).

Single-table scenario (§VII-C): the table *is its own relevant table*, keyed
by ``data_index`` (a one-to-one relationship). Class logits are built from
*gated interactions* — e.g. "slope matters only at high elevation" — which a
linear model cannot express on the raw columns but which predicate-aware
aggregations capture exactly (``AVG(slope) WHERE elevation >= ...`` over a
1-row group is ``slope·I(elevation≥…)``). This reproduces the paper's
pattern: Featuretools features merely duplicate the raw columns (tiny LR
gain), while FeatAug's gated features lift LR strongly and XGB/RF mildly.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets.base import DatasetBundle, standardise


def covtype(spark: SparkSession, *, scale: float = 1.0, seed: int = 7) -> DatasetBundle:
    rng = np.random.default_rng(seed + 4)
    n = max(80, int(2200 * scale))

    elevation = rng.normal(2800, 400, n)
    slope = rng.gamma(3.0, 5.0, n)
    aspect = rng.uniform(0, 360, n)
    h_hydro = rng.gamma(2.0, 120.0, n)
    v_hydro = rng.normal(50, 60, n)
    h_road = rng.gamma(2.0, 800.0, n)
    hs_9am = rng.normal(212, 27, n).clip(0, 254)
    hs_noon = rng.normal(223, 20, n).clip(0, 254)
    soil = rng.integers(1, 11, n)

    u = standardise(elevation).to_numpy()
    v = standardise(slope).to_numpy()
    w = standardise(h_hydro).to_numpy()
    logits = np.column_stack(
        [
            2.0 * v * (u > 0.5) + 0.3 * standardise(hs_noon).to_numpy(),
            2.0 * w * (u < -0.5) + 0.3 * standardise(aspect).to_numpy(),
            1.8 * v * (w > 0.5) - 0.3 * standardise(h_road).to_numpy(),
            1.0 * (np.abs(u) < 0.4).astype(float),
        ]
    ) + rng.normal(0, 0.5, (n, 4))
    label = np.argmax(logits, axis=1)

    D = pd.DataFrame(
        {
            "data_index": np.arange(1, n + 1),
            "elevation": np.round(elevation, 1),
            "aspect": np.round(aspect, 1),
            "slope": np.round(slope, 2),
            "h_dist_hydro": np.round(h_hydro, 1),
            "v_dist_hydro": np.round(v_hydro, 1),
            "h_dist_road": np.round(h_road, 1),
            "hillshade_9am": np.round(hs_9am, 1),
            "hillshade_noon": np.round(hs_noon, 1),
            "soil_type": soil,
            "label": label,
        }
    )
    R = D.drop(columns=["label"]).copy()

    base = ("elevation", "aspect", "slope", "h_dist_hydro", "v_dist_hydro",
            "h_dist_road", "hillshade_9am", "hillshade_noon", "soil_type")
    return DatasetBundle(
        name="Covtype",
        D=D,
        R=spark.createDataFrame(R),
        keys=("data_index",),
        base_features=base,
        agg_attrs=("slope", "h_dist_hydro", "elevation", "aspect",
                   "hillshade_9am", "v_dist_hydro"),
        where_attrs=("elevation", "slope", "h_dist_hydro", "aspect",
                     "hillshade_noon", "soil_type"),
        task="multiclass",
        info={"n_tables": 1, "planted": "gated interactions, e.g. slope·I(elevation high)"},
    )
