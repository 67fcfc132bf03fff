"""Baselines from the paper's §VII-A3.

Each returns the features it chooses; the experiment harness trains and
scores the downstream model on them.

- :mod:`repro.baselines.featuretools_lite` — Featuretools-style exhaustive
  predicate-free aggregation features ("FT"),
- :mod:`repro.baselines.random_search` — the "Random" baseline (random
  templates + random pool queries),
- :mod:`repro.baselines.arda` — ARDA's random-injection feature selection
  (one-to-one tables),
- :mod:`repro.baselines.autofeature` — AutoFeature's MAB / DQN augmentation
  (one-to-one tables).
"""
from repro.baselines.arda import arda_features
from repro.baselines.autofeature import autofeature_dqn, autofeature_mab
from repro.baselines.featuretools_lite import featuretools_features
from repro.baselines.random_search import random_features

__all__ = ["arda_features", "autofeature_dqn", "autofeature_mab",
           "featuretools_features", "random_features"]
