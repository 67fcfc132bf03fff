"""Query Template Identification (§VI): beam search + two optimizations.

The space of WHERE-attribute combinations ``P ⊆ attr`` is a tree whose
layer ℓ holds the size-ℓ combos (Figure 4). Beam search expands only the
top-β nodes per layer. Two optimizations make it practical:

- **O1 — low-cost proxy** (§VI-C1): a node's effectiveness is the best
  *proxy* score (default: MI) found by a short search in its query pool,
  instead of the best real validation loss;
- **O2 — promising-template predictor** (§VI-C2): a ridge regressor over
  one-hot combo encodings, trained layer-by-layer on (encoding, proxy)
  pairs, pre-ranks each layer's children so only the predicted top-β get
  proxy-evaluated.

Nodes of one layer do not depend on each other, so ``effectiveness`` scores
a whole layer per call — every singleton first, then each layer's
(predicted) top-β children — and the full pipeline runs the layer's node
searches in lockstep rounds (``tpe.run_lockstep``).

Returns the top-n combos over *all* evaluated nodes, which become the query
templates handed to the SQL Query Generation component.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import BudgetProfile
from repro.core.template import one_hot


_ALPHA = 0.5  # TemplatePredictor's ridge penalty


class TemplatePredictor:
    """Ridge regression over one-hot combo encodings (optimization O2)."""

    def __init__(self, universe: tuple[str, ...]):
        self.universe = universe
        self._w: np.ndarray | None = None

    def fit(self, combos: list, scores: list[float]) -> "TemplatePredictor":
        X = np.vstack([one_hot(c, self.universe) for c in combos])
        X = np.hstack([X, np.ones((X.shape[0], 1))])
        y = np.asarray(scores, dtype=float)
        d = X.shape[1]
        reg = _ALPHA * np.eye(d)
        reg[-1, -1] = 0.0
        self._w = np.linalg.solve(X.T @ X + reg, X.T @ y)
        return self

    def predict(self, combos: list) -> np.ndarray:
        X = np.vstack([one_hot(c, self.universe) for c in combos])
        X = np.hstack([X, np.ones((X.shape[0], 1))])
        return X @ self._w


@dataclass
class QTIStats:
    n_nodes_evaluated: int = 0
    n_nodes_predicted_only: int = 0


def identify_templates(attrs: tuple[str, ...], effectiveness, budget: BudgetProfile
                       ) -> tuple[list[tuple[str, ...]], QTIStats]:
    """Beam-search the combo tree; ``effectiveness(combos) -> scores``
    (higher = better, one per combo) evaluates one layer's nodes — the short
    in-pool proxy searches in the full pipeline. Returns (the top
    ``budget.n_templates`` combos, sorted attr-wise, and stats)."""
    attrs = tuple(attrs)
    beta = budget.qti_beam
    depth = min(budget.qti_depth, len(attrs))
    stats = QTIStats()
    scores: dict[tuple[str, ...], float] = {}

    def canon(c) -> tuple[str, ...]:
        return tuple(a for a in attrs if a in set(c))

    def evaluate(layer: list[tuple[str, ...]]) -> None:
        scores.update(zip(layer, map(float, effectiveness(layer))))
        stats.n_nodes_evaluated += len(layer)

    # Layer 1: every singleton is evaluated (paper cost: |attr| · cost_p).
    layer = [canon((a,)) for a in attrs]
    evaluate(layer)
    beam = sorted(layer, key=lambda c: -scores[c])[:beta]

    predictor = TemplatePredictor(attrs)
    for _ in range(2, depth + 1):
        children: list[tuple[str, ...]] = []
        seen = set(scores)
        for node in beam:
            for a in attrs:
                if a in node:
                    continue
                child = canon((*node, a))
                if child not in seen:
                    children.append(child)
                    seen.add(child)
        if not children:
            break
        # A node whose every query failed scores -inf; it cannot train the
        # ridge regressor.
        known = {c: s for c, s in scores.items() if np.isfinite(s)}
        if len(children) > beta and known:
            predictor.fit(list(known), list(known.values()))
            pred = predictor.predict(children)
            stats.n_nodes_predicted_only += len(children) - beta
            order = np.argsort(-pred)[:beta]
            children = [children[i] for i in order]
        evaluate(children)
        beam = sorted(children, key=lambda c: -scores[c])[:beta]

    top = sorted(scores.items(), key=lambda t: -t[1])[:budget.n_templates]
    return [c for c, _ in top], stats
