"""Ranking analyses over per-setup metrics.

The weighted score ``alpha * latency_norm + (1 - alpha) * cost_norm`` is
swept over an evenly spaced alpha grid; per alpha the winning setup is the
score argmin. Exact score ties are broken by lower raw cost, then lower raw
latency, then canonical setup name, which keeps reports reproducible even
when many setups coincide numerically.

Latency and cost are min-max normalized over every setup, but only the
Pareto front is scored. This picks the same winner as scoring every setup.
Let a setup D be dominated by a setup F: F is <= in both raw values and <
in one. Each float step of the score is monotone in its inputs:
``v - lo`` and the division by ``hi - lo > 0`` (or the constant 0.0),
then ``alpha * x`` and ``(1 - alpha) * y`` for weights in [0, 1], then
their sum, since IEEE rounding never reverses an order. So F scores <= D
at every alpha, and F comes first in (cost, latency, name) order, so D is
never the tie-broken argmin. Every dominated setup is dominated by one on
the front, since dominance is a strict order on a finite set, and the
front is scored in that same order. The front comes from one sort of
every setup by (cost, latency): only a setup earlier in that order can
dominate a later one, so a setup is on the front exactly when it is faster
than every setup before it, or an exact repeat of the front point before
it (Kung, Luccio & Preparata, 1975). Only front rows become
``SetupMetrics``. All values must be finite: NaN breaks the ordering, so it
is rejected.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .app import AppGraph, sync_skeleton
from .fusion import FusionPartition, FusionSetup, fuse, split_setup_name
from .pricing import MetricTable, SetupMetrics


class AnalysisError(ValueError):
    """Raised for invalid analysis inputs."""


@dataclass(frozen=True)
class AlphaGrid:
    """Evenly spaced weights gamma / (steps - 1) for gamma in 0..steps-1."""

    steps: int = 10001

    def __post_init__(self) -> None:
        if self.steps < 2:
            raise AnalysisError("alpha grid needs at least 2 steps")

    def values(self) -> np.ndarray:
        return np.arange(self.steps, dtype=float) / (self.steps - 1)


def normalize_metrics(values: Sequence[float]) -> list[float]:
    """Min-max normalization to [0, 1]; constant input maps to all zeros."""
    return _normalize(np.asarray(values, dtype=float)).tolist()


def _normalize(values: np.ndarray, over: np.ndarray | None = None) -> np.ndarray:
    """Min-max normalize ``values`` with the bounds of ``over`` (default: themselves)."""
    over = values if over is None else over
    if not len(over):
        raise AnalysisError("cannot normalize an empty list")
    lo, hi = over.min(), over.max()
    return np.zeros_like(values) if hi == lo else (values - lo) / (hi - lo)


def score(latency_norm: float, cost_norm: float, alpha: float) -> float:
    """Weighted sum of the two normalized objectives."""
    if not (0.0 <= alpha <= 1.0):
        raise AnalysisError("alpha must lie in [0, 1]")
    return alpha * latency_norm + (1.0 - alpha) * cost_norm


@dataclass(frozen=True)
class SweepReport:
    pricing_model_id: str
    steps: int
    winner_per_alpha: tuple[str, ...]
    coverage_counts: dict[str, int]
    partition_counts: dict[str, int]
    pareto: tuple[SetupMetrics, ...]

    @property
    def coverage(self) -> dict[str, float]:
        return {
            name: 100.0 * count / self.steps
            for name, count in self.coverage_counts.items()
        }

    @property
    def partition_coverage(self) -> dict[str, float]:
        return {
            name: 100.0 * count / self.steps
            for name, count in self.partition_counts.items()
        }

    def breakpoints(self) -> list[dict]:
        """Contiguous alpha ranges with a stable winner."""
        spans: list[dict] = []
        denom = self.steps - 1
        start = 0
        for i in range(1, self.steps + 1):
            if i == self.steps or self.winner_per_alpha[i] != self.winner_per_alpha[start]:
                spans.append(
                    {
                        "from_alpha": start / denom,
                        "to_alpha": (i - 1) / denom,
                        "winner": self.winner_per_alpha[start],
                    }
                )
                start = i
        return spans

    def to_json(self) -> str:
        doc = {
            "pricing": self.pricing_model_id,
            "steps": self.steps,
            "coverage": self.coverage,
            "coverage_counts": self.coverage_counts,
            "partition_coverage": self.partition_coverage,
            "partition_counts": self.partition_counts,
            "alpha_breakpoints": self.breakpoints(),
            "pareto": front_rows(self.pareto),
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def front_rows(front: Iterable[SetupMetrics]) -> list[dict]:
    """The JSON rows of a Pareto front, as ``sweep`` and ``pareto`` write them."""
    return [{"setup": m.setup_name, "latency_ms": m.latency_ms, "cost_pmi_usd": m.cost_pmi_usd}
            for m in front]


# Scores held at once; alpha rows per chunk are this over the front size, so
# memory stays bounded even when every setup is on the front.
_SCORES_PER_CHUNK = 1 << 20


def _front(table: MetricTable, caller: str) -> list[SetupMetrics]:
    """The Pareto front of ``table`` in (cost, latency, name) order; ``caller``
    names the analysis in the error for an empty table."""
    lat, cost = table.latency_ms, table.cost_pmi_usd
    if not len(lat):
        raise AnalysisError(f"{caller} needs at least one metric")
    finite = np.isfinite(lat) & np.isfinite(cost)
    if not finite.all():
        name = table.setup_names[np.argmin(finite)]
        raise AnalysisError(f"setup {name!r} has a non-finite latency or cost")
    order = np.lexsort((lat, cost))
    lat, cost = lat[order], cost[order]
    faster = np.ones(len(lat), dtype=bool)
    faster[1:] = lat[1:] < np.minimum.accumulate(lat[:-1])
    # A repeat of the point before it is on the front when its first copy is.
    new = np.ones(len(lat), dtype=bool)
    new[1:] = (lat[1:] != lat[:-1]) | (cost[1:] != cost[:-1])
    on_front = faster[new][np.cumsum(new) - 1]
    return sorted((table[i] for i in order[on_front].tolist()),
                  key=lambda m: (m.cost_pmi_usd, m.latency_ms, m.setup_name))


def alpha_sweep(
    metrics: Sequence[SetupMetrics],
    grid: AlphaGrid = AlphaGrid(),
    pricing_model_id: str = "",
) -> SweepReport:
    """Pick the score-minimal setup at every grid point and summarize.

    Only the Pareto front is scored, normalized with the bounds of every
    setup; the module docstring gives why the winners are those of scoring
    every setup.
    """
    table = MetricTable.of(metrics)
    front = _front(table, "alpha_sweep")
    # The front is in tie-break order, so argmin's first-minimum rule
    # implements the documented tie-break exactly.
    lat = _normalize(np.array([m.latency_ms for m in front]), table.latency_ms)
    cost = _normalize(np.array([m.cost_pmi_usd for m in front]), table.cost_pmi_usd)
    names = [m.setup_name for m in front]
    alphas = grid.values()
    rows = max(1, _SCORES_PER_CHUNK // len(front))

    winners: list[str] = []
    for lo in range(0, grid.steps, rows):
        chunk = alphas[lo : lo + rows, None]
        scores = chunk * lat[None, :] + (1.0 - chunk) * cost[None, :]
        winners.extend(names[i] for i in np.argmin(scores, axis=1).tolist())

    coverage_counts = Counter(winners)
    partition_counts: Counter[str] = Counter()
    for name, count in coverage_counts.items():
        partition_counts[split_setup_name(name)[0]] += count
    return SweepReport(
        pricing_model_id=pricing_model_id,
        steps=grid.steps,
        winner_per_alpha=tuple(winners),
        coverage_counts=dict(sorted(coverage_counts.items())),
        partition_counts=dict(sorted(partition_counts.items())),
        pareto=tuple(front),
    )


def pareto_front(metrics: Iterable[SetupMetrics]) -> list[SetupMetrics]:
    """Setups not dominated in (latency, cost), sorted by (cost, latency, name).

    A setup is dominated when another is <= in both dimensions and < in at
    least one; duplicates of a non-dominated point are all kept.
    """
    return _front(MetricTable.of(metrics), "pareto_front")


def sync_fuse_heuristic(app: AppGraph) -> FusionPartition:
    """Fuse every synchronous call edge.

    Tasks linked only by asynchronous calls stay in separate groups.
    """
    return fuse(app, sync_skeleton(app))


@dataclass(frozen=True)
class OptimizationStep:
    kind: str  # "fusion" or "resource"
    from_setup: str
    to_setup: str
    score_before: float
    score_after: float


def _neighbors(app: AppGraph, setup: FusionSetup) -> list[tuple[str, FusionSetup]]:
    """One-move neighborhood: toggle one call edge, or shift one level.

    Toggling an edge between two groups merges them, and toggling an edge
    inside a group splits it. Each new group takes the highest level of the
    old groups it overlaps.
    """
    partition = setup.partition
    group_of = partition.group_index()
    fused = [group_of[e.caller] == group_of[e.callee] for e in app.edges]
    out: list[tuple[str, FusionSetup]] = []
    for i in range(len(fused)):
        toggled = fused.copy()
        toggled[i] = not toggled[i]
        new_part = fuse(app, compress(app.edges, toggled))
        levels = tuple(
            max(setup.level_indices[group_of[t]] for t in g) for g in new_part.groups
        )
        out.append(("fusion", FusionSetup(new_part, levels, setup.levels)))

    for gi in range(len(partition.groups)):
        for delta in (-1, 1):
            idx = setup.level_indices[gi] + delta
            if 0 <= idx < len(setup.levels):
                levels = list(setup.level_indices)
                levels[gi] = idx
                out.append(("resource", FusionSetup(partition, tuple(levels), setup.levels)))
    return out


def greedy_optimize_path(
    app: AppGraph,
    metrics: Iterable[SetupMetrics],
    alpha: float,
    start_setup: FusionSetup,
) -> list[OptimizationStep]:
    """Hill-climb from ``start_setup`` to a local score optimum.

    Scores are normalized once over ``metrics``, which must hold every setup
    the path reaches. Each step moves to the neighbor with the lowest
    (score, cost, latency, name) if it scores strictly lower, so the path
    never revisits a setup.
    """
    if not (0.0 <= alpha <= 1.0):
        raise AnalysisError("alpha must lie in [0, 1]")
    table = MetricTable.of(metrics)
    lat = _normalize(table.latency_ms)
    cost = _normalize(table.cost_pmi_usd)

    def key(setup: FusionSetup) -> tuple[float, float, float, str]:
        i = table.row_of.get(setup.name)
        if i is None:
            raise AnalysisError(f"setup {setup.name!r} missing from the metric set")
        m = table[i]
        s = score(float(lat[i]), float(cost[i]), alpha)
        return s, m.cost_pmi_usd, m.latency_ms, m.setup_name

    current, here = start_setup, key(start_setup)
    steps: list[OptimizationStep] = []
    while True:
        moves = [(key(setup), kind, setup) for kind, setup in _neighbors(app, current)]
        if not moves:
            return steps
        best, kind, nxt = min(moves, key=itemgetter(0))
        if best[0] >= here[0]:
            return steps
        steps.append(
            OptimizationStep(
                kind=kind,
                from_setup=current.name,
                to_setup=nxt.name,
                score_before=here[0],
                score_after=best[0],
            )
        )
        current, here = nxt, best


def baseline_comparison(
    metrics: Sequence[SetupMetrics], baseline_setup: str
) -> tuple[float, float]:
    """Percentage reductions of the per-dimension best versus a baseline."""
    table = MetricTable.of(metrics)
    if baseline_setup not in table.row_of:
        raise AnalysisError(f"baseline {baseline_setup!r} missing from metrics")
    baseline = table[table.row_of[baseline_setup]]
    best_latency = float(table.latency_ms.min())
    best_cost = float(table.cost_pmi_usd.min())
    lat_pct = (
        100.0 * (baseline.latency_ms - best_latency) / baseline.latency_ms
        if baseline.latency_ms > 0
        else 0.0
    )
    cost_pct = (
        100.0 * (baseline.cost_pmi_usd - best_cost) / baseline.cost_pmi_usd
        if baseline.cost_pmi_usd > 0
        else 0.0
    )
    return lat_pct, cost_pct
