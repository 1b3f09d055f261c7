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
front is scored in that same order. Both the front and the bounds come
from one pass over the setups, so neither the sweep nor the front sorts
every setup or holds more than the front's scores. All values must be
finite: NaN breaks the ordering, so it is rejected.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

import numpy as np

from .app import AppGraph, sync_skeleton
from .fusion import FusionPartition, FusionSetup, fuse
from .pricing import SetupMetrics


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
    if not values:
        raise AnalysisError("cannot normalize an empty list")
    return _scale(values, min(values), max(values))


def _scale(values: Iterable[float], lo: float, hi: float) -> list[float]:
    if hi == lo:
        return [0.0 for _ in values]
    return [(v - lo) / (hi - lo) for v in values]


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
            "pareto": [
                {
                    "setup": m.setup_name,
                    "latency_ms": m.latency_ms,
                    "cost_pmi_usd": m.cost_pmi_usd,
                }
                for m in self.pareto
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


# Scores held at once; alpha rows per chunk are this over the front size, so
# memory stays bounded even when every setup is on the front.
_SCORES_PER_CHUNK = 1 << 20


def _fold(
    metrics: Iterable[SetupMetrics],
) -> tuple[list[SetupMetrics], tuple[float, float], tuple[float, float]]:
    """One pass over ``metrics``: the Pareto front, sorted by (cost, latency,
    name), and the (lo, hi) bounds of latency and of cost over every setup.

    The running front keeps its distinct costs ascending with strictly
    falling latencies (Kung, Luccio & Preparata, 1975), so a new point is
    placed by bisection, and the points it dominates follow it contiguously.
    """
    costs: list[float] = []
    lats: list[float] = []
    points: list[list[SetupMetrics]] = []
    lat_lo = cost_lo = math.inf
    lat_hi = cost_hi = -math.inf
    for m in metrics:
        lat, cost = m.latency_ms, m.cost_pmi_usd
        if not (math.isfinite(lat) and math.isfinite(cost)):
            raise AnalysisError(f"setup {m.setup_name!r} has a non-finite latency or cost")
        if lat < lat_lo:
            lat_lo = lat
        if lat > lat_hi:
            lat_hi = lat
        if cost < cost_lo:
            cost_lo = cost
        if cost > cost_hi:
            cost_hi = cost
        i = bisect_right(costs, cost)
        if i and lats[i - 1] <= lat:
            if lats[i - 1] == lat and costs[i - 1] == cost:
                points[i - 1].append(m)
            continue
        # Not dominated: replace the point at equal cost, if any, and every
        # costlier point that is no faster.
        j = i - 1 if i and costs[i - 1] == cost else i
        k = i
        while k < len(lats) and lats[k] >= lat:
            k += 1
        costs[j:k] = [cost]
        lats[j:k] = [lat]
        points[j:k] = [[m]]
    front = []
    for group in points:
        group.sort(key=attrgetter("setup_name"))
        front.extend(group)
    return front, (lat_lo, lat_hi), (cost_lo, cost_hi)


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
    front, (lat_lo, lat_hi), (cost_lo, cost_hi) = _fold(metrics)
    if not front:
        raise AnalysisError("alpha_sweep needs at least one metric")
    # The front is in tie-break order, so argmin's first-minimum rule
    # implements the documented tie-break exactly.
    lat = np.array(_scale([m.latency_ms for m in front], lat_lo, lat_hi))
    cost = np.array(_scale([m.cost_pmi_usd for m in front], cost_lo, cost_hi))
    names = [m.setup_name for m in front]
    alphas = grid.values()
    rows = max(1, _SCORES_PER_CHUNK // len(front))

    winners: list[str] = []
    for lo in range(0, grid.steps, rows):
        chunk = alphas[lo : lo + rows, None]
        scores = chunk * lat[None, :] + (1.0 - chunk) * cost[None, :]
        winners.extend(names[i] for i in np.argmin(scores, axis=1).tolist())

    coverage_counts: dict[str, int] = {}
    partition_counts: dict[str, int] = {}
    for name in winners:
        coverage_counts[name] = coverage_counts.get(name, 0) + 1
        part = name.split("@", 1)[0]
        partition_counts[part] = partition_counts.get(part, 0) + 1
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
    front, _, _ = _fold(metrics)
    if not front:
        raise AnalysisError("pareto_front needs at least one metric")
    return front


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
    by_name = {m.setup_name: m for m in metrics}
    lat = normalize_metrics([m.latency_ms for m in by_name.values()])
    cost = normalize_metrics([m.cost_pmi_usd for m in by_name.values()])
    scores = {name: score(lat[i], cost[i], alpha) for i, name in enumerate(by_name)}

    def key(setup: FusionSetup) -> tuple[float, float, float, str]:
        m = by_name.get(setup.name)
        if m is None:
            raise AnalysisError(f"setup {setup.name!r} missing from the metric set")
        return scores[m.setup_name], m.cost_pmi_usd, m.latency_ms, m.setup_name

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
    baseline = next((m for m in metrics if m.setup_name == baseline_setup), None)
    if baseline is None:
        raise AnalysisError(f"baseline {baseline_setup!r} missing from metrics")
    best_latency = min(m.latency_ms for m in metrics)
    best_cost = min(m.cost_pmi_usd for m in metrics)
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
