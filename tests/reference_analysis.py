"""Full-matrix alpha sweep and sort-based Pareto front: the test oracle of
the front-only analysis.

This is the analysis ``fuseplan.analysis`` replaced. The sweep scores every
setup at every alpha and takes the argmin over all of them, in
(cost, latency, name) order; the front sorts every setup by that key and
scans cost groups. Tests compare the fast analysis against it, so its float
operations must stay exactly as they are.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from fuseplan.analysis import (
    AlphaGrid,
    AnalysisError,
    SetupMetrics,
    SweepReport,
    normalize_metrics,
)

_SWEEP_CHUNK = 512


def alpha_sweep(
    metrics: Sequence[SetupMetrics],
    grid: AlphaGrid = AlphaGrid(),
    pricing_model_id: str = "",
) -> SweepReport:
    """Pick the score-minimal setup at every grid point and summarize."""
    if not metrics:
        raise AnalysisError("alpha_sweep needs at least one metric")
    # Pre-sorting by the tie-break key makes argmin's first-minimum rule
    # implement the documented tie-break exactly.
    order = sorted(
        range(len(metrics)),
        key=lambda i: (metrics[i].cost_pmi_usd, metrics[i].latency_ms, metrics[i].setup_name),
    )
    ordered = [metrics[i] for i in order]
    lat = np.array(normalize_metrics([m.latency_ms for m in ordered]))
    cost = np.array(normalize_metrics([m.cost_pmi_usd for m in ordered]))
    alphas = grid.values()

    winners: list[str] = []
    for lo in range(0, grid.steps, _SWEEP_CHUNK):
        chunk = alphas[lo : lo + _SWEEP_CHUNK, None]
        scores = chunk * lat[None, :] + (1.0 - chunk) * cost[None, :]
        for row in np.argmin(scores, axis=1):
            winners.append(ordered[row].setup_name)

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
        pareto=tuple(pareto_front(metrics)),
    )


def pareto_front(metrics: Sequence[SetupMetrics]) -> list[SetupMetrics]:
    """Setups not dominated in (latency, cost), sorted by cost ascending.

    A setup is dominated when another is <= in both dimensions and < in at
    least one; duplicates of a non-dominated point are all kept.
    """
    if not metrics:
        raise AnalysisError("pareto_front needs at least one metric")
    by_key = sorted(
        metrics, key=lambda m: (m.cost_pmi_usd, m.latency_ms, m.setup_name)
    )
    front: list[SetupMetrics] = []
    best_lat_strictly_cheaper = float("inf")
    i = 0
    while i < len(by_key):
        j = i
        while j < len(by_key) and by_key[j].cost_pmi_usd == by_key[i].cost_pmi_usd:
            j += 1
        group_min = min(m.latency_ms for m in by_key[i:j])
        if group_min < best_lat_strictly_cheaper:
            front.extend(
                m for m in by_key[i:j] if m.latency_ms == group_min
            )
            best_lat_strictly_cheaper = group_min
        i = j
    return front
