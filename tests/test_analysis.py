from __future__ import annotations

import math

import pytest

from fuseplan.analysis import (
    AlphaGrid,
    AnalysisError,
    alpha_sweep,
    baseline_comparison,
    greedy_optimize_path,
    normalize_metrics,
    pareto_front,
    score,
    sync_fuse_heuristic,
)
from fuseplan.app import builtin_app
from fuseplan.fusion import (
    DEFAULT_LEVELS,
    FusionSetup,
    enumerate_partitions,
    parse_full_setup_name,
)
from fuseplan.pricing import (
    InstanceBasedPricing,
    SetupMetrics,
    TraditionalPricing,
    cost_of,
)
from fuseplan.runner import metrics_from_rows, run_all
from fuseplan.sim import ColdPolicy, PlatformModel, simulate

from .conftest import two_task_app
from fuseplan.app import CallMode


def test_normalize_examples():
    assert normalize_metrics([2, 4, 6]) == [0.0, 0.5, 1.0]
    assert normalize_metrics([5]) == [0.0]
    assert normalize_metrics([3, 3, 3]) == [0.0, 0.0, 0.0]
    with pytest.raises(AnalysisError):
        normalize_metrics([])


def test_score_examples():
    assert score(0.4, 0.2, 0.5) == pytest.approx(0.3)
    assert score(0.9, 0.1, 0.0) == 0.1
    assert score(0.9, 0.1, 1.0) == 0.9
    with pytest.raises(AnalysisError):
        score(0.5, 0.5, 1.5)
    with pytest.raises(AnalysisError):
        score(0.5, 0.5, -0.1)


def test_alpha_grid_contains_exact_endpoints():
    grid = AlphaGrid(10001)
    values = grid.values()
    assert values[0] == 0.0
    assert values[-1] == 1.0
    assert len(values) == 10001
    assert values[5000] == pytest.approx(0.5)
    with pytest.raises(AnalysisError):
        AlphaGrid(1)


def test_sweep_two_synthetic_setups_split_the_grid():
    # Normalized (latency, cost) of (0, 1) and (1, 0): the cheap slow setup
    # wins below alpha 0.5 and takes the tie at 0.5 by lower raw cost.
    metrics = [
        SetupMetrics("fast@0", 100.0, 200.0),
        SetupMetrics("cheap@0", 200.0, 100.0),
    ]
    grid = AlphaGrid(10001)
    report = alpha_sweep(metrics, grid)

    def oracle():
        counts = {"fast@0": 0, "cheap@0": 0}
        for gamma in range(10001):
            alpha = gamma / 10000
            s_fast = alpha * 0.0 + (1 - alpha) * 1.0
            s_cheap = alpha * 1.0 + (1 - alpha) * 0.0
            if s_cheap < s_fast or (s_cheap == s_fast):
                counts["cheap@0"] += 1
            else:
                counts["fast@0"] += 1
        return counts

    assert report.coverage_counts == oracle()
    assert report.coverage_counts == {"cheap@0": 5001, "fast@0": 5000}
    assert report.winner_per_alpha[5000] == "cheap@0"


def test_sweep_single_setup_covers_everything():
    report = alpha_sweep([SetupMetrics("only@0", 10.0, 1.0)], AlphaGrid(101))
    assert report.coverage == {"only@0": 100.0}
    assert report.partition_coverage == {"only": 100.0}


def test_sweep_extremes_pick_raw_optima():
    metrics = [
        SetupMetrics("a@0", 50.0, 9.0),
        SetupMetrics("b@0", 500.0, 1.0),
        SetupMetrics("c@0", 300.0, 5.0),
    ]
    report = alpha_sweep(metrics, AlphaGrid(11))
    assert report.winner_per_alpha[0] == "b@0"  # pure cost
    assert report.winner_per_alpha[-1] == "a@0"  # pure latency


def test_sweep_coverage_counts_sum_to_steps():
    app = builtin_app("PARALLEL_LINEAR")
    platform = PlatformModel()
    pricing = TraditionalPricing()
    metrics = metrics_from_rows(run_all(app, DEFAULT_LEVELS, platform, pricing), pricing.id)
    report = alpha_sweep(metrics, AlphaGrid(1001))
    assert sum(report.coverage_counts.values()) == 1001
    assert sum(report.partition_counts.values()) == 1001


def test_pareto_trivial_cases():
    a = SetupMetrics("a@0", 1.0, 1.0)
    b = SetupMetrics("b@0", 2.0, 2.0)
    assert pareto_front([a, b]) == [a]
    x = SetupMetrics("x@0", 1.0, 2.0)
    y = SetupMetrics("y@0", 2.0, 1.0)
    z = SetupMetrics("z@0", 2.0, 2.0)
    assert set(m.setup_name for m in pareto_front([x, y, z])) == {"x@0", "y@0"}


def test_pareto_keeps_duplicates_and_sorts_by_cost():
    a = SetupMetrics("a@0", 5.0, 3.0)
    b = SetupMetrics("b@0", 5.0, 3.0)
    c = SetupMetrics("c@0", 1.0, 9.0)
    front = pareto_front([c, b, a])
    assert [m.setup_name for m in front] == ["a@0", "b@0", "c@0"]


def test_winners_within_front_cross_check():
    # Exhaustive cross-check on a real metric set.
    app = builtin_app("ASYNC")
    metrics = metrics_from_rows(run_all(app), "instance_based")
    report = alpha_sweep(metrics, AlphaGrid(501))
    front = {m.setup_name for m in pareto_front(metrics)}
    assert set(report.coverage_counts) <= front


@pytest.mark.parametrize(
    "name, expected",
    [
        ("TREE", "ABDE,C,F,G"),
        ("ASYNC", "A,B,C,D,E"),
        ("PARALLEL_LINEAR", "A,BC,DE"),
        ("LINEAR", "ABCDE"),
    ],
)
def test_sync_fuse_heuristic(name, expected):
    partition = sync_fuse_heuristic(builtin_app(name))
    assert partition.name == expected


def test_heuristic_weakly_dominates_async_coarsenings():
    # At equal uniform levels under instance pricing, merging groups across
    # async edges never improves latency and never changes cost.
    pricing = InstanceBasedPricing()
    platform = PlatformModel()
    for name in ("TREE", "ASYNC", "PARALLEL_LINEAR", "LINEAR"):
        app = builtin_app(name)
        heur = sync_fuse_heuristic(app)
        for p in enumerate_partitions(app):
            coarsens = all(
                any(hg <= pg for pg in p.groups) for hg in heur.groups
            )
            if not coarsens:
                continue
            for level in (0, 2):
                sh = FusionSetup(heur, tuple(level for _ in heur.groups), DEFAULT_LEVELS)
                sp = FusionSetup(p, tuple(level for _ in p.groups), DEFAULT_LEVELS)
                rh = simulate(app, sh, platform)
                rp = simulate(app, sp, platform)
                assert rh.latency_ms <= rp.latency_ms + 1e-9
                assert math.isclose(
                    cost_of(rh, sh, pricing), cost_of(rp, sp, pricing), rel_tol=1e-12
                )


def _s2_space(platform, pricing):
    app = two_task_app(CallMode.SYNC)
    metrics = metrics_from_rows(run_all(app, DEFAULT_LEVELS, platform, pricing), pricing.id)
    return app, metrics


def test_greedy_reaches_global_optimum_on_s2():
    platform = PlatformModel(5.0, 100.0, ColdPolicy.ALWAYS_COLD, 1.0)
    pricing = TraditionalPricing()
    app, metrics = _s2_space(platform, pricing)
    assert len(metrics) == 12

    # Brute-force oracle: score every setup at alpha 0.5 with the same
    # normalization and take the lexicographic best.
    lat = normalize_metrics([m.latency_ms for m in metrics])
    cost = normalize_metrics([m.cost_pmi_usd for m in metrics])
    best = min(
        (score(lat[i], cost[i], 0.5), m.cost_pmi_usd, m.latency_ms, m.setup_name)
        for i, m in enumerate(metrics)
    )

    start = parse_full_setup_name(app, "A,B@0,0")
    steps = greedy_optimize_path(app, metrics, 0.5, start)
    assert steps
    assert steps[-1].to_setup == best[3] == "AB@2"
    assert any(s.kind == "fusion" for s in steps)
    assert all(s.score_after < s.score_before for s in steps)
    assert steps[-1].score_after <= steps[0].score_before


def test_greedy_from_optimum_is_empty():
    platform = PlatformModel(5.0, 100.0, ColdPolicy.ALWAYS_COLD, 1.0)
    pricing = TraditionalPricing()
    app, metrics = _s2_space(platform, pricing)
    opt = parse_full_setup_name(app, "AB@2")
    assert greedy_optimize_path(app, metrics, 0.5, opt) == []


def test_greedy_on_linear_ends_fully_fused():
    app = builtin_app("LINEAR")
    platform = PlatformModel()
    pricing = TraditionalPricing()
    metrics = metrics_from_rows(run_all(app, DEFAULT_LEVELS, platform, pricing), pricing.id)
    start = parse_full_setup_name(app, "A,B,C,D,E@0,0,0,0,0")
    steps = greedy_optimize_path(app, metrics, 0.5, start)
    assert steps
    final = steps[-1].to_setup
    assert final.split("@")[0] == "ABCDE"
    assert all(s.score_after < s.score_before for s in steps)


def test_baseline_comparison_identity():
    metrics = [SetupMetrics("a@0", 100.0, 10.0)]
    assert baseline_comparison(metrics, "a@0") == (0.0, 0.0)


def test_baseline_comparison_s2(s2_sync, overhead_model):
    pricing = TraditionalPricing()
    metrics = metrics_from_rows(
        run_all(s2_sync, DEFAULT_LEVELS, overhead_model, pricing), pricing.id)
    lat_red, cost_red = baseline_comparison(metrics, "A,B@0,0")
    assert lat_red > 0
    assert cost_red > 0


def test_baseline_missing_rejected():
    with pytest.raises(AnalysisError, match="baseline"):
        baseline_comparison([SetupMetrics("a@0", 1.0, 1.0)], "zzz@0")
