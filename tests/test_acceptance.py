"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on the terminal.
"""

from __future__ import annotations

import math
import time
from functools import cache

import pytest

from fuseplan.analysis import AlphaGrid, alpha_sweep, baseline_comparison, pareto_front, sync_fuse_heuristic
from fuseplan.app import CallMode, builtin_app
from fuseplan.cli import main as cli_main
from fuseplan.fusion import (
    DEFAULT_LEVELS,
    FusionPartition,
    FusionSetup,
    enumerate_partitions,
    enumerate_setups,
)
from fuseplan.pricing import InstanceBasedPricing, TraditionalPricing, cost_of
from fuseplan.runner import metrics_from_rows, run_all
from fuseplan.sim import ColdPolicy, PlatformModel, simulate
from fuseplan.workload import calibrate_workload, lucas_lehmer

BUILTINS = ("LINEAR", "ASYNC", "PARALLEL_LINEAR", "TREE")
EXPECTED_SETUPS = {"LINEAR": 768, "ASYNC": 768, "PARALLEL_LINEAR": 768, "TREE": 12288}
HEURISTIC = {
    "TREE": "ABDE,C,F,G",
    "PARALLEL_LINEAR": "A,BC,DE",
    "ASYNC": "A,B,C,D,E",
    "LINEAR": "ABCDE",
}
GRID = AlphaGrid(10001)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


@cache
def blocks(name: str):
    return tuple(run_all(builtin_app(name)))


@cache
def sweep(name: str, pricing_id: str):
    return alpha_sweep(metrics_from_rows(blocks(name), pricing_id), GRID, pricing_id)


def test_criterion_1_enumeration_exactness():
    t0 = time.perf_counter()
    counts = {
        name: sum(1 for _ in enumerate_setups(builtin_app(name), DEFAULT_LEVELS))
        for name in BUILTINS
    }
    elapsed = time.perf_counter() - t0
    ok = counts == EXPECTED_SETUPS and elapsed < 1.0
    _report("1 (enumeration exactness)", ok, f"counts={counts} in {elapsed:.3f}s")


def test_criterion_2_linear_dominance():
    winners = {
        pricing: {w.split("@")[0] for w in sweep("LINEAR", pricing).winner_per_alpha}
        for pricing in ("traditional", "instance_based")
    }
    ok = winners["traditional"] == {"ABCDE"} and winners["instance_based"] == {"ABCDE"}
    _report(
        "2 (LINEAR dominance)",
        ok,
        f"winning partitions across 10001 alphas, both models: {winners}",
    )


def test_criterion_3_instance_based_heuristic_optimality():
    observed = {}
    for name in BUILTINS:
        report = sweep(name, "instance_based")
        observed[name] = set(report.partition_counts)
        assert sync_fuse_heuristic(builtin_app(name)).name == HEURISTIC[name]
    ok = all(observed[name] == {HEURISTIC[name]} for name in BUILTINS)
    _report(
        "3 (instance-based heuristic optimality)",
        ok,
        f"per-app winning partitions: {observed}",
    )


def test_criterion_4_traditional_tree_structure():
    report = sweep("TREE", "traditional")
    partitions = set(report.partition_counts)
    distinct_ok = len(partitions) >= 2

    sync_component = frozenset("ABDE")
    mid_ok = True
    for gamma, winner in enumerate(report.winner_per_alpha):
        alpha = gamma / (GRID.steps - 1)
        if 0.1 <= alpha <= 0.9:
            groups = winner.split("@")[0].split(",")
            if not any(sync_component <= frozenset(g) for g in groups):
                mid_ok = False
                break

    app = builtin_app("TREE")
    async_pairs = {(e.caller, e.callee) for e in app.edges if e.mode is CallMode.ASYNC}

    def fuses_async(partition_name: str) -> bool:
        groups = [frozenset(g) for g in partition_name.split(",")]
        return any(
            any(a in g and b in g for g in groups) for a, b in async_pairs
        )

    low_alpha_ok = fuses_async(report.winner_per_alpha[0].split("@")[0])
    ok = distinct_ok and mid_ok and low_alpha_ok
    _report(
        "4 (traditional TREE structure)",
        ok,
        f"partitions={sorted(partitions)}, mid-alpha sync component kept={mid_ok}, "
        f"alpha=0 winner fuses async={low_alpha_ok}",
    )


def _merge(partition: FusionPartition, a: str, b: str) -> FusionPartition:
    group_of = partition.group_index()
    ga, gb = group_of[a], group_of[b]
    kept = [g for i, g in enumerate(partition.groups) if i not in (ga, gb)]
    kept.append(partition.groups[ga] | partition.groups[gb])
    return FusionPartition.from_groups(kept)


def test_criterion_5_invariant_suite():
    model = PlatformModel(5.0, 100.0, ColdPolicy.ALWAYS_COLD, 1.0)
    saving = 2 * model.net_oneway_ms + model.cold_start_ms

    # Sync-edge fusion: the caller's latency and instance bill both drop by
    # exactly the round trip plus cold start (checked on the all-sync chain
    # where the fused edge is always on the critical path).
    app = builtin_app("LINEAR")
    sync_checks = 0
    for p in enumerate_partitions(app):
        p_group = p.group_index()
        for a, b in ((e.caller, e.callee) for e in app.edges):
            if p_group[a] == p_group[b]:
                continue
            q = _merge(p, a, b)
            for level in (0, 1, 2):
                sp = FusionSetup(p, tuple(level for _ in p.groups), DEFAULT_LEVELS)
                sq = FusionSetup(q, tuple(level for _ in q.groups), DEFAULT_LEVELS)
                rp, rq = simulate(app, sp, model), simulate(app, sq, model)
                assert rp.latency_ms - rq.latency_ms == saving
                caller = p.name.split(",")[p_group[a]]
                merged = q.name.split(",")[q.group_index()[a]]
                billed_p = {r.group: r.billed_ms for r in rp.invocations}
                billed_q = {r.group: r.billed_ms for r in rq.invocations}
                assert billed_p[caller] - billed_q[merged] == saving
                sync_checks += 1

    # Async-edge fusion at equal levels: traditional cost drops by exactly
    # one request fee per million, instance-based cost is unchanged.
    fee = TraditionalPricing().request_fee_usd
    trad, inst = TraditionalPricing(), InstanceBasedPricing()
    async_checks = 0
    for name in ("ASYNC", "TREE", "PARALLEL_LINEAR"):
        appx = builtin_app(name)
        for p in enumerate_partitions(appx):
            p_group = p.group_index()
            for e in appx.edges:
                if e.mode is not CallMode.ASYNC:
                    continue
                if p_group[e.caller] == p_group[e.callee]:
                    continue
                q = _merge(p, e.caller, e.callee)
                for level in (0, 2):
                    sp = FusionSetup(p, tuple(level for _ in p.groups), DEFAULT_LEVELS)
                    sq = FusionSetup(q, tuple(level for _ in q.groups), DEFAULT_LEVELS)
                    rp, rq = simulate(appx, sp, model), simulate(appx, sq, model)
                    d_trad = cost_of(rp, sp, trad) - cost_of(rq, sq, trad)
                    d_inst = cost_of(rp, sp, inst) - cost_of(rq, sq, inst)
                    assert math.isclose(d_trad, fee * 1e6, rel_tol=1e-9)
                    assert d_inst == 0.0
                    async_checks += 1

    # Sweep winners stay on the Pareto front and coverage is exhaustive.
    for name in BUILTINS:
        for pricing_id in ("traditional", "instance_based"):
            report = sweep(name, pricing_id)
            front = {
                m.setup_name
                for m in pareto_front(metrics_from_rows(blocks(name), pricing_id))
            }
            assert set(report.coverage_counts) <= front
            assert sum(report.coverage_counts.values()) == GRID.steps

    _report(
        "5 (invariant suite)",
        True,
        f"{sync_checks} sync-fusion and {async_checks} async-fusion exact deltas; "
        "winners within Pareto front; coverage sums exact",
    )


def test_criterion_6_determinism(tmp_path):
    paths = [tmp_path / f"tree{i}.csv" for i in range(3)]
    for path, jobs in zip(paths, ("1", "1", "8")):
        code = cli_main(
            ["run", "--app", "builtin:TREE", "--out", str(path), "--jobs", jobs]
        )
        assert code == 0
    first = paths[0].read_bytes()
    ok = all(p.read_bytes() == first for p in paths[1:])
    _report(
        "6 (determinism)",
        ok,
        f"rerun and --jobs 1 vs --jobs 8 byte-identical ({len(first)} bytes)",
    )


def test_criterion_7_desk_scale_performance():
    t0 = time.perf_counter()
    fresh = tuple(run_all(builtin_app("TREE")))
    for pricing_id in ("traditional", "instance_based"):
        alpha_sweep(metrics_from_rows(fresh, pricing_id), GRID, pricing_id)
    elapsed = time.perf_counter() - t0
    ok = sum(len(b.suffixes) for b in fresh) == 12288 and elapsed < 60.0
    _report(
        "7 (desk-scale performance)",
        ok,
        f"12288 simulations plus two 10001-step sweeps in {elapsed:.2f}s",
    )


def test_criterion_8_baseline_improvement():
    details = {}
    for name in BUILTINS:
        app = builtin_app(name)
        metrics = metrics_from_rows(blocks(name), "traditional")
        baseline = ",".join(sorted(app.task_names())) + "@" + ",".join(
            "0" for _ in app.tasks
        )
        lat_red, cost_red = baseline_comparison(metrics, baseline)
        details[name] = (round(lat_red, 1), round(cost_red, 1))
        assert lat_red > 0 and cost_red > 0
    _report(
        "8 (baseline improvement)",
        True,
        f"latency/cost reductions vs singleton minimum baseline: {details}",
    )


def test_criterion_9_lucas_lehmer():
    verdicts = {p: lucas_lehmer(p) for p in (3, 5, 7, 13, 11, 23)}
    expected = {3: True, 5: True, 7: True, 13: True, 11: False, 23: False}
    calibration = calibrate_workload(13, repetitions=3)
    ok = verdicts == expected and calibration.ms_per_run > 0
    _report(
        "9 (Lucas-Lehmer correctness)",
        ok,
        f"verdicts={verdicts}, calibration {calibration.ms_per_run:.4f} ms/run",
    )
