from __future__ import annotations

import pytest
from hypothesis import given, settings

from fuseplan.app import AppGraph, CallMode, Task, builtin_app
from fuseplan.fusion import (
    DEFAULT_LEVELS,
    FusionPartition,
    FusionSetup,
    ResourceConfig,
    enumerate_partitions,
)
from fuseplan.sim import (
    ColdPolicy,
    PlatformModel,
    SimulationError,
    simulate,
)

from .conftest import call_trees, setup_of


@pytest.mark.parametrize("cpu, expected", [(1.0, 100.0), (0.5, 200.0), (0.1, 1000.0)])
def test_compute_time_linear_law(cpu, expected):
    app = AppGraph("ONE", (Task("A", 100.0),), (), "A")
    setup = FusionSetup(FusionPartition.from_groups([frozenset("A")]), (0,),
                        (ResourceConfig(cpu, 128),))
    assert simulate(app, setup, PlatformModel()).latency_ms == expected


def test_sync_split_hand_trace(s2_sync, overhead_model):
    # Hand-traced timeline: A starts at 105, computes to 205, waits
    # 5 + 100 + 100 + 5 for the remote callee, finishes at 415.
    result = simulate(s2_sync, setup_of(s2_sync, "A,B@2,2"), overhead_model)
    assert result.latency_ms == 415.0
    billed = {r.group: r.billed_ms for r in result.invocations}
    assert billed == {"A": 310.0, "B": 100.0}
    assert result.remote_calls == 2
    spans = {r.group: (r.start_ms, r.end_ms) for r in result.invocations}
    assert spans == {"A": (105.0, 415.0), "B": (310.0, 410.0)}


def test_sync_fused_hand_trace(s2_sync, overhead_model):
    result = simulate(s2_sync, setup_of(s2_sync, "AB@2"), overhead_model)
    assert result.latency_ms == 305.0
    assert result.remote_calls == 1
    assert result.invocations[0].billed_ms == 200.0
    # Fusing the one sync edge saves the round trip plus the cold start.
    split = simulate(s2_sync, setup_of(s2_sync, "A,B@2,2"), overhead_model)
    assert split.latency_ms - result.latency_ms == 110.0


def test_async_split_hand_trace(s2_async, overhead_model):
    # B is delivered at 210, cold until 310, done at 410; A never waits.
    result = simulate(s2_async, setup_of(s2_async, "A,B@2,2"), overhead_model)
    assert result.latency_ms == 410.0
    spans = {r.group: (r.start_ms, r.end_ms) for r in result.invocations}
    assert spans == {"A": (105.0, 205.0), "B": (310.0, 410.0)}
    billed = {r.group: r.billed_ms for r in result.invocations}
    assert billed == {"A": 100.0, "B": 100.0}


def test_async_fused_defers_to_queue(s2_async, overhead_model):
    result = simulate(s2_async, setup_of(s2_async, "AB@2"), overhead_model)
    assert result.latency_ms == 305.0
    assert result.invocations[0].billed_ms == 200.0


def test_determinism_bit_identical():
    app = builtin_app("TREE")
    setup = setup_of(app, "ABDE,CF,G@2,1,0")
    model = PlatformModel(5.0, 100.0, ColdPolicy.ALWAYS_COLD, 1.0)
    # repr spells every float exactly, so equal text means bit-identical runs.
    a = repr(simulate(app, setup, model))
    b = repr(simulate(app, setup, model))
    assert a == b


@pytest.mark.parametrize("name", ["LINEAR", "PARALLEL_LINEAR", "TREE", "ASYNC"])
@pytest.mark.parametrize("level", [0, 2])
def test_fused_group_conserves_compute(name, level, zero_model):
    # One warm group, no network: latency and billed both equal the sum of
    # scaled task durations.
    app = builtin_app(name)
    whole = FusionPartition.from_groups([frozenset(app.task_names())])
    setup = FusionSetup(whole, (level,), DEFAULT_LEVELS)
    result = simulate(app, setup, zero_model)
    cpu = DEFAULT_LEVELS[level].cpu
    expected = sum(t.base_work_ms / cpu for t in app.tasks)
    assert result.latency_ms == expected
    assert sum(r.billed_ms for r in result.invocations) == expected
    assert result.remote_calls == 1


@pytest.mark.parametrize("name", ["LINEAR", "TREE", "ASYNC"])
def test_remote_calls_count_cross_group_edges(name, overhead_model):
    app = builtin_app(name)
    for p in enumerate_partitions(app):
        setup = FusionSetup(p, tuple(1 for _ in p.groups), DEFAULT_LEVELS)
        group_of = p.group_index()
        cross = sum(1 for e in app.edges if group_of[e.caller] != group_of[e.callee])
        result = simulate(app, setup, overhead_model)
        assert result.remote_calls == 1 + cross


def test_always_warm_skips_cold_delay(s2_sync):
    model = PlatformModel(5.0, 100.0, ColdPolicy.ALWAYS_WARM, 1.0)
    result = simulate(s2_sync, setup_of(s2_sync, "A,B@2,2"), model)
    # Without the two cold starts: 5 + 100 + 5 + 100 + 5 = 215.
    assert result.latency_ms == 215.0
    assert all(not r.cold for r in result.invocations)


@pytest.mark.parametrize("policy", list(ColdPolicy))
def test_string_cold_policy_matches_enum(s2_sync, policy):
    by_text = PlatformModel(5.0, 100.0, policy.value, 1.0)
    by_enum = PlatformModel(5.0, 100.0, policy, 1.0)
    assert by_text == by_enum and by_text.cold_policy is policy
    setup = setup_of(s2_sync, "A,B@2,2")
    text_result = simulate(s2_sync, setup, by_text)
    enum_result = simulate(s2_sync, setup, by_enum)
    assert text_result.latency_ms == enum_result.latency_ms
    assert [r.cold for r in text_result.invocations] == [r.cold for r in enum_result.invocations]
    assert text_result == enum_result


@pytest.mark.parametrize(
    "kwargs",
    [
        {"net_oneway_ms": "5"},
        {"cold_start_ms": True},
        {"billing_quantum_ms": None},
        {"net_oneway_ms": [5]},
        {"cold_policy": "sometimes"},
    ],
)
def test_platform_refuses_wrong_types(kwargs):
    with pytest.raises(SimulationError, match=next(iter(kwargs))):
        PlatformModel(**kwargs)


def test_cold_flag_set_under_always_cold(s2_sync, overhead_model):
    result = simulate(s2_sync, setup_of(s2_sync, "A,B@2,2"), overhead_model)
    assert all(r.cold for r in result.invocations)


def test_billing_quantum_rounds_up(s2_sync):
    model = PlatformModel(0.0, 0.0, ColdPolicy.ALWAYS_COLD, 100.0)
    app = s2_sync.with_base_work({"A": 30.0, "B": 30.0})
    result = simulate(app, setup_of(app, "AB@2"), model)
    assert result.invocations[0].end_ms - result.invocations[0].start_ms == 60.0
    assert result.invocations[0].billed_ms == 100.0


def test_partition_mismatch_rejected(s2_sync):
    other = builtin_app("LINEAR")
    setup = setup_of(other, "ABCDE@0")
    with pytest.raises(SimulationError, match="cover"):
        simulate(s2_sync, setup, PlatformModel())


def test_trace_is_time_ordered(s2_sync, overhead_model):
    result = simulate(s2_sync, setup_of(s2_sync, "A,B@2,2"), overhead_model)
    times = [(e.time_ms, e.seq) for e in result.trace]
    assert times == sorted(times)
    kinds = {e.kind for e in result.trace}
    assert {"dispatch", "exec_start", "task_start", "task_end"} <= kinds


@given(call_trees())
@settings(deadline=None)
def test_records_have_consistent_spans(app):
    model = PlatformModel(3.0, 20.0, ColdPolicy.ALWAYS_COLD, 1.0)
    for level in (0, 2):
        for p in enumerate_partitions(app):
            setup = FusionSetup(p, tuple(level for _ in p.groups), DEFAULT_LEVELS)
            result = simulate(app, setup, model)
            for r in result.invocations:
                assert r.end_ms >= r.start_ms
                assert r.billed_ms >= r.end_ms - r.start_ms - 1e-9
                assert r.billed_ms - (r.end_ms - r.start_ms) < 1.0 + 1e-9
            assert result.latency_ms == max(r.end_ms for r in result.invocations)


@given(call_trees())
@settings(deadline=None)
def test_async_fusion_never_reduces_zero_overhead_latency(app):
    # With no network or cold delay, deferring an async callee onto the
    # caller's instance can only serialize work, never accelerate it.
    model = PlatformModel()
    singles = FusionPartition.from_groups([frozenset([n]) for n in app.task_names()])
    base = simulate(
        app, FusionSetup(singles, tuple(2 for _ in singles.groups), DEFAULT_LEVELS), model
    )
    for e in app.edges:
        if e.mode is not CallMode.ASYNC:
            continue
        merged = [
            g
            for g in singles.groups
            if e.caller not in g and e.callee not in g
        ]
        merged.append(frozenset([e.caller, e.callee]))
        p = FusionPartition.from_groups(merged)
        fused = simulate(
            app, FusionSetup(p, tuple(2 for _ in p.groups), DEFAULT_LEVELS), model
        )
        assert fused.latency_ms >= base.latency_ms - 1e-9


@pytest.mark.parametrize("levels", [DEFAULT_LEVELS[:1], DEFAULT_LEVELS])
def test_non_finite_times_rejected(s2_sync, levels):
    # One lane runs on floats, several on arrays; both refuse a clock that
    # overflows to inf. A NaN delay is refused when the model is built.
    from fuseplan.runner import run_all

    with pytest.raises(SimulationError, match="finite"):
        PlatformModel(net_oneway_ms=float("nan"))
    app = s2_sync.with_base_work({"A": 1e308})
    with pytest.raises(SimulationError, match="not finite"):
        list(run_all(app, levels))
    with pytest.raises(SimulationError, match="not finite"):
        simulate(app, setup_of(app, "A,B@0,0"), PlatformModel())
