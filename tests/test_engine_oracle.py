"""The partition-major engine against the scalar reference simulator.

Random call trees, platforms, level palettes and rates; the results CSV that
``write_results_csv`` formats from ``run_all``'s blocks must equal the
reference's, which ``csv.writer`` formats, byte for byte, and every sampled
``simulate`` timeline must equal the reference bit for bit.
"""

from __future__ import annotations

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from fuseplan.app import AppGraph, CallEdge, CallMode, Task
from fuseplan.fusion import ResourceConfig, enumerate_setups
from fuseplan.pricing import InstanceBasedPricing, TraditionalPricing
from fuseplan.runner import run_all, write_results_csv
from fuseplan.sim import ColdPolicy, PlatformModel, simulate

from .reference_sim import reference_csv, reference_simulate

SIMULATE_SAMPLES = 40


@st.composite
def shuffled_call_trees(draw) -> AppGraph:
    """Call trees of 3-7 tasks with mixed modes and shuffled call order."""
    n = draw(st.integers(min_value=3, max_value=7))
    names = [chr(ord("A") + i) for i in range(n)]
    tasks = tuple(
        Task(name, draw(st.floats(min_value=1.0, max_value=500.0))) for name in names
    )
    links = [
        (names[draw(st.integers(min_value=0, max_value=i - 1))], names[i],
         draw(st.sampled_from([CallMode.SYNC, CallMode.ASYNC])))
        for i in range(1, n)
    ]
    edges = []
    for caller, callee, mode in draw(st.permutations(links)):
        edges.append(CallEdge(caller, callee, mode))
    return AppGraph("random", tasks, tuple(edges), "A")


platforms = st.builds(
    PlatformModel,
    net_oneway_ms=st.floats(min_value=0.0, max_value=50.0),
    cold_start_ms=st.floats(min_value=0.0, max_value=500.0),
    cold_policy=st.sampled_from(list(ColdPolicy)),
    billing_quantum_ms=st.floats(min_value=0.01, max_value=100.0),
)

palettes = st.lists(
    st.builds(
        ResourceConfig,
        cpu=st.floats(min_value=0.05, max_value=2.0),
        memory_mb=st.integers(min_value=64, max_value=4096),
    ),
    min_size=1,
    max_size=3,
)

rates = st.floats(min_value=0.0, max_value=1e-4)


@given(
    app=shuffled_call_trees(),
    platform=platforms,
    levels=palettes,
    traditional=st.builds(TraditionalPricing, rates, rates),
    instance=st.builds(InstanceBasedPricing, rates, rates),
)
@settings(deadline=None, max_examples=25)
def test_engine_matches_reference(app, platform, levels, traditional, instance):
    want = reference_csv(app, levels, platform, traditional, instance)
    for jobs in (1, 2):
        buf = io.StringIO()
        write_results_csv(run_all(app, levels, platform, traditional, instance, jobs=jobs), buf)
        assert buf.getvalue() == want

    setups = list(enumerate_setups(app, levels))
    for setup in setups[:: max(1, len(setups) // SIMULATE_SAMPLES)]:
        got = simulate(app, setup, platform)
        ref = reference_simulate(app, setup, platform)
        assert got.latency_ms == ref.latency_ms
        assert got.invocations == ref.invocations
        assert got.trace == ref.trace
