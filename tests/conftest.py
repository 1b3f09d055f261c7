from __future__ import annotations

from typing import Sequence

import pytest
from hypothesis import strategies as st

from fuseplan.app import AppGraph, CallEdge, CallMode, Task
from fuseplan.fusion import DEFAULT_LEVELS, parse_full_setup_name
from fuseplan.sim import ColdPolicy, PlatformModel


def setup_rows(blocks) -> list[tuple]:
    """The results rows of ``ResultBlock``s, one tuple per setup in
    ``RESULT_COLUMNS`` order."""
    return [
        (b.app, b.partition + suffix, latency, traditional, instance, b.invocations, b.cold_starts)
        for b in blocks
        for suffix, latency, traditional, instance in zip(
            b.suffixes, b.latency_ms, b.cost_traditional_pmi, b.cost_instance_pmi)
    ]


def two_task_app(mode: CallMode) -> AppGraph:
    return AppGraph(
        "S2",
        (Task("A", 100.0), Task("B", 100.0)),
        (CallEdge("A", "B", mode),),
        "A",
    )


@pytest.fixture
def s2_sync() -> AppGraph:
    return two_task_app(CallMode.SYNC)


@pytest.fixture
def s2_async() -> AppGraph:
    return two_task_app(CallMode.ASYNC)


@pytest.fixture
def overhead_model() -> PlatformModel:
    """A platform with visible network and cold-start delays."""
    return PlatformModel(
        net_oneway_ms=5.0,
        cold_start_ms=100.0,
        cold_policy=ColdPolicy.ALWAYS_COLD,
        billing_quantum_ms=1.0,
    )


@pytest.fixture
def zero_model() -> PlatformModel:
    return PlatformModel()


def setup_of(app: AppGraph, name: str):
    return parse_full_setup_name(app, name, DEFAULT_LEVELS)


@st.composite
def call_trees(draw, pool: Sequence[str] = ()) -> AppGraph:
    """Random small call trees with mixed modes and positive work.

    Tasks are named A, B, C, ..., or, given a ``pool``, by up to five
    distinct names drawn from it; the first task is the root.
    """
    if pool:
        names = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True))
    else:
        names = [chr(ord("A") + i) for i in range(draw(st.integers(1, 6)))]
    n = len(names)
    tasks = tuple(
        Task(name, draw(st.floats(min_value=1.0, max_value=500.0)))
        for name in names
    )
    edges = []
    for i in range(1, n):
        caller = names[draw(st.integers(min_value=0, max_value=i - 1))]
        mode = draw(st.sampled_from([CallMode.SYNC, CallMode.ASYNC]))
        edges.append(CallEdge(caller, names[i], mode))
    return AppGraph("random", tasks, tuple(edges), names[0])
