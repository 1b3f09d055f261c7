"""Call-tree partitions, the heuristic, the edge-toggle neighbourhood and
the single-table greedy path against the union-find oracle in
``tests/reference_fusion.py``."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuseplan.analysis import _neighbors, greedy_optimize_path, sync_fuse_heuristic
from fuseplan.app import BUILTIN_NAMES, builtin_app
from fuseplan.fusion import DEFAULT_LEVELS, enumerate_partitions, enumerate_setups, singleton_setup
from fuseplan.runner import metrics_from_rows, run_all

from . import reference_fusion as reference
from .conftest import call_trees
from .reference_sim import reference_setups

_alphas = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0)


def _moves(app, setup) -> Counter:
    return Counter(_neighbors(app, setup))


@settings(max_examples=60, deadline=None)
@given(
    app=call_trees(),
    level_count=st.integers(min_value=1, max_value=3),
    pricing=st.sampled_from(["traditional", "instance_based"]),
    picks=st.lists(st.tuples(st.integers(min_value=0), _alphas), min_size=1, max_size=4),
)
def test_call_tree_fusion_matches_reference(app, level_count, pricing, picks):
    parts = enumerate_partitions(app)
    assert isinstance(parts, list)
    assert parts == reference.enumerate_partitions(app)
    assert sync_fuse_heuristic(app) == reference.sync_fuse_heuristic(app)

    levels = DEFAULT_LEVELS[:level_count]
    setups = list(enumerate_setups(app, levels))
    metrics = metrics_from_rows(list(run_all(app, levels)), pricing)
    for pick, alpha in picks:
        start = setups[pick % len(setups)]
        assert _moves(app, start) == Counter(reference._neighbors(app, start))
        assert greedy_optimize_path(app, metrics, alpha, start) == (
            reference.greedy_optimize_path(app, metrics, alpha, start)
        )


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_fusion_matches_reference(name):
    app = builtin_app(name)
    assert enumerate_partitions(app) == reference.enumerate_partitions(app)
    assert sync_fuse_heuristic(app) == reference.sync_fuse_heuristic(app)
    setups = list(enumerate_setups(app, DEFAULT_LEVELS))
    for setup in setups[::37]:
        assert _moves(app, setup) == Counter(reference._neighbors(app, setup))
    rows = list(run_all(app, DEFAULT_LEVELS))
    for pricing in ("traditional", "instance_based"):
        metrics = metrics_from_rows(rows, pricing)
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            for start in (singleton_setup(app), setups[-1]):
                assert greedy_optimize_path(app, metrics, alpha, start) == (
                    reference.greedy_optimize_path(app, metrics, alpha, start)
                )


@settings(max_examples=30, deadline=None)
@given(app=call_trees(), level_count=st.integers(min_value=1, max_value=3))
def test_setup_order_matches_reference_counter(app, level_count):
    levels = DEFAULT_LEVELS[:level_count]
    want = [(s.name, s.level_indices) for s in reference_setups(app, levels)]
    assert [(s.name, s.level_indices) for s in enumerate_setups(app, levels)] == want
