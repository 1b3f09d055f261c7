"""The front-only sweep and the one-pass front against the full-matrix
oracle in ``tests/reference_analysis.py``."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuseplan.analysis import AlphaGrid, AnalysisError, SetupMetrics, alpha_sweep, pareto_front
from fuseplan.app import BUILTIN_NAMES, builtin_app
from fuseplan.runner import metrics_from_rows, run_all

from . import reference_analysis as reference

# Few distinct values, so ties, duplicate points and constant columns are common.
_values = st.integers(min_value=0, max_value=6).map(float) | st.floats(min_value=0.0, max_value=6.0)
_metrics = st.lists(
    st.builds(
        SetupMetrics,
        st.builds("p{}@{}".format, st.integers(0, 3), st.integers(0, 2)),
        _values,
        _values,
    ),
    min_size=1,
    max_size=40,
)


def assert_matches_reference(metrics: list[SetupMetrics], steps: int) -> None:
    grid = AlphaGrid(steps)
    got = alpha_sweep(metrics, grid, "p")
    want = reference.alpha_sweep(metrics, grid, "p")
    assert got.winner_per_alpha == want.winner_per_alpha
    assert got.to_json() == want.to_json()
    assert pareto_front(iter(metrics)) == reference.pareto_front(metrics)


@settings(max_examples=300, deadline=None)
@given(_metrics, st.integers(min_value=2, max_value=1001))
def test_sweep_and_front_match_reference(metrics, steps):
    assert_matches_reference(metrics, steps)


def test_whole_front_sweep_matches_reference_across_chunks():
    # Anti-correlated: every setup is on the front, so the alpha grid is
    # scored in several chunks.
    metrics = [SetupMetrics(f"s{i:03d}@0", float(500 - i) ** 0.5, float(i)) for i in range(500)]
    assert len(pareto_front(metrics)) == 500
    assert_matches_reference(metrics, 10001)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_sweeps_match_reference(name):
    rows = list(run_all(builtin_app(name)))
    for pricing_id in ("traditional", "instance_based"):
        assert_matches_reference(metrics_from_rows(rows, pricing_id), 10001)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_metric_is_rejected(bad):
    for metrics in (
        [SetupMetrics("a@0", 1.0, 1.0), SetupMetrics("b@0", bad, 2.0)],
        [SetupMetrics("a@0", 1.0, 1.0), SetupMetrics("b@0", 2.0, bad)],
    ):
        with pytest.raises(AnalysisError, match="non-finite"):
            alpha_sweep(metrics, AlphaGrid(11))
        with pytest.raises(AnalysisError, match="non-finite"):
            pareto_front(metrics)
