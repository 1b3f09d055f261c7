"""Results files through ``write_results_csv`` and ``read_results_csv``, and
the empty inputs of the analyses."""

from __future__ import annotations

import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuseplan.analysis import (
    AnalysisError,
    alpha_sweep,
    baseline_comparison,
    greedy_optimize_path,
    normalize_metrics,
    pareto_front,
)
from fuseplan.app import builtin_app
from fuseplan.cli import main
from fuseplan.fusion import singleton_setup
from fuseplan.pricing import MetricTable, SetupMetrics
from fuseplan.runner import (
    RESULT_COLUMNS,
    RunRow,
    metrics_from_rows,
    read_results_csv,
    write_results_csv,
)

# Names with the characters CSV quoting must carry. A bare "\r" is left out:
# a results file opened in text mode reads it as a line break.
_NAMES = st.one_of(
    st.sampled_from(['a"b', "a,b", "a\nb", "#lead", '"', ",", "\n", "", " x "]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"), max_size=8),
)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_COUNTS = st.integers(min_value=0, max_value=2**63 - 1)
_ROWS = st.lists(st.builds(RunRow, _NAMES, _NAMES, _FLOATS, _FLOATS, _FLOATS, _COUNTS, _COUNTS),
                 max_size=8)


def _round_trip(rows: list[RunRow]) -> np.ndarray:
    buf = io.StringIO()
    write_results_csv(rows, buf)
    return read_results_csv(io.StringIO(buf.getvalue()))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None)
@given(_ROWS)
@example([RunRow("#x,\"y\"\nz", "s@0", -0.0, 5e-324, 1e308, 3, 0),
          RunRow("a", "t@0", 2.2250738585072014e-308, 0.0, -1e308, 0, 2**63 - 1)])
def test_rows_round_trip_bit_for_bit(rows):
    table = _round_trip(rows)
    assert len(table) == len(rows)
    for i, name in enumerate(RESULT_COLUMNS):
        column = [row[i] for row in rows]
        if table.dtype[name] == np.float64:
            assert table[name].tobytes() == _bits(column)
        else:
            assert table[name].tolist() == column
    for pricing_id in ("traditional", "instance_based"):
        read, written = metrics_from_rows(table, pricing_id), metrics_from_rows(rows, pricing_id)
        assert list(read) == list(written)
        assert _bits(read.latency_ms) == _bits(written.latency_ms)
        assert _bits(read.cost_pmi_usd) == _bits(written.cost_pmi_usd)
        if rows:
            assert pareto_front(read) == pareto_front(list(written))


def test_rows_with_a_leading_hash_are_kept_and_blank_lines_skipped():
    header = ",".join(RESULT_COLUMNS)
    text = f"{header}\n\n#a,x@0,1.0,2.0,3.0,1,0\n\n#b,y@0,2.0,1.0,3.0,1,0\n"
    table = read_results_csv(io.StringIO(text))
    assert table["app"].tolist() == ["#a", "#b"]
    assert table["setup"].tolist() == ["x@0", "y@0"]


def test_metric_table_is_a_sequence_of_setup_metrics():
    metrics = [SetupMetrics("a@0", 1.0, 2.0), SetupMetrics("b@1", 3.0, 0.5)]
    table = MetricTable.of(metrics)
    assert len(table) == 2 and list(table) == metrics
    assert table[-1] == metrics[1] and table.row_of == {"a@0": 0, "b@1": 1}
    assert MetricTable.of(table) is table


@pytest.mark.parametrize(
    "command, message",
    [("sweep", "alpha_sweep needs at least one metric"),
     ("pareto", "pareto_front needs at least one metric"),
     ("plot", "no data")],
)
def test_header_only_results_exit_1_without_warnings(tmp_path, capsys, command, message):
    results = tmp_path / "empty.csv"
    results.write_text(",".join(RESULT_COLUMNS) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--results", str(results), "--pricing", "traditional"]) == 1
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_empty_metric_lists_keep_their_errors():
    with pytest.raises(AnalysisError, match="^alpha_sweep needs at least one metric$"):
        alpha_sweep([])
    with pytest.raises(AnalysisError, match="^pareto_front needs at least one metric$"):
        pareto_front([])
    with pytest.raises(AnalysisError, match="^cannot normalize an empty list$"):
        normalize_metrics([])
    app = builtin_app("LINEAR")
    with pytest.raises(AnalysisError, match="^cannot normalize an empty list$"):
        greedy_optimize_path(app, [], 0.5, singleton_setup(app))
    with pytest.raises(AnalysisError, match="^baseline 'a@0' missing from metrics$"):
        baseline_comparison([], "a@0")
