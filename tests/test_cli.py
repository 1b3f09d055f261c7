from __future__ import annotations

import json

import pytest

from fuseplan.cli import main
from fuseplan.runner import RESULT_COLUMNS


def run_cli(*argv: str) -> int:
    return main(list(argv))


def test_enumerate_counts(capsys):
    assert run_cli("enumerate", "--app", "builtin:TREE") == 0
    assert capsys.readouterr().out.strip() == "12288"
    assert run_cli("enumerate", "--app", "builtin:LINEAR") == 0
    assert capsys.readouterr().out.strip() == "768"
    assert run_cli("enumerate", "--app", "builtin:LINEAR", "--levels", "1") == 0
    assert capsys.readouterr().out.strip() == "16"


def test_enumerate_list_streams_names(capsys):
    assert run_cli("enumerate", "--app", "builtin:LINEAR", "--levels", "1", "--list") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 16
    assert "ABCDE@0" in lines
    assert "A,B,C,D,E@0,0,0,0,0" in lines


def test_enumerate_rejects_unknown_builtin(capsys):
    assert run_cli("enumerate", "--app", "builtin:NOPE") == 1
    assert "error:" in capsys.readouterr().err


def test_run_writes_expected_row_count(tmp_path, capsys):
    out = tmp_path / "linear.csv"
    assert run_cli("run", "--app", "builtin:LINEAR", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert len(lines) == 1 + 768


def test_run_single_task_app(tmp_path):
    descriptor = tmp_path / "one.json"
    descriptor.write_text(
        json.dumps(
            {
                "name": "ONE",
                "root": "A",
                "tasks": [{"name": "A", "base_work_ms": 50}],
                "edges": [],
            }
        )
    )
    out = tmp_path / "one.csv"
    assert run_cli("run", "--app", str(descriptor), "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 1 + 3


def test_run_is_reproducible(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli("run", "--app", "builtin:PARALLEL_LINEAR", "--out", str(a)) == 0
    assert run_cli("run", "--app", "builtin:PARALLEL_LINEAR", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def linear_results(tmp_path_factory):
    path = tmp_path_factory.mktemp("results") / "linear.csv"
    assert run_cli("run", "--app", "builtin:LINEAR", "--out", str(path)) == 0
    return path


def test_sweep_linear_both_models(linear_results, tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert (
        run_cli(
            "sweep", "--results", str(linear_results),
            "--pricing", "traditional", "--out", str(out),
        )
        == 0
    )
    text = capsys.readouterr().out
    assert "ABCDE" in text and "100.00%" in text
    doc = json.loads(out.read_text())
    assert doc["partition_coverage"] == {"ABCDE": 100.0}
    assert doc["steps"] == 10001

    assert (
        run_cli("sweep", "--results", str(linear_results), "--pricing", "instance_based")
        == 0
    )
    assert "ABCDE" in capsys.readouterr().out


def test_sweep_two_steps_hits_grid_endpoints(linear_results, tmp_path):
    out = tmp_path / "two.json"
    assert (
        run_cli(
            "sweep", "--results", str(linear_results),
            "--pricing", "traditional", "--alpha-steps", "2", "--out", str(out),
        )
        == 0
    )
    doc = json.loads(out.read_text())
    assert doc["steps"] == 2
    spans = doc["alpha_breakpoints"]
    assert spans[0]["from_alpha"] == 0.0
    assert spans[-1]["to_alpha"] == 1.0
    assert sum(doc["coverage_counts"].values()) == 2


def test_sweep_missing_results_is_io_error(tmp_path, capsys):
    assert (
        run_cli("sweep", "--results", str(tmp_path / "missing.csv"), "--pricing", "traditional")
        == 2
    )
    assert "i/o error" in capsys.readouterr().err


def test_pareto_lists_front(linear_results, capsys):
    assert run_cli("pareto", "--results", str(linear_results), "--pricing", "traditional") == 0
    out = capsys.readouterr().out
    assert "pareto front" in out
    assert "ABCDE@0" in out


def test_plot_emits_one_point_per_setup(linear_results, tmp_path):
    out = tmp_path / "scatter.svg"
    assert (
        run_cli(
            "plot", "--results", str(linear_results),
            "--pricing", "traditional", "--out", str(out),
        )
        == 0
    )
    svg = out.read_text()
    assert svg.count('<circle class="pt"') == 768
    assert svg.startswith("<svg")


def test_plot_tree_emits_all_points(tmp_path):
    results = tmp_path / "tree.csv"
    assert run_cli("run", "--app", "builtin:TREE", "--out", str(results), "--jobs", "4") == 0
    out = tmp_path / "tree.svg"
    assert (
        run_cli("plot", "--results", str(results), "--pricing", "traditional", "--out", str(out))
        == 0
    )
    assert out.read_text().count('<circle class="pt"') == 12288


def test_plot_path_overlay_ends_fully_fused(linear_results, tmp_path):
    out = tmp_path / "path.svg"
    assert (
        run_cli(
            "plot", "--results", str(linear_results), "--pricing", "traditional",
            "--out", str(out), "--path", "--app", "builtin:LINEAR",
        )
        == 0
    )
    svg = out.read_text()
    assert 'class="step-fusion"' in svg
    assert 'class="step-resource"' in svg


def test_plot_empty_results_is_domain_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(RESULT_COLUMNS) + "\n")
    assert (
        run_cli("plot", "--results", str(empty), "--pricing", "traditional") == 1
    )
    assert "no data" in capsys.readouterr().err


def test_heuristic_outputs(capsys):
    assert run_cli("heuristic", "--app", "builtin:TREE") == 0
    assert capsys.readouterr().out.strip() == "ABDE,C,F,G"
    assert run_cli("heuristic", "--app", "builtin:ASYNC") == 0
    assert capsys.readouterr().out.strip() == "A,B,C,D,E"


def test_path_command_reports_steps(capsys):
    assert (
        run_cli(
            "path", "--app", "builtin:LINEAR", "--pricing", "traditional",
            "--alpha", "0.5",
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "greedy path" in out
    assert "ABCDE" in out


def test_calibrate_prime_verdict(capsys):
    assert run_cli("calibrate", "--exponent", "3") == 0
    assert "verdict prime" in capsys.readouterr().out
    assert run_cli("calibrate", "--exponent", "11", "--reps", "2") == 0
    assert "verdict composite" in capsys.readouterr().out


def test_calibrate_rejects_bad_exponent(capsys):
    assert run_cli("calibrate", "--exponent", "9") == 1
    assert "odd prime" in capsys.readouterr().err


def test_apps_list(capsys):
    assert run_cli("apps", "list") == 0
    out = capsys.readouterr().out
    for name in ("LINEAR", "PARALLEL_LINEAR", "TREE", "ASYNC"):
        assert name in out


def test_no_color_env_strips_ansi(linear_results, capsys, monkeypatch):
    monkeypatch.setenv("FUSEPLAN_NO_COLOR", "1")
    assert run_cli("sweep", "--results", str(linear_results), "--pricing", "traditional") == 0
    assert "\033[" not in capsys.readouterr().out


def _path_scores(capsys, pricing: str) -> list[str]:
    assert run_cli("path", "--app", "builtin:LINEAR", "--alpha", "0.5", "--pricing", pricing) == 0
    out = capsys.readouterr().out
    return [line.split("score", 1)[1] for line in out.splitlines() if "score" in line]


def test_path_uses_pricing_config_rates(tmp_path, capsys):
    config = tmp_path / "fee.json"
    config.write_text(json.dumps({"model": "traditional", "request_fee_usd": 0.01}))
    default = _path_scores(capsys, "traditional")
    assert default
    assert _path_scores(capsys, str(config)) != default


def test_level_entry_without_memory_is_domain_error(tmp_path, capsys):
    levels = tmp_path / "levels.json"
    levels.write_text(json.dumps([{"cpu": 0.5}]))
    assert run_cli("run", "--app", "builtin:LINEAR", "--levels", str(levels)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_descriptor_with_non_list_tasks_is_domain_error(tmp_path, capsys):
    descriptor = tmp_path / "bad.json"
    descriptor.write_text(json.dumps({"name": "X", "root": "A", "tasks": 5, "edges": []}))
    assert run_cli("run", "--app", str(descriptor)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_plot_title_is_xml_escaped():
    from xml.dom import minidom

    from fuseplan.pricing import SetupMetrics
    from fuseplan.svg import scatter_svg

    svg = scatter_svg([SetupMetrics("A@0", 1.0, 2.0)], "a<b&c")
    doc = minidom.parseString(svg)
    titles = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    assert "a<b&c" in titles
