from __future__ import annotations

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuseplan.analysis import front_rows, pareto_front
from fuseplan.app import serialize_app
from fuseplan.cli import main
from fuseplan.runner import RESULT_COLUMNS, metrics_from_rows, read_results_csv

from .conftest import call_trees


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


@pytest.mark.parametrize("start", ["ABCDE@ 1", "ABCDE@\u0661", "ABCDE@+1", "ABCDE@", "ABCDE@1_0"])
def test_path_start_takes_only_written_level_text(capsys, start):
    # One ASCII-digit index per group after '@', as setup names are written.
    assert run_cli("path", "--app", "builtin:LINEAR", "--start", start) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad level indices in")
    assert len(captured.err.splitlines()) == 1


# R -> A (sync), A -> B (async), R -> AB (sync): fused A and B are written "A+B".
RAB = {
    "name": "RAB", "root": "R",
    "tasks": [{"name": n, "base_work_ms": w} for n, w in zip(("R", "A", "B", "AB"), (1, 2, 3, 4))],
    "edges": [{"caller": "R", "callee": "A", "mode": "sync"},
              {"caller": "A", "callee": "B", "mode": "async"},
              {"caller": "R", "callee": "AB", "mode": "sync"}],
}


@pytest.mark.parametrize(
    "app, start",
    [
        ("builtin:TREE", "GFC,ABDE@0,2"),
        ("builtin:TREE", "CFG,ABDE@2,0"),
        ("builtin:TREE", "ABDE,CFG@02,0"),
        ("RAB", "AB,A+B,R@0,0,0"),
        ("RAB", "B+A,AB,R@0,0,0"),
    ],
)
def test_path_start_takes_only_the_written_name(tmp_path, capsys, app, start):
    # Levels apply in written group order, so a name with its groups or
    # members reordered, or an index with a leading zero, names no setup.
    if app == "RAB":
        app = tmp_path / "rab.json"
        app.write_text(json.dumps(RAB))
    assert run_cli("path", "--app", str(app), "--start", start) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv", [("sweep",), ("pareto",), ("plot",), ("plot", "--path", "--app", "builtin:LINEAR")],
    ids=" ".join,
)
def test_ranking_commands_refuse_a_pricing_config(linear_results, tmp_path, capsys, argv):
    # A results file holds costs at the rates it was run with, so a config's
    # rates could only be ignored: the config belongs to 'run --pricing'.
    config = tmp_path / "fee.json"
    config.write_text(json.dumps({"model": "traditional", "request_fee_usd": 1.0}))
    out = tmp_path / "out"
    assert run_cli(*argv, "--results", str(linear_results), "--pricing", str(config),
                   "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    for word in ("traditional", "instance_based", "'run --pricing'"):
        assert word in captured.err


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

    from fuseplan.analysis import SetupMetrics
    from fuseplan.svg import scatter_svg

    svg = scatter_svg([SetupMetrics("A@0", 1.0, 2.0)], "a<b&c")
    doc = minidom.parseString(svg)
    titles = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    assert "a<b&c" in titles


def _assert_one_error_line(capsys) -> None:
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


# Each bad row, as the third line of a results file, and its error message.
MALFORMED_ROWS = {
    "x,a@0,1.0": "results CSV line 3: 3 fields, expected 7",
    "x,a@0,1.0,2.0,3.0,1,0,extra": "results CSV line 3: 8 fields, expected 7",
    "x,a@0,nan,2.0,3.0,1,0": "results CSV: setup 'a@0' has a non-finite latency or cost",
    "x,a@0,1.0,inf,3.0,1,0": "results CSV: setup 'a@0' has a non-finite latency or cost",
    "x,a@0,1.0,2.0,-inf,1,0": "results CSV: setup 'a@0' has a non-finite latency or cost",
    "x,a@0,1.0,2.0,3.0,1.5,0": "results CSV line 3: bad count '1.5' for invocations",
    "x,a@0,1_0,2.0,3.0,1,0": "results CSV line 3: bad number '1_0' for latency_ms",
    # Python's float() takes both of these; numpy, which reads the file, does not.
    "x,a@0,1.0,\u0661,3.0,1,0": "results CSV line 3: bad number '\u0661' for cost_traditional_pmi",
    "x,a@0,1.0,2.0,3.0,1,99999999999999999999":
        "results CSV line 3: bad count '99999999999999999999' for cold_starts",
    # A blank line is skipped but still counted.
    "\nx,a@0,1.0": "results CSV line 4: 3 fields, expected 7",
}


@pytest.mark.parametrize("row", MALFORMED_ROWS)
@pytest.mark.parametrize("command", ["sweep", "pareto"])
def test_malformed_results_row_is_domain_error(tmp_path, capsys, command, row):
    results = tmp_path / "bad.csv"
    results.write_text(",".join(RESULT_COLUMNS) + "\nx,b@0,2.0,2.0,3.0,1,0\n" + row + "\n")
    assert run_cli(command, "--results", str(results), "--pricing", "traditional") == 1
    assert capsys.readouterr().err == f"error: {MALFORMED_ROWS[row]}\n"


@pytest.mark.parametrize(
    "config",
    [
        '{"model": "traditional", "request_fee_usd": NaN}',
        '{"model": "traditional", "gb_second_rate_usd": Infinity}',
        '{"model": "instance_based", "vcpu_second_rate_usd": NaN}',
        '{"model": "traditional", "request_fee_usd": null}',
    ],
)
@pytest.mark.parametrize("command", ["run", "path"])
def test_bad_pricing_rate_is_domain_error(tmp_path, capsys, command, config):
    path = tmp_path / "pricing.json"
    path.write_text(config)
    extra = ["--alpha", "0.5"] if command == "path" else ["--out", str(tmp_path / "out.csv")]
    assert run_cli(command, "--app", "builtin:LINEAR", "--pricing", str(path), *extra) == 1
    _assert_one_error_line(capsys)


def _descriptor(tmp_path, work_ms: float = 100.0, chain: int = 2):
    path = tmp_path / "app.json"
    names = [f"T{i}" for i in range(chain)]
    path.write_text(json.dumps({
        "name": "CHAIN",
        "root": names[0],
        "tasks": [{"name": n, "base_work_ms": work_ms} for n in names],
        "edges": [
            {"caller": a, "callee": b, "mode": "sync"} for a, b in zip(names, names[1:])
        ],
    }))
    return path


@pytest.mark.parametrize(
    "option, text",
    [
        ("--levels", '[{"cpu": Infinity, "memory_mb": 128}]'),
        ("--levels", '[{"cpu": 0.5, "memory_mb": Infinity}]'),
        ("--platform", '{"billing_quantum_ms": Infinity}'),
        ("--platform", '{"net_oneway_ms": NaN}'),
        ("--platform", '{"cold_start_ms": -Infinity}'),
    ],
)
def test_non_finite_model_input_is_domain_error(tmp_path, capsys, option, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    assert run_cli("run", "--app", "builtin:LINEAR", option, str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1


def test_non_finite_task_work_is_domain_error(tmp_path, capsys):
    descriptor = _descriptor(tmp_path, work_ms=float("inf"))
    assert run_cli("run", "--app", str(descriptor)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "base_work_ms must be finite" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_failed_run_leaves_existing_out_untouched(tmp_path, capsys):
    # Finite work that overflows at cpu 0.1: the walk reports a non-finite
    # billed time part-way through the run.
    descriptor = _descriptor(tmp_path, work_ms=1e308)
    out = tmp_path / "results.csv"
    out.write_text("keep\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("run", "--app", str(descriptor), "--out", str(out)) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite" in err
    assert len(err.strip().splitlines()) == 1
    assert out.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["app.json", "results.csv"]


def test_heuristic_on_deep_chain(tmp_path, capsys):
    descriptor = _descriptor(tmp_path, chain=1200)
    assert run_cli("heuristic", "--app", str(descriptor)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["+".join(sorted(f"T{i}" for i in range(1200)))]


def test_cost_overflow_is_domain_error(tmp_path, capsys):
    # The billed time is finite, but pricing it overflows to inf.
    descriptor = tmp_path / "big.json"
    descriptor.write_text(json.dumps({
        "name": "BIG",
        "root": "A",
        "tasks": [{"name": n, "base_work_ms": 1e305} for n in "AB"],
        "edges": [{"caller": "A", "callee": "B", "mode": "async"}],
    }))
    out = tmp_path / "results.csv"
    assert run_cli("run", "--app", str(descriptor), "--levels", "1", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cost is not finite" in err
    assert len(err.strip().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1]", "must be an object"),
        ('{"net_oneway_ms": null}', "net_oneway_ms must be a number"),
        ('{"billing_quantum_ms": [100]}', "billing_quantum_ms must be a number"),
        ('{"net_oneway_ms": "5", "cold_start_ms": true}', "net_oneway_ms must be a number"),
        ('{"cold_start_ms": true}', "cold_start_ms must be a number"),
    ],
)
def test_malformed_platform_is_domain_error(tmp_path, capsys, text, message):
    platform = tmp_path / "platform.json"
    platform.write_text(text)
    assert run_cli("run", "--app", "builtin:LINEAR", "--platform", str(platform)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_failed_run_to_stdout_ends_with_one_error_line(tmp_path, capsys):
    # Rows stream to stdout as they are evaluated, so a failed run leaves an
    # incomplete CSV there: here the header alone, since pricing the first
    # row overflows to inf.
    descriptor = tmp_path / "big.json"
    descriptor.write_text(json.dumps({
        "name": "BIG",
        "root": "A",
        "tasks": [{"name": n, "base_work_ms": 1e305} for n in "AB"],
        "edges": [{"caller": "A", "callee": "B", "mode": "async"}],
    }))
    assert run_cli("run", "--app", str(descriptor), "--levels", "1") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "cost is not finite" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out.splitlines() == [",".join(RESULT_COLUMNS)]


def _levels_file(tmp_path, memory_mb) -> str:
    path = tmp_path / f"levels-{memory_mb}.json"
    path.write_text(json.dumps([{"cpu": 0.1, "memory_mb": 128}, {"cpu": 0.5, "memory_mb": memory_mb}]))
    return str(path)


def test_level_memory_must_be_whole(tmp_path, capsys):
    assert run_cli("run", "--app", "builtin:LINEAR", "--levels", _levels_file(tmp_path, 832.9)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "memory_mb must be a whole number" in captured.err
    outputs = []
    for memory_mb in (832, 832.0):
        out = tmp_path / f"out-{memory_mb}.csv"
        levels = _levels_file(tmp_path, memory_mb)
        assert run_cli("run", "--app", "builtin:LINEAR", "--levels", levels, "--out", str(out)) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("heuristic", "--app"),
        ("run", "--app", "builtin:LINEAR", "--levels"),
        ("run", "--app", "builtin:LINEAR", "--platform"),
        ("run", "--app", "builtin:LINEAR", "--pricing"),
    ],
)
def test_deeply_nested_json_is_domain_error(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert run_cli(*argv, str(deep)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "field, name, message",
    [
        ("task", "A@1", "may not contain ',', '+' or '@'"),
        ("task", "a\rb", "must be a printable string"),
        ("task", "a\tb", "must be a printable string"),
        ("app", "a\rb", "must be a printable string"),
        ("app", "a\tb", "must be a printable string"),
    ],
)
@pytest.mark.parametrize("command", ["heuristic", "run"])
def test_reserved_or_control_character_in_name_is_domain_error(
        tmp_path, capsys, command, field, name, message):
    root = name if field == "task" else "A"
    descriptor = tmp_path / "app.json"
    descriptor.write_text(json.dumps({
        "name": name if field == "app" else "APP",
        "root": root,
        "tasks": [{"name": n, "base_work_ms": 100.0} for n in (root, "B")],
        "edges": [{"caller": root, "callee": "B", "mode": "sync"}],
    }))
    assert run_cli(command, "--app", str(descriptor)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "option, message",
    [(("--alpha", "7"), "error: alpha must lie in [0, 1]\n"),
     (("--start", "nonsense"), "error: unknown task 'e'\n")],
    ids=["--alpha", "--start"],
)
def test_path_checks_start_and_alpha_before_pricing_any_setup(capsys, monkeypatch, option, message):
    def fail(*args, **kwargs):
        raise AssertionError("run_all called before --start and --alpha were checked")

    monkeypatch.setattr("fuseplan.cli.run_all", fail)
    assert run_cli("path", "--app", "builtin:TREE", *option) == 1
    assert capsys.readouterr() == ("", message)


def test_plot_path_checks_start_before_reading_results(tmp_path, capsys):
    # A missing file would exit 2; the bad start is found first.
    assert run_cli("plot", "--path", "--app", "builtin:LINEAR", "--start", "nonsense",
                   "--results", str(tmp_path / "missing.csv")) == 1
    assert capsys.readouterr() == ("", "error: unknown task 'e'\n")


def test_sweep_checks_alpha_steps_before_reading_results(tmp_path, capsys):
    assert run_cli("sweep", "--alpha-steps", "1", "--results", str(tmp_path / "missing.csv")) == 1
    assert capsys.readouterr() == ("", "error: alpha grid needs at least 2 steps\n")


@pytest.mark.parametrize(
    "option",
    [("--app", "builtin:LINEAR"), ("--levels", "9"), ("--start", "nonsense@@"), ("--alpha", "7")],
    ids=lambda option: option[0],
)
def test_plot_refuses_path_flags_without_path(linear_results, tmp_path, capsys, option):
    out = tmp_path / "plot.svg"
    assert run_cli("plot", "--results", str(linear_results), *option, "--out", str(out)) == 1
    assert capsys.readouterr() == ("", f"error: plot reads {option[0]} only with --path\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "run_levels, plot_levels, rows, expected",
    [("3", "2", 768, 162), ("3", "1", 768, 16), ("1", "3", 16, 768)],
)
def test_plot_path_refuses_levels_that_do_not_describe_results(
        tmp_path, capsys, run_levels, plot_levels, rows, expected):
    results, out = tmp_path / "linear.csv", tmp_path / "plot.svg"
    assert run_cli("run", "--app", "builtin:LINEAR", "--levels", run_levels,
                   "--out", str(results)) == 0
    capsys.readouterr()
    assert run_cli("plot", "--results", str(results), "--path", "--app", "builtin:LINEAR",
                   "--levels", plot_levels, "--out", str(out)) == 1
    assert capsys.readouterr() == (
        "", f"error: --results has {rows} setups, but --app at --levels has {expected}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--app", "builtin:LINEAR"),
        ("enumerate", "--app", "builtin:LINEAR", "--list"),
        ("run", "--app", "builtin:LINEAR"),
        ("path", "--app", "builtin:LINEAR"),
        ("plot", "--results", "RESULTS", "--path", "--app", "builtin:LINEAR"),
    ],
    ids=" ".join,
)
def test_empty_level_list_is_refused_where_it_is_read(linear_results, tmp_path, capsys, argv):
    levels = tmp_path / "levels.json"
    levels.write_text("[]")
    argv = [str(linear_results) if arg == "RESULTS" else arg for arg in argv]
    assert run_cli(*argv, "--levels", str(levels)) == 1
    assert capsys.readouterr() == ("", "error: --levels must list at least one level\n")


def _run_to_stdout(*argv: str) -> tuple[str, int]:
    """``run``'s stderr and the data-row count of the CSV it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["run", *argv]) == 0
    return err.getvalue(), len(out.getvalue().splitlines()) - 1


def test_run_counts_the_rows_it_writes():
    assert _run_to_stdout("--app", "builtin:TREE") == ("12288 setups evaluated\n", 12288)


@pytest.fixture(scope="module")
def app_path(tmp_path_factory):
    return tmp_path_factory.mktemp("count") / "app.json"


@settings(max_examples=40, deadline=None)
@given(app=call_trees(), level_count=st.integers(min_value=1, max_value=3))
def test_run_count_matches_rows_on_call_trees(app_path, app, level_count):
    app_path.write_text(serialize_app(app))
    err, rows = _run_to_stdout("--app", str(app_path), "--levels", str(level_count))
    assert err == f"{rows} setups evaluated\n"


@pytest.mark.parametrize("levels", ["\u0663", "\uff13", "\u00b2"])
def test_levels_count_is_ascii_digits_only(tmp_path, capsys, monkeypatch, levels):
    # Arabic-Indic three, fullwidth three and superscript two are paths.
    monkeypatch.chdir(tmp_path)
    assert run_cli("enumerate", "--app", "builtin:TREE", "--levels", levels) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o error:") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("levels", ["0", "4"])
def test_levels_count_outside_range_is_domain_error(capsys, levels):
    assert run_cli("enumerate", "--app", "builtin:TREE", "--levels", levels) == 1
    assert capsys.readouterr() == ("", f"error: --levels {levels} outside 1..3\n")


def test_levels_file_must_hold_a_list(tmp_path, capsys):
    levels = tmp_path / "levels.json"
    levels.write_text("{}")
    assert run_cli("enumerate", "--app", "builtin:TREE", "--levels", str(levels)) == 1
    assert capsys.readouterr() == (
        "", "error: levels JSON must be a list of {cpu, memory_mb} objects\n")


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 7.28 TiB"), "Unable to allocate 7.28 TiB"),
    (MemoryError(), "allocation failed"),
])
def test_out_of_memory_is_one_error_line(linear_results, capsys, monkeypatch, exc, message):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr("fuseplan.cli.alpha_sweep", fail)
    assert run_cli("sweep", "--results", str(linear_results)) == 1
    assert capsys.readouterr() == ("", f"error: out of memory: {message}\n")


def test_pareto_out_writes_the_front(linear_results, tmp_path):
    out = tmp_path / "front.json"
    assert run_cli("pareto", "--results", str(linear_results), "--out", str(out)) == 0
    with open(linear_results) as handle:
        metrics = metrics_from_rows(read_results_csv(handle), "traditional")
    assert json.loads(out.read_text()) == front_rows(pareto_front(metrics))


def test_plot_without_out_writes_svg_to_stdout(linear_results, capsys):
    assert run_cli("plot", "--results", str(linear_results)) == 0
    assert capsys.readouterr().out.count('<circle class="pt"') == 768


def test_plot_path_requires_app(linear_results, capsys):
    assert run_cli("plot", "--results", str(linear_results), "--path") == 1
    assert capsys.readouterr() == ("", "error: --path requires --app\n")


def test_path_from_an_optimum_says_so(capsys):
    assert run_cli("path", "--app", "builtin:LINEAR", "--start", "ABCDE@2") == 0
    assert capsys.readouterr().out.splitlines()[1] == "  already at a local optimum"


def test_path_start_without_levels_is_level_zero(capsys):
    assert run_cli("path", "--app", "builtin:LINEAR", "--start", "ABCDE") == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "greedy path from ABCDE@0 at alpha=0.5 (traditional)")
