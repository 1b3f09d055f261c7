"""Tests of the benchmark's own parts: generator, gate and span accounting.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
from spans import Tracer, summarize  # noqa: E402
from workloads import import_fuseplan, synthetic_tree, tree_shape  # noqa: E402

fuseplan = import_fuseplan()


def test_generator_is_seeded_and_mixed():
    a, b = synthetic_tree(8, 3), synthetic_tree(8, 3)
    assert a == b
    assert synthetic_tree(8, 4) != a
    shape = tree_shape(a, 3)
    assert shape["sync_edges"] >= 1 and shape["async_edges"] >= 1
    assert shape["sync_edges"] + shape["async_edges"] == 7
    assert shape["partitions"] == 128
    assert shape["setups"] == fuseplan.fusion.count_setups_tree(8, 3) == 49_152
    app = fuseplan.app.parse_app(json.dumps(a))
    assert len(fuseplan.fusion.enumerate_partitions(app)) == shape["partitions"]


@pytest.fixture
def outputs(tmp_path):
    """Results CSV, sweep and pareto JSON of a small generated tree."""
    app_path = tmp_path / "app.json"
    app_path.write_text(json.dumps(synthetic_tree(5, 1)))
    csv_path = tmp_path / "results.csv"
    sweep = tmp_path / "sweep.json"
    pareto = tmp_path / "pareto.json"
    main = fuseplan.cli.main
    assert main(["run", "--app", str(app_path), "--out", str(csv_path)]) == 0
    assert main(["sweep", "--results", str(csv_path), "--pricing", "traditional",
                 "--alpha-steps", "101", "--out", str(sweep)]) == 0
    assert main(["pareto", "--results", str(csv_path), "--pricing", "traditional",
                 "--out", str(pareto)]) == 0
    app = fuseplan.app.parse_app(app_path.read_text())
    files = {"results.csv": csv_path, "sweep.json": sweep, "pareto.json": pareto}
    pins = {"w": {"seed": 0, "inputs": gate.inputs_digest([app_path]),
                  "outputs": {k: gate.sha256(p) for k, p in files.items()}}}
    return app, app_path, files, pins


def _problems(app, app_path, files, pins):
    lines = files["results.csv"].read_text().splitlines()
    pts = gate.points(lines, "traditional")
    front = gate.reference_front(pts)
    levels = fuseplan.fusion.DEFAULT_LEVELS
    platform = fuseplan.sim.PlatformModel()
    digests = gate.digest_errors(pins, "w", 0, gate.inputs_digest([app_path]), files)
    return {
        "digest": [e for errs in digests.values() for e in errs],
        "rows": gate.row_count_errors(lines, fuseplan.fusion.count_setups_tree(5, 3)),
        "sampled": gate.sampled_row_errors(app, levels, platform, lines, seed=0),
        "sweep": gate.sweep_errors(pts, front, json.loads(files["sweep.json"].read_text())),
        "pareto": gate.pareto_errors(front, json.loads(files["pareto.json"].read_text())),
    }


def test_gate_passes_program_outputs(outputs):
    assert _problems(*outputs) == {k: [] for k in ("digest", "rows", "sampled", "sweep", "pareto")}


def test_gate_flags_corrupted_csv(outputs):
    app, app_path, files, pins = outputs
    lines = files["results.csv"].read_text().splitlines()
    # Row 1 is always sampled; nudge its latency by one unit in the last place.
    cells = next(csv.reader([lines[1]]))
    cells[2] = repr(float(cells[2]) * (1 + 2**-52))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(cells)
    lines[1] = buf.getvalue()
    files["results.csv"].write_text("\n".join(lines) + "\n")
    problems = _problems(app, app_path, files, pins)
    assert problems["digest"] and problems["sampled"]
    files["results.csv"].write_text("\n".join(lines[:-1]) + "\n")
    assert _problems(app, app_path, files, pins)["rows"]


def test_gate_flags_changed_sweep_winner(outputs):
    app, app_path, files, pins = outputs
    doc = json.loads(files["sweep.json"].read_text())
    first = doc["alpha_breakpoints"][0]
    others = [p["setup"] for p in doc["pareto"] if p["setup"] != first["winner"]]
    first["winner"] = others[0]
    files["sweep.json"].write_text(json.dumps(doc, indent=2, sort_keys=True))
    problems = _problems(app, app_path, files, pins)
    assert problems["digest"] and problems["sweep"]


def test_default_seed_inputs_must_match_pins(outputs):
    app, app_path, files, pins = outputs
    pins["w"]["inputs"] = "0" * 64
    errs = gate.digest_errors(pins, "w", 0, gate.inputs_digest([app_path]), files)
    assert all(errs.values())
    assert not any(gate.digest_errors(pins, "w", 7, gate.inputs_digest([app_path]), files).values())


def test_self_time_excludes_children(tmp_path):
    tracer = Tracer(rep=3)

    def leaf(x):
        return x + 1

    def gen(n):
        for i in range(n):
            yield traced_leaf(i)

    traced_leaf = tracer.wrap(leaf, "m.leaf")
    traced_gen = tracer.wrap(gen, "m.gen")
    outer = tracer.wrap(lambda n: sum(traced_gen(n)), "m.outer")
    assert outer(4) == 10
    path = tmp_path / "spans.csv"
    tracer.write(path)
    summary = summarize(path)
    # One span per generator resumption, including the final one.
    assert summary["m.gen"]["calls"] == 5 and summary["m.leaf"]["calls"] == 4
    for name, s in summary.items():
        assert 0 <= s["self_s"] <= s["total_s"], name
    total = summary["m.outer"]["total_s"]
    assert sum(s["self_s"] for s in summary.values()) == pytest.approx(total, abs=1e-9)
    assert path.read_text().splitlines()[1].startswith("3,")
