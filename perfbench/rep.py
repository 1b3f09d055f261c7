"""One benchmark repetition, run by ``run.py`` in a fresh process.

Set-up imports ``fuseplan.cli`` and generates the workload's input files;
then every stage runs in order, in this process, through
``fuseplan.cli.main(argv)``. After the timings are taken the outputs go
through the correctness gate. The last stdout line is one JSON object.

With ``--trace`` the run first times ``run_all`` at ``--jobs 2`` as a whole,
then installs the span tracer and runs every stage at ``--jobs 1``; the
spans are written to ``--spans`` at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import gate
from workloads import WORKLOADS, input_files, import_fuseplan, stages, write_inputs


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _run_stage(cli, argv: tuple[str, ...]) -> tuple[float, int, str]:
    err = io.StringIO()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        t = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = -1
            traceback.print_exc()
        seconds = time.perf_counter() - t
    return seconds, rc, err.getvalue()


def _output_counts(stage_list) -> Counter:
    """Bytes of the results CSVs and SVGs, and Pareto front sizes per pricing."""
    counts: Counter[str] = Counter()
    for s in stage_list:
        if s.output is None or not s.output.is_file():
            continue
        if s.kind == "run":
            counts["runner.csv_bytes"] += s.output.stat().st_size
        elif s.kind == "plot":
            counts["svg.bytes"] += s.output.stat().st_size
        elif s.kind == "pareto":
            counts[f"analysis.front_size.{s.pricing}"] += len(json.loads(s.output.read_text()))
    return counts


def _model(fuseplan, workload, app_input):
    from fuseplan.fusion import DEFAULT_LEVELS
    from fuseplan.sim import ColdPolicy, PlatformModel

    raw = dict(workload.platform or {})
    if "cold_policy" in raw:
        raw["cold_policy"] = ColdPolicy(raw["cold_policy"])
    app = fuseplan.app.parse_app(app_input.descriptor.read_text())
    return app, DEFAULT_LEVELS[: workload.levels], PlatformModel(**raw)


def check_outputs(fuseplan, workload, seed, apps, stage_list, workdir) -> list[list[str]]:
    """Gate problems per stage, in stage order."""
    pins = gate.load_pins()
    inputs = gate.inputs_digest(input_files(workload, apps, workdir))
    pinned = {s.output.name: s.output for s in stage_list if s.kind in ("run", "sweep", "pareto")}
    by_digest = gate.digest_errors(pins, workload.name, seed, inputs, pinned)
    shapes = {a.name: a for a in apps}
    lines: dict[str, list[str]] = {}
    fronts: dict[tuple[str, str], tuple[list, list]] = {}
    problems = []
    for s in stage_list:
        errs = list(by_digest.get(s.output.name, [])) if s.output else []
        if s.output is not None and not s.output.is_file():
            problems.append(errs + ["no output"])
            continue
        if s.kind == "run":
            lines[s.app] = s.output.read_text().splitlines()
            errs += gate.row_count_errors(lines[s.app], shapes[s.app].shape["setups"])
            app, levels, platform = _model(fuseplan, workload, shapes[s.app])
            errs += gate.sampled_row_errors(app, levels, platform, lines[s.app], seed)
        elif s.kind in ("sweep", "pareto") and s.app in lines:
            if (s.app, s.pricing) not in fronts:
                pts = gate.points(lines[s.app], s.pricing)
                fronts[s.app, s.pricing] = pts, gate.reference_front(pts)
            pts, front = fronts[s.app, s.pricing]
            doc = json.loads(s.output.read_text())
            errs += gate.sweep_errors(pts, front, doc) if s.kind == "sweep" else gate.pareto_errors(front, doc)
        problems.append(errs)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--t0-ns", type=int, required=True, dest="t0_ns",
                        help="perf_counter_ns() of the parent just before it started this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--only", choices=("setup", "run"),
                        help="stop after set-up, or run the `run` stages alone")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    fuseplan = import_fuseplan()
    cli = fuseplan.cli
    apps = write_inputs(workload, args.seed, args.workdir)
    setup_s = (time.perf_counter_ns() - args.t0_ns) / 1e9
    if args.only == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    jobs = 1 if args.trace else workload.jobs
    stage_list = stages(workload, apps, args.workdir, jobs)
    if args.only == "run":
        stage_list = [s for s in stage_list if s.kind == "run"]
    result = {"setup_s": setup_s, "shapes": {a.name: a.shape for a in apps}}
    tracer = None
    if args.trace:
        t = time.perf_counter()
        for a in apps:
            app, levels, platform = _model(fuseplan, workload, a)
            for _ in fuseplan.runner.run_all(app, levels, platform, jobs=2):
                pass
        result["run_all_jobs2_s"] = time.perf_counter() - t
        from spans import Tracer

        tracer = Tracer(args.rep)
        tracer.install()

    timings = []
    for s in stage_list:
        seconds, rc, err = _run_stage(cli, s.argv)
        if rc != 0:
            print(f"stage {' '.join(s.argv)} exited {rc}:\n{err}", file=sys.stderr)
        timings.append({"kind": s.kind, "app": s.app, "pricing": s.pricing, "seconds": seconds, "rc": rc})
    result["peak_rss_mb"] = _peak_rss_mb()

    if tracer is not None:
        tracer.write(args.spans)
        result["counts"] = dict(tracer.counts + _output_counts(stage_list))

    problems = check_outputs(fuseplan, workload, args.seed, apps, stage_list, args.workdir)
    for t, errs in zip(timings, problems):
        t["problems"] = errs
        for e in errs:
            print(f"gate: {t['kind']} {t['app']} {t['pricing'] or ''}: {e}", file=sys.stderr)
    result["stages"] = timings
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
