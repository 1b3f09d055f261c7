"""Pipeline benchmark for fuseplan: run -> sweep -> pareto (-> path, plot).

    python3 perfbench/run.py --workload tree8-l3 --seed 0 --seconds 44 --trace 0

Each repetition runs in a fresh process (``rep.py``) that drives the real
CLI, ``fuseplan.cli.main``, stage by stage. With ``--trace 0`` repetitions
repeat until the next one would overrun ``--seconds``; every end-to-end
metric is the median over them. With ``--trace 1`` one untraced and one
traced repetition run, and the per-layer metrics come from the traced one.

Earlier stdout lines print every metric by name with its unit, the error
rate and the run facts; the last line is the JSON result. Details (facts,
per-repetition numbers) also go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import ROOT, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
MAX_REPS = 64
# Set-up-only processes per run, so that setup_s is a median even when a
# single repetition fills the run.
SETUP_SAMPLES = 3
REP_TIMEOUT_S = 150


def run_facts(seed: int, reps: int) -> dict:
    """Where and on what the numbers were taken."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                caches[f"l{level}_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "uncommitted_changes": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        **caches,
        "seed": seed,
        "repetitions": reps,
    }


def run_rep(workload: str, seed: int, workdir: Path, rep: int, spans: Path | None = None,
            only: str | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir), "--rep", str(rep)]
    if spans is not None:
        cmd += ["--trace", "--spans", str(spans)]
    if only is not None:
        cmd += ["--only", only]
    t0 = time.perf_counter_ns()
    # A session of its own, so a timeout also stops the repetition's pool workers.
    proc = subprocess.Popen(cmd + ["--t0-ns", str(t0)], stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: repetition {rep} ran over {REP_TIMEOUT_S} s")
    wall = (time.perf_counter_ns() - t0) / 1e9
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: repetition {rep} exited {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["only"] = only
    return result


def rep_metrics(rep: dict) -> dict[str, float]:
    """End-to-end numbers of one repetition; None where it ran no such stage."""
    by_kind: dict[str, float] = {}
    for s in rep["stages"]:
        by_kind[s["kind"]] = by_kind.get(s["kind"], 0.0) + s["seconds"]
    setups = sum(shape["setups"] for shape in rep["shapes"].values())
    full = rep["only"] is None
    return {
        "setup_s": rep["setup_s"],
        "pipeline_s": sum(by_kind.values()) if full else None,
        "run_s": by_kind["run"],
        "setups_per_s": setups / by_kind["run"],
        "sweep_s": by_kind.get("sweep"),
        "pareto_s": by_kind.get("pareto"),
        "plot_s": by_kind.get("plot"),
        "path_s": by_kind.get("path"),
        "peak_rss_mb": rep["peak_rss_mb"] if full else None,
    }


UNITS = {
    "setup_s": "s", "pipeline_s": "s", "run_s": "s", "setups_per_s": "1/s", "sweep_s": "s",
    "pareto_s": "s", "plot_s": "s", "path_s": "s", "peak_rss_mb": "MB",
}
# Printed but not reported: `path` runs on the built-in apps only, and the
# plot and pareto stages are too short to hold a 25% bound on every workload.
REPORTED = [m for m in UNITS if m not in ("path_s", "plot_s", "pareto_s")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fuseplan" / "cli.py").is_file():
        print(f"perfbench: no fuseplan sources under {SRC}", file=sys.stderr)
        return 2
    # Build step: byte-compile the sources so no repetition pays for it.
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("perfbench: compiling the sources failed", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        if args.trace:
            spans = OUT / f"spans-{args.workload}-s{args.seed}.csv"
            reps = [run_rep(args.workload, args.seed, workdir, 0),
                    run_rep(args.workload, args.seed, workdir, 1, spans)]
        else:
            start = time.perf_counter()

            def left() -> float:
                return args.seconds - (time.perf_counter() - start)

            setup_samples = [run_rep(args.workload, args.seed, workdir, 0, only="setup")["setup_s"]
                             for _ in range(SETUP_SAMPLES)]
            reps = []
            while len(reps) < MAX_REPS:
                reps.append(run_rep(args.workload, args.seed, workdir, len(reps)))
                if left() < max(r["wall_s"] for r in reps):
                    break
            # One tree8-l3 repetition can take half a run. Fill the rest with
            # repetitions of the run stages alone, the noisiest part.
            guess = max(rep_metrics(r)["run_s"] + r["setup_s"] for r in reps) + 1.0
            while len(reps) < MAX_REPS and left() > guess:
                reps.append(run_rep(args.workload, args.seed, workdir, len(reps), only="run"))
                guess = max(r["wall_s"] for r in reps if r["only"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stages = [s for r in reps for s in r["stages"]]
    failed = sum(1 for s in stages if s["rc"] != 0 or s["problems"])
    per_rep = [rep_metrics(r) for r in reps]
    facts = run_facts(args.seed, sum(r["only"] is None for r in reps))
    facts["run_only_repetitions"] = sum(r["only"] == "run" for r in reps)
    facts["shapes"] = reps[0]["shapes"]

    if args.trace:
        from spans import layer_metrics, summarize

        traced = reps[1]
        metrics = layer_metrics(summarize(spans), traced["counts"])
        metrics["runner.run_all_jobs2_s"] = (traced["run_all_jobs2_s"], "s")
        metrics["trace.overhead_s"] = (per_rep[1]["pipeline_s"] - per_rep[0]["pipeline_s"], "s")
    else:
        metrics = {}
        for name in UNITS:
            values = [m[name] for m in per_rep if m[name] is not None]
            if values:
                metrics[name] = (statistics.median(values), UNITS[name])
        metrics["setup_s"] = (statistics.median(setup_samples + [m["setup_s"] for m in per_rep]), "s")

    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{args.workload} {name} = {shown} {unit}")
    print(f"{args.workload} error_rate = {failed / len(stages):.6g} ratio ({failed} of {len(stages)} stages)")
    print("facts " + json.dumps(facts))
    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                if args.trace or name in REPORTED}
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"facts": facts, "metrics": reported, "error_rate": failed / len(stages),
         "repetitions": per_rep}, indent=2))
    print(json.dumps({"correct": failed == 0, "attempted": len(stages), "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
