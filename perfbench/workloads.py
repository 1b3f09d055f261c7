"""Benchmark workloads: seeded synthetic call trees and the built-in apps.

A workload is a list of application descriptors, written as JSON files the
CLI reads like any other input, plus the CLI stages run on each of them. The
seed only feeds the tree generator, so setup counts never depend on it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
PRICINGS = ("traditional", "instance_based")
BUILTIN_APPS = ("LINEAR", "PARALLEL_LINEAR", "TREE", "ASYNC")


def import_fuseplan():
    """Import ``fuseplan`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "fuseplan" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no fuseplan sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fuseplan.cli

    if Path(fuseplan.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: fuseplan imported from {fuseplan.cli.__file__}")
    return fuseplan


class Rng:
    """splitmix64, so generated inputs do not depend on the Python version."""

    def __init__(self, seed: int) -> None:
        self.state = seed & 0xFFFFFFFFFFFFFFFF

    def below(self, n: int) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return (z ^ (z >> 31)) % n


def synthetic_tree(tasks: int, seed: int) -> dict:
    """Descriptor of a random call tree with both sync and async edges.

    Task i > 0 is called by a uniformly chosen earlier task, so the root is
    task A. Work is a multiple of 5 ms in [20, 395]; the edge list (and with
    it each caller's call order) is shuffled.
    """
    if not 3 <= tasks <= 26:
        raise ValueError("synthetic trees have 3..26 tasks")
    rng = Rng(seed * 1_000_003 + tasks)
    names = [chr(ord("A") + i) for i in range(tasks)]
    modes = [("sync", "async")[rng.below(2)] for _ in range(tasks - 1)]
    if len(set(modes)) == 1:
        modes[-1] = "async" if modes[0] == "sync" else "sync"
    edges = [
        {"caller": names[rng.below(i)], "callee": names[i], "mode": modes[i - 1]}
        for i in range(1, tasks)
    ]
    for i in range(len(edges) - 1, 0, -1):
        j = rng.below(i + 1)
        edges[i], edges[j] = edges[j], edges[i]
    return {
        "name": f"tree{tasks}",
        "root": "A",
        "tasks": [{"name": n, "base_work_ms": 20.0 + 5.0 * rng.below(76)} for n in names],
        "edges": edges,
    }


def tree_shape(descriptor: dict, levels: int) -> dict:
    """Sync/async edge counts, depth, partitions and setups of a call tree."""
    parent = {e["callee"]: e["caller"] for e in descriptor["edges"]}

    def depth(task: str) -> int:
        return 0 if task not in parent else 1 + depth(parent[task])

    n = len(descriptor["tasks"])
    sync = sum(e["mode"] == "sync" for e in descriptor["edges"])
    return {
        "tasks": n,
        "sync_edges": sync,
        "async_edges": len(descriptor["edges"]) - sync,
        "depth": max(depth(t["name"]) for t in descriptor["tasks"]),
        "partitions": 2 ** (n - 1),
        "setups": levels * (levels + 1) ** (n - 1),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    levels: int
    jobs: int
    platform: dict | None
    # Built-in apps get the `path` stage; trees overlay the greedy path on
    # the plot instead, which reuses the results rather than simulating again.
    builtin: bool
    tree_tasks: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tree8-l3", levels=3, jobs=1, platform=None, builtin=False, tree_tasks=8),
        Workload("tree14-l1", levels=1, jobs=1, platform=None, builtin=False, tree_tasks=14),
        Workload(
            "builtin-overhead-j2",
            levels=3,
            jobs=2,
            platform={
                "net_oneway_ms": 5.0,
                "cold_start_ms": 100.0,
                "cold_policy": "always_cold",
                "billing_quantum_ms": 100.0,
            },
            builtin=True,
        ),
    )
}


@dataclass(frozen=True)
class Stage:
    kind: str  # run | sweep | pareto | path | plot
    app: str
    pricing: str | None
    argv: tuple[str, ...]
    output: Path | None


@dataclass(frozen=True)
class AppInput:
    name: str
    descriptor: Path
    shape: dict


def write_inputs(workload: Workload, seed: int, workdir: Path) -> list[AppInput]:
    """Generate the workload's input files under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload.builtin:
        from fuseplan.app import builtin_app, serialize_app

        docs = [json.loads(serialize_app(builtin_app(n))) for n in BUILTIN_APPS]
    else:
        docs = [synthetic_tree(workload.tree_tasks, seed)]
    if workload.platform is not None:
        (workdir / "platform.json").write_text(json.dumps(workload.platform))
    apps = []
    for doc in docs:
        path = workdir / f"{doc['name']}.json"
        path.write_text(json.dumps(doc, indent=2))
        apps.append(AppInput(doc["name"], path, tree_shape(doc, workload.levels)))
    return apps


def input_files(workload: Workload, apps: list[AppInput], workdir: Path) -> list[Path]:
    files = [a.descriptor for a in apps]
    if workload.platform is not None:
        files.append(workdir / "platform.json")
    return files


def stages(workload: Workload, apps: list[AppInput], workdir: Path, jobs: int) -> list[Stage]:
    """The CLI invocations of one repetition, app by app."""
    out = []
    for app in apps:
        model = ["--levels", str(workload.levels)]
        if workload.platform is not None:
            model += ["--platform", str(workdir / "platform.json")]
        csv_path = workdir / f"{app.name}.results.csv"
        out.append(Stage("run", app.name, None, (
            "run", "--app", str(app.descriptor), *model,
            "--out", str(csv_path), "--jobs", str(jobs)), csv_path))
        for kind in ("sweep", "pareto"):
            for pricing in PRICINGS:
                dest = workdir / f"{app.name}.{kind}.{pricing}.json"
                out.append(Stage(kind, app.name, pricing, (
                    kind, "--results", str(csv_path), "--pricing", pricing,
                    "--out", str(dest)), dest))
        svg = workdir / f"{app.name}.svg"
        plot = ("plot", "--results", str(csv_path), "--pricing", "traditional",
                "--out", str(svg))
        if workload.builtin:
            out.append(Stage("path", app.name, "traditional", (
                "path", "--app", str(app.descriptor), *model,
                "--pricing", "traditional", "--alpha", "0.5"), None))
        else:
            plot += ("--path", "--app", str(app.descriptor), *model)
        out.append(Stage("plot", app.name, "traditional", plot, svg))
    return out
