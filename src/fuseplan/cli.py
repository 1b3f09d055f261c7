"""Command-line front end: enumerate, run, sweep, pareto, plot, heuristic,
path, calibrate, and apps.

Exit codes: 0 success, 1 validation or domain error, 2 I/O error. Setting
FUSEPLAN_NO_COLOR disables ANSI styling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .analysis import (
    AlphaGrid,
    AnalysisError,
    alpha_sweep,
    greedy_optimize_path,
    pareto_front,
    sync_fuse_heuristic,
)
from .app import AppGraph, AppValidationError, builtin_app, parse_app, BUILTIN_NAMES
from .fusion import (
    DEFAULT_LEVELS,
    FusionError,
    ResourceConfig,
    count_setups_tree,
    enumerate_setups,
    parse_full_setup_name,
    singleton_setup,
)
from .pricing import (
    InstanceBasedPricing,
    PricingError,
    PricingModel,
    TraditionalPricing,
    load_pricing_config,
)
from .runner import metrics_from_rows, read_results_csv, run_all, write_results_csv
from .sim import PlatformModel, ColdPolicy, SimulationError
from .svg import scatter_svg
from .workload import WorkloadError, calibrate_workload

_DOMAIN_ERRORS = (
    AppValidationError,
    FusionError,
    SimulationError,
    PricingError,
    AnalysisError,
    WorkloadError,
    ValueError,
)


def _bold(text: str) -> str:
    if os.environ.get("FUSEPLAN_NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\033[1m{text}\033[0m"


def _load_app(ref: str) -> AppGraph:
    if ref.startswith("builtin:"):
        return builtin_app(ref.split(":", 1)[1])
    return parse_app(Path(ref).read_text())


def _load_levels(ref: str | None) -> tuple[ResourceConfig, ...]:
    if ref is None:
        return DEFAULT_LEVELS
    if ref.isdigit():
        n = int(ref)
        if not (1 <= n <= len(DEFAULT_LEVELS)):
            raise FusionError(f"--levels {n} outside 1..{len(DEFAULT_LEVELS)}")
        return DEFAULT_LEVELS[:n]
    raw = json.loads(Path(ref).read_text())
    if not isinstance(raw, list):
        raise FusionError("levels JSON must be a list of {cpu, memory_mb} objects")
    levels = []
    for entry in raw:
        try:
            cpu, memory_mb = float(entry["cpu"]), int(entry["memory_mb"])
        except (KeyError, TypeError, ValueError):
            raise FusionError(f"bad level entry {entry!r}") from None
        levels.append(ResourceConfig(cpu, memory_mb))
    return tuple(levels)


def _load_platform(ref: str | None) -> PlatformModel:
    if ref is None:
        return PlatformModel()
    raw = json.loads(Path(ref).read_text())
    return PlatformModel(
        net_oneway_ms=float(raw.get("net_oneway_ms", 0.0)),
        cold_start_ms=float(raw.get("cold_start_ms", 0.0)),
        cold_policy=ColdPolicy(raw.get("cold_policy", "always_cold")),
        billing_quantum_ms=float(raw.get("billing_quantum_ms", 1.0)),
    )


def _load_pricing(ref: str | None, default: str = "traditional") -> PricingModel:
    if ref is None:
        ref = default
    if ref == "traditional":
        return TraditionalPricing()
    if ref == "instance_based":
        return InstanceBasedPricing()
    return load_pricing_config(Path(ref).read_text())


def _run_pricings(pricing: PricingModel) -> tuple[TraditionalPricing, InstanceBasedPricing]:
    """The two cost columns of a run, with ``pricing`` in its own column."""
    if isinstance(pricing, TraditionalPricing):
        return pricing, InstanceBasedPricing()
    return TraditionalPricing(), pricing


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    app = _load_app(args.app)
    levels = _load_levels(args.levels)
    if args.list:
        count = 0
        for setup in enumerate_setups(app, levels):
            print(setup.name)
            count += 1
    else:
        count = sum(1 for _ in enumerate_setups(app, levels))
        print(count)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    app = _load_app(args.app)
    levels = _load_levels(args.levels)
    platform = _load_platform(args.platform)
    traditional, instance = _run_pricings(_load_pricing(args.pricing))
    rows = run_all(app, levels, platform, traditional, instance, jobs=args.jobs)
    if args.out is None:
        count = write_results_csv(rows, sys.stdout)
    else:
        with open(args.out, "w", newline="") as handle:
            count = write_results_csv(rows, handle)
    print(f"{count} setups evaluated", file=sys.stderr)
    return 0


def _read_metrics(results: str, pricing: PricingModel):
    with open(results) as handle:
        rows = read_results_csv(handle)
    return rows, metrics_from_rows(rows, pricing.id)


def _cmd_sweep(args: argparse.Namespace) -> int:
    pricing = _load_pricing(args.pricing)
    _, metrics = _read_metrics(args.results, pricing)
    report = alpha_sweep(metrics, AlphaGrid(args.alpha_steps), pricing.id)
    if args.out is not None:
        Path(args.out).write_text(report.to_json())
    print(_bold(f"partition coverage ({pricing.id}, {report.steps} alpha steps)"))
    for name, pct in sorted(
        report.partition_coverage.items(), key=lambda kv: -kv[1]
    ):
        print(f"  {name:<24} {pct:8.2f}%  ({report.partition_counts[name]} points)")
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    pricing = _load_pricing(args.pricing)
    _, metrics = _read_metrics(args.results, pricing)
    front = pareto_front(metrics)
    doc = [
        {"setup": m.setup_name, "latency_ms": m.latency_ms, "cost_pmi_usd": m.cost_pmi_usd}
        for m in front
    ]
    if args.out is not None:
        Path(args.out).write_text(json.dumps(doc, indent=2))
    print(_bold(f"pareto front ({pricing.id}): {len(front)} setups"))
    for m in front:
        print(f"  {m.setup_name:<32} latency {m.latency_ms:12.3f} ms  cost {m.cost_pmi_usd:12.4f} $pmi")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    pricing = _load_pricing(args.pricing)
    rows, metrics = _read_metrics(args.results, pricing)
    if not rows:
        raise AnalysisError("no data")
    steps = None
    if args.path:
        if not args.app:
            raise AnalysisError("--path requires --app")
        app = _load_app(args.app)
        levels = _load_levels(args.levels)
        platform = _load_platform(args.platform)
        start = (
            parse_full_setup_name(app, args.start, levels)
            if args.start
            else singleton_setup(app, levels)
        )
        steps = greedy_optimize_path(
            app, platform, pricing, args.alpha, start, full_metrics=metrics
        )
    title = f"{rows[0].app}: {len(rows)} fusion setups ({pricing.id})"
    _write_or_print(scatter_svg(metrics, title, steps), args.out)
    return 0


def _cmd_heuristic(args: argparse.Namespace) -> int:
    app = _load_app(args.app)
    print(sync_fuse_heuristic(app).name)
    return 0


def _cmd_path(args: argparse.Namespace) -> int:
    app = _load_app(args.app)
    levels = _load_levels(args.levels)
    platform = _load_platform(args.platform)
    pricing = _load_pricing(args.pricing)
    rows = list(run_all(app, levels, platform, *_run_pricings(pricing)))
    metrics = metrics_from_rows(rows, pricing.id)
    start = (
        parse_full_setup_name(app, args.start, levels)
        if args.start
        else singleton_setup(app, levels)
    )
    steps = greedy_optimize_path(
        app, platform, pricing, args.alpha, start, full_metrics=metrics
    )
    print(_bold(f"greedy path from {start.name} at alpha={args.alpha} ({pricing.id})"))
    if not steps:
        print("  already at a local optimum")
    for step in steps:
        print(
            f"  [{step.kind:<8}] {step.from_setup} -> {step.to_setup}"
            f"  score {step.score_before:.6f} -> {step.score_after:.6f}"
        )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    result = calibrate_workload(args.exponent, args.reps)
    print(
        f"p={result.prime_exponent}: {result.ms_per_run:.3f} ms/run over "
        f"{result.repetitions} runs, verdict {result.verdict}"
    )
    return 0


def _cmd_apps(args: argparse.Namespace) -> int:
    if args.action != "list":
        raise AnalysisError(f"unknown apps action {args.action!r}")
    for name in BUILTIN_NAMES:
        app = builtin_app(name)
        n_sync = sum(1 for e in app.edges if e.mode.value == "sync")
        print(
            f"{name:<16} {len(app.tasks)} tasks, {len(app.edges)} edges "
            f"({n_sync} sync), {count_setups_tree(len(app.tasks), 3)} setups at 3 levels"
        )
    return 0


def _add_common(parser: argparse.ArgumentParser, *flags: str) -> None:
    if "app" in flags:
        parser.add_argument("--app", required=True, help="builtin:NAME or descriptor path")
    if "platform" in flags:
        parser.add_argument("--platform", help="platform model JSON path")
    if "pricing" in flags:
        parser.add_argument(
            "--pricing", help="traditional | instance_based | config path"
        )
    if "levels" in flags:
        parser.add_argument("--levels", help="level count (1..3) or JSON path")
    if "out" in flags:
        parser.add_argument("--out", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuseplan",
        description="Exhaustive fusion-setup analysis over a simulated FaaS platform.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="count (or list) all fusion setups")
    _add_common(p, "app", "levels")
    p.add_argument("--list", action="store_true", help="stream setup names")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("run", help="simulate and price every setup to CSV")
    _add_common(p, "app", "platform", "pricing", "levels", "out")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility; rows are evaluated in one process",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="alpha sweep over a results CSV")
    p.add_argument("--results", required=True, help="results CSV from 'run'")
    _add_common(p, "pricing", "out")
    p.add_argument("--alpha-steps", type=int, default=10001, dest="alpha_steps")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("pareto", help="extract the cost/latency Pareto front")
    p.add_argument("--results", required=True)
    _add_common(p, "pricing", "out")
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("plot", help="render an SVG scatter of all setups")
    p.add_argument("--results", required=True)
    _add_common(p, "pricing", "out")
    p.add_argument("--path", action="store_true", help="overlay a greedy path")
    p.add_argument("--app", help="app reference (needed with --path)")
    p.add_argument("--platform", help="platform model JSON path")
    p.add_argument("--levels", help="level count or JSON path")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--start", help="starting setup name for the path")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("heuristic", help="print the sync-fuse partition")
    _add_common(p, "app")
    p.set_defaults(func=_cmd_heuristic)

    p = sub.add_parser("path", help="greedy optimization path to a local optimum")
    _add_common(p, "app", "platform", "pricing", "levels")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--start", help="starting setup name (default singletons@0)")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("calibrate", help="time the Lucas-Lehmer workload")
    p.add_argument("--exponent", type=int, required=True)
    p.add_argument("--reps", type=int, default=5)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("apps", help="inspect built-in applications")
    p.add_argument("action", choices=["list"])
    p.set_defaults(func=_cmd_apps)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
