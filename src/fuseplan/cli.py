"""Command-line front end: enumerate, run, sweep, pareto, plot, heuristic,
path, calibrate, and apps.

Exit codes: 0 success, 1 validation, domain or out-of-memory error, 2 I/O
error. Setting FUSEPLAN_NO_COLOR disables ANSI styling.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .analysis import (
    AlphaGrid,
    AnalysisError,
    alpha_sweep,
    front_rows,
    greedy_optimize_path,
    pareto_front,
    score,
    sync_fuse_heuristic,
)
from .app import AppGraph, builtin_app, from_json, load_json, parse_app, BUILTIN_NAMES
from .fusion import (
    DEFAULT_LEVELS,
    FusionError,
    FusionSetup,
    ResourceConfig,
    count_setups_tree,
    enumerate_setups,
    parse_full_setup_name,
    singleton_setup,
)
from .pricing import (
    PRICING_MODELS,
    PricingModel,
    load_pricing_config,
)
from .runner import metrics_from_rows, read_results_csv, run_all, write_results_csv
from .sim import PlatformModel, SimulationError
from .svg import scatter_svg
from .workload import calibrate_workload

_PRICING_IDS = tuple(kind.id for kind in PRICING_MODELS)


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
    if ref.isascii() and ref.isdigit():
        n = int(ref)
        if not (1 <= n <= len(DEFAULT_LEVELS)):
            raise FusionError(f"--levels {n} outside 1..{len(DEFAULT_LEVELS)}")
        return DEFAULT_LEVELS[:n]
    raw = load_json(Path(ref).read_text(), FusionError, "levels JSON")
    if not isinstance(raw, list):
        raise FusionError("levels JSON must be a list of {cpu, memory_mb} objects")
    if not raw:
        raise FusionError("--levels must list at least one level")
    return tuple(from_json(ResourceConfig, entry, FusionError, "level entry") for entry in raw)


def _load_platform(ref: str | None) -> PlatformModel:
    if ref is None:
        return PlatformModel()
    raw = load_json(Path(ref).read_text(), SimulationError, "platform JSON")
    return from_json(PlatformModel, raw, SimulationError, "platform JSON")


def _load_pricing(ref: str | None) -> PricingModel:
    for kind in PRICING_MODELS:
        if ref in (None, kind.id):
            return kind()
    return load_pricing_config(Path(ref).read_text())


def _run_pricings(pricing: PricingModel) -> tuple[PricingModel, ...]:
    """The cost columns of a run, one per model, with ``pricing`` in its own."""
    return tuple(pricing if kind.id == pricing.id else kind() for kind in PRICING_MODELS)


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    app = _load_app(args.app)
    levels = _load_levels(args.levels)
    if args.list:
        for setup in enumerate_setups(app, levels):
            print(setup.name)
    else:
        # Every app is a call tree, so the closed form counts its setups.
        print(count_setups_tree(len(app.tasks), len(levels)))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    app = _load_app(args.app)
    levels = _load_levels(args.levels)
    platform = _load_platform(args.platform)
    traditional, instance = _run_pricings(_load_pricing(args.pricing))
    rows = run_all(app, levels, platform, traditional, instance, jobs=args.jobs)
    if args.out is None:
        write_results_csv(rows, sys.stdout)
    else:
        # Written beside the target and moved into place only once every row
        # is out, so a failed run leaves an existing file untouched.
        tmp = f"{args.out}.{os.getpid()}.tmp"
        try:
            with open(tmp, "x", newline="") as handle:
                write_results_csv(rows, handle)
            os.replace(tmp, args.out)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
    # Every app is a call tree, so the closed form counts the rows written.
    print(f"{count_setups_tree(len(app.tasks), len(levels))} setups evaluated", file=sys.stderr)
    return 0


def _read_metrics(results: str, pricing_id: str):
    # A results file holds costs, not rates: a config's rates could only be ignored.
    if pricing_id not in _PRICING_IDS:
        raise AnalysisError(f"--pricing {pricing_id!r} is not a cost column of --results "
                            f"({' or '.join(_PRICING_IDS)}); apply a pricing config with "
                            "'run --pricing'")
    with open(results) as handle:
        rows = read_results_csv(handle)
    return rows, metrics_from_rows(rows, pricing_id)


def _path_start(args: argparse.Namespace, app: AppGraph, levels) -> tuple[FusionSetup, float]:
    """The ``--start`` setup (default: singletons at level 0) and ``--alpha``
    (default 0.5), both checked before any metric is computed or read."""
    start = (
        parse_full_setup_name(app, args.start, levels)
        if args.start
        else singleton_setup(app, levels)
    )
    alpha = 0.5 if args.alpha is None else args.alpha
    score(0.0, 0.0, alpha)  # refuses an alpha outside [0, 1]
    return start, alpha


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = AlphaGrid(args.alpha_steps)
    _, metrics = _read_metrics(args.results, args.pricing)
    report = alpha_sweep(metrics, grid, args.pricing)
    if args.out is not None:
        Path(args.out).write_text(report.to_json())
    print(_bold(f"partition coverage ({args.pricing}, {report.steps} alpha steps)"))
    for name, pct in sorted(
        report.partition_coverage.items(), key=lambda kv: -kv[1]
    ):
        print(f"  {name:<24} {pct:8.2f}%  ({report.partition_counts[name]} points)")
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    _, metrics = _read_metrics(args.results, args.pricing)
    front = pareto_front(metrics)
    if args.out is not None:
        Path(args.out).write_text(json.dumps(front_rows(front), indent=2))
    print(_bold(f"pareto front ({args.pricing}): {len(front)} setups"))
    for m in front:
        print(f"  {m.setup_name:<32} latency {m.latency_ms:12.3f} ms  cost {m.cost_pmi_usd:12.4f} $pmi")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    if args.path:
        if not args.app:
            raise AnalysisError("--path requires --app")
        app = _load_app(args.app)
        start, alpha = _path_start(args, app, _load_levels(args.levels))
    else:
        given = [f"--{flag}" for flag in ("app", "levels", "start", "alpha")
                 if getattr(args, flag) is not None]
        if given:
            raise AnalysisError(f"plot reads {', '.join(given)} only with --path")
    rows, metrics = _read_metrics(args.results, args.pricing)
    if not len(rows):
        raise AnalysisError("no data")
    steps = greedy_optimize_path(app, metrics, alpha, start) if args.path else None
    title = f"{rows['app'][0]}: {len(rows)} fusion setups ({args.pricing})"
    _write_or_print(scatter_svg(metrics, title, steps), args.out)
    return 0


def _cmd_heuristic(args: argparse.Namespace) -> int:
    app = _load_app(args.app)
    print(sync_fuse_heuristic(app).name)
    return 0


def _cmd_path(args: argparse.Namespace) -> int:
    app = _load_app(args.app)
    levels = _load_levels(args.levels)
    start, alpha = _path_start(args, app, levels)
    platform = _load_platform(args.platform)
    pricing = _load_pricing(args.pricing)
    rows = run_all(app, levels, platform, *_run_pricings(pricing))
    steps = greedy_optimize_path(app, metrics_from_rows(rows, pricing.id), alpha, start)
    print(_bold(f"greedy path from {start.name} at alpha={alpha} ({pricing.id})"))
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
            "--pricing", help=f"{' | '.join(_PRICING_IDS)} | config path"
        )
    if "column" in flags:
        parser.add_argument("--pricing", default=_PRICING_IDS[0],
                            help=f"cost column of --results to rank: {' | '.join(_PRICING_IDS)}")
    if "levels" in flags:
        parser.add_argument("--levels", help="level count (1..3) or JSON path")
    if "out" in flags:
        parser.add_argument("--out", help="output path (default stdout)")
    if "greedy" in flags:
        parser.add_argument("--alpha", type=float, help="latency weight in [0, 1] (default 0.5)")
        parser.add_argument("--start", help="starting setup name (default singletons@0)")


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
    _add_common(p, "column", "out")
    p.add_argument("--alpha-steps", type=int, default=10001, dest="alpha_steps")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("pareto", help="extract the cost/latency Pareto front")
    p.add_argument("--results", required=True)
    _add_common(p, "column", "out")
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("plot", help="render an SVG scatter of all setups")
    p.add_argument("--results", required=True)
    _add_common(p, "column", "levels", "out", "greedy")
    p.add_argument("--path", action="store_true", help="overlay a greedy path")
    p.add_argument("--app", help="app reference (needed with --path)")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("heuristic", help="print the sync-fuse partition")
    _add_common(p, "app")
    p.set_defaults(func=_cmd_heuristic)

    p = sub.add_parser("path", help="greedy optimization path to a local optimum")
    _add_common(p, "app", "platform", "pricing", "levels", "greedy")
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
    except ValueError as exc:
        # Every domain error (app, fusion, simulation, pricing, analysis,
        # workload) subclasses ValueError, as do JSON decode errors.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
