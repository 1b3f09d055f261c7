"""Spans around the public functions of each fuseplan module, and the
traced-run writer that turns them into per-layer metrics.

The tracer replaces module-level names (``fuseplan.runner.simulate``,
``fuseplan.cli.run_all``, ...) with wrappers, so it sees every call the CLI
and the runner make without any change to the program. A span records its
name, start, end, parent and repetition id; spans stay in memory and are
written once, at the end of the repetition. Each resumption of a generator
(``run_all``, ``enumerate_setups``) is its own span, so lazily produced
rows are charged to the generator, not to the consumer that pulls them.
"""

from __future__ import annotations

import csv
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, public function) pairs wrapped by the tracer; the span name is
# "<module>.<function>".
TRACED = (
    ("app", "parse_app"),
    ("fusion", "enumerate_partitions"),
    ("fusion", "enumerate_setups"),
    ("fusion", "setup_name"),
    ("sim", "simulate"),
    ("pricing", "cost_of"),
    ("runner", "run_all"),
    ("runner", "write_results_csv"),
    ("runner", "read_results_csv"),
    ("runner", "metrics_from_rows"),
    ("analysis", "alpha_sweep"),
    ("analysis", "pareto_front"),
    ("analysis", "greedy_optimize_path"),
    ("svg", "scatter_svg"),
    ("cli", "main"),
)


class Tracer:
    def __init__(self, rep: int) -> None:
        self.rep = rep
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, fn, name: str):
        self.names.append(name)
        name_id = len(self.names) - 1
        count = _COUNTERS.get(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        idx = tracer._open(name_id)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(idx)
                        if count:
                            count(tracer, args, item)
                        yield item
                finally:
                    gen.close()
        else:
            def wrapper(*args, **kwargs):
                idx = tracer._open(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if count:
                    result = count(tracer, args, result) or result
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every fuseplan module attribute that names a traced function."""
        modules = [m for k, m in sys.modules.items() if k == "fuseplan" or k.startswith("fuseplan.")]
        for module, func in TRACED:
            original = getattr(sys.modules[f"fuseplan.{module}"], func)
            wrapped = self.wrap(original, f"{module}.{func}")
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

    def write(self, path: Path) -> None:
        with open(path, "w", newline="") as handle:
            handle.write("rep,span,parent,name,start_ns,end_ns\n")
            handle.writelines(
                f"{self.rep},{i},{self.parent[i]},{self.names[self.name_of[i]]},"
                f"{self.start[i]},{self.end[i]}\n"
                for i in range(len(self.start))
            )


def _count_simulate(tracer: Tracer, args, result):
    tracer.counts["sim.invocations"] += len(result.invocations)
    tracer.counts["sim.trace_events"] += len(result.trace)
    return _watched(result, tracer)


def _watched(result, tracer: Tracer):
    """The same result, counting trace events the first time ``trace`` is read."""
    cls = type(result)
    watched_cls = _WATCHED.get(cls)
    if watched_cls is None:
        def __getattribute__(self, attr):
            value = object.__getattribute__(self, attr)
            if attr == "trace" and not object.__getattribute__(self, "_read"):
                object.__setattr__(self, "_read", True)
                object.__getattribute__(self, "_tracer").counts["sim.trace_events_used"] += len(value)
            return value

        watched_cls = _WATCHED[cls] = type(f"Watched{cls.__name__}", (cls,), {"__getattribute__": __getattribute__})
    watched = watched_cls(result.latency_ms, result.invocations, result.trace)
    object.__setattr__(watched, "_read", False)
    object.__setattr__(watched, "_tracer", tracer)
    return watched


_WATCHED: dict[type, type] = {}

_COUNTERS = {
    "fusion.enumerate_partitions": lambda t, args, r: t.counts.update({"fusion.partitions": len(r)}),
    "fusion.enumerate_setups": lambda t, args, item: t.counts.update({"fusion.setups": 1}),
    "sim.simulate": _count_simulate,
    "analysis.alpha_sweep": lambda t, args, r: t.counts.update({"analysis.score_evals": r.steps * len(args[0])}),
    "analysis.greedy_optimize_path": lambda t, args, r: t.counts.update({"analysis.greedy_steps": len(r)}),
}


def summarize(path: Path) -> dict[str, dict]:
    """Calls, total and self seconds per span name.

    Self time is a span's duration minus the time its direct children cover;
    spans nest strictly because the traced run is single-threaded.
    """
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    dur = [int(r["end_ns"]) - int(r["start_ns"]) for r in rows]
    covered = [0] * len(rows)
    for i, r in enumerate(rows):
        p = int(r["parent"])
        if p >= 0:
            covered[p] += dur[i]
    out: dict[str, dict] = {}
    for i, r in enumerate(rows):
        s = out.setdefault(r["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["total_s"] += dur[i] / 1e9
        s["self_s"] += (dur[i] - covered[i]) / 1e9
    return out


# Per-layer metric -> span whose self time it reports.
SELF_TIME_METRICS = {
    "sim.simulate_s": "sim.simulate",
    "fusion.enumerate_partitions_s": "fusion.enumerate_partitions",
    "fusion.enumerate_setups_s": "fusion.enumerate_setups",
    "fusion.setup_name_s": "fusion.setup_name",
    "pricing.cost_of_s": "pricing.cost_of",
    "runner.run_all_s": "runner.run_all",
    "runner.write_csv_s": "runner.write_results_csv",
    "runner.read_csv_s": "runner.read_results_csv",
    "runner.metrics_from_rows_s": "runner.metrics_from_rows",
    "analysis.alpha_sweep_s": "analysis.alpha_sweep",
    "analysis.pareto_front_s": "analysis.pareto_front",
    "analysis.greedy_path_s": "analysis.greedy_optimize_path",
    "svg.scatter_svg_s": "svg.scatter_svg",
    "app.parse_app_s": "app.parse_app",
    "cli.self_s": "cli.main",
}


def layer_metrics(spans: dict[str, dict], counts: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from span summaries and exact counters."""
    def self_s(span: str) -> float:
        return spans.get(span, {}).get("self_s", 0.0)

    out = {m: (self_s(span), "s") for m, span in SELF_TIME_METRICS.items()}
    simulated = spans.get("sim.simulate", {}).get("calls", 0)
    out["sim.simulate_us_per_setup"] = (1e6 * self_s("sim.simulate") / max(simulated, 1), "us")
    for name in ("sim.invocations", "sim.trace_events", "fusion.partitions", "fusion.setups",
                 "analysis.score_evals", "analysis.greedy_steps", "runner.csv_bytes", "svg.bytes",
                 "analysis.front_size.traditional", "analysis.front_size.instance_based"):
        out[name] = (counts.get(name, 0), "count")
    events = counts.get("sim.trace_events", 0)
    out["sim.trace_events_used_ratio"] = (
        counts.get("sim.trace_events_used", 0) / events if events else 1.0, "ratio")
    return out
