"""Output-correctness gate behind ``error_rate``.

A stage fails the gate when any of these holds:

* ``run``: the CSV row count is not ``count_setups_tree(n, R)``, or a sampled
  row differs byte for byte from the row recomputed by the scalar
  ``runner.evaluate_setup``;
* ``sweep`` / ``pareto``: the JSON disagrees with a reference recomputed
  here from the results CSV (the Pareto front, and the sweep winners taken
  over that front, which is exact because a dominated setup is never the
  tie-broken argmin);
* any of the three, for inputs whose digest is pinned (the default seed):
  the SHA-256 of its output differs from the pinned digest.

Every check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
from pathlib import Path

import numpy as np

from workloads import Rng

PINS = Path(__file__).resolve().parent / "pins.json"
SAMPLED_ROWS = 32


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def inputs_digest(files: list[Path]) -> str:
    """One digest over the input files' names and bytes, in the given order."""
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def digest_errors(pins: dict, workload: str, seed: int, inputs: str, outputs: dict[str, Path]) -> dict[str, list[str]]:
    """Problems per output name; pinned inputs must match on the default seed."""
    pinned = pins.get(workload)
    problems: dict[str, list[str]] = {name: [] for name in outputs}
    if pinned is None:
        return problems
    if pinned["inputs"] != inputs:
        if seed == pinned["seed"]:
            for name in outputs:
                problems[name].append("inputs differ from the pinned inputs of the default seed")
        return problems
    for name, path in outputs.items():
        want = pinned["outputs"].get(name)
        if want is None:
            problems[name].append("no pinned digest")
        elif sha256(path) != want:
            problems[name].append(f"sha256 differs from pinned {want[:12]}")
    return problems


def row_count_errors(lines: list[str], expected: int) -> list[str]:
    rows = len(lines) - 1
    return [] if rows == expected else [f"{rows} rows, expected {expected}"]


def sampled_row_errors(app_graph, levels, platform, lines: list[str], seed: int) -> list[str]:
    """Recompute sampled rows with the scalar reference and compare bytes."""
    from fuseplan.fusion import parse_full_setup_name
    from fuseplan.pricing import InstanceBasedPricing, TraditionalPricing
    from fuseplan.runner import evaluate_setup, write_results_csv

    rows = len(lines) - 1
    if rows < 1:
        return ["no data rows"]
    rng = Rng(seed)
    picks = sorted({1, rows} | {1 + rng.below(rows) for _ in range(SAMPLED_ROWS)})
    problems = []
    for i in picks:
        name = next(csv.reader([lines[i]]))[1]
        setup = parse_full_setup_name(app_graph, name, levels)
        row = evaluate_setup(app_graph, setup, platform, TraditionalPricing(), InstanceBasedPricing())
        buf = io.StringIO()
        write_results_csv([row], buf)
        want = buf.getvalue().splitlines()[1]
        if lines[i] != want:
            problems.append(f"row {i} is {lines[i]!r}, reference {want!r}")
    return problems


def points(lines: list[str], pricing: str) -> list[tuple[float, float, str]]:
    """(cost, latency, setup) per CSV row for one pricing column."""
    col = 3 if pricing == "traditional" else 4
    return [(float(r[col]), float(r[2]), r[1]) for r in csv.reader(lines[1:])]


def reference_front(pts: list[tuple[float, float, str]]) -> list[tuple[float, float, str]]:
    """Non-dominated points in (cost, latency, name) order, duplicates kept."""
    front = []
    best_cheaper = float("inf")
    for _, group in itertools.groupby(sorted(pts), key=lambda p: p[0]):
        group = list(group)
        lowest = group[0][1]
        if lowest < best_cheaper:
            front += [p for p in group if p[1] == lowest]
            best_cheaper = lowest
    return front


def _as_points(entries: list[dict]) -> list[tuple[float, float, str]]:
    return [(e["cost_pmi_usd"], e["latency_ms"], e["setup"]) for e in entries]


def pareto_errors(front, doc: list[dict]) -> list[str]:
    got = _as_points(doc)
    return [] if got == front else [f"front of {len(got)} differs from reference front of {len(front)}"]


def reference_winners(pts, front, steps: int) -> list[str]:
    """Tie-broken score argmin per alpha, normalized over all points."""

    def norm(values, every):
        lo, hi = min(every), max(every)
        return np.array([0.0 if hi == lo else (v - lo) / (hi - lo) for v in values])

    cost = norm([p[0] for p in front], [p[0] for p in pts])
    lat = norm([p[1] for p in front], [p[1] for p in pts])
    alphas = (np.arange(steps, dtype=float) / (steps - 1))[:, None]
    best = np.argmin(alphas * lat[None, :] + (1.0 - alphas) * cost[None, :], axis=1)
    return [front[i][2] for i in best]


def sweep_errors(pts, front, doc: dict) -> list[str]:
    steps = doc["steps"]
    winners = reference_winners(pts, front, steps)
    problems = []
    counts: dict[str, int] = {}
    for w in winners:
        counts[w] = counts.get(w, 0) + 1
    if doc["coverage_counts"] != dict(sorted(counts.items())):
        problems.append("coverage counts differ from reference winners")
    spans, start = [], 0
    for i in range(1, steps + 1):
        if i == steps or winners[i] != winners[start]:
            spans.append((winners[start], start / (steps - 1), (i - 1) / (steps - 1)))
            start = i
    got = [(b["winner"], b["from_alpha"], b["to_alpha"]) for b in doc["alpha_breakpoints"]]
    if got != spans:
        problems.append(f"{len(got)} breakpoints differ from {len(spans)} reference breakpoints")
    if _as_points(doc["pareto"]) != front:
        problems.append("embedded pareto front differs from reference front")
    return problems
