"""Full-pipeline execution: enumerate, simulate, and price every setup.

Evaluation is partition-major. Setups that share a partition share their
whole control flow, so each partition is simulated once, with every level
assignment as one lane of a numpy array (``sim.simulate_lanes``), and priced
per lane in instance order as ``pricing.cost_of`` does. Setup names are the
partition's canonical name plus a cached level suffix. No trace is built.

Rows come out in enumeration order and with repr-exact float formatting, so
a results file is byte-identical across repeated runs and any ``jobs`` value.
"""

from __future__ import annotations

import csv
import io
from math import isfinite
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .app import AppGraph
from .fusion import (
    DEFAULT_LEVELS,
    FusionError,
    FusionPartition,
    FusionSetup,
    ResourceConfig,
    enumerate_partitions,
    level_lanes,
)
from .pricing import (
    InstanceBasedPricing,
    SetupMetrics,
    TraditionalPricing,
    billed_usage,
    cost_of,
    price_usage,
)
from .sim import ColdPolicy, PlatformModel, call_tree, simulate, simulate_lanes

RESULT_COLUMNS = (
    "app",
    "setup",
    "latency_ms",
    "cost_traditional_pmi",
    "cost_instance_pmi",
    "invocations",
    "cold_starts",
)


@dataclass(frozen=True)
class RunRow:
    app: str
    setup: str
    latency_ms: float
    cost_traditional_pmi: float
    cost_instance_pmi: float
    invocations: int
    cold_starts: int


class _Lanes:
    """Per-group cpu and memory over a partition's lanes, and the lanes'
    setup-name suffixes, built once per group count.

    Lanes are in ``fusion.level_lanes`` order, as ``enumerate_setups``
    lists them. One lane is held as plain floats and ints, never as
    length-1 arrays.
    """

    def __init__(self, levels: Sequence[ResourceConfig]) -> None:
        if not levels:
            raise FusionError("level list must not be empty")
        self.levels = tuple(levels)
        self.cpu = np.array([lv.cpu for lv in self.levels], dtype=float)
        self.memory = np.array([lv.memory_mb for lv in self.levels], dtype=float)
        self._by_count: dict[int, tuple] = {}

    def of(self, k: int) -> tuple[list, list, list[str]]:
        """(cpu per group, memory per group, name suffix per lane) for k groups."""
        if k not in self._by_count:
            radix = len(self.levels)
            digits = level_lanes(radix, k)
            text = np.array([str(d) for d in range(radix)])[digits]
            suffixes = [",".join(lane) for lane in zip(*text.tolist())]
            if radix == 1:
                level = self.levels[0]
                cpu, memory = [level.cpu] * k, [level.memory_mb] * k
            else:
                cpu, memory = list(self.cpu[digits]), list(self.memory[digits])
            self._by_count[k] = cpu, memory, suffixes
        return self._by_count[k]


def _per_lane(values, lanes: int) -> list:
    # tolist() turns float64 into Python floats, so repr() prints them plainly.
    return values.tolist() if isinstance(values, np.ndarray) else [values] * lanes


def _partition_rows(app: AppGraph, tree, partition: FusionPartition, lanes: _Lanes,
                    platform: PlatformModel, traditional: TraditionalPricing,
                    instance: InstanceBasedPricing) -> Iterator[RunRow]:
    """Rows of every level assignment of one partition, in enumeration order."""
    cpu, memory, suffixes = lanes.of(len(partition.groups))
    # An overflow surfaces as a non-finite billed time, which the walk
    # reports as a SimulationError, so numpy's own warnings are noise.
    with np.errstate(all="ignore"):
        latency, instances = simulate_lanes(tree, app.root, partition, cpu, platform)
        groups = [g for g, _, _, _ in instances]
        usage = billed_usage(
            [billed for _, _, _, billed in instances],
            [cpu[g] for g in groups],
            [memory[g] for g in groups],
        )
        count = len(instances)
        traditional_cost = price_usage(*usage, count, traditional)
        instance_cost = price_usage(*usage, count, instance)
    cold_starts = count if platform.cold_policy is ColdPolicy.ALWAYS_COLD else 0
    prefix = partition.name + "@"
    n = len(suffixes)
    for suffix, lat, trad, inst in zip(
        suffixes,
        _per_lane(latency, n),
        _per_lane(traditional_cost, n),
        _per_lane(instance_cost, n),
    ):
        yield RunRow(app.name, prefix + suffix, lat, trad, inst, count, cold_starts)


def evaluate_setup(
    app: AppGraph,
    setup: FusionSetup,
    platform: PlatformModel,
    traditional: TraditionalPricing,
    instance: InstanceBasedPricing,
) -> RunRow:
    result = simulate(app, setup, platform)
    return RunRow(
        app=app.name,
        setup=setup.name,
        latency_ms=result.latency_ms,
        cost_traditional_pmi=cost_of(result, setup, traditional),
        cost_instance_pmi=cost_of(result, setup, instance),
        invocations=result.remote_calls,
        cold_starts=sum(1 for r in result.invocations if r.cold),
    )


def run_all(
    app: AppGraph,
    levels: Sequence[ResourceConfig] = DEFAULT_LEVELS,
    platform: PlatformModel = PlatformModel(),
    traditional: TraditionalPricing = TraditionalPricing(),
    instance: InstanceBasedPricing = InstanceBasedPricing(),
    jobs: int = 1,
) -> Iterator[RunRow]:
    """Yield one row per setup, in enumeration order.

    ``jobs`` is accepted for compatibility and does not change the rows.
    Evaluation runs in this process: with per-setup overhead gone, sharding
    partitions over a process pool measured slower at every benchmarked size,
    since pool start-up and shipping rows back cost more than the walks.
    """
    lanes = _Lanes(levels)
    tree = call_tree(app)
    for partition in enumerate_partitions(app):
        yield from _partition_rows(app, tree, partition, lanes, platform, traditional, instance)


def write_results_csv(rows: Iterable[RunRow], stream: io.TextIOBase) -> int:
    """Write rows with stable formatting; returns the data-row count."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    count = 0
    for row in rows:
        writer.writerow(
            [
                row.app,
                row.setup,
                repr(row.latency_ms),
                repr(row.cost_traditional_pmi),
                repr(row.cost_instance_pmi),
                row.invocations,
                row.cold_starts,
            ]
        )
        count += 1
    return count


def read_results_csv(stream: io.TextIOBase) -> list[RunRow]:
    """Parse a results CSV written by ``write_results_csv``.

    A row with the wrong field count, a number that does not parse or a
    non-finite latency or cost raises ``ValueError`` naming its line.
    Blank lines are skipped.
    """
    reader = csv.reader(stream)
    if tuple(next(reader, ())) != RESULT_COLUMNS:
        raise ValueError("unrecognized results CSV header")
    width = len(RESULT_COLUMNS)
    rows = []
    for rec in reader:
        if not rec:
            continue
        if len(rec) != width:
            raise ValueError(
                f"results CSV line {reader.line_num}: {len(rec)} fields, expected {width}"
            )
        app, setup, latency, traditional, instance, invocations, cold_starts = rec
        try:
            row = RunRow(app, setup, float(latency), float(traditional), float(instance),
                         int(invocations), int(cold_starts))
        except ValueError as exc:
            raise ValueError(f"results CSV line {reader.line_num}: {exc}") from None
        if not (isfinite(row.latency_ms) and isfinite(row.cost_traditional_pmi)
                and isfinite(row.cost_instance_pmi)):
            raise ValueError(f"results CSV line {reader.line_num}: non-finite latency or cost")
        rows.append(row)
    return rows


def metrics_from_rows(rows: Sequence[RunRow], pricing_id: str) -> list[SetupMetrics]:
    """Project run rows onto one pricing model's metrics."""
    if pricing_id == "traditional":
        return [
            SetupMetrics(r.setup, r.latency_ms, r.cost_traditional_pmi) for r in rows
        ]
    if pricing_id == "instance_based":
        return [
            SetupMetrics(r.setup, r.latency_ms, r.cost_instance_pmi) for r in rows
        ]
    raise ValueError(f"unknown pricing id {pricing_id!r}")
