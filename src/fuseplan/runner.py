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
import itertools
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
    canonical_name,
    enumerate_partitions,
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

    Lane i is the i-th level assignment in ``enumerate_setups`` order: a
    mixed-radix counter with the first group most significant. One lane is
    held as plain floats and ints, never as length-1 arrays.
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
            suffixes = [
                ",".join(digits)
                for digits in itertools.product([str(d) for d in range(radix)], repeat=k)
            ]
            if radix == 1:
                level = self.levels[0]
                cpu, memory = [level.cpu] * k, [level.memory_mb] * k
            else:
                lane = np.arange(radix**k)
                digits = [lane // radix ** (k - 1 - g) % radix for g in range(k)]
                cpu = [self.cpu[d] for d in digits]
                memory = [self.memory[d] for d in digits]
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
    latency, instances = simulate_lanes(tree, app.root, partition, cpu, platform)
    groups = [g for g, _, _, _ in instances]
    usage = billed_usage(
        [billed for _, _, _, billed in instances],
        [cpu[g] for g in groups],
        [memory[g] for g in groups],
    )
    count = len(instances)
    cold_starts = count if platform.cold_policy is ColdPolicy.ALWAYS_COLD else 0
    prefix = canonical_name(partition) + "@"
    n = len(suffixes)
    for suffix, lat, trad, inst in zip(
        suffixes,
        _per_lane(latency, n),
        _per_lane(price_usage(*usage, count, traditional), n),
        _per_lane(price_usage(*usage, count, instance), n),
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
    reader = csv.DictReader(stream)
    if reader.fieldnames is None or tuple(reader.fieldnames) != RESULT_COLUMNS:
        raise ValueError("unrecognized results CSV header")
    rows = []
    for rec in reader:
        rows.append(
            RunRow(
                app=rec["app"],
                setup=rec["setup"],
                latency_ms=float(rec["latency_ms"]),
                cost_traditional_pmi=float(rec["cost_traditional_pmi"]),
                cost_instance_pmi=float(rec["cost_instance_pmi"]),
                invocations=int(rec["invocations"]),
                cold_starts=int(rec["cold_starts"]),
            )
        )
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
