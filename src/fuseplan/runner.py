"""Full-pipeline execution: enumerate, simulate, and price every setup.

Evaluation is partition-major. Setups that share a partition share their
whole control flow, so each partition is simulated once, with every level
assignment as one lane of a numpy array (``sim.simulate_lanes``), and priced
per lane in instance order as ``pricing.cost_of`` does. ``fusion.LevelLanes``
gives each lane's cpu, memory and setup-name suffix. No trace is built.

Rows come out in enumeration order and with repr-exact float formatting, so
a results file is byte-identical across repeated runs and any ``jobs`` value.
A results file is read back as one numpy structured array, one column per
field, with no object per row.
"""

from __future__ import annotations

import csv
import io
import warnings
from itertools import count, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .app import AppGraph
from .fusion import (
    DEFAULT_LEVELS,
    FusionPartition,
    FusionSetup,
    LevelLanes,
    ResourceConfig,
    enumerate_partitions,
)
from .pricing import (
    InstanceBasedPricing,
    MetricTable,
    TraditionalPricing,
    billed_usage,
    cost_of,
    price_usage,
)
from .sim import ColdPolicy, PlatformModel, call_tree, simulate, simulate_lanes

class RunRow(NamedTuple):
    """One results-file row; its fields are the file's columns, in order."""

    app: str
    setup: str
    latency_ms: float
    cost_traditional_pmi: float
    cost_instance_pmi: float
    invocations: int
    cold_starts: int


RESULT_COLUMNS = RunRow._fields
RESULT_DTYPE = np.dtype(list(zip(RESULT_COLUMNS, [object] * 2 + [float] * 3 + [np.int64] * 2)))


def _per_lane(values, lanes: int) -> list:
    # tolist() turns float64 into Python floats, so repr() prints them plainly.
    return values.tolist() if isinstance(values, np.ndarray) else [values] * lanes


def _partition_rows(app: AppGraph, tree, partition: FusionPartition, lanes: LevelLanes,
                    platform: PlatformModel, traditional: TraditionalPricing,
                    instance: InstanceBasedPricing) -> Iterator[RunRow]:
    """Rows of every level assignment of one partition, in enumeration order."""
    _, suffixes, cpu, memory = lanes.of(len(partition.groups))
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
        invocations = len(instances)
        traditional_cost = price_usage(*usage, invocations, traditional)
        instance_cost = price_usage(*usage, invocations, instance)
    cold_starts = invocations if platform.cold_policy is ColdPolicy.ALWAYS_COLD else 0
    prefix = partition.name
    n = len(suffixes)
    return map(RunRow, repeat(app.name, n), [prefix + s for s in suffixes],
               _per_lane(latency, n), _per_lane(traditional_cost, n),
               _per_lane(instance_cost, n), repeat(invocations), repeat(cold_starts))


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
    lanes = LevelLanes(levels)
    tree = call_tree(app)
    for partition in enumerate_partitions(app):
        yield from _partition_rows(app, tree, partition, lanes, platform, traditional, instance)


def write_results_csv(rows: Iterable[RunRow], stream: io.TextIOBase) -> int:
    """Write rows, floats as their ``repr`` (as ``csv`` does); returns the
    data-row count."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    counter = count()
    # zip stops on the exhausted rows before drawing from the counter, so its
    # next value is the row count.
    writer.writerows(row for row, _ in zip(rows, counter))
    return next(counter)


def read_results_csv(stream: io.TextIOBase) -> np.ndarray:
    """Parse a results CSV written by ``write_results_csv`` into a
    ``RESULT_DTYPE`` array.

    A bad field count, number or count raises ``ValueError`` naming its file
    line (a seekable ``stream`` is reread from 0 to find it), and a non-finite
    latency or cost one naming its setup. Blank lines are skipped.
    """
    if tuple(next(csv.reader([stream.readline()]), ())) != RESULT_COLUMNS:
        raise ValueError("unrecognized results CSV header")
    with warnings.catch_warnings():
        # A header-only file is an empty table; its callers say so.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            rows = _loadtxt(stream, RESULT_DTYPE)
        except ValueError as exc:
            if stream.seekable():
                # numpy counts data rows, not file lines: find the line in a rescan.
                stream.seek(0)
                for line_num, line in enumerate(stream, 1):
                    if line_num > 1 and (fault := _line_fault(line)):
                        raise ValueError(f"results CSV line {line_num}: {fault}") from None
            raise ValueError(f"results CSV: {exc}") from None
    finite = np.logical_and.reduce([np.isfinite(rows[c]) for c in RESULT_COLUMNS[2:5]])
    if not finite.all():
        setup = rows["setup"][np.argmin(finite)]
        raise ValueError(f"results CSV: setup {setup!r} has a non-finite latency or cost")
    return rows


def _loadtxt(lines: Iterable[str], dtype: np.dtype | type, **kwargs) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=1,
                      dtype=dtype, **kwargs)


def _line_fault(line: str) -> str | None:
    """Why ``np.loadtxt`` refuses one results line, or None. Names are
    printable, so a row is one line; its fields and then each number column
    are loaded alone to name the fault."""
    try:
        _loadtxt([line], RESULT_DTYPE)
        return None
    except ValueError:
        fields = _loadtxt([line], object)
    if len(fields) != len(RESULT_COLUMNS):
        return f"{len(fields)} fields, expected {len(RESULT_COLUMNS)}"
    for i, column in enumerate(RESULT_COLUMNS[2:], 2):
        try:
            _loadtxt([line], RESULT_DTYPE[column], usecols=i)
        except ValueError:
            return f"bad {'count' if i > 4 else 'number'} {fields[i]!r} for {column}"
    return None


def metrics_from_rows(rows: Iterable[RunRow] | np.ndarray, pricing_id: str) -> MetricTable:
    """Project run rows, or a read results array, onto one pricing model's
    metrics; the table views the array's columns."""
    columns = {"traditional": "cost_traditional_pmi", "instance_based": "cost_instance_pmi"}
    if pricing_id not in columns:
        raise ValueError(f"unknown pricing id {pricing_id!r}")
    if not isinstance(rows, np.ndarray):
        rows = np.array(list(rows), dtype=RESULT_DTYPE)
    return MetricTable(rows["setup"], rows["latency_ms"], rows[columns[pricing_id]])
