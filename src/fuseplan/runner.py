"""Full-pipeline execution: enumerate, simulate, and price every setup.

Evaluation is partition-major. Setups that share a partition share their
whole control flow, so each partition is simulated once, with every level
assignment as one lane of a numpy array (``sim.simulate_lanes``), and its
instances priced by ``pricing.billed_usage``, as ``cost_of`` prices one
simulated setup. ``fusion.LevelLanes`` gives each lane's cpu, memory and
setup-name suffix. No trace is built.

``run_all`` yields each partition's setups as one ``ResultBlock`` of per-lane
columns, the one stream every consumer takes: ``write_results_csv`` formats a
block as one string and ``metrics_from_rows`` concatenates block columns.
``evaluate_setup`` is the scalar reference, one setup as a one-lane block.
Blocks come out in enumeration order and floats are written repr-exact, so a
results file is byte-identical across repeated runs and any ``jobs`` value.
A results file is read back as one numpy structured array, one column per
field, with no object per row.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .analysis import MetricTable
from .app import AppGraph
from .fusion import (
    DEFAULT_LEVELS,
    FusionSetup,
    LevelLanes,
    ResourceConfig,
    enumerate_partitions,
)
from .pricing import (
    PRICING_MODELS,
    InstanceBasedPricing,
    TraditionalPricing,
    billed_usage,
    cost_of,
    price_usage,
)
from .sim import PlatformModel, call_tree, simulate, simulate_lanes

RESULT_COLUMNS = ("app", "setup", "latency_ms", "cost_traditional_pmi", "cost_instance_pmi",
                  "invocations", "cold_starts")
RESULT_DTYPE = np.dtype(list(zip(RESULT_COLUMNS, [object] * 2 + [float] * 3 + [np.int64] * 2)))
# Each pricing id's cost column: both follow the order of PRICING_MODELS.
_COST_COLUMNS = {model.id: column for model, column in zip(PRICING_MODELS, RESULT_COLUMNS[3:5])}


class ResultBlock(NamedTuple):
    """The results rows of one partition's setups, as columns over its lanes.

    Lane i is the setup ``partition + suffixes[i]``, with the i-th latency and
    costs (Python floats). The lanes share the invocation and cold-start
    counts, which follow from the partition alone. A suffix holds a comma
    only when the partition text does (one fewer than its groups each), so
    the csv rule quotes every lane's name exactly when it quotes the
    partition text.
    """

    app: str
    partition: str
    suffixes: Sequence[str]
    latency_ms: list[float]
    cost_traditional_pmi: list[float]
    cost_instance_pmi: list[float]
    invocations: int
    cold_starts: int


def evaluate_setup(
    app: AppGraph,
    setup: FusionSetup,
    platform: PlatformModel,
    traditional: TraditionalPricing,
    instance: InstanceBasedPricing,
) -> ResultBlock:
    """One setup simulated by ``simulate`` and priced by ``cost_of``: the
    scalar reference for ``run_all``'s lanes, as a one-lane block."""
    result = simulate(app, setup, platform)
    return ResultBlock(
        app.name,
        setup.partition.name,
        (setup.level_suffix,),
        [result.latency_ms],
        [cost_of(result, setup, traditional)],
        [cost_of(result, setup, instance)],
        result.remote_calls,
        sum(1 for r in result.invocations if r.cold),
    )


def run_all(
    app: AppGraph,
    levels: Sequence[ResourceConfig] = DEFAULT_LEVELS,
    platform: PlatformModel = PlatformModel(),
    traditional: TraditionalPricing = TraditionalPricing(),
    instance: InstanceBasedPricing = InstanceBasedPricing(),
    jobs: int = 1,
) -> Iterator[ResultBlock]:
    """Yield one block per partition, in enumeration order.

    ``jobs`` is accepted for compatibility and does not change the blocks.
    Evaluation runs in this process: with per-setup overhead gone, sharding
    partitions over a process pool measured slower at every benchmarked size,
    since pool start-up and shipping rows back cost more than the walks.
    """
    lanes = LevelLanes(levels)
    tree = call_tree(app)
    for partition in enumerate_partitions(app):
        suffixes, cpu, memory = lanes.of(len(partition.groups))
        # An overflow surfaces as a non-finite billed time, which the walk
        # reports as a SimulationError, so numpy's own warnings are noise.
        with np.errstate(all="ignore"):
            latency, instances = simulate_lanes(tree, app.root, partition, cpu, platform)
            usage = billed_usage(instances, cpu, memory)
            invocations = len(instances)
            columns = (latency, price_usage(*usage, invocations, traditional),
                       price_usage(*usage, invocations, instance))
        # One lane runs on plain floats; tolist() turns float64 lanes into
        # Python floats, which print as their repr.
        columns = [c.tolist() for c in columns] if len(suffixes) > 1 else [[c] for c in columns]
        cold_starts = invocations if platform.starts_cold else 0
        yield ResultBlock(app.name, partition.name, suffixes, *columns, invocations, cold_starts)


# csv.writer quotes a field that holds its delimiter, its quotechar or its
# line terminator, and doubles the quotechar inside it. A "\r" is quoted
# too: a reader in text mode ends a line there.
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _doubled_quotes(text: str) -> str:
    return text.replace('"', '""')


def write_results_csv(blocks: Iterable[ResultBlock], stream: io.TextIOBase) -> None:
    """Write the header and one line per setup, as ``csv.writer`` writes them,
    one string per block: the app field and the partition text are quoted
    once per block, and a float is written as its ``str``, which for a
    Python float is its ``repr``."""
    stream.write(",".join(RESULT_COLUMNS) + "\n")
    for block in blocks:
        app = f'"{_doubled_quotes(block.app)}"' if _NEEDS_QUOTES.search(block.app) else block.app
        if _NEEDS_QUOTES.search(block.partition):
            head, close = f'{app},"{_doubled_quotes(block.partition)}', '"'
        else:
            head, close = f"{app},{block.partition}", ""
        tail = f",{block.invocations},{block.cold_starts}\n"
        stream.write("".join([
            f"{head}{suffix}{close},{latency!s},{traditional_cost!s},{instance_cost!s}{tail}"
            for suffix, latency, traditional_cost, instance_cost in zip(
                block.suffixes, block.latency_ms, block.cost_traditional_pmi,
                block.cost_instance_pmi)
        ]))


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


def metrics_from_rows(results: Iterable[ResultBlock] | np.ndarray,
                      pricing_id: str) -> MetricTable:
    """Project result blocks, or a read results array, onto one pricing
    model's metrics. Blocks' columns are concatenated; the table of an array
    views its columns."""
    if pricing_id not in _COST_COLUMNS:
        raise ValueError(f"unknown pricing id {pricing_id!r}")
    column = _COST_COLUMNS[pricing_id]
    if isinstance(results, np.ndarray):
        return MetricTable(results["setup"], results["latency_ms"], results[column])
    names: list[str] = []
    latency: list[float] = []
    cost: list[float] = []
    for block in results:
        names += [block.partition + suffix for suffix in block.suffixes]
        latency += block.latency_ms
        cost += getattr(block, column)
    return MetricTable(names, np.array(latency, dtype=float), np.array(cost, dtype=float))
