"""Enumeration of fusion partitions and setups with canonical naming.

A fusion partition groups tasks into connected blocks along the app's call
edges. A fusion setup adds one resource level per group. On a call tree a
partition is exactly a subset of fused edges: a task shares its caller's
group iff their edge is fused. ``fuse`` builds the partition of one subset;
enumeration, validation and the analyses build partitions through it.
``LevelLanes`` holds the level assignments of every group count, and this
module alone writes and splits the ``@`` of a setup name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .app import AppGraph, CallEdge, check_fields


class FusionError(ValueError):
    """Raised for invalid partitions, setups, or setup names."""


@dataclass(frozen=True)
class ResourceConfig:
    """One resource level: fraction of a vCPU plus a whole number of MB."""

    cpu: float
    memory_mb: int

    def __post_init__(self) -> None:
        check_fields(self, FusionError, "level", positive=("cpu",), whole=("memory_mb",))


# The three platform resource rows used throughout the examples.
DEFAULT_LEVELS: tuple[ResourceConfig, ...] = (
    ResourceConfig(0.1, 128),
    ResourceConfig(0.5, 832),
    ResourceConfig(1.0, 1769),
)


def group_separator(tasks: Iterable[str]) -> str:
    """The group-member separator of an app: "+" if any task name is multi-char."""
    return "+" if any(len(t) > 1 for t in tasks) else ""


@dataclass(frozen=True)
class FusionPartition:
    """Disjoint connected groups covering all tasks, sorted by group name.

    ``name`` is the group names comma-joined, so ``name.split(",")`` lists
    them in group order. ``from_groups`` names each group
    ``sep.join(sorted(group))``, with one ``group_separator`` for all groups.
    """

    groups: tuple[frozenset[str], ...]
    name: str = field(compare=False)

    @staticmethod
    def from_groups(groups: Sequence[frozenset[str]]) -> "FusionPartition":
        sep = group_separator(t for g in groups for t in g)
        named = sorted(((sep.join(sorted(g)), frozenset(g)) for g in groups), key=itemgetter(0))
        return FusionPartition(tuple(g for _, g in named), ",".join(n for n, _ in named))

    def group_index(self) -> dict[str, int]:
        """Each task's group index."""
        return {t: i for i, g in enumerate(self.groups) for t in g}


@dataclass(frozen=True)
class FusionSetup:
    """A partition plus a resource level index per group (canonical order)."""

    partition: FusionPartition
    level_indices: tuple[int, ...]
    levels: tuple[ResourceConfig, ...]

    def __post_init__(self) -> None:
        if len(self.level_indices) != len(self.partition.groups):
            raise FusionError("one level index required per group")
        for idx in self.level_indices:
            if not (0 <= idx < len(self.levels)):
                raise FusionError(f"level index {idx} out of range")

    @property
    def name(self) -> str:
        return setup_name(self)

    @property
    def level_suffix(self) -> str:
        """The ``@<levelIdx>,...`` that follows the partition text in ``name``."""
        return _level_suffix(map(str, self.level_indices))

    def config_of(self, group_index: int) -> ResourceConfig:
        return self.levels[self.level_indices[group_index]]


def setup_name(setup: FusionSetup) -> str:
    """``<partition>@<levelIdx>,...`` with indices in group order."""
    return setup.partition.name + setup.level_suffix


def _level_suffix(index_texts: Iterable[str]) -> str:
    return "@" + ",".join(index_texts)


def split_setup_name(name: str) -> tuple[str, str | None]:
    """A setup name's partition text and level text, split at its first '@';
    the level text is None when there is no '@'."""
    partition_text, at, level_text = name.partition("@")
    return partition_text, level_text if at else None


class LevelLanes:
    """The level assignments of a k-group setup over one level palette. Their
    name suffixes, cpu and memory are built once per group count k.

    Lane i writes i in base R (R levels) with the first group's level most
    significant; this is the order of a partition's setups everywhere.
    """

    def __init__(self, levels: Sequence[ResourceConfig]) -> None:
        if not levels:
            raise FusionError("level list must not be empty")
        self.levels = tuple(levels)
        self._by_count: dict[int, tuple] = {}

    def indices(self, k: int) -> Iterator[tuple[int, ...]]:
        """The level index tuple of each lane for k groups, built on each call."""
        # itertools.product and np.indices in C order both count in base R
        # with the first group most significant.
        return product(range(len(self.levels)), repeat=k)

    def of(self, k: int) -> tuple[list[str], list, list]:
        """(setup-name suffix per lane, cpu per group, memory per group) for k
        groups. A group's cpu and memory are arrays over the lanes, or plain
        numbers when there is one lane."""
        if k not in self._by_count:
            radix = len(self.levels)
            digit_texts = [str(d) for d in range(radix)]
            suffixes = list(map(_level_suffix, product(digit_texts, repeat=k)))
            if radix == 1:
                cpu, memory = [self.levels[0].cpu] * k, [self.levels[0].memory_mb] * k
            else:
                digits = np.indices((radix,) * k).reshape(k, -1)
                cpu = list(np.array([lv.cpu for lv in self.levels])[digits])
                memory = list(np.array([lv.memory_mb for lv in self.levels], float)[digits])
            self._by_count[k] = suffixes, cpu, memory
        return self._by_count[k]


def fuse(app: AppGraph, fused: Iterable[CallEdge]) -> FusionPartition:
    """The partition in which each task joins its caller's group iff the
    edge between them is among ``fused``, a subset of ``app.edges``.

    The call tree is walked top-down from the root, without recursion. Each
    edge subset of a tree gives a distinct partition, and every partition
    into connected groups comes from the subset of its group-internal edges.
    """
    # A tree edge is identified by its callee, whose name hashes cheaply.
    joined = {e.callee for e in fused}
    calls = app.calls
    # Sets, not lists: a frozenset copied from a set gets a table sized to
    # fit, which keeps 5-7 member groups at about two thirds the memory.
    groups = [{app.root}]
    group_of = {app.root: groups[0]}
    stack = [app.root]
    while stack:
        caller = stack.pop()
        for e in calls.get(caller, ()):
            callee = e.callee
            if callee in joined:
                group = group_of[caller]
            else:
                group = set()
                groups.append(group)
            group.add(callee)
            group_of[callee] = group
            stack.append(callee)
    return FusionPartition.from_groups([frozenset(g) for g in groups])


def validate_partition(app: AppGraph, partition: FusionPartition) -> FusionPartition:
    """Check coverage, disjointness, and per-group connectivity.

    A group is connected iff it is a group of the partition its internal
    edges induce.
    """
    names = set(app.task_names())
    seen: set[str] = set()
    for g in partition.groups:
        if not g:
            raise FusionError("empty group")
        for t in sorted(g):
            if t not in names:
                raise FusionError(f"unknown task {t!r}")
            if t in seen:
                raise FusionError(f"task {t!r} appears twice")
            seen.add(t)
    if seen != names:
        missing = sorted(names - seen)
        raise FusionError(f"task {missing[0]!r} not covered")
    group_of = partition.group_index()
    internal = [e for e in app.edges if group_of[e.caller] == group_of[e.callee]]
    induced = set(fuse(app, internal).groups)
    for g, name in zip(partition.groups, partition.name.split(",")):
        if g not in induced:
            raise FusionError(f"group {name!r} not connected")
    return partition


def enumerate_partitions(app: AppGraph) -> list[FusionPartition]:
    """All partitions into connected groups, one per edge subset, sorted by
    ``name``."""
    edges = app.edges
    parts = [
        fuse(app, [e for bit, e in enumerate(edges) if mask >> bit & 1])
        for mask in range(1 << len(edges))
    ]
    parts.sort(key=attrgetter("name"))
    return parts


def enumerate_setups(
    app: AppGraph, levels: Sequence[ResourceConfig] = DEFAULT_LEVELS
) -> Iterator[FusionSetup]:
    """Stream every (partition, level assignment) pair in deterministic order:
    partition order, then the partition's ``LevelLanes`` order."""
    lanes = LevelLanes(levels)
    for partition in enumerate_partitions(app):
        for indices in lanes.indices(len(partition.groups)):
            yield FusionSetup(partition, indices, lanes.levels)


def count_setups_tree(task_count: int, level_count: int) -> int:
    """Closed-form setup count for call trees: R * (R + 1) ** (n - 1)."""
    if task_count <= 0 or level_count <= 0:
        raise FusionError("task_count and level_count must be positive")
    return level_count * (level_count + 1) ** (task_count - 1)


def parse_setup_name(app: AppGraph, name: str) -> FusionPartition:
    """Inverse of ``FusionPartition.name`` (up to any '@'), on the app's separator;
    any other spelling is refused, so levels land on the groups written."""
    text = split_setup_name(name)[0]
    chunks = text.split(",")
    if "" in chunks:
        raise FusionError(f"empty group in {name!r}")
    sep = group_separator(app.task_names())
    groups = [frozenset(chunk.split(sep) if sep else chunk) for chunk in chunks]
    partition = validate_partition(app, FusionPartition.from_groups(groups))
    if partition.name != text:
        raise FusionError(f"partition {text!r} is not in written form {partition.name!r}")
    return partition


def parse_full_setup_name(
    app: AppGraph, name: str, levels: Sequence[ResourceConfig] = DEFAULT_LEVELS
) -> FusionSetup:
    """Parse ``<partition>@<levelIdx>,...`` as ``setup_name`` writes it, indices
    ASCII digits with no leading zero; without '@' every group is at level 0."""
    partition_text, level_text = split_setup_name(name)
    partition = parse_setup_name(app, partition_text)
    if level_text is None:
        indices = (0,) * len(partition.groups)
    elif all(d.isascii() and d.isdigit() and str(int(d)) == d for d in level_text.split(",")):
        indices = tuple(map(int, level_text.split(",")))
    else:
        raise FusionError(f"bad level indices in {name!r}")
    return FusionSetup(partition, indices, tuple(levels))


def singleton_setup(
    app: AppGraph, levels: Sequence[ResourceConfig] = DEFAULT_LEVELS
) -> FusionSetup:
    """Every task in its own group at level 0 (the usual baseline)."""
    partition = fuse(app, ())
    return FusionSetup(partition, (0,) * len(partition.groups), tuple(levels))
