"""Enumeration of fusion partitions and setups with canonical naming.

A fusion partition groups tasks into connected blocks along the app's call
edges. A fusion setup adds one resource level per group. On a call tree a
partition is exactly a subset of fused edges: a task shares its caller's
group iff their edge is fused. ``fuse`` builds the partition of one subset;
enumeration, validation and the analyses build partitions through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def group_name(tasks: frozenset[str]) -> str:
    """Canonical name of one group: members sorted, '+'-joined if multi-char."""
    members = sorted(tasks)
    if any(len(m) > 1 for m in members):
        return "+".join(members)
    return "".join(members)


@dataclass(frozen=True)
class FusionPartition:
    """Disjoint connected groups covering all tasks, sorted by group name.

    ``name`` is the canonical name: the group names comma-joined in that
    order. Build partitions with ``from_groups``, which names each group once.
    """

    groups: tuple[frozenset[str], ...]
    name: str = field(compare=False)

    @staticmethod
    def from_groups(groups: Sequence[frozenset[str]]) -> "FusionPartition":
        named = sorted(((group_name(g), frozenset(g)) for g in groups), key=itemgetter(0))
        return FusionPartition(tuple(g for _, g in named), ",".join(n for n, _ in named))

    def group_index(self) -> dict[str, int]:
        """Each task's group index."""
        return {t: i for i, g in enumerate(self.groups) for t in g}

    def group_of(self, task: str) -> int:
        return self.group_index()[task]


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

    def config_of(self, group_index: int) -> ResourceConfig:
        return self.levels[self.level_indices[group_index]]

    def assignment(self) -> dict[str, ResourceConfig]:
        return {
            group_name(g): self.config_of(i)
            for i, g in enumerate(self.partition.groups)
        }


def canonical_name(partition: FusionPartition) -> str:
    """Groups named individually, sorted, and comma-joined."""
    return partition.name


def setup_name(setup: FusionSetup) -> str:
    """``<partition>@<levelIdx>,...`` with indices in group order."""
    idx = ",".join(str(i) for i in setup.level_indices)
    return f"{setup.partition.name}@{idx}"


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
        for t in g:
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
    for g in partition.groups:
        if g not in induced:
            raise FusionError(f"group {group_name(g)!r} not connected")
    return partition


def enumerate_partitions(app: AppGraph) -> list[FusionPartition]:
    """All partitions into connected groups, one per edge subset, sorted by
    canonical name."""
    edges = app.edges
    parts = [
        fuse(app, [e for bit, e in enumerate(edges) if mask >> bit & 1])
        for mask in range(1 << len(edges))
    ]
    parts.sort(key=attrgetter("name"))
    return parts


def level_lanes(radix: int, k: int) -> np.ndarray:
    """The level assignments of a k-group partition, in setup order.

    Row g holds group g's level index in every lane; lane i writes i in base
    ``radix`` with the first group most significant.
    """
    lane = np.arange(radix**k)
    return np.stack([lane // radix ** (k - 1 - g) % radix for g in range(k)])


def enumerate_setups(
    app: AppGraph, levels: Sequence[ResourceConfig] = DEFAULT_LEVELS
) -> Iterator[FusionSetup]:
    """Stream every (partition, level assignment) pair in deterministic order.

    Order is partition order, then the partition's level assignments in
    ``level_lanes`` order: the first group's level is most significant.
    """
    if not levels:
        raise FusionError("level list must not be empty")
    palette = tuple(levels)
    for partition in enumerate_partitions(app):
        rows = level_lanes(len(palette), len(partition.groups)).tolist()
        for digits in zip(*rows):
            yield FusionSetup(partition, digits, palette)


def count_setups_tree(task_count: int, level_count: int) -> int:
    """Closed-form setup count for call trees: R * (R + 1) ** (n - 1)."""
    if task_count <= 0 or level_count <= 0:
        raise FusionError("task_count and level_count must be positive")
    return level_count * (level_count + 1) ** (task_count - 1)


def parse_setup_name(app: AppGraph, name: str) -> FusionPartition:
    """Inverse of canonical_name (the part before any '@')."""
    partition_text = name.split("@", 1)[0]
    groups: list[frozenset[str]] = []
    for chunk in partition_text.split(","):
        if not chunk:
            raise FusionError(f"empty group in {name!r}")
        members = chunk.split("+") if "+" in chunk else list(chunk)
        groups.append(frozenset(members))
    return validate_partition(app, FusionPartition.from_groups(groups))


def parse_full_setup_name(
    app: AppGraph, name: str, levels: Sequence[ResourceConfig] = DEFAULT_LEVELS
) -> FusionSetup:
    """Parse ``<partition>@<levelIdx>,...``; levels default to all zero."""
    partition_text, _, level_text = name.partition("@")
    partition = parse_setup_name(app, partition_text)
    if level_text:
        try:
            indices = tuple(int(x) for x in level_text.split(","))
        except ValueError:
            raise FusionError(f"bad level indices in {name!r}") from None
    else:
        indices = tuple(0 for _ in partition.groups)
    return FusionSetup(partition, indices, tuple(levels))


def singleton_setup(
    app: AppGraph, levels: Sequence[ResourceConfig] = DEFAULT_LEVELS, level_index: int = 0
) -> FusionSetup:
    """Every task in its own group at one uniform level (the usual baseline)."""
    partition = fuse(app, ())
    return FusionSetup(partition, tuple(level_index for _ in partition.groups), tuple(levels))
