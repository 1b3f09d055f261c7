"""Deterministic single-request simulation of fusion setups.

Timing rules, applied with one logical clock per request:

* The client dispatches the root invocation at t=0. Every remote invocation
  spends ``net_oneway_ms`` in transit, then the cold delay if the instance is
  cold (unbilled), then execution starts.
* A task runs its scaled compute first, then issues its calls in edge order.
* A synchronous call inside the group runs inline on the same instance.
* A synchronous call to another group spawns a fresh instance; the caller
  blocks for the round trip plus cold delay plus the callee's handler time,
  and that wait stays on the caller's bill (double billing). The response is
  sent when the callee's call chain returns; queued local work may keep the
  callee instance busy (and billed) afterwards.
* An asynchronous call to another group is delivered after one network hop;
  the caller continues immediately.
* An asynchronous call inside the group is appended to the instance's FIFO
  queue and runs after the current call chain (and earlier queue entries)
  finish. The instance bills until the queue drains.
* Billed time per instance spans execution start to completion, rounded up
  to the billing quantum. Cold delay and network transit are never billed.

Instances never block each other except through these rules, so results are
pure functions of (app, setup, model) and identical across repeated runs.

Control flow never depends on timings: which instances exist, their spawn
order and the tasks each runs follow from the partition alone. So one walk of
the call tree serves every level assignment of a partition at once. Each time
is a Python float when there is one assignment (lane), or a numpy array over
the lanes in ``fusion.LevelLanes`` order; every lane sees the same float
operations in the same order as a one-lane walk, so results are bit-identical
either way. ``simulate`` is the one-lane walk that also records the trace;
``simulate_lanes`` walks all lanes of a partition and records none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .app import AppGraph, CallMode, check_fields
from .fusion import FusionPartition, FusionSetup


class SimulationError(ValueError):
    """Raised when a setup does not match the application."""


class ColdPolicy(str, Enum):
    ALWAYS_COLD = "always_cold"
    ALWAYS_WARM = "always_warm"


@dataclass(frozen=True)
class PlatformModel:
    """Network, cold-start, and billing parameters of the simulated platform.

    The defaults describe an idealized zero-overhead platform; pass explicit
    values to study network and cold-start effects. ``cold_policy`` may be
    given as its string value.
    """

    net_oneway_ms: float = 0.0
    cold_start_ms: float = 0.0
    cold_policy: ColdPolicy = ColdPolicy.ALWAYS_COLD
    billing_quantum_ms: float = 1.0

    def __post_init__(self) -> None:
        check_fields(self, SimulationError, "platform",
                     enums={"cold_policy": ColdPolicy},
                     non_negative=("net_oneway_ms", "cold_start_ms"),
                     positive=("billing_quantum_ms",))

    @property
    def cold_delay_ms(self) -> float:
        # always_warm applies a zero delay regardless of cold_start_ms.
        if self.cold_policy is ColdPolicy.ALWAYS_WARM:
            return 0.0
        return self.cold_start_ms


@dataclass(frozen=True)
class InvocationRecord:
    group: str
    instance_id: int
    start_ms: float
    end_ms: float
    billed_ms: float
    cold: bool


@dataclass(frozen=True)
class TraceEvent:
    time_ms: float
    seq: int
    kind: str
    instance_id: int
    task: str


@dataclass(frozen=True)
class SimResult:
    latency_ms: float
    invocations: tuple[InvocationRecord, ...]
    trace: tuple[TraceEvent, ...]

    @property
    def remote_calls(self) -> int:
        return len(self.invocations)


# A time: one float for a single lane, or an array over a partition's lanes.
Time = Union[float, np.ndarray]


def call_tree(app: AppGraph) -> dict[str, tuple[float, tuple[tuple[str, bool], ...]]]:
    """Per task: compute time at cpu 1.0 and its calls as (callee, is_sync)."""
    return {
        t.name: (
            t.base_work_ms,
            tuple((e.callee, e.mode is CallMode.SYNC) for e in app.outgoing(t.name)),
        )
        for t in app.tasks
    }


def _round_up(value: Time, quantum: float) -> Time:
    # The epsilon absorbs float noise so exact multiples are not bumped up.
    steps = value / quantum - 1e-9
    if isinstance(steps, np.ndarray):
        if np.isfinite(steps).all():
            return np.ceil(steps) * quantum
    elif math.isfinite(steps):
        return math.ceil(steps) * quantum
    raise SimulationError("billed time is not finite")


class _Walk:
    """One request through one partition, for every lane at once.

    ``cpu[g]`` is group g's cpu fraction per lane. Instances are numbered in
    spawn order, which is the same in every lane.
    """

    def __init__(self, tree, group_of: dict[str, int], cpu: Sequence[Time],
                 model: PlatformModel) -> None:
        self.tree = tree
        self.group_of = group_of
        self.cpu = cpu
        self.net = model.net_oneway_ms
        self.cold = model.cold_delay_ms
        self.quantum = model.billing_quantum_ms
        # (group, start, end, billed) per instance id.
        self.instances: list = []

    def log(self, time_ms: float, kind: str, instance_id: int, task: str) -> None:
        """Trace hook; only a traced walk records events."""

    def run(self, root: str) -> tuple[Time, list]:
        """Walk from the client's dispatch at t=0; return (latency, instances)."""
        self.spawn(root, 0.0)
        ends = [end for _, _, end, _ in self.instances]
        if isinstance(ends[0], np.ndarray):
            return np.maximum.reduce(ends), self.instances
        return max(ends), self.instances

    def spawn(self, entry: str, issue_time: Time) -> Time:
        """Run a fresh instance for ``entry``; return its response time.

        The response time is when the entry task's call chain returns; the
        instance completes once its local async queue drains.
        """
        instance_id = len(self.instances)
        self.instances.append(None)
        gidx = self.group_of[entry]
        cpu = self.cpu[gidx]
        start = issue_time + self.net + self.cold
        self.log(start, "exec_start", instance_id, entry)

        queue: list[str] = []
        response = self.run_chain(entry, start, instance_id, gidx, cpu, queue)
        t = response
        while queue:
            t = self.run_chain(queue.pop(0), t, instance_id, gidx, cpu, queue)
        self.log(t, "instance_end", instance_id, entry)
        self.instances[instance_id] = (gidx, start, t, _round_up(t - start, self.quantum))
        return response

    def run_chain(self, task: str, t: Time, instance_id: int, gidx: int,
                  cpu: Time, queue: list[str]) -> Time:
        # Times are never updated in place: an array may be shared with a
        # recorded start or a caller's clock.
        work, calls = self.tree[task]
        self.log(t, "task_start", instance_id, task)
        t = t + work / cpu
        self.log(t, "task_end", instance_id, task)
        for callee, sync in calls:
            local = self.group_of[callee] == gidx
            if sync:
                if local:
                    t = self.run_chain(callee, t, instance_id, gidx, cpu, queue)
                else:
                    self.log(t, "call_sync", instance_id, callee)
                    t = self.spawn(callee, t) + self.net
            elif local:
                self.log(t, "enqueue_local", instance_id, callee)
                queue.append(callee)
            else:
                self.log(t, "call_async", instance_id, callee)
                self.spawn(callee, t)
        return t


class _TracedWalk(_Walk):
    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.events: list[TraceEvent] = []

    def log(self, time_ms: float, kind: str, instance_id: int, task: str) -> None:
        self.events.append(TraceEvent(time_ms, len(self.events), kind, instance_id, task))


def simulate_lanes(tree, root: str, partition: FusionPartition, cpu: Sequence[Time],
                   model: PlatformModel) -> tuple[Time, list]:
    """Simulate every lane of ``partition`` in one walk, without a trace.

    ``tree`` is ``call_tree(app)``; ``cpu[g]`` holds group g's cpu per lane,
    as a float when there is one lane. Returns the latency and, per instance
    in id order, ``(group index, start, end, billed)``.
    """
    return _Walk(tree, partition.group_index(), cpu, model).run(root)


def simulate(app: AppGraph, setup: FusionSetup, model: PlatformModel) -> SimResult:
    """Simulate one request under ``setup`` and return its full timeline."""
    partition = setup.partition
    covered = frozenset().union(*partition.groups)
    if covered != frozenset(app.task_names()):
        raise SimulationError("setup partition does not cover the app's tasks")
    cpu = [setup.config_of(g).cpu for g in range(len(partition.groups))]
    walk = _TracedWalk(call_tree(app), partition.group_index(), cpu, model)
    walk.log(0.0, "dispatch", -1, app.root)
    latency, instances = walk.run(app.root)
    names = partition.name.split(",")
    cold = model.cold_policy is ColdPolicy.ALWAYS_COLD
    records = tuple(
        InvocationRecord(names[g], i, start, end, billed, cold)
        for i, (g, start, end, billed) in enumerate(instances)
    )
    trace = tuple(sorted(walk.events, key=lambda e: (e.time_ms, e.seq)))
    return SimResult(latency_ms=latency, invocations=records, trace=trace)
