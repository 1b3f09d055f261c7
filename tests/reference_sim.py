"""Scalar reference simulator and pricing: the test oracle of the engine.

This is the one-setup-at-a-time recursion the lane-vectorized engine in
``fuseplan.sim`` replaced. It walks the call tree once per setup with plain
floats, logs every trace event and prices the result record by record. Tests
compare the engine's outputs against it bit for bit, so its float operations
must stay exactly as they are.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

from fuseplan.app import AppGraph, CallMode
from fuseplan.fusion import FusionSetup, enumerate_partitions
from fuseplan.pricing import InstanceBasedPricing, TraditionalPricing
from fuseplan.runner import RunRow, write_results_csv
from fuseplan.sim import (
    ColdPolicy,
    InvocationRecord,
    PlatformModel,
    SimResult,
    TraceEvent,
)


def _round_up(value: float, quantum: float) -> float:
    return math.ceil(value / quantum - 1e-9) * quantum


@dataclass
class _Run:
    app: AppGraph
    setup: FusionSetup
    model: PlatformModel
    group_of: dict[str, int]
    records: list[InvocationRecord] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)
    next_instance: int = 0
    next_seq: int = 0

    def log(self, time_ms: float, kind: str, instance_id: int, task: str) -> None:
        self.events.append(TraceEvent(time_ms, self.next_seq, kind, instance_id, task))
        self.next_seq += 1

    def spawn(self, entry: str, issue_time: float) -> tuple[float, float]:
        instance_id = self.next_instance
        self.next_instance += 1
        gidx = self.group_of[entry]
        cfg = self.setup.config_of(gidx)
        cold = self.model.cold_policy is ColdPolicy.ALWAYS_COLD
        start = issue_time + self.model.net_oneway_ms + self.model.cold_delay_ms
        self.log(start, "exec_start", instance_id, entry)

        queue: list[str] = []
        response = self.run_chain(entry, start, instance_id, gidx, cfg.cpu, queue)
        t = response
        while queue:
            t = self.run_chain(queue.pop(0), t, instance_id, gidx, cfg.cpu, queue)
        self.log(t, "instance_end", instance_id, entry)

        billed = _round_up(t - start, self.model.billing_quantum_ms)
        self.records.append(
            InvocationRecord(
                group=self.setup.partition.name.split(",")[gidx],
                instance_id=instance_id,
                start_ms=start,
                end_ms=t,
                billed_ms=billed,
                cold=cold,
            )
        )
        return response, t

    def run_chain(self, task_name: str, t: float, instance_id: int, gidx: int,
                  cpu: float, queue: list[str]) -> float:
        task = next(task for task in self.app.tasks if task.name == task_name)
        self.log(t, "task_start", instance_id, task_name)
        t += task.base_work_ms / cpu
        self.log(t, "task_end", instance_id, task_name)
        for edge in self.app.outgoing(task_name):
            local = self.group_of[edge.callee] == gidx
            if edge.mode is CallMode.SYNC:
                if local:
                    t = self.run_chain(edge.callee, t, instance_id, gidx, cpu, queue)
                else:
                    self.log(t, "call_sync", instance_id, edge.callee)
                    response, _ = self.spawn(edge.callee, t)
                    t = response + self.model.net_oneway_ms
            else:
                if local:
                    self.log(t, "enqueue_local", instance_id, edge.callee)
                    queue.append(edge.callee)
                else:
                    self.log(t, "call_async", instance_id, edge.callee)
                    self.spawn(edge.callee, t)
        return t


def reference_simulate(app: AppGraph, setup: FusionSetup, model: PlatformModel) -> SimResult:
    group_of = {
        name: idx for idx, group in enumerate(setup.partition.groups) for name in group
    }
    run = _Run(app, setup, model, group_of)
    run.log(0.0, "dispatch", -1, app.root)
    run.spawn(app.root, 0.0)
    latency = max(r.end_ms for r in run.records)
    trace = tuple(sorted(run.events, key=lambda e: (e.time_ms, e.seq)))
    records = tuple(sorted(run.records, key=lambda r: r.instance_id))
    return SimResult(latency_ms=latency, invocations=records, trace=trace)


def reference_cost(result: SimResult, setup: FusionSetup, model) -> float:
    configs = {
        name: setup.levels[setup.level_indices[i]]
        for i, name in enumerate(setup.partition.name.split(","))
    }
    mb_ms = 0.0
    cpu_ms = 0.0
    for record in result.invocations:
        cfg = configs[record.group]
        mb_ms += record.billed_ms * cfg.memory_mb
        cpu_ms += record.billed_ms * cfg.cpu
    gb_seconds = mb_ms / 1024.0 / 1000.0
    cpu_seconds = cpu_ms / 1000.0
    if isinstance(model, TraditionalPricing):
        per_invocation = (
            model.request_fee_usd * len(result.invocations)
            + gb_seconds * model.gb_second_rate_usd
        )
    else:
        per_invocation = (
            cpu_seconds * model.vcpu_second_rate_usd
            + gb_seconds * model.gib_second_rate_usd
        )
    return per_invocation * 1e6


def reference_setups(app: AppGraph, levels):
    """Every setup in enumeration order: partition order, then a mixed-radix
    counter over level indices with the first group most significant."""
    palette = tuple(levels)
    radix = len(palette)
    for partition in enumerate_partitions(app):
        k = len(partition.groups)
        for code in range(radix**k):
            digits = []
            rem = code
            for _ in range(k):
                rem, d = divmod(rem, radix)
                digits.append(d)
            digits.reverse()
            yield FusionSetup(partition, tuple(digits), palette)


def reference_csv(app: AppGraph, levels, platform: PlatformModel,
                  traditional: TraditionalPricing = TraditionalPricing(),
                  instance: InstanceBasedPricing = InstanceBasedPricing()) -> str:
    """The results CSV built one setup at a time from the reference."""
    rows = []
    for setup in reference_setups(app, levels):
        result = reference_simulate(app, setup, platform)
        rows.append(RunRow(
            app=app.name,
            setup=setup.name,
            latency_ms=result.latency_ms,
            cost_traditional_pmi=reference_cost(result, setup, traditional),
            cost_instance_pmi=reference_cost(result, setup, instance),
            invocations=result.remote_calls,
            cold_starts=sum(1 for r in result.invocations if r.cold),
        ))
    buf = io.StringIO()
    write_results_csv(rows, buf)
    return buf.getvalue()
