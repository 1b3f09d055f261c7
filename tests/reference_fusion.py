"""Union-find partition enumeration, the sync-fuse heuristic, the merge/split
neighbourhood and the greedy path: the test oracle of the call-tree fusion
code.

This is the general-graph code ``fuseplan.fusion`` and ``fuseplan.analysis``
replaced. Partitions come from a union-find over each edge subset,
deduplicated by canonical name; the neighbourhood merges across an edge or
splits along one with a fresh union-find; the greedy path keeps a visited
set and normalizes over the whole metric set it is given. Tests compare the
call-tree code against it, so it must stay exactly as it is.
"""

from __future__ import annotations

from typing import Sequence

from fuseplan.analysis import AnalysisError, OptimizationStep, normalize_metrics, score
from fuseplan.app import AppGraph, CallMode
from fuseplan.fusion import FusionPartition, FusionSetup, validate_partition
from fuseplan.pricing import SetupMetrics


def enumerate_partitions(app: AppGraph) -> list[FusionPartition]:
    """All partitions into edge-connected groups, sorted by canonical name."""
    pairs = [(e.caller, e.callee) for e in app.edges]
    names = app.task_names()
    by_name: dict[str, FusionPartition] = {}
    for mask in range(1 << len(pairs)):
        parent = {n: n for n in names}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for bit, (a, b) in enumerate(pairs):
            if mask >> bit & 1:
                parent[find(a)] = find(b)
        blocks: dict[str, set[str]] = {}
        for n in names:
            blocks.setdefault(find(n), set()).add(n)
        part = FusionPartition.from_groups([frozenset(b) for b in blocks.values()])
        by_name.setdefault(part.name, part)
    return [by_name[k] for k in sorted(by_name)]


def sync_fuse_heuristic(app: AppGraph) -> FusionPartition:
    """Fuse the connected components of the synchronous skeleton.

    Tasks linked only by asynchronous calls stay in separate groups.
    """
    parent = {n: n for n in app.task_names()}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in app.edges:
        if e.mode is CallMode.SYNC:
            parent[find(e.caller)] = find(e.callee)
    blocks: dict[str, set[str]] = {}
    for n in app.task_names():
        blocks.setdefault(find(n), set()).add(n)
    partition = FusionPartition.from_groups([frozenset(b) for b in blocks.values()])
    return validate_partition(app, partition)


def _neighbors(app: AppGraph, setup: FusionSetup) -> list[tuple[str, FusionSetup]]:
    """One-move neighborhood: fuse an edge, split along an edge, shift a level."""
    out: list[tuple[str, FusionSetup]] = []
    partition = setup.partition
    palette = setup.levels
    pairs = [(e.caller, e.callee) for e in app.edges]

    group_of = partition.group_index()
    for a, b in pairs:
        ga, gb = group_of[a], group_of[b]
        if ga == gb:
            continue
        merged = partition.groups[ga] | partition.groups[gb]
        groups = [g for i, g in enumerate(partition.groups) if i not in (ga, gb)]
        levels = [setup.level_indices[i] for i in range(len(partition.groups)) if i not in (ga, gb)]
        groups.append(merged)
        levels.append(max(setup.level_indices[ga], setup.level_indices[gb]))
        new_part = FusionPartition.from_groups(groups)
        realign = [
            levels[groups.index(g)] for g in new_part.groups
        ]
        out.append(("fusion", FusionSetup(new_part, tuple(realign), palette)))

    for gi, group in enumerate(partition.groups):
        if len(group) < 2:
            continue
        internal = [(a, b) for a, b in pairs if a in group and b in group]
        for cut in internal:
            kept = [p for p in internal if p != cut]
            parent = {n: n for n in group}

            def find(x: str) -> str:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in kept:
                parent[find(a)] = find(b)
            halves: dict[str, set[str]] = {}
            for n in group:
                halves.setdefault(find(n), set()).add(n)
            if len(halves) != 2:
                continue
            groups = [g for i, g in enumerate(partition.groups) if i != gi]
            levels = [setup.level_indices[i] for i in range(len(partition.groups)) if i != gi]
            for half in halves.values():
                groups.append(frozenset(half))
                levels.append(setup.level_indices[gi])
            new_part = FusionPartition.from_groups(groups)
            realign = [levels[groups.index(g)] for g in new_part.groups]
            out.append(("fusion", FusionSetup(new_part, tuple(realign), palette)))

    for gi in range(len(partition.groups)):
        for delta in (-1, 1):
            idx = setup.level_indices[gi] + delta
            if 0 <= idx < len(palette):
                levels = list(setup.level_indices)
                levels[gi] = idx
                out.append(("resource", FusionSetup(partition, tuple(levels), palette)))
    return out


def greedy_optimize_path(
    app: AppGraph,
    metrics: Sequence[SetupMetrics],
    alpha: float,
    start_setup: FusionSetup,
) -> list[OptimizationStep]:
    """Hill-climb from ``start_setup`` to a local score optimum.

    Normalization is fixed over ``metrics``, and already-visited setups are
    never re-entered, which keeps the path finite.
    """
    if not (0.0 <= alpha <= 1.0):
        raise AnalysisError("alpha must lie in [0, 1]")
    cache = {m.setup_name: m for m in metrics}

    def measure(setup: FusionSetup) -> SetupMetrics:
        key = setup.name
        if key not in cache:
            raise AnalysisError(f"setup {key!r} missing from the metric set")
        return cache[key]

    def scores_for(names: Sequence[str]) -> dict[str, float]:
        pool = list(cache.values())
        lat = normalize_metrics([m.latency_ms for m in pool])
        cost = normalize_metrics([m.cost_pmi_usd for m in pool])
        table = {
            m.setup_name: score(lat[i], cost[i], alpha) for i, m in enumerate(pool)
        }
        return {n: table[n] for n in names}

    current = start_setup
    measure(current)
    visited = {current.name}
    steps: list[OptimizationStep] = []
    while True:
        neighborhood = [
            (kind, setup)
            for kind, setup in _neighbors(app, current)
            if setup.name not in visited
        ]
        for _, setup in neighborhood:
            measure(setup)
        wanted = [current.name] + [s.name for _, s in neighborhood]
        table = scores_for(wanted)
        current_score = table[current.name]
        best: tuple[float, float, float, str] | None = None
        best_move: tuple[str, FusionSetup] | None = None
        for kind, setup in neighborhood:
            m = cache[setup.name]
            key = (table[setup.name], m.cost_pmi_usd, m.latency_ms, setup.name)
            if best is None or key < best:
                best = key
                best_move = (kind, setup)
        if best is None or best[0] >= current_score:
            return steps
        kind, nxt = best_move  # type: ignore[misc]
        steps.append(
            OptimizationStep(
                kind=kind,
                from_setup=current.name,
                to_setup=nxt.name,
                score_before=current_score,
                score_after=best[0],
            )
        )
        visited.add(nxt.name)
        current = nxt
