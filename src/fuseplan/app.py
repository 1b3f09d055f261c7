"""Application model: task DAGs with sync/async call edges.

Applications are call trees: every task except the root is called by exactly
one parent, and calls are issued in a fixed per-caller order. Graphs are
immutable after construction and safe to share across threads or processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping


class AppValidationError(ValueError):
    """Raised when an application descriptor or graph violates the model."""


class CallMode(str, Enum):
    SYNC = "sync"
    ASYNC = "async"


@dataclass(frozen=True)
class Task:
    """A unit of work; ``base_work_ms`` is wall-clock compute at cpu 1.0."""

    name: str
    base_work_ms: float

    def __post_init__(self) -> None:
        if not self.name:
            raise AppValidationError("task name must be non-empty")
        if "," in self.name or "+" in self.name:
            raise AppValidationError(
                f"task name {self.name!r} may not contain ',' or '+'"
            )
        if not (self.base_work_ms > 0):
            raise AppValidationError(
                f"task {self.name!r}: base_work_ms must be positive"
            )


@dataclass(frozen=True)
class CallEdge:
    """A call from ``caller`` to ``callee``; ``order`` ranks the caller's calls."""

    caller: str
    callee: str
    mode: CallMode
    order: int = 0

    def __post_init__(self) -> None:
        if self.caller == self.callee:
            raise AppValidationError(f"self-call on task {self.caller!r}")
        if self.order < 0:
            raise AppValidationError("edge order must be non-negative")


@dataclass(frozen=True)
class AppGraph:
    name: str
    tasks: tuple[Task, ...]
    edges: tuple[CallEdge, ...]
    root: str

    def task_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tasks)

    def task(self, name: str) -> Task:
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(name)

    def outgoing(self, caller: str) -> tuple[CallEdge, ...]:
        """Edges issued by ``caller``, in call order."""
        out = [e for e in self.edges if e.caller == caller]
        out.sort(key=lambda e: e.order)
        return tuple(out)

    def undirected_pairs(self) -> tuple[tuple[str, str], ...]:
        """Endpoint pairs of every edge, for connectivity checks."""
        return tuple((e.caller, e.callee) for e in self.edges)

    def with_base_work(self, work_ms: Mapping[str, float]) -> "AppGraph":
        """Return a copy with per-task compute durations overridden."""
        missing = [n for n in work_ms if n not in self.task_names()]
        if missing:
            raise AppValidationError(f"unknown task {missing[0]!r} in override")
        tasks = tuple(
            replace(t, base_work_ms=float(work_ms.get(t.name, t.base_work_ms)))
            for t in self.tasks
        )
        return AppGraph(self.name, tasks, self.edges, self.root)


def validate_app(app: AppGraph, require_tree: bool = True) -> AppGraph:
    """Check all AppGraph invariants, raising AppValidationError on failure."""
    names = [t.name for t in app.tasks]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise AppValidationError(f"duplicate task name {dup!r}")
    if app.root not in names:
        raise AppValidationError(f"unknown root task {app.root!r}")

    incoming: dict[str, int] = {n: 0 for n in names}
    seen_orders: dict[str, set[int]] = {n: set() for n in names}
    for e in app.edges:
        for endpoint in (e.caller, e.callee):
            if endpoint not in incoming:
                raise AppValidationError(f"unknown task {endpoint!r} in edge")
        if e.order in seen_orders[e.caller]:
            raise AppValidationError(
                f"duplicate call order {e.order} on task {e.caller!r}"
            )
        seen_orders[e.caller].add(e.order)
        incoming[e.callee] += 1

    if incoming[app.root] != 0:
        raise AppValidationError("root task may not be called")
    if require_tree:
        for n, deg in incoming.items():
            if n != app.root and deg != 1:
                raise AppValidationError(
                    f"task {n!r} must have exactly one caller (found {deg})"
                )

    # Cycle check plus reachability in one walk from the root.
    children: dict[str, list[str]] = {n: [] for n in names}
    for e in app.edges:
        children[e.caller].append(e.callee)
    state: dict[str, int] = {}

    def visit(node: str, stack: tuple[str, ...]) -> None:
        if state.get(node) == 1:
            raise AppValidationError(
                "directed cycle: " + " -> ".join(stack + (node,))
            )
        if state.get(node) == 2:
            return
        state[node] = 1
        for child in children[node]:
            visit(child, stack + (node,))
        state[node] = 2

    visit(app.root, ())
    unreachable = [n for n in names if state.get(n) != 2]
    if unreachable:
        raise AppValidationError(f"unreachable task {unreachable[0]!r}")
    return app


def parse_app(descriptor_text: str, require_tree: bool = True) -> AppGraph:
    """Parse and validate a JSON application descriptor.

    Format: ``{"name", "root", "tasks": [{"name", "base_work_ms"}],
    "edges": [{"caller", "callee", "mode"}]}``. The edge array order is
    authoritative and defines each caller's call order.
    """
    try:
        raw = json.loads(descriptor_text)
    except json.JSONDecodeError as exc:
        raise AppValidationError(f"malformed descriptor: {exc}") from exc
    if not isinstance(raw, dict):
        raise AppValidationError("descriptor must be a JSON object")

    try:
        name = str(raw["name"])
        root = str(raw["root"])
        raw_tasks = raw["tasks"]
        raw_edges = raw["edges"]
    except KeyError as exc:
        raise AppValidationError(f"descriptor missing field {exc.args[0]!r}") from exc
    if not isinstance(raw_tasks, list) or not isinstance(raw_edges, list):
        raise AppValidationError("descriptor fields 'tasks' and 'edges' must be lists")

    tasks = []
    for item in raw_tasks:
        try:
            tasks.append(Task(str(item["name"]), float(item["base_work_ms"])))
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, AppValidationError):
                raise
            raise AppValidationError(f"bad task entry {item!r}") from exc

    edges = []
    per_caller: dict[str, int] = {}
    for item in raw_edges:
        try:
            caller = str(item["caller"])
            callee = str(item["callee"])
            mode_text = str(item["mode"])
        except (KeyError, TypeError) as exc:
            raise AppValidationError(f"bad edge entry {item!r}") from exc
        try:
            mode = CallMode(mode_text)
        except ValueError:
            raise AppValidationError(f"unknown call mode {mode_text!r}") from None
        order = per_caller.get(caller, 0)
        per_caller[caller] = order + 1
        edges.append(CallEdge(caller, callee, mode, order))

    return validate_app(AppGraph(name, tuple(tasks), tuple(edges), root), require_tree)


def serialize_app(app: AppGraph) -> str:
    """Inverse of parse_app; edge order is preserved."""
    ordered = app.edges
    doc = {
        "name": app.name,
        "root": app.root,
        "tasks": [{"name": t.name, "base_work_ms": t.base_work_ms} for t in app.tasks],
        "edges": [
            {"caller": e.caller, "callee": e.callee, "mode": e.mode.value}
            for e in ordered
        ],
    }
    return json.dumps(doc, indent=2)


def sync_skeleton(app: AppGraph) -> frozenset[CallEdge]:
    """All edges called synchronously."""
    return frozenset(e for e in app.edges if e.mode is CallMode.SYNC)


BUILTIN_NAMES = ("LINEAR", "PARALLEL_LINEAR", "TREE", "ASYNC")

_LIGHT_MS = 100.0
_HEAVY_MS = 400.0


def _graph(name: str, works: dict[str, float], root: str,
           edge_list: list[tuple[str, str, CallMode]]) -> AppGraph:
    tasks = tuple(Task(n, w) for n, w in works.items())
    per_caller: dict[str, int] = {}
    edges = []
    for caller, callee, mode in edge_list:
        order = per_caller.get(caller, 0)
        per_caller[caller] = order + 1
        edges.append(CallEdge(caller, callee, mode, order))
    return validate_app(AppGraph(name, tasks, tuple(edges), root))


def builtin_app(name: str) -> AppGraph:
    """Return one of the four canonical example applications.

    TREE issues the asynchronous call from A before the synchronous one so
    the heavy asynchronous chain runs in parallel with the synchronous chain
    after A finishes, which is the intended split topology.
    """
    key = name.strip().upper().replace("-", "_")
    s, a = CallMode.SYNC, CallMode.ASYNC
    if key == "LINEAR":
        works = {n: _LIGHT_MS for n in "ABCDE"}
        return _graph("LINEAR", works, "A",
                      [("A", "B", s), ("B", "C", s), ("C", "D", s), ("D", "E", s)])
    if key == "PARALLEL_LINEAR":
        works = {n: _LIGHT_MS for n in "ABCDE"}
        return _graph("PARALLEL_LINEAR", works, "A",
                      [("A", "B", a), ("A", "D", a), ("B", "C", s), ("D", "E", s)])
    if key == "TREE":
        works = {n: (_HEAVY_MS if n in "EFG" else _LIGHT_MS) for n in "ABCDEFG"}
        return _graph("TREE", works, "A",
                      [("A", "C", a), ("A", "B", s), ("B", "D", s), ("D", "E", s),
                       ("C", "F", a), ("C", "G", a)])
    if key == "ASYNC":
        works = {n: _LIGHT_MS for n in "ABCDE"}
        return _graph("ASYNC", works, "A",
                      [("A", "B", a), ("B", "C", a), ("A", "D", a), ("D", "E", a)])
    raise AppValidationError(f"unknown built-in application {name!r}")
