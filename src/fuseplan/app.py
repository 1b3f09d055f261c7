"""Application model: task DAGs with sync/async call edges.

Applications are call trees: every task except the root is called by exactly
one parent. A caller issues its calls in the order its edges appear in
``AppGraph.edges``. Graphs are immutable after construction and safe to share
across threads or processes.
"""

from __future__ import annotations

import json
import math
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
        if not (math.isfinite(self.base_work_ms) and self.base_work_ms > 0):
            raise AppValidationError(
                f"task {self.name!r}: base_work_ms must be finite and positive"
            )


@dataclass(frozen=True)
class CallEdge:
    """A call from ``caller`` to ``callee``.

    A caller's calls are issued in the order of its edges in ``AppGraph.edges``.
    """

    caller: str
    callee: str
    mode: CallMode

    def __post_init__(self) -> None:
        if self.caller == self.callee:
            raise AppValidationError(f"self-call on task {self.caller!r}")


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
        return tuple(e for e in self.edges if e.caller == caller)

    def undirected_pairs(self) -> tuple[tuple[str, str], ...]:
        """(caller, callee) of every edge, in edge order."""
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


def validate_app(app: AppGraph) -> AppGraph:
    """Check all AppGraph invariants, raising AppValidationError on failure."""
    names = [t.name for t in app.tasks]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise AppValidationError(f"duplicate task name {dup!r}")
    if app.root not in names:
        raise AppValidationError(f"unknown root task {app.root!r}")

    incoming: dict[str, int] = {n: 0 for n in names}
    for e in app.edges:
        for endpoint in (e.caller, e.callee):
            if endpoint not in incoming:
                raise AppValidationError(f"unknown task {endpoint!r} in edge")
        incoming[e.callee] += 1

    if incoming[app.root] != 0:
        raise AppValidationError("root task may not be called")
    for n, deg in incoming.items():
        if n != app.root and deg != 1:
            raise AppValidationError(
                f"task {n!r} must have exactly one caller (found {deg})"
            )

    # Every task but the root has one caller, so a cycle cannot be reached
    # from the root: a walk from it visits each reachable task once.
    children: dict[str, list[str]] = {n: [] for n in names}
    for e in app.edges:
        children[e.caller].append(e.callee)
    reached = {app.root}
    stack = [app.root]
    while stack:
        for child in children[stack.pop()]:
            reached.add(child)
            stack.append(child)
    unreachable = [n for n in names if n not in reached]
    if unreachable:
        raise AppValidationError(f"unreachable task {unreachable[0]!r}")
    return app


def _has(item: object, key: str, kind: type | tuple[type, ...]) -> bool:
    """Whether ``item`` is a JSON object holding a ``kind`` (not a bool) at ``key``."""
    if not isinstance(item, dict):
        return False
    value = item.get(key)
    return isinstance(value, kind) and not isinstance(value, bool)


def parse_app(descriptor_text: str) -> AppGraph:
    """Parse and validate a JSON application descriptor.

    Format: ``{"name", "root", "tasks": [{"name", "base_work_ms"}],
    "edges": [{"caller", "callee", "mode"}]}``, with names and modes JSON
    strings and ``base_work_ms`` a JSON number. A caller issues its calls in
    the order of its edges in the array.
    """
    try:
        raw = json.loads(descriptor_text)
    except json.JSONDecodeError as exc:
        raise AppValidationError(f"malformed descriptor: {exc}") from exc
    if not isinstance(raw, dict):
        raise AppValidationError("descriptor must be a JSON object")
    for key, kind, label in (("name", str, "string"), ("root", str, "string"),
                             ("tasks", list, "list"), ("edges", list, "list")):
        if key not in raw:
            raise AppValidationError(f"descriptor missing field {key!r}")
        if not _has(raw, key, kind):
            raise AppValidationError(f"descriptor field {key!r} must be a {label}")

    tasks = []
    for item in raw["tasks"]:
        if not (_has(item, "name", str) and _has(item, "base_work_ms", (int, float))):
            raise AppValidationError(f"bad task entry {item!r}")
        try:
            work = float(item["base_work_ms"])
        except OverflowError:
            raise AppValidationError(f"bad task entry {item!r}") from None
        tasks.append(Task(item["name"], work))

    edges = []
    for item in raw["edges"]:
        if not all(_has(item, key, str) for key in ("caller", "callee", "mode")):
            raise AppValidationError(f"bad edge entry {item!r}")
        try:
            mode = CallMode(item["mode"])
        except ValueError:
            raise AppValidationError(f"unknown call mode {item['mode']!r}") from None
        edges.append(CallEdge(item["caller"], item["callee"], mode))

    return validate_app(AppGraph(raw["name"], tuple(tasks), tuple(edges), raw["root"]))


def serialize_app(app: AppGraph) -> str:
    """Inverse of parse_app; edge order is preserved."""
    doc = {
        "name": app.name,
        "root": app.root,
        "tasks": [{"name": t.name, "base_work_ms": t.base_work_ms} for t in app.tasks],
        "edges": [
            {"caller": e.caller, "callee": e.callee, "mode": e.mode.value}
            for e in app.edges
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
    edges = tuple(CallEdge(caller, callee, mode) for caller, callee, mode in edge_list)
    return validate_app(AppGraph(name, tasks, edges, root))


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
