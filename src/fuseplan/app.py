"""Application model: task DAGs with sync/async call edges.

Applications are call trees: every task except the root is called by exactly
one parent, which ``AppGraph`` checks when it is built. A caller issues its
calls in the order its edges appear in ``AppGraph.edges``. Graphs are
immutable after construction and safe to share across threads or processes.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from typing import Mapping


class AppValidationError(ValueError):
    """Raised when an application descriptor or graph violates the model."""


def check_fields(value: object, error: type[ValueError], what: str, *,
                 strings: tuple[str, ...] = (), enums: Mapping[str, type[Enum]] = {},
                 positive: tuple[str, ...] = (), non_negative: tuple[str, ...] = (),
                 whole: tuple[str, ...] = ()) -> None:
    """Check and normalize the named fields of the frozen dataclass ``value``.

    Every value type applies this rule in ``__post_init__``, so JSON input and
    library calls are checked alike. A ``strings`` field must be a printable
    str. An ``enums`` field is stored as its Enum member. A number must be a
    finite int or float that is not a bool, and is stored as a float, or as
    an int in a ``whole`` field, which must hold a whole number.
    ``non_negative`` fields must be >= 0 and the others > 0.
    """
    for name in strings:
        raw = getattr(value, name)
        if not (isinstance(raw, str) and raw.isprintable()):
            raise error(f"{what} {name} must be a printable string")
    for name, kind in enums.items():
        raw = getattr(value, name)
        try:
            object.__setattr__(value, name, kind(raw))
        except ValueError:
            raise error(f"unknown {what} {name} {raw!r}") from None
    for name in (*positive, *non_negative, *whole):
        raw = getattr(value, name)
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise error(f"{what} {name} must be a number, not {type(raw).__name__}")
        try:
            number = float(raw)
        except OverflowError:  # an int too large for a float
            number = math.inf
        zero_ok = name in non_negative
        if not (math.isfinite(number) and (number >= 0 if zero_ok else number > 0)):
            raise error(f"{what} {name} must be finite and {'>= 0' if zero_ok else 'positive'}")
        if name in whole:
            if not number.is_integer():
                raise error(f"{what} {name} must be a whole number")
            number = int(number)
        object.__setattr__(value, name, number)


def load_json(text: str, error: type[ValueError], what: str):
    """Decode ``text``; malformed or too deeply nested JSON raises ``error``."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"malformed {what}: {exc}") from exc


def from_json(kind: type, raw: object, error: type[ValueError], what: str):
    """Build the dataclass ``kind`` from the decoded JSON object ``raw``.

    Keys that name a field are passed on, so ``kind`` checks their values;
    other keys are ignored. A field without a default must be present.
    """
    if not isinstance(raw, dict):
        raise error(f"{what} must be an object")
    args = {}
    for f in fields(kind):
        if f.name in raw:
            args[f.name] = raw[f.name]
        elif f.default is MISSING:
            raise error(f"{what} missing field {f.name!r}")
    return kind(**args)


class CallMode(str, Enum):
    SYNC = "sync"
    ASYNC = "async"


@dataclass(frozen=True)
class Task:
    """A unit of work; ``base_work_ms`` is wall-clock compute at cpu 1.0."""

    name: str
    base_work_ms: float

    def __post_init__(self) -> None:
        check_fields(self, AppValidationError, f"task {self.name!r}",
                     strings=("name",), positive=("base_work_ms",))
        if not self.name:
            raise AppValidationError("task name must be non-empty")
        if any(c in self.name for c in ",+@"):
            raise AppValidationError(f"task name {self.name!r} may not contain ',', '+' or '@'")


@dataclass(frozen=True)
class CallEdge:
    """A call from ``caller`` to ``callee``.

    A caller's calls are issued in the order of its edges in ``AppGraph.edges``.
    ``mode`` may be given as its string value.
    """

    caller: str
    callee: str
    mode: CallMode

    def __post_init__(self) -> None:
        check_fields(self, AppValidationError, "call",
                     strings=("caller", "callee"), enums={"mode": CallMode})
        if self.caller == self.callee:
            raise AppValidationError(f"self-call on task {self.caller!r}")


@dataclass(frozen=True)
class AppGraph:
    """An application; ``calls`` maps each caller to its edges in call order.
    Construction raises ``AppValidationError`` unless the graph is a call tree."""

    name: str
    tasks: tuple[Task, ...]
    edges: tuple[CallEdge, ...]
    root: str
    calls: dict[str, tuple[CallEdge, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_fields(self, AppValidationError, "app", strings=("name", "root"))
        calls: dict[str, list[CallEdge]] = {}
        for e in self.edges:
            calls.setdefault(e.caller, []).append(e)
        object.__setattr__(self, "calls", {c: tuple(es) for c, es in calls.items()})

        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise AppValidationError(f"duplicate task name {dup!r}")
        if self.root not in names:
            raise AppValidationError(f"unknown root task {self.root!r}")

        incoming: dict[str, int] = {n: 0 for n in names}
        for e in self.edges:
            for endpoint in (e.caller, e.callee):
                if endpoint not in incoming:
                    raise AppValidationError(f"unknown task {endpoint!r} in edge")
            incoming[e.callee] += 1

        if incoming[self.root] != 0:
            raise AppValidationError("root task may not be called")
        for n, deg in incoming.items():
            if n != self.root and deg != 1:
                raise AppValidationError(
                    f"task {n!r} must have exactly one caller (found {deg})"
                )

        # Every task but the root has one caller, so a cycle cannot be reached
        # from the root: a walk from it visits each reachable task once.
        reached = {self.root}
        stack = [self.root]
        while stack:
            for e in self.outgoing(stack.pop()):
                reached.add(e.callee)
                stack.append(e.callee)
        unreachable = [n for n in names if n not in reached]
        if unreachable:
            raise AppValidationError(f"unreachable task {unreachable[0]!r}")

    def task_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tasks)

    def outgoing(self, caller: str) -> tuple[CallEdge, ...]:
        """Edges issued by ``caller``, in call order."""
        return self.calls.get(caller, ())

    def undirected_pairs(self) -> tuple[tuple[str, str], ...]:
        """(caller, callee) of every edge, in edge order."""
        return tuple((e.caller, e.callee) for e in self.edges)

    def with_base_work(self, work_ms: Mapping[str, float]) -> "AppGraph":
        """Return a copy with per-task compute durations overridden."""
        missing = [n for n in work_ms if n not in self.task_names()]
        if missing:
            raise AppValidationError(f"unknown task {missing[0]!r} in override")
        tasks = tuple(
            replace(t, base_work_ms=work_ms.get(t.name, t.base_work_ms))
            for t in self.tasks
        )
        return AppGraph(self.name, tasks, self.edges, self.root)


def parse_app(descriptor_text: str) -> AppGraph:
    """Parse and validate a JSON application descriptor.

    Format: ``{"name", "root", "tasks": [{"name", "base_work_ms"}],
    "edges": [{"caller", "callee", "mode"}]}``, with names and modes JSON
    strings and ``base_work_ms`` a JSON number. A caller issues its calls in
    the order of its edges in the array.
    """
    raw = load_json(descriptor_text, AppValidationError, "descriptor")
    if not isinstance(raw, dict):
        raise AppValidationError("descriptor must be a JSON object")
    for key in ("name", "root", "tasks", "edges"):
        if key not in raw:
            raise AppValidationError(f"descriptor missing field {key!r}")
    for key in ("tasks", "edges"):
        if not isinstance(raw[key], list):
            raise AppValidationError(f"descriptor field {key!r} must be a list")
    tasks = tuple(from_json(Task, item, AppValidationError, "task entry")
                  for item in raw["tasks"])
    edges = tuple(from_json(CallEdge, item, AppValidationError, "edge entry")
                  for item in raw["edges"])
    return AppGraph(raw["name"], tasks, edges, raw["root"])


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
    return AppGraph(name, tasks, edges, root)


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
