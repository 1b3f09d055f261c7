from __future__ import annotations

import json

import pytest
from hypothesis import given

from fuseplan.app import (
    AppGraph,
    AppValidationError,
    CallEdge,
    CallMode,
    Task,
    builtin_app,
    parse_app,
    serialize_app,
    sync_skeleton,
)

from fuseplan.analysis import sync_fuse_heuristic
from fuseplan.fusion import singleton_setup
from fuseplan.sim import PlatformModel, simulate

from .conftest import call_trees

MINIMAL = json.dumps(
    {
        "name": "S2",
        "root": "A",
        "tasks": [
            {"name": "A", "base_work_ms": 100},
            {"name": "B", "base_work_ms": 100},
        ],
        "edges": [{"caller": "A", "callee": "B", "mode": "sync"}],
    }
)


def test_parse_minimal_descriptor():
    app = parse_app(MINIMAL)
    assert len(app.tasks) == 2
    assert len(app.edges) == 1
    assert app.edges[0].mode is CallMode.SYNC
    assert app.root == "A"


def test_parse_detects_cycle():
    doc = json.loads(MINIMAL)
    doc["edges"].append({"caller": "B", "callee": "A", "mode": "sync"})
    with pytest.raises(AppValidationError, match="cycle|called"):
        parse_app(json.dumps(doc))


def test_parse_linear_descriptor_matches_builtin():
    text = serialize_app(builtin_app("LINEAR"))
    app = parse_app(text)
    assert len(app.tasks) == 5
    assert len(app.edges) == 4
    assert all(e.mode is CallMode.SYNC for e in app.edges)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["tasks"].append({"name": "A", "base_work_ms": 1}), "duplicate"),
        (lambda d: d["edges"].append({"caller": "A", "callee": "Z", "mode": "sync"}), "unknown task"),
        (lambda d: d["edges"].__setitem__(0, {"caller": "A", "callee": "B", "mode": "maybe"}), "unknown call mode"),
        (lambda d: d["edges"].clear(), "exactly one caller"),
        (
            lambda d: (
                d["tasks"].extend(
                    [{"name": "C", "base_work_ms": 1}, {"name": "D", "base_work_ms": 1}]
                ),
                d["edges"].extend(
                    [
                        {"caller": "C", "callee": "D", "mode": "sync"},
                        {"caller": "D", "callee": "C", "mode": "sync"},
                    ]
                ),
            ),
            "unreachable",
        ),
        (lambda d: d["tasks"].__setitem__(0, {"name": "A", "base_work_ms": -5}), "positive"),
        (lambda d: d["tasks"].__setitem__(0, {"name": "A,x", "base_work_ms": 5}), "','"),
    ],
)
def test_parse_rejects_bad_descriptors(mutate, message):
    doc = json.loads(MINIMAL)
    mutate(doc)
    with pytest.raises(AppValidationError, match=message):
        parse_app(json.dumps(doc))


def test_parse_rejects_malformed_text():
    with pytest.raises(AppValidationError, match="malformed"):
        parse_app("{not json")


def test_parse_enforces_single_caller():
    doc = json.loads(MINIMAL)
    doc["tasks"].append({"name": "C", "base_work_ms": 1})
    doc["edges"].append({"caller": "A", "callee": "C", "mode": "sync"})
    doc["edges"].append({"caller": "C", "callee": "B", "mode": "sync"})
    with pytest.raises(AppValidationError, match="exactly one caller"):
        parse_app(json.dumps(doc))


def test_builtin_linear():
    app = builtin_app("LINEAR")
    assert app.task_names() == ("A", "B", "C", "D", "E")
    assert len(app.edges) == 4
    assert all(e.mode is CallMode.SYNC for e in app.edges)
    assert all(t.base_work_ms == 100.0 for t in app.tasks)


def test_builtin_async():
    app = builtin_app("ASYNC")
    assert len(app.tasks) == 5
    assert len(app.edges) == 4
    assert all(e.mode is CallMode.ASYNC for e in app.edges)


def test_builtin_tree():
    app = builtin_app("TREE")
    assert len(app.tasks) == 7
    modes = [e.mode for e in app.edges]
    assert modes.count(CallMode.SYNC) == 3
    assert modes.count(CallMode.ASYNC) == 3
    heavy = {t.name for t in app.tasks if t.base_work_ms == 400.0}
    assert heavy == {"E", "F", "G"}
    # The async branch is issued before the blocking chain so both run in
    # parallel after A.
    first = app.outgoing("A")[0]
    assert first.callee == "C" and first.mode is CallMode.ASYNC


def test_builtin_parallel_linear():
    app = builtin_app("PARALLEL_LINEAR")
    by_mode = {
        (e.caller, e.callee): e.mode for e in app.edges
    }
    assert by_mode == {
        ("A", "B"): CallMode.ASYNC,
        ("A", "D"): CallMode.ASYNC,
        ("B", "C"): CallMode.SYNC,
        ("D", "E"): CallMode.SYNC,
    }


def test_builtin_accepts_hyphen_and_case():
    assert builtin_app("parallel-linear").name == "PARALLEL_LINEAR"
    with pytest.raises(AppValidationError, match="unknown built-in"):
        builtin_app("NOPE")


def test_builtin_is_pure():
    assert builtin_app("TREE") == builtin_app("TREE")


def test_sync_skeleton_linear_and_async():
    assert len(sync_skeleton(builtin_app("LINEAR"))) == 4
    assert sync_skeleton(builtin_app("ASYNC")) == frozenset()


def test_sync_skeleton_tree():
    edges = {(e.caller, e.callee) for e in sync_skeleton(builtin_app("TREE"))}
    assert edges == {("A", "B"), ("B", "D"), ("D", "E")}


def test_with_base_work_override():
    app = builtin_app("LINEAR").with_base_work({"A": 42.0})
    assert app.task("A").base_work_ms == 42.0
    assert app.task("B").base_work_ms == 100.0
    with pytest.raises(AppValidationError, match="unknown task"):
        app.with_base_work({"Z": 1.0})


@given(call_trees())
def test_serialize_round_trip(app):
    assert parse_app(serialize_app(app)) == app


@pytest.mark.parametrize("name", ["LINEAR", "PARALLEL_LINEAR", "TREE", "ASYNC"])
def test_builtin_round_trip(name):
    app = builtin_app(name)
    assert parse_app(serialize_app(app)) == app


def test_edge_list_order_is_call_order():
    # A calls C before B because that edge comes first, from the library as
    # from JSON, so the async branch runs beside the blocking call.
    app = AppGraph(
        "ORDER",
        (Task("A", 100.0), Task("B", 1000.0), Task("C", 1000.0)),
        (CallEdge("A", "C", CallMode.ASYNC), CallEdge("A", "B", CallMode.SYNC)),
        "A",
    )
    assert [e.callee for e in app.outgoing("A")] == ["C", "B"]
    parsed = parse_app(serialize_app(app))
    assert parsed == app
    setup = singleton_setup(app)
    assert simulate(parsed, setup, PlatformModel()).latency_ms == 11000.0
    assert simulate(app, setup, PlatformModel()).latency_ms == 11000.0


@pytest.mark.parametrize("name", ["PARALLEL_LINEAR", "TREE"])
def test_string_mode_matches_enum(name):
    app = builtin_app(name)
    edges = tuple(CallEdge(e.caller, e.callee, e.mode.value) for e in app.edges)
    texts = AppGraph(app.name, app.tasks, edges, app.root)
    assert texts == app
    assert all(type(e.mode) is CallMode for e in texts.edges)
    assert sync_fuse_heuristic(texts).name == sync_fuse_heuristic(app).name
    setup = singleton_setup(app)
    model = PlatformModel(5.0, 100.0)
    assert simulate(texts, setup, model) == simulate(app, setup, model)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Task(None, 1.0),
        lambda: Task("A", "100"),
        lambda: Task("A", True),
        lambda: Task("A", [100]),
        lambda: Task("A", 10**400),
        lambda: CallEdge("A", 1, CallMode.SYNC),
        lambda: CallEdge("A", "B", "maybe"),
        lambda: AppGraph(None, (Task("A", 1.0),), (), "A"),
    ],
)
def test_value_types_refuse_wrong_types(make):
    with pytest.raises(AppValidationError):
        make()


def test_task_work_is_stored_as_float():
    task = Task("A", 100)
    assert task == Task("A", 100.0) and type(task.base_work_ms) is float


def test_calls_follow_edge_order_without_changing_equality():
    app = builtin_app("TREE")
    assert {c: [e.callee for e in es] for c, es in app.calls.items()} == {
        "A": ["C", "B"], "B": ["D"], "D": ["E"], "C": ["F", "G"],
    }
    assert app.outgoing("E") == ()
    assert parse_app(serialize_app(app)) == app
    assert hash(parse_app(serialize_app(app))) == hash(app)
    assert "calls" not in repr(app)
