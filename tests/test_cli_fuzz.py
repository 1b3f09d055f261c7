"""Malformed application descriptors through the CLI.

Each example starts from a valid call tree of at most six tasks and breaks
it in one way: a wrong JSON type in some field, a missing field, a non-list
``tasks`` or ``edges``, an unknown call mode, a duplicate task name, a cycle
or text that is not a JSON object. ``heuristic`` must refuse every one with
exit code 1 or 2 and exactly one line on stderr.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuseplan.cli import main

# JSON values of every type but the one a field needs.
_LISTS = st.lists(st.integers(), max_size=2)
_OBJECTS = st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
_SCALARS = st.one_of(st.none(), st.booleans())
NOT_STRING = st.one_of(_SCALARS, st.integers(), st.floats(allow_nan=False), _LISTS, _OBJECTS)
NOT_NUMBER = st.one_of(_SCALARS, st.text(max_size=4), _LISTS, _OBJECTS)
NOT_LIST = st.one_of(_SCALARS, st.integers(), st.text(max_size=4), _OBJECTS)
NOT_OBJECT = st.one_of(_SCALARS, st.integers(), st.text(max_size=4), _LISTS)


@st.composite
def valid_descriptors(draw) -> dict:
    n = draw(st.integers(min_value=1, max_value=6))
    names = [chr(ord("A") + i) for i in range(n)]
    return {
        "name": "FUZZ",
        "root": "A",
        "tasks": [
            {"name": name, "base_work_ms": draw(st.integers(min_value=1, max_value=500))}
            for name in names
        ],
        "edges": [
            {
                "caller": names[draw(st.integers(min_value=0, max_value=i - 1))],
                "callee": names[i],
                "mode": draw(st.sampled_from(["sync", "async"])),
            }
            for i in range(1, n)
        ],
    }


@st.composite
def malformed_descriptors(draw) -> str:
    doc = draw(valid_descriptors())
    tasks, edges = doc["tasks"], doc["edges"]
    kinds = ["top_type", "top_missing", "not_object", "task_type", "task_missing",
             "task_entry", "cycle"]
    if edges:
        kinds += ["edge_type", "edge_missing", "edge_entry", "mode", "duplicate"]
    kind = draw(st.sampled_from(kinds))
    if kind == "top_type":
        key = draw(st.sampled_from(["name", "root", "tasks", "edges"]))
        doc[key] = draw(NOT_STRING if key in ("name", "root") else NOT_LIST)
    elif kind == "top_missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "not_object":
        return json.dumps(draw(NOT_OBJECT))
    elif kind == "task_type":
        task = draw(st.sampled_from(tasks))
        key = draw(st.sampled_from(["name", "base_work_ms"]))
        task[key] = draw(NOT_STRING if key == "name" else NOT_NUMBER)
    elif kind == "task_missing":
        del draw(st.sampled_from(tasks))[draw(st.sampled_from(["name", "base_work_ms"]))]
    elif kind == "task_entry":
        tasks[draw(st.integers(0, len(tasks) - 1))] = draw(NOT_OBJECT)
    elif kind == "cycle":
        # A call back to the root or to a task that already has a caller.
        caller = draw(st.sampled_from(tasks))["name"]
        callee = draw(st.sampled_from(tasks))["name"]
        edges.append({"caller": caller, "callee": callee, "mode": "sync"})
    elif kind == "edge_type":
        edge = draw(st.sampled_from(edges))
        edge[draw(st.sampled_from(["caller", "callee", "mode"]))] = draw(NOT_STRING)
    elif kind == "edge_missing":
        del draw(st.sampled_from(edges))[draw(st.sampled_from(["caller", "callee", "mode"]))]
    elif kind == "edge_entry":
        edges[draw(st.integers(0, len(edges) - 1))] = draw(NOT_OBJECT)
    elif kind == "mode":
        mode = draw(st.text(max_size=6).filter(lambda m: m not in ("sync", "async")))
        draw(st.sampled_from(edges))["mode"] = mode
    else:
        draw(st.sampled_from(tasks[1:]))["name"] = "A"
    return json.dumps(doc)


@pytest.fixture(scope="module")
def descriptor_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "app.json"


@given(text=malformed_descriptors())
@settings(deadline=None, max_examples=200)
def test_heuristic_refuses_malformed_descriptors(descriptor_path, text):
    descriptor_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["heuristic", "--app", str(descriptor_path)])
    assert code in (1, 2)
    assert out.getvalue() == ""
    assert err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1
