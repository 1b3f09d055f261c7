from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fuseplan.app import AppGraph, CallEdge, CallMode, Task, builtin_app
from fuseplan.fusion import (
    DEFAULT_LEVELS,
    FusionError,
    FusionPartition,
    LevelLanes,
    ResourceConfig,
    count_setups_tree,
    enumerate_partitions,
    enumerate_setups,
    parse_full_setup_name,
    parse_setup_name,
    singleton_setup,
    split_setup_name,
)
from fuseplan.pricing import InstanceBasedPricing, TraditionalPricing
from fuseplan.runner import evaluate_setup, run_all
from fuseplan.sim import PlatformModel

from .conftest import call_trees, setup_rows

# One-letter names beside their concatenations: fused A and B must not be
# named like the task AB.
MIXED_NAMES = ("R", "A", "B", "AB", "BA", "RA", "ABR")


def oracle_partitions(app) -> set[frozenset[frozenset[str]]]:
    """Independent enumeration: brute-force every edge subset and collect the
    induced node partitions as raw set structures."""
    pairs = [(e.caller, e.callee) for e in app.edges]
    names = app.task_names()
    seen = set()
    for included in itertools.chain.from_iterable(
        itertools.combinations(range(len(pairs)), k) for k in range(len(pairs) + 1)
    ):
        blocks = {n: {n} for n in names}
        for idx in included:
            a, b = pairs[idx]
            if blocks[a] is not blocks[b]:
                blocks[a] |= blocks[b]
                for member in blocks[b]:
                    blocks[member] = blocks[a]
        seen.add(frozenset(frozenset(b) for b in blocks.values()))
    return seen


def test_linear_partitions_match_oracle():
    app = builtin_app("LINEAR")
    parts = enumerate_partitions(app)
    oracle = oracle_partitions(app)
    assert len(parts) == len(oracle) == 16
    assert {frozenset(p.groups) for p in parts} == oracle


def test_tree_partitions_match_oracle():
    app = builtin_app("TREE")
    parts = enumerate_partitions(app)
    oracle = oracle_partitions(app)
    assert len(parts) == len(oracle) == 64
    assert {frozenset(p.groups) for p in parts} == oracle


def test_single_task_app():
    app = AppGraph("ONE", (Task("A", 100.0),), (), "A")
    parts = enumerate_partitions(app)
    assert len(parts) == 1
    assert parts[0].groups == (frozenset({"A"}),)
    assert sum(1 for _ in enumerate_setups(app, DEFAULT_LEVELS)) == 3


@pytest.mark.parametrize(
    "name, expected",
    [("LINEAR", 768), ("TREE", 12288), ("PARALLEL_LINEAR", 768), ("ASYNC", 768)],
)
def test_setup_counts(name, expected):
    app = builtin_app(name)
    assert sum(1 for _ in enumerate_setups(app, DEFAULT_LEVELS)) == expected


def test_empty_level_list_rejected():
    with pytest.raises(FusionError, match="empty"):
        list(enumerate_setups(builtin_app("LINEAR"), []))


def test_level_lanes_order_suffixes_and_resources():
    lanes = LevelLanes(DEFAULT_LEVELS[:2])
    suffixes, cpu, memory = lanes.of(2)
    assert list(lanes.indices(2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert suffixes == ["@0,0", "@0,1", "@1,0", "@1,1"]
    assert [c.tolist() for c in cpu] == [[0.1, 0.1, 0.5, 0.5], [0.1, 0.5, 0.1, 0.5]]
    assert memory[1].tolist() == [128.0, 832.0, 128.0, 832.0]
    # One lane is held as plain numbers, never as length-1 arrays.
    lanes = LevelLanes(DEFAULT_LEVELS[2:])
    suffixes, cpu, memory = lanes.of(3)
    assert (list(lanes.indices(3)), suffixes) == ([(0, 0, 0)], ["@0,0,0"])
    assert cpu == [1.0] * 3 and memory == [1769] * 3 and type(cpu[0]) is float


@pytest.mark.parametrize("name, parts", [
    ("AB,C@2,0", ("AB,C", "2,0")), ("AB,C", ("AB,C", None)), ("AB@", ("AB", "")),
])
def test_split_setup_name(name, parts):
    assert split_setup_name(name) == parts


@pytest.mark.parametrize(
    "n, r, expected", [(5, 3, 768), (7, 3, 12288), (1, 1, 1), (5, 1, 16)]
)
def test_count_setups_tree(n, r, expected):
    assert count_setups_tree(n, r) == expected


def test_count_setups_tree_rejects_zero():
    with pytest.raises(FusionError):
        count_setups_tree(0, 3)
    with pytest.raises(FusionError):
        count_setups_tree(5, 0)


def test_canonical_name_examples():
    p = FusionPartition.from_groups(
        [frozenset("ABDE"), frozenset("C"), frozenset("F"), frozenset("G")]
    )
    assert p.name == "ABDE,C,F,G"
    singles = FusionPartition.from_groups([frozenset(c) for c in "ABCDE"])
    assert singles.name == "A,B,C,D,E"
    assert FusionPartition.from_groups([frozenset("ABCDE")]).name == "ABCDE"


def test_canonical_name_multichar_uses_plus():
    app = AppGraph(
        "NAMES",
        (Task("alpha", 1.0), Task("beta", 1.0)),
        (CallEdge("alpha", "beta", CallMode.SYNC),),
        "alpha",
    )
    p = FusionPartition.from_groups([frozenset({"alpha", "beta"})])
    assert p.name == "alpha+beta"
    assert parse_setup_name(app, "alpha+beta") == p
    # One multi-char task puts '+' in every group of the partition.
    mixed = FusionPartition.from_groups([frozenset("R"), frozenset("AB"), frozenset({"AB"})])
    assert mixed.name == "A+B,AB,R"


def test_parse_setup_name_examples():
    tree = builtin_app("TREE")
    p = parse_setup_name(tree, "ABDE,CFG")
    assert frozenset(p.groups) == {frozenset("ABDE"), frozenset("CFG")}
    with pytest.raises(FusionError, match="not connected"):
        parse_setup_name(tree, "AF,BDE,C,G")
    linear = builtin_app("LINEAR")
    assert parse_setup_name(linear, "ABCDE").groups == (frozenset("ABCDE"),)


def test_parse_setup_name_rejects_bad_coverage():
    tree = builtin_app("TREE")
    with pytest.raises(FusionError, match="unknown task"):
        parse_setup_name(tree, "ABDE,CFG,Z")
    with pytest.raises(FusionError, match="appears twice"):
        parse_setup_name(tree, "ABDE,CFG,A")
    with pytest.raises(FusionError, match="not covered"):
        parse_setup_name(tree, "ABDE,CF")


def test_round_trip_all_enumerated_partitions():
    for name in ("LINEAR", "TREE", "ASYNC"):
        app = builtin_app(name)
        for p in enumerate_partitions(app):
            assert parse_setup_name(app, p.name) == p


def test_enumeration_order_stable():
    app = builtin_app("TREE")
    first = [s.name for s in enumerate_setups(app, DEFAULT_LEVELS)]
    second = [s.name for s in enumerate_setups(app, DEFAULT_LEVELS)]
    assert first == second
    assert first == sorted(first, key=lambda n: (n.split("@")[0], n))


def test_setup_name_and_levels():
    app = builtin_app("TREE")
    setup = parse_full_setup_name(app, "ABDE,C,F,G@2,0,0,0")
    assert setup.name == "ABDE,C,F,G@2,0,0,0"
    assert setup.config_of(0) == ResourceConfig(1.0, 1769)
    assert setup.config_of(1) == ResourceConfig(0.1, 128)


def test_setup_level_index_validation():
    app = builtin_app("LINEAR")
    with pytest.raises(FusionError, match="out of range"):
        parse_full_setup_name(app, "ABCDE@7")
    with pytest.raises(FusionError, match="one level index"):
        parse_full_setup_name(app, "ABCDE@0,1")


def test_singleton_setup_baseline():
    app = builtin_app("LINEAR")
    setup = singleton_setup(app)
    assert setup.name == "A,B,C,D,E@0,0,0,0,0"


def test_memory_must_be_a_whole_number():
    with pytest.raises(FusionError, match="memory_mb must be a whole number"):
        ResourceConfig(0.5, 832.9)
    for memory_mb in (832, 832.0):
        level = ResourceConfig(0.5, memory_mb)
        assert level == ResourceConfig(0.5, 832) and type(level.memory_mb) is int


@pytest.mark.parametrize("cpu, memory_mb", [("0.5", 832), (True, 832), (0.5, "832"),
                                            (0.5, None), (None, 832), (0.5, 0),
                                            (0.0, 832), (-1.0, 832)])
def test_level_refuses_non_numbers(cpu, memory_mb):
    with pytest.raises(FusionError):
        ResourceConfig(cpu, memory_mb)


def test_default_levels_match_platform_rows():
    assert DEFAULT_LEVELS == (
        ResourceConfig(0.1, 128),
        ResourceConfig(0.5, 832),
        ResourceConfig(1.0, 1769),
    )


@given(call_trees())
def test_tree_counts_obey_closed_form(app):
    parts = enumerate_partitions(app)
    n = len(app.tasks)
    assert len(parts) == count_setups_tree(n, 1)
    assert sum(1 for _ in enumerate_setups(app, DEFAULT_LEVELS)) == count_setups_tree(n, 3)


@given(call_trees())
def test_enumerated_partitions_are_valid(app):
    names = frozenset(app.task_names())
    for p in enumerate_partitions(app):
        covered: set[str] = set()
        for g in p.groups:
            assert g
            assert not (covered & g)
            covered |= g
        assert covered == names
        # validation re-checks connectivity
        parse_setup_name(app, p.name)


@settings(deadline=None)
@given(call_trees(MIXED_NAMES), st.integers(1, len(DEFAULT_LEVELS)))
def test_mixed_length_names_are_unique_and_parse_back(app, level_count):
    levels = DEFAULT_LEVELS[:level_count]
    setups = list(enumerate_setups(app, levels))
    names = [s.name for s in setups]
    assert len(set(names)) == len(names)
    for setup in setups:
        assert parse_full_setup_name(app, setup.name, levels) == setup
    platform = PlatformModel(net_oneway_ms=5.0, cold_start_ms=100.0)
    pricings = TraditionalPricing(), InstanceBasedPricing()
    rows = setup_rows(run_all(app, levels, platform, *pricings))
    for i in range(0, len(setups), max(1, len(setups) // 16)):
        assert setup_rows([evaluate_setup(app, setups[i], platform, *pricings)]) == [rows[i]]
