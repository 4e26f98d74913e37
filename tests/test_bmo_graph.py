"""Tests for dependency-graph analysis and static schedules."""

import pytest

from repro.bmo.base import ADDR, DATA, SubOp
from repro.bmo.graph import DependencyGraph
from repro.common.errors import SimulationError


def diamond():
    """A -> B, A -> C, (B, C) -> D with mixed external inputs."""
    return DependencyGraph([
        SubOp("A", "x", 10, external=frozenset({ADDR})),
        SubOp("B", "x", 20, deps=("A",)),
        SubOp("C", "y", 5, deps=("A",), external=frozenset({DATA})),
        SubOp("D", "y", 1, deps=("B", "C")),
    ])


def test_topological_order_respects_deps():
    graph = diamond()
    order = graph.topological_order
    assert order.index("A") < order.index("B")
    assert order.index("A") < order.index("C")
    assert order.index("B") < order.index("D")
    assert order.index("C") < order.index("D")


def test_duplicate_subop_rejected():
    with pytest.raises(SimulationError):
        DependencyGraph([SubOp("A", "x", 1), SubOp("A", "y", 1)])


def test_repeated_dependency_rejected():
    with pytest.raises(SimulationError):
        DependencyGraph([SubOp("A", "x", 1),
                         SubOp("B", "x", 1, deps=("A", "A"))])


def test_successor_map_matches_deps():
    graph = DependencyGraph([
        SubOp("A", "x", 1), SubOp("B", "x", 1, deps=("A",)),
        SubOp("C", "x", 1, deps=("A", "B"))])
    assert graph.successor_map == {"A": ("B", "C"), "B": ("C",),
                                   "C": ()}
    assert graph.successors("A") == ["B", "C"]
    assert graph.reachable_from(["A"]) == {"B", "C"}


def test_unknown_dependency_rejected():
    with pytest.raises(SimulationError):
        DependencyGraph([SubOp("A", "x", 1, deps=("ghost",))])


def test_cycle_rejected():
    with pytest.raises(SimulationError):
        DependencyGraph([
            SubOp("A", "x", 1, deps=("B",)),
            SubOp("B", "x", 1, deps=("A",)),
        ])


def test_external_closure_propagates_transitively():
    graph = diamond()
    assert graph.external_requirements("A") == {ADDR}
    assert graph.external_requirements("B") == {ADDR}
    assert graph.external_requirements("C") == {ADDR, DATA}
    assert graph.external_requirements("D") == {ADDR, DATA}


def test_classification_labels():
    graph = diamond()
    labels = graph.classification()
    assert labels == {"A": "addr", "B": "addr", "C": "both", "D": "both"}


def test_runnable_with_addr_only():
    graph = diamond()
    assert graph.runnable_with(frozenset({ADDR})) == ["A", "B"]
    assert graph.runnable_with(frozenset()) == []
    assert set(graph.runnable_with(frozenset({ADDR, DATA}))) == {
        "A", "B", "C", "D"}


def test_runnable_set_is_dependency_closed():
    graph = diamond()
    for inputs in (frozenset({ADDR}), frozenset({DATA}),
                   frozenset({ADDR, DATA})):
        runnable = set(graph.runnable_with(inputs))
        for name in runnable:
            assert set(graph.subops[name].deps) <= runnable


def test_parallelisation_rule_of_paper():
    """S1 || S2 iff no path in either direction (paper section 3.1)."""
    graph = diamond()
    assert graph.can_parallelise({"B"}, {"C"})
    assert not graph.can_parallelise({"A"}, {"B"})
    assert not graph.can_parallelise({"A", "B"}, {"D"})


def test_serial_schedule_sums_latencies():
    graph = diamond()
    schedule = graph.serial_schedule(["x", "y"])
    assert schedule.makespan == pytest.approx(36)
    # BMO-major order: x's ops first.
    assert schedule.end_of("B") <= schedule.start_of("C")


def test_parallel_schedule_overlaps_independent_ops():
    graph = diamond()
    schedule = graph.parallel_schedule(units=2)
    # B (20) and C (5) overlap after A (10); D (1) after both.
    assert schedule.makespan == pytest.approx(31)
    assert schedule.start_of("B") == pytest.approx(10)
    assert schedule.start_of("C") == pytest.approx(10)


def test_parallel_schedule_single_unit_is_serial():
    graph = diamond()
    schedule = graph.parallel_schedule(units=1)
    assert schedule.makespan == pytest.approx(36)


def test_parallel_schedule_with_done_prefix():
    graph = diamond()
    schedule = graph.parallel_schedule(units=2, done={"A", "B"})
    # Only C then D remain: 5 + 1.
    assert schedule.makespan == pytest.approx(6)


def test_parallel_schedule_never_beats_critical_path():
    graph = diamond()
    critical = 10 + 20 + 1  # A -> B -> D
    for units in (1, 2, 3, 8):
        assert graph.parallel_schedule(units=units).makespan >= critical - 1e-9


def test_schedule_render_contains_all_ops():
    text = diamond().parallel_schedule(units=2).render()
    for name in ("A", "B", "C", "D"):
        assert name in text


def test_zero_units_rejected():
    with pytest.raises(SimulationError):
        diamond().parallel_schedule(units=0)
