"""Property-based tests over randomly generated sub-operation DAGs.

The dependency graph and its schedulers are the analytical core of the
reproduction; these tests pin their invariants on arbitrary DAGs, not
just the paper's pipeline.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bmo.base import ADDR, DATA, SubOp
from repro.bmo.graph import DependencyGraph


@st.composite
def random_dag(draw, latencies=None, max_subops=12):
    """A random DAG of 1-``max_subops`` sub-ops with random external
    inputs and latencies drawn from ``latencies`` (default: floats in
    [0, 100]).

    Edges only point from lower to higher indices, guaranteeing
    acyclicity by construction.
    """
    if latencies is None:
        latencies = st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False)
    n = draw(st.integers(1, max_subops))
    subops = []
    for i in range(n):
        deps = tuple(
            f"op{j}" for j in range(i)
            if draw(st.booleans()) and draw(st.integers(0, 2)) == 0)
        external = frozenset(
            inp for inp in (ADDR, DATA) if draw(st.booleans()))
        latency = draw(latencies)
        subops.append(SubOp(f"op{i}", bmo=f"b{i % 3}",
                            latency_ns=latency, deps=deps,
                            external=external))
    return DependencyGraph(subops)


@settings(max_examples=60)
@given(graph=random_dag())
def test_topological_order_respects_all_edges(graph):
    order = graph.topological_order
    position = {name: i for i, name in enumerate(order)}
    for name, op in graph.subops.items():
        for dep in op.deps:
            assert position[dep] < position[name]


@settings(max_examples=60)
@given(graph=random_dag())
def test_external_closure_is_monotone_along_edges(graph):
    """A sub-op requires at least everything its dependencies do."""
    for name, op in graph.subops.items():
        needs = graph.external_requirements(name)
        for dep in op.deps:
            assert graph.external_requirements(dep) <= needs


@settings(max_examples=60)
@given(graph=random_dag())
def test_runnable_sets_are_downward_closed_and_monotone(graph):
    none = set(graph.runnable_with(frozenset()))
    addr = set(graph.runnable_with(frozenset({ADDR})))
    data = set(graph.runnable_with(frozenset({DATA})))
    both = set(graph.runnable_with(frozenset({ADDR, DATA})))
    # More inputs never shrink the runnable set.
    assert none <= addr <= both
    assert none <= data <= both
    # Each set is closed under dependencies.
    for runnable in (none, addr, data, both):
        for name in runnable:
            assert set(graph.subops[name].deps) <= runnable


@settings(max_examples=40)
@given(graph=random_dag(), units=st.integers(1, 6))
def test_parallel_schedule_respects_dependencies(graph, units):
    schedule = graph.parallel_schedule(units=units)
    start = {name: s for name, s, _e in schedule.slots}
    end = {name: e for name, _s, e in schedule.slots}
    for name, op in graph.subops.items():
        for dep in op.deps:
            assert end[dep] <= start[name] + 1e-9


@settings(max_examples=40)
@given(graph=random_dag(), units=st.integers(1, 6))
def test_parallel_schedule_never_oversubscribes_units(graph, units):
    events = []
    for _name, start, finish in graph.parallel_schedule(
            units=units).slots:
        if finish > start:
            events.append((start, 1))
            events.append((finish, -1))
    events.sort()
    active = 0
    for _time, delta in events:
        active += delta
        assert active <= units


@settings(max_examples=40)
@given(graph=random_dag(), units=st.integers(1, 6))
def test_makespan_bounds(graph, units):
    """critical path <= makespan <= serial sum (classic bounds)."""
    schedule = graph.parallel_schedule(units=units)
    serial_sum = sum(op.latency_ns for op in graph.subops.values())
    critical = graph.parallel_schedule(units=len(graph.subops)
                                       or 1).makespan
    assert critical - 1e-6 <= schedule.makespan <= serial_sum + 1e-6


@settings(max_examples=40)
@given(graph=random_dag())
def test_more_units_never_hurt(graph):
    previous = None
    for units in (1, 2, 4, 16):
        makespan = graph.parallel_schedule(units=units).makespan
        if previous is not None:
            # Greedy list scheduling is not strictly monotone in
            # theory, but with the earliest-start policy it is for
            # these small DAGs; allow a tiny anomaly margin (Graham's
            # bound guarantees within 2x of optimal).
            assert makespan <= previous * 2.0 + 1e-6
        previous = makespan


@settings(max_examples=40)
@given(graph=random_dag())
def test_serial_schedule_is_a_permutation_of_all_ops(graph):
    schedule = graph.serial_schedule(["b0", "b1", "b2"])
    names = [name for name, _s, _e in schedule.slots]
    assert sorted(names) == sorted(graph.subops)
    # Back-to-back, no overlap.
    slots = sorted(schedule.slots, key=lambda s: s[1])
    for (_n1, _s1, e1), (_n2, s2, _e2) in zip(slots, slots[1:]):
        assert e1 <= s2 + 1e-9


@settings(max_examples=40)
@given(graph=random_dag())
def test_can_parallelise_is_symmetric(graph):
    names = list(graph.subops)
    if len(names) < 2:
        return
    a, b = {names[0]}, {names[-1]}
    assert graph.can_parallelise(a, b) == graph.can_parallelise(b, a)
