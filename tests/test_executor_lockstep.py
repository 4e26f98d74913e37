"""Lockstep: the dataflow BMO executor against the coroutine reference.

The production executor runs a write's sub-op DAG as one callback
dataflow; the reference (``repro.validate.executor_oracle``) runs one
coroutine process per sub-op.  Both must produce the same unit
acquire / grant / release order, the same ``adjust_timing`` and
``SubOp.execute`` order, the same caller resumes and the same metrics,
on the production event loop and the reference heap loop — on random
DAGs and on whole machines.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bmo.base import SubOp
from repro.sim import Simulator
from repro.validate.executor_oracle import (
    check_executor_equivalence, run_executor_program, run_system,
)
from tests.test_graph_properties import random_dag

#: Integer, float and zero latencies: zero-latency sub-ops complete in
#: the hop that readies them, the path with the most hop-order cases.
LATENCIES = st.sampled_from([0, 0, 1, 2, 3, 4.5, 8, 13])


@st.composite
def executor_programs(draw):
    graph = draw(random_dag(latencies=LATENCIES, max_subops=10))
    order = graph.topological_order
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        # Pre-completed sub-ops: any dependency-closed set.
        pre = set()
        for name in order:
            if set(graph.subops[name].deps) <= pre \
                    and draw(st.integers(0, 3)) == 0:
                pre.add(name)
        targets = None
        if draw(st.booleans()):
            # A partial target set: a random pick plus every
            # dependency not already pre-completed.
            closed = set()
            frontier = [n for n in order
                        if n not in pre and draw(st.booleans())]
            while frontier:
                name = frontier.pop()
                if name not in closed and name not in pre:
                    closed.add(name)
                    frontier.extend(graph.subops[name].deps)
            targets = draw(st.permutations(sorted(closed)))
        runs.append({
            "start": draw(st.sampled_from([None, None, 0, 1, 3])),
            "pre": sorted(pre),
            "targets": targets,
            "follow_up": draw(st.booleans()),
        })
    return {
        "subops": [(op.name, op.latency_ns, op.deps)
                   for op in graph.subops.values()],
        "units": draw(st.integers(1, 4)),
        "pipeline_fraction": draw(st.sampled_from([0.05, 0.25, 1.0])),
        "policy": draw(st.sampled_from([None, "record", "coalesce"])),
        "runs": runs,
    }


@settings(max_examples=150, deadline=None)
@given(program=executor_programs())
def test_dataflow_matches_coroutine_reference(program):
    check_executor_equivalence(program)


def _chain_program(**overrides):
    program = {
        "subops": [("a", 0, ()), ("b", 4, ("a",)), ("c", 0, ("a",)),
                   ("d", 3, ("b", "c")), ("e", 2, ("d",))],
        "units": 1,
        "pipeline_fraction": 0.25,
        "policy": "record",
        "runs": [{"start": None, "pre": [], "targets": None,
                  "follow_up": False},
                 {"start": 0, "pre": ["a"], "targets": ["b", "c"],
                  "follow_up": True}],
    }
    program.update(overrides)
    return program


def test_zero_latency_dependency_done_in_the_start_hop():
    """``a`` takes no time and has no dependency, so it completes in
    the start hop; its dependents ``b`` and ``c`` must each be notified
    through a hop of their own, as separate processes would be."""
    check_executor_equivalence(_chain_program())


def test_lockstep_trace_covers_every_observable_kind():
    result = run_executor_program("dataflow", Simulator, _chain_program())
    kinds = {entry[1] for entry in result["trace"]}
    assert kinds == {"acquire", "grant", "release", "adjust", "execute",
                     "resume"}
    assert result["units_in_use"] == 0
    histograms = result["metrics"]["histograms"]
    assert {"bmo.subop.a_ns", "bmo.subop.e_ns"} <= set(histograms)


def test_failing_subop_fails_the_caller_like_the_reference():
    """A sub-op that raises fails the caller at the reference's hop."""
    def boom(_ctx):
        raise RuntimeError("sub-op failed")

    from repro.bmo.base import BmoContext
    from repro.sim import Resource
    from repro.validate.executor_oracle import EXECUTORS, _DagPipeline

    outcomes = {}
    for kind, cls in EXECUTORS.items():
        sim = Simulator()
        ops = [SubOp("x", "b", 2), SubOp("y", "b", 3, run=boom),
               SubOp("z", "b", 1, deps=("x",))]
        executor = cls(sim, _DagPipeline(ops), Resource(sim, 2))
        seen = []

        def caller():
            try:
                yield from executor.run_subops(BmoContext())
            except RuntimeError as err:
                seen.append((sim.now, str(err)))

        sim.process(caller())
        sim.run()
        outcomes[kind] = (seen, sim.now)
    assert outcomes["dataflow"] == outcomes["coroutine"]
    assert outcomes["dataflow"][0] == [(3, "sub-op failed")]


MODES = ("serialized", "parallel", "janus", "ideal", "coalesced",
         "async-epoch")


@pytest.mark.parametrize("workload", ["tpcc", "hash_table"])
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("mode", MODES)
def test_system_runs_match_with_reference_executor(mode, shards,
                                                   workload):
    """Whole machine: metrics snapshot, per-transaction records and
    the quiesced time are unchanged with the reference swapped in."""
    ref = run_system("coroutine", workload, mode, shards)
    got = run_system("dataflow", workload, mode, shards)
    assert got["txns"] == ref["txns"]
    assert got["elapsed_ns"] == ref["elapsed_ns"]
    assert got["quiesced_ns"] == ref["quiesced_ns"]
    assert got["metrics"] == ref["metrics"]
