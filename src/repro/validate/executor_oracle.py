"""Reference BMO executor and the lockstep oracle that uses it.

:class:`CoroutineExecutor` is the executor's direct form: every
sub-operation of a :meth:`~repro.bmo.executor.BmoExecutor.run_subops`
call is its own coroutine :class:`~repro.sim.engine.Process` that
waits on its dependencies' completion events, acquires a BMO unit,
charges its latency and signals completion.  The production
:class:`~repro.bmo.executor.BmoExecutor` runs the same DAG as one
callback dataflow and promises the same hop order for every
side-effecting step (its module docstring lists the contract).

:func:`run_executor_program` drives either executor with one program
and records what is observable.  A program is pure data, so one
program can drive any number of simulators.  Its keys:

* ``subops`` — ``(name, latency_ns, deps)`` triples of one DAG;
* ``units`` — BMO unit capacity; ``pipeline_fraction`` — the
  executor's initiation-interval fraction;
* ``policy`` — ``None``, ``"record"`` (a ``timing_policy`` that only
  logs) or ``"coalesce"`` (logs and discounts repeats);
* ``runs`` — one caller each: ``start`` (``None`` = no delay, else a
  delay in ns), ``pre`` (sub-ops already completed in its context),
  ``targets`` (``None`` = all others) and ``follow_up`` (run the rest
  on the same context afterwards).

What is recorded:

* ``(sim.now, kind, ...)`` trace entries, in dispatch order, for unit
  acquire / grant / release (numbered per unit request), each
  ``timing_policy.adjust_timing`` call and each ``SubOp.execute``
  (with run and sub-op), and each caller resume;
* the executor's metrics (counters and the ``subop.*_ns`` histograms)
  and the final clock.

:func:`check_executor_equivalence` raises :class:`OracleMismatch` on
the first difference between the two executors, on the production
:class:`~repro.sim.engine.Simulator` and on the reference
:class:`~repro.validate.heap_scheduler.HeapSimulator`.
:func:`run_system` builds a whole machine on either executor, for
system-level comparisons.
"""

from typing import Dict, List, Sequence
from unittest import mock

from repro.bmo.base import BmoContext, SubOp
from repro.bmo.executor import BmoExecutor
from repro.bmo.graph import DependencyGraph
from repro.common.config import default_config
from repro.common.errors import SimulationError
from repro.core import NvmSystem, machine
from repro.obs.metrics import MetricsRegistry
from repro.sim import Resource, Simulator
from repro.sim.engine import Process, SimEvent
from repro.validate.heap_scheduler import HeapSimulator, run_recorded
from repro.validate.oracles import OracleMismatch


class CoroutineExecutor(BmoExecutor):
    """Reference executor: one coroutine process per sub-operation."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        subops = self.pipeline.graph.subops
        self._done_names = {n: "done:" + n for n in subops}
        self._proc_names = {n: "subop:" + n for n in subops}

    def run_subops(self, ctx: BmoContext, names=None):
        graph = self.pipeline.graph
        if names is None:
            targets = [n for n in graph.topological_order
                       if n not in ctx.completed]
        else:
            wanted = set(names)
            targets = [n for n in graph.topological_order
                       if n in wanted and n not in ctx.completed]
        if not targets:
            return ctx
        target_set = set(targets)
        for name in targets:
            for dep in graph.subops[name].deps:
                if dep not in target_set and dep not in ctx.completed:
                    raise SimulationError(
                        f"cannot run {name!r}: dependency {dep!r} neither "
                        f"completed nor scheduled")
        sim = self.sim
        done: Dict[str, SimEvent] = {
            name: SimEvent(sim, self._done_names[name])
            for name in targets}
        children = [
            Process(sim, self._run_one(ctx, name, done),
                    self._proc_names[name])
            for name in targets
        ]
        if len(children) == 1:
            yield children[0]
        else:
            yield sim.all_of(children)
        return ctx

    def _run_one(self, ctx: BmoContext, name: str,
                 done: Dict[str, SimEvent]):
        op = self.pipeline.graph.subops[name]
        waits = [done[d] for d in op.deps if d in done]
        if len(waits) == 1:
            yield waits[0]
        elif waits:
            yield self.sim.all_of(waits)
        sim = self.sim
        ready = sim.now  # dependencies satisfied; queueing begins
        total, occupancy = self._op_timing[name]
        if total and self.timing_policy is not None:
            total, occupancy = self.timing_policy.adjust_timing(
                name, ctx, total, occupancy)
        if op.latency_ns > 0:
            grant = self.units.acquire()
            try:
                yield grant
            except BaseException:
                self.units.cancel(grant)
                raise
            exec_start = sim.now
            sim._schedule(occupancy, self.units.release)
            yield sim.delay(total)
            op.execute(ctx)
            if self.tracer.enabled:
                self.tracer.complete(
                    name, "bmo", ("bmo", op.bmo),
                    start_ns=exec_start,
                    dur_ns=self.sim.now - exec_start,
                    args={"addr": ctx.addr,
                          "unit_wait_ns": exec_start - ready})
        else:
            op.execute(ctx)
        self._c_subops_executed.add()
        hist = self._h_subop.get(name)
        if hist is None:
            hist = self._h_subop[name] = \
                self.stats.histogram(f"subop.{name}_ns")
        hist.observe(self.sim.now - ready)
        done[name].succeed()


EXECUTORS = {"dataflow": BmoExecutor, "coroutine": CoroutineExecutor}


# ---------------------------------------------------------------------------
# Random-program lockstep
# ---------------------------------------------------------------------------
class _DagPipeline:
    """The slice of :class:`repro.bmo.pipeline.BmoPipeline` that
    :meth:`BmoExecutor.run_subops` uses."""

    def __init__(self, subops: Sequence[SubOp]):
        self.graph = DependencyGraph(subops)

    def serial_latency(self) -> float:
        return sum(op.latency_ns for op in self.graph.subops.values())


class _TracedUnits(Resource):
    """BMO units that log each request, grant and release."""

    def __init__(self, sim: Simulator, capacity: int, trace: list):
        super().__init__(sim, capacity, name="bmo-units")
        self.trace = trace
        self.asked = 0
        self.granted = 0

    def _ask(self) -> bool:
        self.asked += 1
        self.trace.append((self.sim.now, "acquire", self.asked))
        return self.in_use < self.capacity

    def _grant(self) -> None:
        self.granted += 1
        self.trace.append((self.sim.now, "grant", self.granted))

    def acquire(self) -> SimEvent:
        free = self._ask()
        grant = super().acquire()
        if free:
            self._grant()
        return grant

    def request(self, fn, arg=None):
        free = self._ask()
        ticket = super().request(fn, arg)
        if free:
            self._grant()
        return ticket

    def release(self) -> None:
        handoff = self.queue_length > 0
        self.trace.append((self.sim.now, "release"))
        super().release()
        if handoff:
            self._grant()


class _Policy:
    """A ``timing_policy`` that logs each call; ``coalesce`` also
    charges each (sub-op, address parity) pair once and every repeat
    nothing, like the coalesced mode's shared tree nodes."""

    def __init__(self, sim: Simulator, trace: list, coalesce: bool):
        self.sim = sim
        self.trace = trace
        self.coalesce = coalesce
        self.charged = set()

    def adjust_timing(self, name, ctx, total, occupancy):
        self.trace.append((self.sim.now, "adjust", ctx.values["run"], name))
        if self.coalesce:
            key = (name, ctx.addr & 1)
            if key in self.charged:
                return 0, 0
            self.charged.add(key)
        return total, occupancy


def run_executor_program(kind: str, simulator: type, program: dict) -> dict:
    """Run ``program`` on the ``kind`` executor (``dataflow`` or
    ``coroutine``) on a ``simulator`` instance; return the observable
    outcome."""
    sim = simulator()
    trace: List[tuple] = []

    def action(name):
        def run(ctx):
            trace.append((sim.now, "execute", ctx.values["run"], name))
        return run

    subops = [SubOp(name, bmo="b", latency_ns=latency, deps=deps,
                    run=action(name))
              for name, latency, deps in program["subops"]]
    registry = MetricsRegistry()
    units = _TracedUnits(sim, program["units"], trace)
    executor = EXECUTORS[kind](
        sim, _DagPipeline(subops), units, stats=registry.scope("bmo"),
        pipeline_fraction=program["pipeline_fraction"])
    if program["policy"] is not None:
        executor.timing_policy = _Policy(
            sim, trace, coalesce=program["policy"] == "coalesce")

    def caller(index: int, spec: dict):
        if spec["start"] is not None:
            yield sim.delay(spec["start"])
        ctx = BmoContext(addr=index, completed=set(spec["pre"]),
                         values={"run": index})
        yield from executor.run_subops(ctx, spec["targets"])
        trace.append((sim.now, "resume", index))
        if spec["follow_up"]:
            yield from executor.run_subops(ctx)
            trace.append((sim.now, "resume", index))

    for index, spec in enumerate(program["runs"]):
        Process(sim, caller(index, spec), f"caller{index}")
    sim.run()
    return {
        "trace": trace,
        "final_now": sim.now,
        "metrics": registry.snapshot(),
        "units_in_use": units.in_use,
    }


def check_executor_equivalence(program: dict) -> None:
    """Raise :class:`OracleMismatch` unless the dataflow executor
    reproduces the coroutine reference on ``program``, on the
    production event loop and on the reference heap loop."""
    for simulator in (Simulator, HeapSimulator):
        ref = run_executor_program("coroutine", simulator, program)
        got = run_executor_program("dataflow", simulator, program)
        if ref == got:
            continue
        for key in ("trace", "final_now", "metrics", "units_in_use"):
            if ref[key] == got[key]:
                continue
            detail = f"{key}: coroutine={ref[key]!r} dataflow={got[key]!r}"
            if key == "trace":
                for i, (a, b) in enumerate(zip(ref["trace"],
                                               got["trace"])):
                    if a != b:
                        detail = (f"trace[{i}]: coroutine={a!r} "
                                  f"dataflow={b!r}")
                        break
                else:
                    detail = (f"trace length {len(ref['trace'])} != "
                              f"{len(got['trace'])}")
            raise OracleMismatch(
                f"executor lockstep diverged on {simulator.__name__}: "
                f"{detail}",
                diff=[("coroutine", ref), ("dataflow", got)])


# ---------------------------------------------------------------------------
# System-level cell
# ---------------------------------------------------------------------------
def run_system(kind: str, workload: str, mode: str, shards: int,
               cores: int = 2, txns: int = 4, seed: int = 1) -> dict:
    """:func:`repro.validate.heap_scheduler.run_recorded` on a whole
    machine built with the ``kind`` executor."""
    cfg = default_config(mode=mode, cores=cores, shards=shards, seed=seed)
    with mock.patch.object(machine, "BmoExecutor", EXECUTORS[kind]):
        system = NvmSystem(cfg)
    return run_recorded(system, workload, mode, txns)
