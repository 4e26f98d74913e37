"""Event-driven execution of BMO sub-operations on shared units.

Three execution styles, matching the paper's design points:

* **serialized** — the BMOs run as monolithic blocks, back to back,
  occupying one unit for their summed latency (the baseline system);
* **dataflow** — the requested sub-operations of one write run as one
  callback-driven dataflow (:class:`_DagRun`).  The run holds a
  countdown of unfinished in-run dependencies per sub-op and successor
  lists, both built once per target set (:class:`_Plan`).  A sub-op
  whose countdown reaches zero requests a BMO unit from the shared
  :class:`repro.sim.Resource` (:meth:`~repro.sim.Resource.request`),
  holds it for its initiation interval, and completes after its full
  latency.  With ``k`` units this *is* list scheduling, and contention
  across concurrent writes/cores emerges naturally from the shared
  unit FIFO;
* **partial/resume** — the same dataflow restricted to a subset of
  sub-ops, used for pre-execution (run only what the available inputs
  allow) and for completing or refreshing a write whose pre-executed
  results were partially stale.

The caller yields on the run's single :class:`repro.sim.SimEvent`.

**Hop-order contract.**  A *hop* is one dispatched simulator callback.
The dataflow keeps every side-effecting step — unit request and
release, :meth:`SubOp.execute`, ``timing_policy.adjust_timing`` and
the caller's resume — in the same same-instant FIFO position that a
design with one coroutine process per sub-op would give it
(``repro.validate.executor_oracle.CoroutineExecutor``, checked in
lockstep by ``tests/test_executor_lockstep.py``):

* one deferred start hop runs the sub-ops without in-run dependencies
  (in topological order) where the per-sub-op processes would each
  have taken their first step;
* a unit grant runs one hop after the request, whether the slot was
  free or handed over by a release;
* the grant hop schedules the unit's release and then the sub-op's
  completion;
* a completion schedules one notify hop for its in-run successors; a
  successor with a single in-run dependency becomes ready inside that
  hop, one with several becomes ready one join hop later;
* a dependency that completes inside the start hop (a zero-latency
  sub-op) notifies each dependent through its own hop;
* the caller resumes one hop after the last completion for a
  one-target run, two hops after for a multi-target run.

Hops with nothing to do (a grant event with no waiter, a completion
nobody waits on) are not scheduled at all; that is where the dataflow
saves host time over per-sub-op processes.
"""

from typing import Dict, Iterable, Optional, Tuple

from repro.bmo.base import BmoContext
from repro.bmo.pipeline import BmoPipeline
from repro.common.errors import SimulationError
from repro.obs.metrics import MetricsScope
from repro.obs.tracer import NULL_TRACER
from repro.sim import Resource, Simulator, quantize_ns
from repro.sim.engine import SimEvent


class BmoExecutor:
    """Schedules sub-operations of one pipeline on shared BMO units."""

    def __init__(self, sim: Simulator, pipeline: BmoPipeline,
                 units: Resource, stats: Optional[MetricsScope] = None,
                 pipeline_fraction: float = 0.25, tracer=None):
        if not 0.0 < pipeline_fraction <= 1.0:
            raise SimulationError(
                "pipeline_fraction must be in (0, 1]")
        self.sim = sim
        self.pipeline = pipeline
        self.units = units
        #: BMO units are pipelined engines: a sub-op occupies its unit
        #: for ``latency * pipeline_fraction`` (the initiation
        #: interval) while its results appear after the full latency.
        self.pipeline_fraction = pipeline_fraction
        self.stats = stats or MetricsScope(name="bmo-executor",
                                           registry=None)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Hot metric handles: resolved once, not per sub-operation.
        self._c_subops_executed = self.stats.counter("subops_executed")
        self._c_pre_exec_requests = \
            self.stats.counter("pre_exec_requests")
        self._c_stale_rerun = self.stats.counter("stale_subops_rerun")
        self._h_serialized_block = \
            self.stats.histogram("serialized_block_ns")
        self._h_subop: Dict[str, object] = {}
        self._order = pipeline.graph.topological_order
        # Per-subop (total, occupancy) quantized once: latencies and
        # the pipeline fraction are fixed for the executor's lifetime,
        # so there is nothing to recompute per dispatched sub-op.
        self._op_timing = {}
        for n, op in pipeline.graph.subops.items():
            if op.latency_ns > 0:
                total = quantize_ns(op.latency_ns)
                occupancy = min(total, quantize_ns(
                    op.latency_ns * pipeline_fraction))
            else:
                total = occupancy = 0
            self._op_timing[n] = (total, occupancy)
        #: Dependency tables per target tuple, built on first use.
        self._plans: Dict[Tuple[str, ...], _Plan] = {}
        #: Optional per-execution timing adjustor installed by a
        #: scheduling policy (``repro.bmo.policy``): called with
        #: ``(name, ctx, total, occupancy)`` before each timed sub-op
        #: and may return a discounted ``(total, occupancy)`` — the
        #: coalesced mode uses this to charge a shared integrity-tree
        #: node once per write batch.  Timing-only: functional
        #: execution and commit are untouched.
        self.timing_policy = None
        serial = pipeline.serial_latency()
        self._serial_total = quantize_ns(serial)
        self._serial_occupancy = min(
            self._serial_total, quantize_ns(serial * pipeline_fraction))

    # -- serialized baseline ---------------------------------------------
    def run_serialized(self, ctx: BmoContext):
        """Process: run all BMOs as one monolithic, serial block.

        The block occupies a unit for its initiation interval and its
        results appear after the full serial latency — the same
        pipelined-engine model the dataflow path uses, so serialized
        vs. parallel compares latency composition, not unit counts.
        """
        start = self.sim.now
        # Quantized occupancy/shadow split, precomputed in __init__ so
        # the two delays sum to exactly the quantized serial latency
        # (no per-leg rounding).
        total = self._serial_total
        occupancy = self._serial_occupancy
        grant = self.units.acquire()
        try:
            yield grant
        except BaseException:
            self.units.cancel(grant)
            raise
        # The unit frees itself exactly at the end of the initiation
        # interval via a scheduled callback; the process sleeps once
        # for the full latency instead of resuming twice.
        self.sim._schedule(occupancy, self.units.release)
        yield self.sim.delay(total)
        self.pipeline.execute_all(ctx)
        self._h_serialized_block.observe(self.sim.now - start)
        if self.tracer.enabled:
            self.tracer.complete(
                "serialized-bmos", "bmo", ("bmo", "serialized"),
                start_ns=start, dur_ns=self.sim.now - start,
                args={"addr": ctx.addr})
        return ctx

    # -- dataflow execution ------------------------------------------------
    def run_subops(self, ctx: BmoContext,
                   names: Optional[Iterable[str]] = None):
        """Process: execute ``names`` (default: all not yet completed)
        as a dependency-respecting dataflow on the shared units.
        Completes when every requested sub-op has run.
        """
        completed = ctx.completed
        if names is None:
            targets = tuple(n for n in self._order if n not in completed)
        else:
            wanted = set(names)
            targets = tuple(n for n in self._order
                            if n in wanted and n not in completed)
        if not targets:
            return ctx
        plan = self._plans.get(targets)
        if plan is None:
            plan = self._plans[targets] = _Plan(self, targets)
        if not plan.needs <= completed:
            for name, dep in plan.outside:
                if dep not in completed:
                    raise SimulationError(
                        f"cannot run {name!r}: dependency {dep!r} neither "
                        f"completed nor scheduled")
        yield _DagRun(self, ctx, plan).done
        return ctx

    def _run_one(self, ctx: BmoContext, op, ready: int,
                 granted: Optional[int]) -> None:
        """Run ``op``'s functional action on ``ctx`` and account for it.

        ``ready`` is when its dependencies were satisfied, ``granted``
        when it got its unit (``None`` for a zero-latency sub-op).
        """
        op.execute(ctx)
        now = self.sim.now
        if granted is not None and self.tracer.enabled:
            self.tracer.complete(
                op.name, "bmo", ("bmo", op.bmo),
                start_ns=granted, dur_ns=now - granted,
                args={"addr": ctx.addr, "unit_wait_ns": granted - ready})
        self._c_subops_executed.add()
        hist = self._h_subop.get(op.name)
        if hist is None:
            hist = self._h_subop[op.name] = \
                self.stats.histogram(f"subop.{op.name}_ns")
        hist.observe(now - ready)

    # -- pre-execution helpers -----------------------------------------------
    def pre_executable(self, ctx: BmoContext) -> list:
        """Sub-ops whose external requirements ``ctx`` can satisfy."""
        return self.pipeline.graph.runnable_with(ctx.available_inputs)

    def run_pre_execution(self, ctx: BmoContext):
        """Process: run everything the context's inputs allow."""
        runnable = self.pre_executable(ctx)
        self._c_pre_exec_requests.add()
        yield from self.run_subops(ctx, runnable)
        return ctx

    def refresh_and_complete(self, ctx: BmoContext):
        """Process: bring ``ctx`` to a committed-ready state.

        Re-runs stale sub-ops (and their dependents) until the context
        is both complete and fresh.  Called by the memory controller
        with the write's final address and data already installed.
        """
        if ctx.addr is None or ctx.data is None:
            raise SimulationError("write context needs both addr and data")
        while True:
            stale = self.pipeline.stale_subops(ctx)
            if stale:
                self._c_stale_rerun.add(len(stale))
                self.pipeline.invalidate(ctx, stale)
            if ctx.completed.issuperset(self._order):
                return ctx
            yield from self.run_subops(ctx)


class _Plan:
    """Dependency tables of one target tuple (topological order).

    Sub-ops are addressed by their index in ``names``.  ``deps[i]``
    are ``i``'s in-run dependencies, ``succ[i]`` its in-run dependents
    in ascending index order — the order in which per-sub-op processes
    would have registered on its completion.
    """

    __slots__ = ("names", "ops", "timing", "ndeps", "deps", "succ",
                 "needs", "outside")

    def __init__(self, executor: BmoExecutor, targets: Tuple[str, ...]):
        graph = executor.pipeline.graph
        index = {name: i for i, name in enumerate(targets)}
        self.names = targets
        self.ops = tuple(graph.subops[name] for name in targets)
        self.timing = tuple(executor._op_timing[name] for name in targets)
        self.deps = tuple(tuple(index[d] for d in op.deps if d in index)
                          for op in self.ops)
        self.ndeps = tuple(len(deps) for deps in self.deps)
        self.succ = tuple(
            tuple(sorted(index[s] for s in graph.successor_map[name]
                         if s in index))
            for name in targets)
        #: ``(sub-op, dependency)`` pairs the run needs completed.
        self.outside = tuple((op.name, d) for op in self.ops
                             for d in op.deps if d not in index)
        self.needs = frozenset(d for _name, d in self.outside)


class _DagRun:
    """One :meth:`BmoExecutor.run_subops` call as a callback dataflow.

    Every scheduled callback is a method of the run; the profiler keys
    them ``bmo:<method>`` (:attr:`profile_layer`).
    """

    __slots__ = ("executor", "sim", "ctx", "plan", "done", "remaining",
                 "left", "timing", "ready_at", "granted_at", "starting",
                 "early", "failed")
    profile_layer = "bmo"

    def __init__(self, executor: BmoExecutor, ctx: BmoContext,
                 plan: _Plan):
        sim = executor.sim
        n = len(plan.names)
        self.executor = executor
        self.sim = sim
        self.ctx = ctx
        self.plan = plan
        #: What the caller yields on.
        self.done = SimEvent(sim, "bmo-run")
        #: Per-sub-op countdown of in-run dependencies not yet notified.
        self.remaining = list(plan.ndeps)
        #: Sub-ops not yet completed.
        self.left = n
        #: Per-sub-op (total, occupancy), after ``adjust_timing``.
        self.timing = list(plan.timing)
        self.ready_at = [0] * n
        self.granted_at = [0] * n
        #: True while the start hop runs.
        self.starting = True
        #: Sub-ops completed inside the start hop (zero-latency, no
        #: in-run dependency), or ``None``.
        self.early = None
        self.failed = False
        sim._schedule_now(self._start)

    def _start(self) -> None:
        early_done = self.early
        for i, deps in enumerate(self.plan.deps):
            if not deps:
                self._ready(i)
                early_done = self.early
            elif early_done is not None:
                for j in deps:
                    if j in early_done:
                        self.sim._schedule_now(self._deliver, i)
        self.starting = False

    def _ready(self, i: int) -> None:
        """Sub-op ``i``'s dependencies are satisfied: request a unit,
        or run it now if it takes no time."""
        executor = self.executor
        self.ready_at[i] = self.sim.now
        op = self.plan.ops[i]
        policy = executor.timing_policy
        if policy is not None:
            total, occupancy = self.timing[i]
            if total:
                try:
                    self.timing[i] = policy.adjust_timing(
                        op.name, self.ctx, total, occupancy)
                except Exception as err:
                    self._fail(err)
                    return
        if op.latency_ns > 0:
            executor.units.request(self._grant, i)
        else:
            self._complete(i)

    def _grant(self, i: int) -> None:
        sim = self.sim
        total, occupancy = self.timing[i]
        self.granted_at[i] = sim.now
        sim._schedule(occupancy, self.executor.units.release)
        sim._schedule(total, self._complete, i)

    def _complete(self, i: int) -> None:
        plan = self.plan
        timed = plan.ops[i].latency_ns > 0
        try:
            self.executor._run_one(
                self.ctx, plan.ops[i], self.ready_at[i],
                self.granted_at[i] if timed else None)
        except Exception as err:
            self._fail(err)
            return
        if self.starting:
            if self.early is None:
                self.early = set()
            self.early.add(i)
        elif plan.succ[i]:
            self.sim._schedule_now(self._notify, i)
        self.left -= 1
        if not self.left:
            if len(plan.names) == 1:
                self.done.succeed()
            else:
                self.sim._schedule_now(self._finish)

    def _notify(self, i: int) -> None:
        for j in self.plan.succ[i]:
            self._deliver(j)

    def _deliver(self, j: int) -> None:
        """One in-run dependency of sub-op ``j`` has completed."""
        if self.plan.ndeps[j] == 1:
            self._ready(j)
            return
        remaining = self.remaining[j] - 1
        self.remaining[j] = remaining
        if not remaining:
            self.sim._schedule_now(self._join, j)

    def _join(self, j: int) -> None:
        self._ready(j)

    def _finish(self, err: Optional[BaseException] = None) -> None:
        if err is None:
            self.done.succeed()
        else:
            self.done.fail(err)

    def _fail(self, err: BaseException) -> None:
        """A sub-op raised: fail the caller's event where a failed
        per-sub-op process would have; its dependents never run."""
        if self.failed:
            return
        self.failed = True
        if len(self.plan.names) == 1:
            self.done.fail(err)
        else:
            self.sim._schedule_now(self._finish, err)
