"""Span tracing of the simulator's layers, installed at runtime.

The traced run wraps public functions of ``src/repro`` (and the few
private process bodies that would otherwise fall into the event loop's
share) with generator-transparent wrappers.  Nothing in ``src/`` is
edited: the wrappers are set as class or module attributes inside the
benchmark process and removed again by :meth:`SpanTracer.uninstall`.

Each wrapped call records a span: layer, group, host start and end,
sim start and end, parent span and transaction id.  For a generator (a
simulation process or a ``yield from`` helper) the span's host time is
the sum of its resumptions.  Self time is accounted at every
resumption: a frame's elapsed host time minus the host time of the
frames resumed inside it.  The sum of every span's self time therefore
equals the host time of the outermost spans, and the rest of a run is
reported as ``unattributed``.
"""

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

perf_ns = time.perf_counter_ns

#: Layers, named after ``src/repro`` packages, in report order.
LAYERS = ("sim", "core", "bmo", "bmo.policy", "janus", "crypto", "mem",
          "workloads", "compiler", "consistency", "obs")

_POLICY_METHODS = ("writeback", "run_bmos", "_background", "quiesce",
                   "adjust_timing", "_close_epoch", "demand_close",
                   "_flush", "tag", "wait_turn", "mark_persisted")

#: ``(layer, group) -> targets``.  A target is ``module:attr`` or
#: ``module:Class.attr``; ``module:Class.*`` expands to every name of
#: ``_POLICY_METHODS`` the class itself defines.
TARGETS = {
    ("sim", "loop"): ["repro.sim.engine:Simulator.run"],
    ("core", "core"): [
        "repro.core.machine:Core.compute", "repro.core.machine:Core.read",
        "repro.core.machine:Core.store", "repro.core.machine:Core.clwb",
        "repro.core.machine:Core.sfence", "repro.core.machine:Core.persist"],
    ("core", "writeback"): [
        "repro.core.machine:MemoryController.writeback",
        "repro.core.machine:MemoryController._persist",
        "repro.core.machine:MemoryController.read_decrypt_penalty_ns"],
    ("bmo", "executor"): [
        "repro.bmo.executor:BmoExecutor.run_serialized",
        "repro.bmo.executor:BmoExecutor.run_subops",
        "repro.bmo.executor:BmoExecutor._run_one",
        "repro.bmo.executor:BmoExecutor.run_pre_execution",
        "repro.bmo.executor:BmoExecutor.refresh_and_complete"],
    ("bmo", "pipeline"): [
        "repro.bmo.pipeline:BmoPipeline.make_context",
        "repro.bmo.pipeline:BmoPipeline.execute_all",
        "repro.bmo.pipeline:BmoPipeline.stale_subops",
        "repro.bmo.pipeline:BmoPipeline.invalidate",
        "repro.bmo.pipeline:BmoPipeline.commit",
        "repro.bmo.base:SubOp.execute"],
    ("bmo.policy", "writeback"): [
        "repro.bmo.policy:SchedulingPolicy.*",
        "repro.bmo.policy:SerializedPolicy.*",
        "repro.bmo.policy:ParallelPolicy.*",
        "repro.bmo.policy:JanusPolicy.*",
        "repro.bmo.policy:IdealPolicy.*",
        "repro.bmo.policy:CoalescedPolicy.*",
        "repro.bmo.policy:AsyncEpochPolicy.*",
        "repro.bmo.policy:TxnOrderCoordinator.*"],
    ("janus", "irb"): [
        "repro.janus.irb:IntermediateResultBuffer.insert",
        "repro.janus.irb:IntermediateResultBuffer.match_write",
        "repro.janus.irb:IntermediateResultBuffer.consume",
        "repro.janus.irb:IntermediateResultBuffer.invalidate_where",
        "repro.janus.irb:IntermediateResultBuffer.invalidate_line",
        "repro.janus.irb:IntermediateResultBuffer.invalidate_range",
        "repro.janus.irb:IntermediateResultBuffer.clear_thread",
        "repro.janus.irb:IntermediateResultBuffer.on_metadata_change"],
    ("janus", "engine"): [
        "repro.janus.engine:JanusEngine.submit",
        "repro.janus.engine:JanusEngine.start_buffered",
        "repro.janus.engine:JanusEngine._pre_execute",
        "repro.janus.engine:JanusEngine.service_write"],
    ("janus", "api"): [
        "repro.janus.api:JanusInterface.pre_init",
        "repro.janus.api:JanusInterface._issue",
        "repro.janus.api:JanusInterface.pre_start_buf"],
    ("crypto", "merkle_path"): [
        "repro.crypto.merkle:MerkleTree.path_digests"],
    ("crypto", "merkle"): [
        "repro.crypto.merkle:MerkleTree.path_with_siblings",
        "repro.crypto.merkle:MerkleTree.stale_depth",
        "repro.crypto.merkle:MerkleTree.apply_path",
        "repro.crypto.merkle:MerkleTree.update_leaf",
        "repro.crypto.merkle:MerkleTree.verify_leaf"],
    ("crypto", "counter_mode"): [
        "repro.crypto.counter_mode:CounterModeEngine.next_counter",
        "repro.crypto.counter_mode:CounterModeEngine.commit_counter",
        "repro.crypto.counter_mode:CounterModeEngine.current_counter",
        "repro.crypto.counter_mode:CounterModeEngine.make_otp",
        "repro.crypto.counter_mode:CounterModeEngine.apply_pad",
        "repro.crypto.counter_mode:CounterModeEngine.encrypt",
        "repro.crypto.counter_mode:CounterModeEngine.decrypt",
        "repro.crypto.counter_mode:CounterModeEngine.verify_mac",
        "repro.bmo.encryption:mac_of",
        "repro.consistency.recovery:mac_of"],
    ("crypto", "fingerprint"): [
        "repro.crypto.primitives:FingerprintEngine.fingerprint"],
    ("mem", "write_queue"): [
        "repro.mem.write_queue:WriteQueue.accept",
        "repro.mem.write_queue:WriteQueue._drain",
        "repro.mem.write_queue:WriteQueue.adr_flush"],
    ("mem", "nvm"): [
        "repro.mem.nvm_device:NvmDevice._access",
        "repro.mem.nvm_device:NvmDevice.read_access",
        "repro.mem.nvm_device:NvmDevice.write_access"],
    ("mem", "cache"): ["repro.mem.cache:CacheModel.access_with_level"],
    ("workloads", "seed"): [
        "repro.workloads.base:TransactionalWorkload.seed"],
    ("compiler", "hooks"): [
        "repro.workloads.base:TransactionalWorkload.fire_hook"],
    ("consistency", "undo_log"): [
        "repro.consistency.undo_log:UndoLog.begin",
        "repro.consistency.undo_log:UndoTransaction.backup",
        "repro.consistency.undo_log:UndoTransaction.fence_backups",
        "repro.consistency.undo_log:UndoTransaction.write",
        "repro.consistency.undo_log:UndoTransaction.fence_updates",
        "repro.consistency.undo_log:UndoTransaction.commit"],
    ("consistency", "recover"): ["repro.consistency.recovery:recover"],
    ("consistency", "rollback"): [
        "repro.consistency.recovery:RecoveredState.rollback_undo_log"],
    ("consistency", "read_line"): [
        "repro.consistency.recovery:RecoveredState.read_line"],
    ("obs", "metrics"): ["repro.obs.metrics:Counter.add",
                         "repro.obs.metrics:Histogram.observe"],
}

#: The group whose spans open a new transaction id.
TXN_KEY = ("workloads", "txn")
#: Count-only targets: constructions of simulation processes.  Every
#: process is a :class:`repro.sim.engine.Process`; the BMO executor
#: builds them directly instead of through ``Simulator.process``.
PROCESS_KEY = ("sim", "process")
PROCESS_TARGET = "repro.sim.engine:Process.__init__"
#: Span records kept for the written trace; aggregates cover all spans.
MAX_SPANS = 20_000


def _resolve(target):
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    if attr == "*":
        return [(owner, name) for name in _POLICY_METHODS
                if name in vars(owner)]
    if inspect.isclass(owner) and attr not in vars(owner):
        raise AttributeError(f"{target}: not defined on the class")
    getattr(owner, attr)
    return [(owner, attr)]


class SpanTracer:
    """Span stack, per-group aggregates and a bounded span record."""

    def __init__(self):
        #: Frames of the resumptions in progress, innermost last:
        #: ``[child_ns, record, txn]``.
        self.stack = []
        self.sim = None
        self.missing = []
        self._patches = []
        self._txn_ids = 0
        self._span_ids = 0
        self.reset()

    def reset(self):
        """Start a new measurement phase (aggregates and records)."""
        self.self_ns = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.top_ns = 0
        self.spans = []
        self.dropped = 0
        self.unit_wait_ns = 0

    # -- installation ----------------------------------------------------
    def install(self, workload_cls):
        """Wrap every target, plus ``workload_cls.transaction``."""
        if self._patches:
            return
        self.missing = []
        plan = dict(TARGETS)
        plan[TXN_KEY] = [f"{workload_cls.__module__}:"
                         f"{workload_cls.__qualname__}.transaction"]
        for key, targets in plan.items():
            for target in targets:
                try:
                    resolved = _resolve(target)
                except (AttributeError, ImportError):
                    self.missing.append(target)
                    continue
                for owner, attr in resolved:
                    self._patch(owner, attr, self.wrap(
                        getattr(owner, attr), key))
        owner, attr = _resolve(PROCESS_TARGET)[0]
        self._patch(owner, attr, self._counter(getattr(owner, attr),
                                               PROCESS_KEY))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def watch_units(self, resource):
        """Sum the sim time that grants of ``resource.acquire`` wait.

        A grant that is already triggered waited zero; a pending one
        gets one callback appended, which schedules nothing.
        """
        acquire = resource.acquire
        sim = resource.sim

        def traced_acquire():
            grant = acquire()
            if not grant.triggered:
                asked = sim.now

                def granted(_event):
                    self.unit_wait_ns += sim.now - asked
                grant.add_callback(granted)
            return grant
        resource.acquire = traced_acquire

    # -- wrappers ----------------------------------------------------------
    def wrap(self, fn, key):
        if inspect.isgeneratorfunction(fn):
            wrapper = self._generator(fn, key)
        else:
            wrapper = self._function(fn, key)
        return functools.wraps(fn)(wrapper)

    def _counter(self, fn, key):
        def counted(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)
        return functools.wraps(fn)(counted)

    def _open(self, key, parent):
        """Count a span and return ``(record, txn)``."""
        self.calls[key] += 1
        if key == TXN_KEY:
            self._txn_ids += 1
            txn = self._txn_ids
        else:
            txn = parent[2] if parent is not None else None
        if len(self.spans) >= MAX_SPANS:
            self.dropped += 1
            return None, txn
        self._span_ids += 1
        parent_id = parent[1][0] if parent is not None \
            and parent[1] is not None else None
        # [id, layer, group, parent, txn, host start, host end,
        #  host ns, sim start, sim end]
        record = [self._span_ids, key[0], key[1], parent_id, txn,
                  None, None, 0, None, None]
        self.spans.append(record)
        return record, txn

    def _close(self, key, frame, t0, sim_start):
        """Account one resumption that began at host time ``t0``."""
        end = perf_ns()
        elapsed = end - t0
        stack = self.stack
        stack.pop()
        self.self_ns[key] += elapsed - frame[0]
        self.incl_ns[key] += elapsed
        if stack:
            stack[-1][0] += elapsed
        else:
            self.top_ns += elapsed
        record = frame[1]
        if record is not None:
            if record[5] is None:
                record[5] = t0
                record[8] = sim_start
            record[6] = end
            record[7] += elapsed
            record[9] = self.sim.now if self.sim is not None else 0

    def _function(self, fn, key):
        def traced(*args, **kwargs):
            stack = self.stack
            record, txn = self._open(key, stack[-1] if stack else None)
            frame = [0, record, txn]
            sim_start = self.sim.now if self.sim is not None else 0
            stack.append(frame)
            t0 = perf_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(key, frame, t0, sim_start)
        return traced

    def _generator(self, fn, key):
        def traced(*args, **kwargs):
            stack = self.stack
            return self._drive(fn(*args, **kwargs), key,
                               stack[-1] if stack else None)
        return traced

    def _drive(self, gen, key, parent):
        """Run ``gen`` exactly as ``yield from`` would, timing each
        resumption.  The span is opened at creation, so a process
        spawned inside a transaction carries that transaction's id."""
        record, txn = self._open(key, parent)
        stack = self.stack
        value = None
        error = None
        while True:
            frame = [0, record, txn]
            sim_start = self.sim.now if self.sim is not None else 0
            stack.append(frame)
            t0 = perf_ns()
            try:
                if error is None:
                    target = gen.send(value)
                else:
                    target = gen.throw(error)
            except StopIteration as stop:
                self._close(key, frame, t0, sim_start)
                return stop.value
            except BaseException:
                self._close(key, frame, t0, sim_start)
                raise
            self._close(key, frame, t0, sim_start)
            try:
                value = yield target
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the kernel
                value = None
                error = exc

    # -- results ----------------------------------------------------------
    def layer_self_ns(self):
        """Self host ns per layer (every layer present, zero if idle)."""
        out = {layer: 0 for layer in LAYERS}
        for (layer, _group), ns in self.self_ns.items():
            out[layer] += ns
        return out

    def write_spans(self, path, meta):
        """Write the kept span records as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fields = ("id", "layer", "group", "parent", "txn", "host_start_ns",
                  "host_end_ns", "host_ns", "sim_start_ns", "sim_end_ns")
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(dict(meta, dropped=self.dropped,
                                      fields=fields)) + "\n")
            for record in self.spans:
                out.write(json.dumps(record) + "\n")
