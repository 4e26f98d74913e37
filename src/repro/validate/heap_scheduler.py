"""Reference per-event heap scheduler and the system-level oracle
that uses it.

:class:`HeapSimulator` is the event loop that
:class:`~repro.sim.engine.Simulator`'s calendar queue replaced: one
``(time, seq, fn, args)`` heap entry per event, ``seq`` breaking ties
in schedule order.  The calendar queue dispatches each timestamp's
batch in FIFO order, which is exactly the order that tie-breaker
produces, so the two must dispatch the same callbacks in the same
order at the same times.  Three oracles hold the production loop to
that: :func:`repro.validate.check_scheduler_equivalence` on random
kernel programs, the executor lockstep
(:mod:`repro.validate.executor_oracle`) on random BMO DAGs, and
:func:`run_system` / :func:`run_crash_system` on whole machines.
"""

from heapq import heappop, heappush
from typing import Callable, List, Optional
from unittest import mock

from repro.common.config import default_config
from repro.common.errors import SimulationError
from repro.core import NvmSystem, machine
from repro.sim.engine import _NEVER, SimEvent, Simulator, quantize_ns
from repro.workloads import WorkloadParams, make_workload


class HeapSimulator(Simulator):
    """:class:`Simulator` with the reference per-event heap loop."""

    def __init__(self) -> None:
        super().__init__()
        self._heap: List = []
        self._seq = 0

    def _schedule(self, delay, fn: Callable, *args) -> None:
        self._seq += 1
        heappush(self._heap,
                 (self.now + quantize_ns(delay), self._seq, fn, args))

    def _schedule_now(self, fn: Callable, *args) -> None:
        self._seq += 1
        heappush(self._heap, (self.now, self._seq, fn, args))

    def _wrap_pending(self, wrap: Callable) -> None:
        # (time, seq) keys are unchanged, so the heap stays a heap.
        self._heap[:] = [(time, seq) + wrap(fn, args)
                         for time, seq, fn, args in self._heap]

    def run(self, until: Optional[float] = None,
            stop_event: Optional[SimEvent] = None) -> float:
        heap = self._heap
        sampler = self.sampler
        next_sample = _NEVER if sampler is None else sampler.next_ns
        while heap:
            if stop_event is not None and stop_event.triggered:
                break
            time, _seq, fn, args = heap[0]
            if until is not None and time > until:
                self.now = until
                break
            heappop(heap)
            if time < self.now:
                raise SimulationError("time went backwards")
            self.now = time
            if time >= next_sample:
                sampler.on_advance(time)
                next_sample = sampler.next_ns
            self.events += 1
            fn(*args)
        stopped = stop_event is not None and stop_event.triggered
        if until is not None and not heap and not stopped:
            self.now = max(self.now, until)
        if self.now >= next_sample:
            sampler.on_advance(self.now)
        return self.now


# ---------------------------------------------------------------------------
# Whole-machine cells
# ---------------------------------------------------------------------------
def run_recorded(system: NvmSystem, workload: str, mode: str,
                 txns: int) -> dict:
    """Run ``workload`` on every core of ``system`` and return what is
    observable: the metrics snapshot, per-transaction ``(core, txn,
    start, end)`` records, dispatched events, elapsed and quiesced
    sim-ns."""
    variant = "manual" if mode == "janus" else "baseline"
    instances = [make_workload(workload, system, core,
                               WorkloadParams(n_transactions=txns),
                               variant=variant)
                 for core in system.cores]
    records: List[tuple] = []
    sim = system.sim
    for instance in instances:
        original = instance.transaction
        core = instance.core

        def timed(original=original, core=core):
            start = sim.now
            result = yield from original()
            records.append((core.core_id, core.current_txn_id, start,
                            sim.now))
            return result
        instance.transaction = timed
    elapsed = system.run_programs([inst.run() for inst in instances])
    return {"metrics": system.metrics.snapshot(), "txns": records,
            "events": sim.events, "elapsed_ns": elapsed,
            "quiesced_ns": sim.now}


def run_system(simulator: type, workload: str, mode: str, shards: int,
               cores: int = 2, txns: int = 3, seed: int = 1) -> dict:
    """:func:`run_recorded` on a machine whose event loop is
    ``simulator`` (:class:`Simulator` or :class:`HeapSimulator`)."""
    cfg = default_config(mode=mode, cores=cores, shards=shards, seed=seed)
    with mock.patch.object(machine, "Simulator", simulator):
        system = NvmSystem(cfg)
    return run_recorded(system, workload, mode, txns)


def run_crash_system(simulator: type, workload: str, mode: str,
                     shards: int, crash_at: float, txns: int = 6,
                     seed: int = 1) -> dict:
    """One crash-campaign point (run to ``crash_at``, crash, recover,
    scrub; :func:`repro.harness.crash_campaign.run_crash_point`) on a
    machine whose event loop is ``simulator``."""
    from repro.harness.crash_campaign import run_crash_point
    with mock.patch.object(machine, "Simulator", simulator):
        return run_crash_point(workload, mode,
                               WorkloadParams(n_transactions=txns), seed,
                               crash_at, shards=shards)
