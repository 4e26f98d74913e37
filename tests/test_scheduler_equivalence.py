"""The calendar-queue dispatch loop against the reference heap.

:class:`repro.sim.Simulator` batches same-instant events; the
reference :class:`repro.validate.heap_scheduler.HeapSimulator` keeps
one heap entry per event.  For any program both must dispatch the same
callbacks in the same order at the same times, count the same number
of events, and leave the same final clock.  These tests prove it four
ways — seeded random event programs through the lockstep oracle, a
whole-machine matrix over every workload, mode and shard width, a
crash-and-recover cell, and the stop/until edge semantics pinned
explicitly.
"""

import random

import pytest

from repro.common.rng import DeterministicRng
from repro.harness.crash_campaign import reference_trajectory
from repro.sim import Simulator
from repro.validate import check_scheduler_equivalence
from repro.validate.heap_scheduler import (
    HeapSimulator, run_crash_system, run_system,
)
from repro.workloads import WORKLOADS, WorkloadParams

LOOPS = pytest.mark.parametrize("simulator", [Simulator, HeapSimulator],
                                ids=["bucket", "heap"])
MODES = ("serialized", "parallel", "janus", "ideal", "coalesced",
         "async-epoch")


def test_random_programs_run_in_lockstep():
    """Six seeded random programs over every kernel primitive —
    timeouts, delays, signals, joins, resources, stores, spawns and
    interrupts — must behave identically on both loops."""
    rng = DeterministicRng(1234).stream("sched-lockstep")
    check_scheduler_equivalence(rng, workers=6, steps=24, rounds=6)


def test_dense_same_time_programs_run_in_lockstep():
    """Bursty same-instant traffic maximizes batch append/drain
    interleaving, the part of the bucket loop with no heap analogue."""
    rng = DeterministicRng(99).stream("sched-lockstep-dense")
    check_scheduler_equivalence(rng, workers=10, steps=40, rounds=3)


def _assert_same_run(ref: dict, got: dict) -> None:
    assert got["txns"] == ref["txns"]
    assert got["events"] == ref["events"]
    assert got["elapsed_ns"] == ref["elapsed_ns"]
    assert got["quiesced_ns"] == ref["quiesced_ns"]
    assert got["metrics"] == ref["metrics"]


@pytest.mark.parametrize("mode", ["serialized", "janus"])
def test_workload_identical_under_both_schedulers(mode):
    """A longer single-core run (the default 50 transactions) produces
    the same simulated time, event count, metrics and per-transaction
    records on both loops."""
    params = WorkloadParams().n_transactions
    ref = run_system(HeapSimulator, "queue", mode, shards=1, cores=1,
                     txns=params)
    got = run_system(Simulator, "queue", mode, shards=1, cores=1,
                     txns=params)
    _assert_same_run(ref, got)


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_system_matrix_matches_heap_reference(workload, mode, shards):
    """Whole machine, 2 cores: metrics snapshot, per-transaction
    ``(core, txn, start, end)`` records, dispatched events, elapsed and
    quiesced sim-ns are unchanged on the reference loop."""
    _assert_same_run(run_system(HeapSimulator, workload, mode, shards),
                     run_system(Simulator, workload, mode, shards))


@pytest.mark.parametrize("mode,shards", [("janus", 1),
                                         ("async-epoch", 4)])
def test_crash_recovery_matches_heap_reference(mode, shards):
    """Crash at a seeded point inside the run, recover and scrub: the
    recovered digest, commit count, rollback and scrub evidence are
    the same on both loops."""
    params = WorkloadParams(n_transactions=6)
    _digests, horizon = reference_trajectory("btree", mode, params, seed=1,
                                             shards=shards)
    crash_at = int(random.Random(f"heap-crash-{mode}").uniform(0.2, 0.8)
                   * horizon)
    ref = run_crash_system(HeapSimulator, "btree", mode, shards, crash_at)
    got = run_crash_system(Simulator, "btree", mode, shards, crash_at)
    assert ref["result"] == "recovered"
    assert got == ref


@LOOPS
def test_until_and_stop_event_semantics(simulator):
    """run(until=...) and stop_event behave identically on both loops,
    including the drained-early clock advance."""
    sim = simulator()

    def proc():
        yield sim.timeout(5)

    sim.process(proc())
    sim.run(until=30, stop_event=sim.event("never"))
    assert sim.now == 30

    sim2 = simulator()
    stop = sim2.event()

    def stopper():
        yield sim2.timeout(5)
        stop.succeed()
        yield sim2.timeout(100)

    sim2.process(stopper())
    sim2.run(stop_event=stop)
    assert sim2.now <= 6
    # Resuming after a stop continues exactly where the run left off.
    sim2.run()
    assert sim2.now == 105


@LOOPS
def test_events_counter_identical(simulator):
    sim = simulator()

    def worker():
        for _ in range(10):
            yield sim.timeout(1)
            yield sim.delay(0)

    sim.process(worker())
    sim.process(worker())
    sim.run()
    # Per worker: the first step, a timeout firing (which resumes the
    # process inline) and a delay resume per iteration, and the
    # process's own completion dispatch.
    assert sim.events == 2 * (1 + 10 * 2 + 1)
