"""Pin the disabled-observability path to zero added work.

The simulator has one dispatch loop.  A profiler attaches by swapping
the simulator's scheduling functions for wrapping ones; a sampler is
driven by one compare per distinct timestamp against a bound that
never fires when none is attached.  So the disabled configuration (the
default for every figure sweep and bench run) runs no observability
code by construction, and these tests check that by counting, not by
timing:

* with obs off the scheduling functions are the class's own, and a
  counting profiler or sampler that is not attached is never called;
* with obs on, every simulated result is the same as with obs off.
"""

from repro.harness.runner import run_point
from repro.obs import TimeSeriesSampler
from repro.obs import log as runlog
from repro.obs.profile import SimProfiler
from repro.obs.tracer import NULL_TRACER
from repro.sim import Simulator
from repro.workloads import WorkloadParams


class CountingProfiler(SimProfiler):
    """A profiler that counts every call the simulator makes into it."""

    def __init__(self):
        self.calls = 0
        super().__init__(clock=self._tick)

    def _tick(self):
        self.calls += 1
        return 0

    def record(self, fn, wall_ns):
        self.calls += 1
        super().record(fn, wall_ns)


class CountingSampler(TimeSeriesSampler):
    def __init__(self, interval_ns):
        super().__init__(interval_ns)
        self.calls = 0

    def on_advance(self, now):
        self.calls += 1
        super().on_advance(now)


def _schedules_are_the_class_functions(sim) -> bool:
    """No instance attribute shadows the class's scheduling methods."""
    return ("_schedule" not in vars(sim)
            and "_schedule_now" not in vars(sim)
            and sim._schedule.__func__ is Simulator._schedule
            and sim._schedule_now.__func__ is Simulator._schedule_now)


class TestDisabledPathStructure:
    def test_hooks_default_to_none(self):
        sim = Simulator()
        assert sim.profile is None and sim.sampler is None

    def test_fast_loop_never_enters_instrumented(self):
        """With obs off the instance schedules through the class's own
        functions, before and after a run, and the queue holds the
        bare callbacks."""
        sim = Simulator()
        for _ in range(3):
            sim.timeout(1.0)
        assert _schedules_are_the_class_functions(sim)
        assert all(fn.__name__ == "_fire" for fn, _args in sim._buckets[1])
        assert sim.run() == 1.0
        assert sim.events == 3
        assert _schedules_are_the_class_functions(sim)

    def test_obs_entry_points_never_called_when_off(self, monkeypatch):
        """Counting stubs in place of every profiler and sampler entry
        point see no call during a whole obs-off machine run."""
        from repro.common.config import default_config
        from repro.core import NvmSystem
        from repro.workloads import make_workload

        calls = []
        for cls, name in ((SimProfiler, "record"),
                          (TimeSeriesSampler, "on_advance"),
                          (TimeSeriesSampler, "_take")):
            monkeypatch.setattr(cls, name,
                                lambda *args, _n=name: calls.append(_n))
        system = NvmSystem(default_config(mode="janus"))
        workload = make_workload("queue", system, system.cores[0],
                                 WorkloadParams(n_transactions=2),
                                 variant="manual")
        system.run_programs([workload.run()])
        assert system.sim.events > 0
        assert calls == []
        assert _schedules_are_the_class_functions(system.sim)

    def test_instrumented_loop_used_when_profiler_attached(self):
        """Attaching swaps the instance's scheduling functions; every
        dispatch is then timed (two clock reads) and recorded."""
        sim = Simulator()
        profiler = CountingProfiler()
        sim.profile = profiler
        assert not _schedules_are_the_class_functions(sim)
        sim.timeout(1.0)
        sim.run()
        assert sim.profile.total_events == sim.events == 1
        assert profiler.calls == 3

    def test_disabled_run_allocates_no_obs_state(self):
        result = run_point("queue", mode="janus",
                           params=WorkloadParams(n_transactions=2))
        assert result.transactions == 2
        # No tracer given: the system wires the shared no-op tracer,
        # which stores nothing.
        assert len(NULL_TRACER) == 0
        assert runlog.current() is None

    def test_instrumented_and_fast_loops_agree(self):
        params = WorkloadParams(n_transactions=3)

        plain = run_point("queue", mode="janus", params=params)
        profiled = run_point("queue", mode="janus", params=params,
                             profiler=SimProfiler())
        assert profiled.elapsed_ns == plain.elapsed_ns
        assert profiled.stats == plain.stats


class TestEnabledPathResults:
    def test_obs_on_results_equal_obs_off(self):
        """Profiler and sampler attached: the metrics snapshot and the
        per-transaction records equal the obs-off run's."""
        from repro.validate.heap_scheduler import run_recorded

        def run(observe: bool) -> dict:
            from repro.common.config import default_config
            from repro.core import NvmSystem
            system = NvmSystem(default_config(mode="janus", cores=2,
                                              shards=2))
            if observe:
                system.sim.profile = SimProfiler()
                system.sim.sampler = CountingSampler(200.0).bind(
                    system.metrics)
            result = run_recorded(system, "hash_table", "janus", txns=3)
            if observe:
                assert system.sim.sampler.calls > 0
                assert system.sim.profile.total_events == result["events"]
            return result

        assert run(observe=True) == run(observe=False)
