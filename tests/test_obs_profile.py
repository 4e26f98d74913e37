"""Tests for the deterministic simulation profiler (repro.obs.profile)."""

import json

import pytest

from repro.harness.runner import run_point
from repro.obs.profile import (
    SimProfiler,
    classify_callback,
    component_rows,
    fold_spans,
    folded_stacks_text,
    normalize_event_name,
    profile_report,
    render_hotspots,
)
from repro.obs.tracer import Tracer
from repro.sim import Simulator
from repro.validate.heap_scheduler import HeapSimulator
from repro.workloads import WorkloadParams

LOOPS = pytest.mark.parametrize("simulator", [Simulator, HeapSimulator],
                                ids=["bucket", "heap"])


class TestNormalization:
    def test_strips_call_arguments(self):
        assert normalize_event_name("timeout(15.0)") == "timeout"

    def test_drops_numeric_tokens(self):
        assert normalize_event_name("clwb:0x180") == "clwb"
        assert normalize_event_name("line:128") == "line"

    def test_strips_trailing_instance_digits(self):
        assert normalize_event_name("program0") == "program"
        assert normalize_event_name("core3") == "core"

    def test_keeps_meaningful_tokens(self):
        assert normalize_event_name("subop:aes") == "subop:aes"

    def test_all_digit_token_survives_as_itself(self):
        # rstrip of a pure-numeric token must not produce "".
        assert normalize_event_name("x:") == "x"

    def test_classify_timeout_and_process(self):
        sim = Simulator()
        timeout = sim.timeout(5.0)
        key = classify_callback(timeout._fire)
        assert key == "timeout"

        def gen():
            yield sim.timeout(1.0)

        proc = sim.process(gen(), name="program0")
        assert classify_callback(proc._step) == "process:program"
        sim.run()


class TestSimProfiler:
    def test_counts_every_dispatch(self):
        sim = Simulator()
        sim.profile = SimProfiler()

        def gen():
            for _ in range(5):
                yield sim.timeout(1.0)

        sim.process(gen(), name="worker1")
        sim.run()
        assert sim.profile.total_events == sim.events
        counts = {row["key"]: row["count"]
                  for row in sim.profile.rows()}
        assert counts["timeout"] == 5
        # initial step + 5 resumes via _resume -> _step is bound to
        # the process; classified under one stable key.
        assert counts["process:worker"] >= 1

    def test_rows_ranked_by_count_then_key(self):
        profiler = SimProfiler()
        profiler.dispatch = {"b": [3, 0], "a": [3, 0], "c": [9, 0]}
        assert [r["key"] for r in profiler.rows()] == ["c", "a", "b"]

    def test_bmo_dataflow_callbacks_keyed_by_step(self):
        from repro.bmo import build_pipeline
        from repro.bmo.executor import BmoExecutor
        from repro.common.config import default_config
        from repro.sim import Resource

        sim = Simulator()
        sim.profile = SimProfiler()
        pipeline = build_pipeline(default_config())
        executor = BmoExecutor(sim, pipeline, Resource(sim, 4))
        ctx = pipeline.make_context(addr=0x40, data=bytes(64))
        sim.process(executor.run_subops(ctx), name="writer")
        sim.run()
        counts = {row["key"]: row["count"]
                  for row in sim.profile.rows()}
        timed = len(pipeline.all_subops)
        assert counts["bmo:start"] == 1
        assert counts["bmo:grant"] == counts["bmo:complete"] == timed
        assert counts["bmo:notify"] >= 1 and counts["bmo:finish"] == 1
        assert counts["event:bmo-run"] == 1
        assert not any(key.startswith("_dagrun") for key in counts)

    @LOOPS
    @pytest.mark.parametrize("profiled", [False, True])
    def test_raise_mid_batch_then_resume_dispatches_each_once(
            self, simulator, profiled):
        """A callback that raises mid-batch propagates out of run(); the
        next run() resumes after it.  Profiled or not, the batch
        ``[a, boom, b]`` dispatches ``a, boom, b`` and counts 3."""
        sim = simulator()
        if profiled:
            sim.profile = SimProfiler()
        seen = []

        def boom():
            seen.append("boom")
            raise RuntimeError("boom")

        sim._schedule_now(seen.append, "a")
        sim._schedule_now(boom)
        sim._schedule_now(seen.append, "b")
        with pytest.raises(RuntimeError):
            sim.run()
        sim.run()
        assert seen == ["a", "boom", "b"]
        assert sim.events == 3
        if profiled:
            # The raising callback is counted as dispatched but has no
            # timing to record.
            assert sim.profile.total_events == 2

    @LOOPS
    def test_attach_after_machine_build_profiles_every_dispatch(
            self, simulator):
        """The profiler attaches to a built machine with a program
        already pending; pending callbacks are re-wrapped at attach
        time, so the profile counts every event."""
        from repro.common.config import default_config
        from repro.core import NvmSystem, machine
        from repro.workloads import make_workload

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(machine, "Simulator", simulator)
            system = NvmSystem(default_config(mode="async-epoch",
                                              cores=2, shards=2))
        sim = system.sim
        workloads = [make_workload("queue", system, core,
                                   WorkloadParams(n_transactions=2))
                     for core in system.cores]
        # One program is already pending when the profiler attaches,
        # the other is scheduled through the wrapping functions.
        sim.process(workloads[0].run(), name="program0")
        pending = len(sim._heap) if simulator is HeapSimulator \
            else sum(map(len, sim._buckets.values())) + len(sim._batch)
        assert pending >= 1
        sim.profile = SimProfiler()
        sim.process(workloads[1].run(), name="program1")
        sim.run()
        assert workloads[0].completed_transactions == 2
        assert sim.events > 0
        assert sim.profile.total_events == sim.events

    def test_second_profiler_rejected(self):
        from repro.common.errors import SimulationError

        sim = Simulator()
        sim.profile = SimProfiler()
        with pytest.raises(SimulationError):
            sim.profile = SimProfiler()

    def test_wall_ns_accumulates(self):
        sim = Simulator()
        ticks = iter(range(0, 1000, 10))
        sim.profile = SimProfiler(clock=lambda: next(ticks))
        sim.timeout(1.0)
        sim.run()
        assert sim.profile.total_wall_ns > 0


def _span(name, track, ts, dur):
    return {"name": name, "cat": "t", "ph": "X", "ts": ts,
            "dur": dur, "track": track}


class TestFoldSpans:
    def test_containment_nests(self):
        events = [
            _span("outer", ("p", "t"), 0.0, 100.0),
            _span("inner", ("p", "t"), 10.0, 30.0),
        ]
        folded, frames = fold_spans(events)
        assert folded["p;t;outer"] == 70.0
        assert folded["p;t;outer;inner"] == 30.0
        assert frames[("p", "t", "outer")] == [1, 100.0, 70.0]

    def test_overlap_is_sibling_not_child(self):
        # Two concurrent spans that merely overlap must not nest.
        events = [
            _span("a", ("p", "t"), 0.0, 50.0),
            _span("b", ("p", "t"), 30.0, 50.0),
        ]
        folded, _frames = fold_spans(events)
        assert folded["p;t;a"] == 50.0
        assert folded["p;t;b"] == 50.0
        assert "p;t;a;b" not in folded

    def test_tracks_are_independent(self):
        events = [
            _span("x", ("p1", "t"), 0.0, 10.0),
            _span("x", ("p2", "t"), 0.0, 10.0),
        ]
        folded, frames = fold_spans(events)
        assert folded == {"p1;t;x": 10.0, "p2;t;x": 10.0}
        assert len(frames) == 2

    def test_non_span_events_ignored(self):
        events = [
            {"name": "i", "ph": "i", "ts": 1.0, "track": ("p", "t")},
            {"name": "c", "ph": "C", "ts": 1.0, "track": ("p", "t"),
             "args": {"v": 1}},
        ]
        folded, frames = fold_spans(events)
        assert folded == {} and frames == {}

    def test_folded_text_format(self):
        text = folded_stacks_text({"p;t;a": 10.4, "p;t;a;b": 5.6,
                                   "p;t;zero": 0.2})
        lines = text.splitlines()
        # One "stack weight" pair per line, integer weights, sorted,
        # zero-rounding paths dropped — the flamegraph.pl contract.
        assert lines == ["p;t;a 10", "p;t;a;b 6"]
        for line in lines:
            stack, _sep, weight = line.rpartition(" ")
            assert stack and int(weight) > 0

    def test_component_rows_ranked_by_self(self):
        rows = component_rows({
            ("p", "t", "cold"): [1, 5.0, 5.0],
            ("p", "t", "hot"): [2, 50.0, 40.0],
        })
        assert [r["name"] for r in rows] == ["hot", "cold"]
        assert rows[0]["count"] == 2


class TestProfileReport:
    def _run(self):
        tracer = Tracer(enabled=True)
        profiler = SimProfiler()
        result = run_point(
            "queue", mode="janus", profiler=profiler, tracer=tracer,
            params=WorkloadParams(n_transactions=4))
        return profile_report(profiler, tracer, meta={
            "workload": "queue", "mode": "janus",
            "elapsed_ns": result.elapsed_ns}), profiler

    def test_report_is_deterministic_and_wall_free(self):
        first, _ = self._run()
        second, _ = self._run()
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)
        assert "wall" not in json.dumps(first)

    def test_report_shape(self):
        report, profiler = self._run()
        assert report["schema"] == "repro-profile-v1"
        assert report["meta"]["dispatched_events"] == \
            profiler.total_events
        assert report["dispatch"][0]["count"] >= \
            report["dispatch"][-1]["count"]
        assert report["components"], "janus run must produce spans"
        top = report["components"][0]
        assert top["self_ns"] <= top["cum_ns"]
        assert report["folded"].splitlines()

    def test_render_hotspots_table(self):
        report, profiler = self._run()
        table = render_hotspots(report, profiler, top=5)
        assert "repro profile" in table
        assert "self sim-ns" in table
        assert "wall-clock is host-measured" in table
