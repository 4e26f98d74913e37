"""The three workloads: timed runs, recoveries and correctness checks.

Every number is taken from outside the simulator: host timers around
calls into its public entry points (``NvmSystem``, ``make_workload``,
``NvmSystem.run_programs``, ``NvmSystem.crash``,
``consistency.recovery.recover``, ``logical_digest``) and the run's
``system.metrics`` snapshot.  Simulated statistics are fixed by the
seed, so every timed repetition of one seed must produce the same
fingerprint; host timings are medians over the repetitions, each
scaled to a reference host speed (:class:`HostSpeed`).
"""

import bisect
import gc
import hashlib
import heapq
import json
import random
import re
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.common.config import default_config
from repro.consistency import recovery
from repro.core import NvmSystem
from repro.workloads import WORKLOADS as PROGRAMS
from repro.workloads import WorkloadParams, make_workload

from layers import LAYERS, PROCESS_KEY, TXN_KEY, SpanTracer

perf_ns = time.perf_counter_ns


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a simulator configuration and its size.

    Each simulated core is a closed loop of ``txns_per_core``
    transactions: it issues the next one only after the previous
    one's commit ``sfence`` returned.
    """

    program: str
    mode: str
    variant: str
    cores: int
    shards: int
    txns_per_core: int
    #: ``final``: recover the completed run's image repeatedly;
    #: ``points``: crash fresh builds at seeded points and recover each.
    recovery: str

    @property
    def txns(self) -> int:
        return self.cores * self.txns_per_core


# At least 1,000 transactions per run, so that ten samples lie beyond
# the p99 of the per-transaction sim latency.
WORKLOADS: Dict[str, Workload] = {
    "tpcc-janus": Workload("tpcc", "janus", "manual", 1, 1, 1000,
                           "final"),
    "hashtable-async-4x4": Workload("hash_table", "async-epoch",
                                    "baseline", 4, 4, 250, "final"),
    "crash-recover": Workload("btree", "serialized", "baseline", 1, 1,
                              1000, "points"),
}

#: Recoveries of the final image per run (``final`` workloads).
FINAL_RECOVERIES = 15
#: Recoveries of the final image in the traced run.
TRACED_RECOVERIES = 3
#: Seeded crash points per run (``points`` workload).
CRASH_POINTS = 12
#: Recoveries of each crash point's image (fresh copies, each checked).
POINT_RECOVERIES = 3
#: Fewest system builds timed per run, and the least host time they
#: must cover, for the ``setup_s`` median (a tpcc build takes ~1 ms).
MIN_SETUPS = 5
MIN_SETUP_S = 0.5
#: Calibration kernel time that defines the reference host speed, near
#: the kernel's time at the faster of the two speed levels seen on a
#: shared two-vCPU VM.
REFERENCE_KERNEL_NS = 1_250_000
#: Returned transactions between calibration samples in a timed run.
SAMPLE_EVERY = 50


# -- host speed ---------------------------------------------------------------
def calibration_ns() -> int:
    """Host ns of a fixed pure-Python kernel shaped like the simulator's
    inner work: generators resumed from a heap, dict stores and sha256
    of 64-byte lines (about 1 ms).

    It shares no code with ``src/`` and runs with the cyclic garbage
    collector off, so neither a change to the simulator nor the size of
    the heap the run has built can move it; only the host's speed can.
    """
    gc.disable()
    t0 = perf_ns()
    heap, store, seq = [], {}, 0

    def proc(index):
        for step in range(5):
            store[(index * 7 + step) & 1023] = \
                hashlib.sha256(bytes(64)).digest()
            yield step
    for index in range(160):
        seq += 1
        heapq.heappush(heap, (seq % 97, seq, proc(index)))
    while heap:
        _key, order, gen = heapq.heappop(heap)
        try:
            step = next(gen)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (step + order % 97, seq, gen))
    elapsed = perf_ns() - t0
    gc.enable()
    return elapsed


class HostSpeed:
    """Calibration samples taken around, and inside, the timed work.

    On a shared machine the host's speed flips between levels nearly
    twice apart within a fraction of a second, and the change is common
    to all work running at that moment.  Each timed piece of work is
    therefore scaled to the reference speed by the samples taken
    around it and during it.
    """

    def __init__(self):
        self.samples: List[int] = []

    def sample(self) -> int:
        """Take one sample; returns the host ns it cost."""
        t0 = perf_ns()
        self.samples.append(calibration_ns())
        return perf_ns() - t0

    def paired(self, work):
        """``work()``, its result and the factor that scales its host
        times to the reference speed (samples ``work`` takes count)."""
        first = len(self.samples)
        self.sample()
        result = work()
        self.sample()
        return result, REFERENCE_KERNEL_NS / statistics.fmean(
            self.samples[first:])

    def factor(self) -> float:
        """The run's median factor, for information."""
        return REFERENCE_KERNEL_NS / statistics.median(self.samples)


# -- one run ------------------------------------------------------------------
class TxnLog:
    """Per-transaction sim latency, taken by wrapping each workload
    instance's ``transaction`` generator: ``sim.now`` on entry and on
    return.  ``after(instance)`` runs after every returned transaction.
    """

    def __init__(self, system, instances,
                 after: Optional[Callable] = None):
        #: ``(core, txn id, sim start, sim end)`` in return order.
        self.records: List[tuple] = []
        #: Transactions entered and not yet returned.
        self.open = 0
        for instance in instances:
            self._wrap(system.sim, instance, after)

    def _wrap(self, sim, instance, after):
        original = instance.transaction
        core = instance.core

        def timed():
            start = sim.now
            self.open += 1
            result = yield from original()
            self.open -= 1
            self.records.append((core.core_id, core.current_txn_id,
                                 start, sim.now))
            if after is not None:
                after(instance)
            return result
        instance.transaction = timed

    def latencies(self) -> List[int]:
        return [end - start for _core, _txn, start, end in self.records]


@dataclass
class Run:
    system: object
    instances: list
    log: TxnLog
    setup_s: float
    #: Host ns of ``run_programs``: first event through the drain.
    host_ns: int
    #: Host ns of the post-program drain (its last ``Simulator.run``).
    drain_ns: int
    elapsed_ns: int
    quiesced_ns: int
    completed: int
    snapshot: dict
    fingerprint: str


def build(spec: Workload, seed: int):
    """Construct and seed the system; returns it with its host time."""
    t0 = time.perf_counter()
    system = NvmSystem(default_config(mode=spec.mode, cores=spec.cores,
                                      shards=spec.shards, seed=seed))
    params = WorkloadParams(n_transactions=spec.txns_per_core)
    instances = [make_workload(spec.program, system, core, params,
                               variant=spec.variant)
                 for core in system.cores]
    return system, instances, time.perf_counter() - t0


def run_built(system, instances, setup_s, after=None) -> Run:
    """Run every core's program to completion and time it."""
    log = TxnLog(system, instances, after)
    sim = system.sim
    loop_ns = []
    sim_run = sim.run

    def timed_loop(*args, **kwargs):
        t0 = perf_ns()
        try:
            return sim_run(*args, **kwargs)
        finally:
            loop_ns.append(perf_ns() - t0)
    sim.run = timed_loop
    t0 = perf_ns()
    elapsed = system.run_programs([inst.run() for inst in instances])
    host_ns = perf_ns() - t0
    del sim.run
    snapshot = system.metrics.snapshot()
    blob = json.dumps({"metrics": snapshot, "txns": log.records,
                       "elapsed_ns": elapsed, "quiesced_ns": sim.now,
                       "events": sim.events},
                      sort_keys=True, separators=(",", ":"))
    return Run(system, instances, log, setup_s, host_ns, loop_ns[-1],
               elapsed, sim.now,
               sum(inst.completed_transactions for inst in instances),
               snapshot, hashlib.sha256(blob.encode()).hexdigest())


def timed_run(spec: Workload, seed: int, after=None) -> Run:
    gc.collect()
    return run_built(*build(spec, seed), after=after)


def sim_metrics(run: Run) -> Dict[str, float]:
    """The simulated end-to-end metrics, fixed by the seed."""
    latencies = run.log.latencies()
    txns = len(latencies)
    return {
        "sim_ns_per_txn": run.elapsed_ns / txns,
        "sim_txn_ns_p50": statistics.median(latencies),
        "sim_txn_ns_p99": statistics.quantiles(latencies, n=100)[98],
        "sim_quiesced_ns_per_txn": run.quiesced_ns / txns,
    }


# -- recovery -----------------------------------------------------------------
@dataclass
class Recovery:
    host_s: float
    decode_s: float
    state: object
    digests: List[str]


def recover_once(system, instances) -> Recovery:
    """Time ``crash()`` + ``recover(verify_macs=True)`` + decode."""
    regions = [(inst.log.base, inst.log.capacity) for inst in instances]
    t0 = time.perf_counter()
    state = recovery.recover(system.crash(), regions, verify_macs=True)
    t1 = time.perf_counter()
    digests = [inst.logical_digest(state.read) for inst in instances]
    t2 = time.perf_counter()
    return Recovery(t2 - t0, t2 - t1, state, digests)


def live_digests(run: Run) -> List[str]:
    """Every core's digest of the live image (before any crash)."""
    return [inst.logical_digest(run.system.volatile.read)
            for inst in run.instances]


def recover_final(run: Run, repeats: int, live: List[str],
                  recover=recover_once) -> set:
    """Recover fresh copies of the completed run's image with
    ``recover``; returns the cores whose recovered digest differs from
    ``live``."""
    mismatched = set()
    for _ in range(repeats):
        rec = recover(run.system, run.instances)
        mismatched.update(core for core, (want, got)
                          in enumerate(zip(live, rec.digests))
                          if want != got)
    return mismatched


@dataclass
class Reference:
    """Digests of the logical state after k commits, keyed by k."""

    digests: Dict[int, str]
    #: Host seconds of the reference run, digests included.
    host_s: float
    setup_s: float
    fingerprint: str


def crash_times(horizon: int, seed: int) -> List[int]:
    """Seeded crash times spread evenly over ``[0, horizon)``."""
    rng = random.Random(f"perfbench-crash-points-{seed}")
    return [int(horizon * (index + rng.uniform(0.05, 0.95)) / CRASH_POINTS)
            for index in range(CRASH_POINTS)]


def reference_trajectory(spec: Workload, seed: int, timed: Run,
                         crash_at: List[int]) -> Reference:
    """Run the seed to completion, digesting the states the crash
    points can recover to.

    With one core, a crash at t finds r transactions returned (r read
    off the timed run of the same seed) and at most one more whose
    commit record may already be durable, so the recovered commit count
    must be r or r + 1; only those digests are taken.
    """
    ends = sorted(end for _core, _txn, _start, end in timed.log.records)
    needed = set()
    for when in crash_at:
        returned = bisect.bisect_right(ends, when)
        needed.update((returned, returned + 1))
    gc.collect()
    system, instances, setup_s = build(spec, seed)
    t0 = time.perf_counter()
    read = system.volatile.read
    digests = {}
    if 0 in needed:
        digests[0] = instances[0].logical_digest(read)

    def after(instance):
        txn = instance.core.current_txn_id
        if txn in needed:
            digests[txn] = instance.logical_digest(read)
    run = run_built(system, instances, setup_s, after=after)
    return Reference(digests, time.perf_counter() - t0, setup_s,
                     run.fingerprint)


@dataclass
class Point:
    mid_txn: bool
    rolled_back: int
    ok: bool
    setup_s: float


def crash_point(spec: Workload, seed: int, when: int, ref: Reference,
                recover=recover_once) -> Point:
    """Crash a fresh build at sim time ``when``, recover it
    ``POINT_RECOVERIES`` times with ``recover`` and check every result.

    The point passes when the committed set is a prefix 1..k, every
    transaction whose commit ``sfence`` returned before the crash is
    in it, and the recovered digest equals reference digest k.
    """
    if spec.cores != 1:
        raise ValueError("crash points drive a single core")
    gc.collect()
    system, instances, setup_s = build(spec, seed)
    log = TxnLog(system, instances)
    system.sim.process(instances[0].run(), name="program0")
    system.sim.run(until=when)
    returned = {txn for _core, txn, _start, _end in log.records}
    recs = [recover(system, instances) for _ in range(POINT_RECOVERIES)]
    committed = recs[0].state.committed_txns
    k = len(committed)
    ok = (committed == list(range(1, k + 1))
          and returned <= set(committed)
          and all(rec.state.committed_txns == committed
                  and ref.digests.get(k) == rec.digests[0]
                  for rec in recs))
    return Point(log.open > 0, len(recs[0].state.rolled_back), ok,
                 setup_s)


# -- the untraced run ---------------------------------------------------------
def measure(name: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one workload (tracing off).

    Timed repetitions run for ``seconds``.  The fixed work — recoveries
    of the final image, or crash points — comes on top of ``seconds``
    and is spread evenly between the repetitions, so that every host
    figure and the calibration samples cover the whole run.
    """
    spec = WORKLOADS[name]
    speed = HostSpeed()
    # Host figures as ``(raw, scaled to the reference speed)`` pairs.
    host, setups, recover_s = [], [], []

    def timed_repetition():
        returned = [0]
        sampling_ns = [0]

        def sample(_instance):
            returned[0] += 1
            if returned[0] % SAMPLE_EVERY == 0:
                sampling_ns[0] += speed.sample()
        run, factor = speed.paired(
            lambda: timed_run(spec, seed, after=sample))
        raw_ns = run.host_ns - sampling_ns[0]
        host.append((raw_ns, raw_ns * factor))
        setups.append((run.setup_s, run.setup_s * factor))
        prints.add(run.fingerprint)
        return run

    def timed_recover(system, instances):
        rec, factor = speed.paired(lambda: recover_once(system, instances))
        recover_s.append((rec.host_s, rec.host_s * factor))
        return rec

    prints = set()
    problems: List[str] = []
    extra_setup_s = (0.0, 0.0)
    start = time.perf_counter()
    fixed_s = 0.0  # host seconds spent on fixed work so far
    run = timed_repetition()
    sims = sim_metrics(run)
    failed = spec.txns - run.completed
    attempted = spec.txns
    if spec.recovery == "final":
        live = live_digests(run)
        mismatched = set()
        total = FINAL_RECOVERIES
    else:
        if failed:
            problems.append(f"timed run completed {run.completed} of "
                            f"{spec.txns} transactions")
        pending = crash_times(run.elapsed_ns, seed)
        total = len(pending)
        # Set-up, by definition: the digests the points are checked
        # against.
        ref_start = time.perf_counter()
        ref, factor = speed.paired(
            lambda: reference_trajectory(spec, seed, run, pending))
        fixed_s += time.perf_counter() - ref_start
        setups.append((ref.setup_s, ref.setup_s * factor))
        prints.add(ref.fingerprint)
        extra_setup_s = (ref.host_s, ref.host_s * factor)
        points: List[Point] = []
        #: Per point, the median of its recoveries: raw and scaled.
        point_recover_s = []

    def fixed_done():
        return len(recover_s) if spec.recovery == "final" else len(points)

    def fixed_item(run):
        """One recovery, or one crash point."""
        if spec.recovery == "final":
            mismatched.update(recover_final(run, 1, live, timed_recover))
        else:
            when = pending.pop(0)
            point, factor = speed.paired(lambda: crash_point(
                spec, seed, when, ref, timed_recover))
            points.append(point)
            setups.append((point.setup_s, point.setup_s * factor))
            times = recover_s[-POINT_RECOVERIES:]
            point_recover_s.append(tuple(
                statistics.median(column) for column in zip(*times)))

    while True:
        timed_s = time.perf_counter() - start - fixed_s
        item_start = time.perf_counter()
        while fixed_done() < total \
                and fixed_done() / total <= timed_s / seconds:
            fixed_item(run)
        fixed_s += time.perf_counter() - item_start
        if timed_s + run.host_ns / 1e9 > seconds:
            break
        run = None  # free the last system before building the next
        run = timed_repetition()
    while fixed_done() < total:
        fixed_item(run)
    del run

    while len(setups) < MIN_SETUPS \
            or sum(raw for raw, _scaled in setups) < MIN_SETUP_S:
        gc.collect()
        setup_s, factor = speed.paired(lambda: build(spec, seed)[2])
        setups.append((setup_s, setup_s * factor))

    if spec.recovery == "final":
        failed += spec.txns_per_core * len(mismatched)
        recover_ms = [statistics.median(times) * 1e3
                      for times in zip(*recover_s)]
    else:
        attempted = len(points)
        failed = sum(not p.ok for p in points)
        problems.extend(_coverage_problems(points))
        # Recovery cost grows with the crash position; the mean over the
        # evenly spread points is the steady figure (each point's own
        # median first, against outliers).
        recover_ms = [statistics.fmean(medians) * 1e3
                      for medians in zip(*point_recover_s)]
    if len(prints) != 1:
        problems.append(f"{len(prints)} distinct sim fingerprints "
                        "across runs of one seed")

    # Index 0: wall time as measured; index 1: at the reference speed.
    figures = {
        "host_us_per_txn": [statistics.median(ns) / spec.txns / 1e3
                            for ns in zip(*host)],
        "setup_s": [statistics.median(times) + extra
                    for times, extra in zip(zip(*setups), extra_setup_s)],
        "recover_ms": recover_ms,
    }
    metrics = {
        "host_us_per_txn": (figures["host_us_per_txn"][1], "us"),
        "setup_s": (figures["setup_s"][1], "s"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "recover_ms": (figures["recover_ms"][1], "ms"),
    }
    metrics.update({key: (value, "sim-ns")
                    for key, value in sims.items()})
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "fingerprint": prints.pop() if len(prints) == 1 else None,
        "metrics": metrics,
        "notes": {"timed_runs": len(host), "setups": len(setups),
                  "recoveries": len(recover_s),
                  "speed_factor (median)": round(speed.factor(), 4),
                  "raw (wall time)": {name: round(value[0], 6)
                                      for name, value in figures.items()}},
    }


def _coverage_problems(points: List[Point]) -> List[str]:
    """The undo path must actually run: some crash lands mid-transaction
    and some recovery rolls a transaction back."""
    problems = []
    if not any(p.mid_txn for p in points):
        problems.append("no crash point landed mid-transaction")
    if not any(p.rolled_back for p in points):
        problems.append("no crash point rolled a transaction back")
    return problems


# -- the traced run -----------------------------------------------------------
def _matching(table: dict, scope: str, key: str) -> list:
    """Values of ``<scope><shard digits>.<key>`` (key is a regex)."""
    pattern = re.compile(rf"{re.escape(scope)}\d*\.{key}")
    return [value for name, value in table.items()
            if pattern.fullmatch(name)]


def _ratio(num, den):
    return num / den if den else 0.0


def snapshot_metrics(snapshot: dict, system, txns: int) -> dict:
    """Per-layer counts read from the run's metrics snapshot."""
    counters, hists = snapshot["counters"], snapshot["histograms"]

    def csum(scope, key):
        return sum(_matching(counters, scope, key))

    def hsum(scope, key, field="sum"):
        return sum(h[field] for h in _matching(hists, scope, key))

    def hmean(scope, key):
        return _ratio(hsum(scope, key), hsum(scope, key, "count"))

    accepts = _matching(counters, "wq", "accepted")
    full = csum("janus", "fully_pre_executed")
    partial = csum("janus", "partially_pre_executed")
    cc_hits = csum("mc", "counter_cache_hits")
    return {
        "core.sfence_stall_ns_per_txn": (
            hsum("core", "sfence_stall_ns") / txns, "sim-ns"),
        "core.clwbs_per_txn": (csum("core", "clwbs") / txns, "count"),
        "core.critical_write_ns_mean": (
            hmean("mc", "critical_write_ns"), "sim-ns"),
        "bmo.subops_per_txn": (
            csum("bmo", "subops_executed") / txns, "count"),
        "bmo.stale_rerun_per_txn": (
            csum("bmo", "stale_subops_rerun") / txns, "count"),
        "bmo.policy.epochs_closed_per_1k_txn": (
            csum("sched", "epochs_closed") * 1e3 / txns, "count"),
        "bmo.policy.epoch_flush_ns_mean": (
            hmean("sched", "epoch_flush_ns"), "sim-ns"),
        "bmo.policy.staleness_stalls_per_1k_txn": (
            csum("sched", "staleness_stalls") * 1e3 / txns, "count"),
        "janus.irb_hit_ratio": (_ratio(
            csum("irb", "consumed"),
            csum("irb", "hits") + csum("irb", "misses")), "ratio"),
        "janus.fully_pre_executed_frac": (
            _ratio(full, full + partial), "ratio"),
        "janus.irb_invalidations_per_txn": (
            csum("irb", r"invalidated_\w+") / txns, "count"),
        "janus.window_shortfall_ns_mean": (
            hmean("janus", "window_shortfall_ns"), "sim-ns"),
        "mem.wq_accepts_per_txn": (sum(accepts) / txns, "count"),
        "mem.wq_residency_ns_mean": (
            hmean("wq", "residency_ns"), "sim-ns"),
        "mem.wq_full_stall_ns_per_txn": (
            hsum("wq", "full_stall_ns") / txns, "sim-ns"),
        "mem.nvm_writes_per_txn": (csum("nvm", "writes") / txns, "count"),
        "mem.counter_cache_hit_rate": (_ratio(
            cc_hits, cc_hits + csum("mc", "counter_cache_misses")),
            "ratio"),
        "mem.nvm_channel_util": (statistics.fmean(
            device.utilisation() for device in system.devices), "ratio"),
        "mem.shard_imbalance": (
            _ratio(max(accepts), statistics.fmean(accepts)), "ratio"),
        "obs.observations_per_txn": (
            sum(h["count"] for h in hists.values()) / txns, "count"),
    }


def measure_traced(name: str, seed: int, spans_path: str) -> dict:
    """The per-layer metrics of one workload, from a traced run.

    An untraced run of the same seed comes first: it is the base of
    the tracing overhead and of the host-only layer figures, and its
    sim fingerprint must equal the traced run's.
    """
    spec = WORKLOADS[name]
    txns = spec.txns
    prints = set()
    problems: List[str] = []
    base = timed_run(spec, seed)
    prints.add(base.fingerprint)
    untraced = (base.host_ns, base.drain_ns, base.system.sim.events)
    if spec.recovery == "points":
        crash_at = crash_times(base.elapsed_ns, seed)
        ref = reference_trajectory(spec, seed, base, crash_at)
        prints.add(ref.fingerprint)
    del base

    workload_cls = PROGRAMS[spec.program]
    tracer = SpanTracer()
    recoveries = []

    def observed_recover(system, instances):
        rec = recover_once(system, instances)
        recoveries.append((rec.decode_s,
                           tracer.incl_ns[("consistency", "rollback")],
                           tracer.calls[("consistency", "read_line")]))
        tracer.reset()
        return rec

    def traced_recover(system, instances):
        tracer.install(workload_cls)
        tracer.reset()
        try:
            return observed_recover(system, instances)
        finally:
            tracer.uninstall()

    tracer.install(workload_cls)
    try:
        gc.collect()
        tracer.reset()
        system, instances, setup_s = build(spec, seed)
        seed_ns = tracer.incl_ns[("workloads", "seed")]
        tracer.reset()
        tracer.sim = system.sim
        tracer.watch_units(system.bmo_units)
        traced = run_built(system, instances, setup_s)
        prints.add(traced.fingerprint)
        if tracer.stack or tracer.top_ns > traced.host_ns \
                or sum(tracer.self_ns.values()) != tracer.top_ns:
            problems.append("layer self times do not add up to the "
                            "traced host total")
        metrics = _layer_metrics(spec, untraced, traced, tracer, seed_ns)
        tracer.write_spans(spans_path, {"workload": name, "seed": seed,
                                        "txns": txns})
        failed = spec.txns - traced.completed
        attempted = spec.txns
        if spec.recovery == "final":
            live = live_digests(traced)
            tracer.reset()
            mismatched = recover_final(traced, TRACED_RECOVERIES, live,
                                       observed_recover)
            failed += spec.txns_per_core * len(mismatched)
            rolled_back = [0]
        else:
            tracer.uninstall()
            points = [crash_point(spec, seed, when, ref, traced_recover)
                      for when in crash_at]
            attempted = len(points)
            failed = sum(not p.ok for p in points)
            rolled_back = [p.rolled_back for p in points]
            problems.extend(_coverage_problems(points))
    finally:
        tracer.uninstall()
    if len(prints) != 1:
        problems.append(f"{len(prints)} distinct sim fingerprints "
                        "between the traced and untraced runs")
    metrics.update({
        "consistency.rollback_ms": (
            statistics.median([ns for _dec, ns, _lines in recoveries]) / 1e6, "ms"),
        "consistency.decode_ms": (
            statistics.median([dec for dec, _ns, _lines in recoveries]) * 1e3, "ms"),
        "consistency.lines_read_per_recovery": (statistics.fmean(
            lines for _dec, _ns, lines in recoveries), "count"),
        "consistency.rolled_back_per_point": (
            statistics.fmean(rolled_back), "count"),
    })
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "fingerprint": prints.pop() if len(prints) == 1 else None,
        "metrics": metrics,
        "notes": {"spans": spans_path, "missing_targets": tracer.missing},
    }


def _layer_metrics(spec, untraced, traced: Run, tracer: SpanTracer,
                   seed_ns: int) -> dict:
    """``untraced`` is ``(host ns, drain ns, events)`` of the run of
    the same seed with tracing off."""
    txns = spec.txns
    base_host_ns, base_drain_ns, base_events = untraced
    own = tracer.self_ns
    calls = tracer.calls

    def us(*keys):
        return (sum(own[key] for key in keys) / txns / 1e3, "us")

    layer_self = tracer.layer_self_ns()
    metrics = {
        "sim.events_per_txn": (base_events / txns, "count"),
        "sim.processes_per_txn": (calls[PROCESS_KEY] / txns, "count"),
        "sim.host_ns_per_event": (base_host_ns / base_events, "ns"),
        "sim.loop_self_us_per_txn": us(("sim", "loop")),
        "core.writeback_host_us_per_txn": us(("core", "writeback")),
        "bmo.unit_wait_ns_per_txn": (tracer.unit_wait_ns / txns,
                                     "sim-ns"),
        "bmo.executor_host_us_per_txn": us(("bmo", "executor")),
        "bmo.pipeline_host_us_per_txn": us(("bmo", "pipeline")),
        "bmo.policy.writeback_host_us_per_txn": us(
            ("bmo.policy", "writeback")),
        "bmo.policy.drain_host_ms": (base_drain_ns / 1e6, "ms"),
        "janus.irb_host_us_per_txn": us(("janus", "irb")),
        "janus.engine_host_us_per_txn": us(("janus", "engine")),
        "crypto.merkle_paths_per_txn": (
            calls[("crypto", "merkle_path")] / txns, "count"),
        "crypto.merkle_host_us_per_txn": us(("crypto", "merkle_path"),
                                            ("crypto", "merkle")),
        "crypto.counter_mode_host_us_per_txn": us(
            ("crypto", "counter_mode")),
        "workloads.txn_self_host_us_per_txn": us(TXN_KEY),
        "workloads.seed_host_ms": (seed_ns / 1e6, "ms"),
        "compiler.hooks_fired_per_txn": (
            calls[("compiler", "hooks")] / txns, "count"),
        "consistency.undo_log_host_us_per_txn": us(
            ("consistency", "undo_log")),
    }
    metrics.update(snapshot_metrics(traced.snapshot, traced.system, txns))
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_txn"] = (
            layer_self[layer] / txns / 1e3, "us")
    metrics["unattributed.self_us_per_txn"] = (
        (traced.host_ns - tracer.top_ns) / txns / 1e3, "us")
    metrics["trace.host_us_per_txn"] = (traced.host_ns / txns / 1e3, "us")
    metrics["trace.overhead_pct"] = (
        (traced.host_ns / base_host_ns - 1) * 100, "%")
    metrics["trace.missing_targets"] = (len(tracer.missing), "count")
    return metrics
