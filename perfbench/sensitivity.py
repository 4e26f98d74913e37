"""Sensitivity check: does the benchmark see a slowdown it should see?

    python3 perfbench/sensitivity.py [--seed 1] [--seconds 30]

Each injection adds a fixed busy-wait to one function at runtime,
inside the benchmark process (``--inject NAME -- <run.py arguments>``
is the child mode that patches and then runs the benchmark); no source
file is edited.  The check runs every workload twice unchanged and
once per injection (one workload after another), and passes when:

* ``loop`` (each ``Process`` construction, i.e. each process the event
  loop spawns, slowed) moves ``host_us_per_txn`` on ``tpcc-janus``
  beyond its bound, and moves it relatively least on ``crash-recover``;
* ``merkle`` (``MerkleTree.path_digests`` slowed) moves
  ``host_us_per_txn`` on ``hashtable-async-4x4`` beyond its bound;
* ``recover`` (``consistency.recovery.recover`` slowed) moves
  ``recover_ms`` on ``crash-recover`` beyond its bound;
* every injected run has the same sim fingerprint and ``sim_*``
  metrics as the unchanged run of its workload;
* the two unchanged runs of each workload agree within every bound.
"""

import argparse
import functools
import importlib
import os
import sys
import time

from run import WORKLOAD_NAMES as WORKLOADS
from spread import ROOT, load_spec, run_once

HERE = os.path.dirname(os.path.abspath(__file__))

#: name -> (module, class or None, attribute, added host ns per call).
INJECTIONS = {
    "loop": ("repro.sim.engine", "Process", "__init__", 25_000),
    "merkle": ("repro.crypto.merkle", "MerkleTree", "path_digests",
               200_000),
    "recover": ("repro.consistency.recovery", None, "recover",
                40_000_000),
}
#: (injection, workload, metric): the slowdown must exceed the bound.
EXPECTED = (("loop", "tpcc-janus", "host_us_per_txn"),
            ("merkle", "hashtable-async-4x4", "host_us_per_txn"),
            ("recover", "crash-recover", "recover_ms"))


def _spin(ns):
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


def inject(name):
    """Patch the injection's target with a slowed wrapper."""
    module, cls, attr, cost_ns = INJECTIONS[name]
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    original = getattr(owner, attr)

    @functools.wraps(original)
    def slowed(*args, **kwargs):
        _spin(cost_ns)
        return original(*args, **kwargs)
    setattr(owner, attr, slowed)


def child(name, run_args) -> int:
    """Child mode: inject, then run the benchmark in this process."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    inject(name)
    import run
    return run.main(run_args)


def relative(after, before, metric):
    return after["metrics"][metric]["value"] \
        / before["metrics"][metric]["value"] - 1


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--inject"]:
        return child(argv[1], argv[3:])
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    args = parser.parse_args(argv)

    def bench(workload, injection=None):
        prefix = ()
        if injection is not None:
            prefix = (sys.executable, os.path.join(HERE, "sensitivity.py"),
                      "--inject", injection, "--")
        result, fingerprint = run_once(spec, workload, args.seed,
                                       args.seconds, prefix=prefix)
        print(f"ran {workload} injection={injection}: "
              f"correct={result['correct']} " + " ".join(
                  f"{k}={v['value']:.6g}"
                  for k, v in result["metrics"].items()), flush=True)
        return result, fingerprint

    # One workload at a time, so that every comparison is between runs
    # minutes apart at most: the host's speed drifts.
    planned = {(name, w) for name, w, _metric in EXPECTED}
    planned |= {("loop", w) for w in WORKLOADS}
    base, rerun, injected = {}, {}, {}
    for workload in WORKLOADS:
        base[workload] = bench(workload)
        for name in INJECTIONS:
            if (name, workload) in planned:
                injected[(name, workload)] = bench(workload, name)
        rerun[workload] = bench(workload)

    checks = []

    def check(ok, text):
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {text}")

    for (name, workload), (result, fingerprint) in \
            [((None, w), rerun[w]) for w in WORKLOADS] \
            + list(injected.items()):
        before, base_print = base[workload]
        label = f"{workload} {name or 'rerun'}"
        check(result["correct"] and before["correct"],
              f"{label}: outputs correct")
        check(fingerprint == base_print and all(
            result["metrics"][k] == v for k, v in before["metrics"].items()
            if k.startswith("sim_")),
            f"{label}: sim fingerprint and sim_* metrics unchanged")
        if name is None:
            for metric, bound in bounds.items():
                change = relative(result, before, metric)
                check(abs(change) <= bound,
                      f"{label}: {metric} {change:+.1%} within "
                      f"±{bound:.0%}")
    for name, workload, metric in EXPECTED:
        change = relative(injected[(name, workload)][0],
                          base[workload][0], metric)
        check(change > bounds[metric],
              f"{workload} {name}: {metric} {change:+.1%} beyond the "
              f"{bounds[metric]:.0%} bound")
    loop = {w: relative(injected[("loop", w)][0], base[w][0],
                        "host_us_per_txn") for w in WORKLOADS}
    check(min(loop, key=loop.get) == "crash-recover",
          "loop: host_us_per_txn moves least on crash-recover (" + ", ".join(
              f"{w} {v:+.1%}" for w, v in loop.items()) + ")")
    print(f"{sum(checks)}/{len(checks)} checks passed")
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
