"""Layered end-to-end benchmark of the Janus NVM write-path simulator.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload tpcc-janus --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced run and reports the per-layer metrics.
Every metric is printed by name with its unit; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when the
run completed (``correct`` may still be false) and 2 when the
simulator's source is not beside the benchmark.  See README.md.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("tpcc-janus", "hashtable-async-4x4", "crash-recover")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def contract_problems(metrics, section):
    """Metrics missing from, or not listed in, ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        listed = {m["name"]: m["unit"] for m in json.load(f)[section]}
    reported = {name: unit for name, (_value, unit) in metrics.items()}
    return [f"metric {name}: reported {reported.get(name)!r}, "
            f"BENCHMARK.json lists {listed.get(name)!r}"
            for name in sorted(set(listed) | set(reported))
            if listed.get(name) != reported.get(name)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: simulator source not found at {SRC}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import measure

    if args.trace:
        spans = os.path.join(ROOT, ".perfbench_out",
                             f"spans-{args.workload}-seed{args.seed}.jsonl")
        result = measure.measure_traced(args.workload, args.seed, spans)
    else:
        result = measure.measure(args.workload, args.seed, args.seconds)

    problems = result["problems"] + contract_problems(
        result["metrics"], "per_layer" if args.trace else "end_to_end")
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    for key, value in result["notes"].items():
        print(f"  # {key}: {value}")
    print(f"sim fingerprint {result['fingerprint']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = result["failed"] == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
