"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload crash-recover --seeds 1-10

Runs the benchmark once per seed (each in its own process, one after
another), then prints, per end-to-end metric, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median.  A metric other than ``setup_s`` is
steady when that share is below a third of its bound in
``BENCHMARK.json``.  The exit code is 1 when a run failed its checks
or a metric is not steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace=0, prefix=()):
    """One benchmark process; returns ``(result, fingerprint)``."""
    command = list(prefix) or list(spec["command"])
    command += ["--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    fingerprint = next((line.split()[-1] for line in lines
                        if line.startswith("sim fingerprint ")), None)
    return json.loads(lines[-1]), fingerprint


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in parse_seeds(args.seeds):
        result, fingerprint = run_once(spec, args.workload, seed,
                                       args.seconds)
        ok &= result["correct"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"fingerprint={fingerprint} " + " ".join(
                  f"{name}={result['metrics'][name]['value']:.6g}"
                  for name in values), flush=True)

    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound/3':>8}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        q1, median, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / median
        limit = metric["bound"] / 3
        steady = name == "setup_s" or spread < limit
        ok &= steady
        print(f"{name:28} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.2%} {limit:8.2%}{'' if steady else '  UNSTEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
