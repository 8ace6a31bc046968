"""Run every workload untraced and traced, and print one report.

    python3 bench/all.py --seed 1 --seconds 20

Each run is its own process, one at a time.  The report lists the
end-to-end metrics with units and sample counts, the per-layer metrics of
the traced run with the end-to-end metric each should move, and the tracing
overhead: the traced against the untraced ops_per_s and latency_p50_ms.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import LAYER_MAP  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} (trace {trace}) exited {proc.returncode}: {proc.stderr.strip()[-1000:]}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    all_correct = True
    for workload in WORKLOADS:
        summary, plain = run(workload, args.seed, args.seconds, 0)
        traced_summary, traced = run(workload, args.seed, args.seconds, 1)
        all_correct &= plain["correct"] and traced["correct"]
        print(f"== {workload}")
        print("\n".join(summary))
        print(f"-- traced: {traced['attempted']} ops, {traced['failed']} failed")
        for name, m in traced["metrics"].items():
            if m["value"]:
                print(f"   {name} = {m['value']:.6g} {m['unit']}")
        for name in ("ops_per_s", "latency_p50_ms"):
            untraced, with_trace = plain["metrics"][name]["value"], traced["metrics"]["trace." + name]["value"]
            print(f"tracing overhead, {name}: {with_trace:.6g} traced vs {untraced:.6g} untraced "
                  f"({100.0 * (with_trace / untraced - 1.0):+.1f}%)")
    print("== layer map: per-layer metric -> end-to-end metric it should move (and should not)")
    for group, (moves, keeps) in LAYER_MAP.items():
        print(f"{group}: {moves}" + (f"; {keeps}" if keeps else ""))
    print("all outputs correct" if all_correct else "SOME OUTPUTS WRONG")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
