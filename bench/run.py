"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload cli_warm --seed 1 --seconds 20 --trace 0

Run it from the root of a paradirac source tree; it imports the library
from ``src/`` and nowhere else, and exits 2 when that is missing.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of layers.py with ``--trace 1``.

Each workload builds a fixed pass of seeded ops at set-up; the loop runs
the whole pass in order, at least once, and again until ``--seconds`` have
passed.  Every run of an op is checked.  ``attempted`` is the number of ops
in the pass and ``failed`` the number of them that failed on any run, so
both repeat exactly for a seed.  ``correct`` is true when every failed op
is a Mott table at p/m >= 1e3, where the library's kinematics are known to
lose precision; such ops still count in ``failed``.

setup_s is the median over this process and SETUP_PROBES fresh ones of
the time from start to the first op.  It and the op times behind ops_per_s
and the latencies are normalized to a nominal host speed (hostspeed.py);
the wall-clock figures are printed beside them.  Spans of a traced run
are written to ``.bench_out/spans-<workload>.npz``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from importlib import metadata  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# One BLAS/OpenMP thread here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONPATH"] = SRC

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
from layers import COMMANDS, per_layer  # noqa: E402
from tracing import Tracer, Untraced, percentile, span_stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4
SETUP_REFERENCE_REPS = 40
IMPORT_REPS = 3
INTERP_REPS = 5
STARTUP_REPS = 2
MAX_REASONS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set the workload up, print the set-up seconds and exit")
    return parser.parse_args(argv)


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_loop(workload, tracer, seconds, trace):
    """Closed loop, one client, over the workload's pass, run whole until
    ``seconds`` have passed, so every op of the pass runs equally often and
    the mix is the same in every run.  Returns per-op
    (kind, wall seconds, reference-loop seconds) and {pass index: (op, reason)}
    of the ops that failed."""
    ops = workload.pass_ops
    samples, failures = [], {}
    hostspeed.reference_seconds(workload.reference_reps)
    start = time.perf_counter()
    index = 0
    while index % len(ops) or index == 0 or time.perf_counter() - start < seconds:
        slot = index % len(ops)
        op = ops[slot]
        tracer.op = index
        tracer.counting = trace and index < len(ops)
        t = time.perf_counter()
        try:
            result = tracer.call("op." + op.kind, op.run)
            error = None
        except (Exception, SystemExit) as exc:  # a failed op, not a failed benchmark
            result, error = None, f"{op.kind}: raised {exc!r}"
        elapsed = time.perf_counter() - t
        samples.append((op.kind, elapsed, hostspeed.reference_seconds(workload.reference_reps)))
        if error is None:
            error = op.check(result)
        if error is not None:
            failures.setdefault(slot, (op, error))
        index += 1
    return samples, failures


def op_seconds(samples):
    """Host-speed normalized seconds of each op."""
    return hostspeed.normalized([dt for _, dt, _ in samples], [ref for _, _, ref in samples])


def setup_probe_seconds(args):
    """Wall and host-speed normalized set-up seconds of a fresh process,
    normalized by the reference loop timed just before and after it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    before = hostspeed.reference_seconds(SETUP_REFERENCE_REPS)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    after = hostspeed.reference_seconds(SETUP_REFERENCE_REPS)
    if proc.returncode != 0:
        fail(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    wall = float(proc.stdout.split()[-1])
    return wall, wall * hostspeed.REFERENCE_S / ((before + after) / 2)


def end_to_end(samples, failures, attempted, setup_s, rss_mb):
    latencies = op_seconds(samples)
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": metric(percentile(latencies, 50) * 1e3, "ms"),
        "latency_p90_ms": metric(percentile(latencies, 90) * 1e3, "ms"),
        "ok_frac": metric(1.0 - len(failures) / attempted, "fraction"),
        "peak_rss_mb": metric(rss_mb, "MiB"),
    }


def wall_summary(samples):
    """The loop's figures in wall-clock time, and the host speed they were normalized by."""
    wall = [dt for _, dt, _ in samples]
    speed = hostspeed.REFERENCE_S / statistics.median(ref for _, _, ref in samples)
    return (f"wall clock: ops_per_s = {len(wall) / sum(wall):.6g} 1/s, "
            f"latency_p50_ms = {percentile(wall, 50) * 1e3:.6g} ms, "
            f"latency_p90_ms = {percentile(wall, 90) * 1e3:.6g} ms; host speed {speed:.4g} x nominal")


def import_times():
    """Median over runs of -X importtime, which changes no library code."""
    runs = defaultdict(list)
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import paradirac"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        cumulative, own = {}, defaultdict(float)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            cumulative[name] = int(cum_us) / 1e3
            top = name.split(".")[0]
            if top in ("scipy", "numpy"):
                own[top] += int(self_us) / 1e3
        runs["import.paradirac_ms"].append(cumulative.get("paradirac", 0.0))
        runs["import.paradirac.radiative_ms"].append(cumulative.get("paradirac.radiative", 0.0))
        runs["import.scipy_ms"].append(own["scipy"])
        runs["import.numpy_ms"].append(own["numpy"])
    interp = []
    for _ in range(INTERP_REPS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True, timeout=60)
        interp.append((time.perf_counter() - t) * 1e3)
    out = {name: statistics.median(values) for name, values in runs.items()}
    out["cli.interp_ms"] = statistics.median(interp)
    return out


def cli_layers(workload, samples):
    """cli.<command>.p50_ms from the loop, and startup_ms = cold p50 - warm p50,
    with the side the loop did not run measured on the first argv of each command."""
    by_kind = defaultdict(list)
    for kind, dt, _ in samples:
        by_kind[kind].append(dt * 1e3)
    cold_loop = workload.invoke == workload.cold
    other = workload.warm if cold_loop else workload.cold
    if cold_loop:
        import paradirac.cli  # noqa: F401  so that no warm rep pays the import
    out = {}
    for command in COMMANDS:
        argv = workload.first_argv.get(command)
        if argv is None:
            continue
        loop_p50 = percentile(by_kind[command], 50)
        reps = []
        for _ in range(STARTUP_REPS):
            t = time.perf_counter()
            other(argv)
            reps.append((time.perf_counter() - t) * 1e3)
        other_p50 = percentile(reps, 50)
        out[f"cli.{command}.p50_ms"] = loop_p50
        out[f"cli.{command}.startup_ms"] = loop_p50 - other_p50 if cold_loop else other_p50 - loop_p50
    return out


def per_layer_metrics(name, workload, tracer, samples):
    spans = tracer.spans()
    values = {}
    for span, (calls, busy, p50_us) in span_stats(spans).items():
        values[f"{span}.calls"], values[f"{span}.busy_s"], values[f"{span}.p50_us"] = calls, busy, p50_us
    values.update(tracer.counts)
    if hasattr(workload, "first_argv"):
        values.update(cli_layers(workload, samples))
    values.update(import_times())
    latencies = op_seconds(samples)
    values["trace.ops_per_s"] = len(latencies) / sum(latencies)
    values["trace.latency_p50_ms"] = percentile(latencies, 50) * 1e3
    write_spans(name, spans)
    return {key: metric(values.get(key, 0), unit) for key, unit, _ in per_layer()}


def write_spans(workload_name, spans):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    names = sorted({s[0] for s in spans})
    ids = {name: i for i, name in enumerate(names)}
    np.savez_compressed(
        os.path.join(out_dir, f"spans-{workload_name}.npz"),
        names=np.array(names),
        name=np.array([ids[s[0]] for s in spans], dtype=np.int32),
        start=np.array([s[1] for s in spans]),
        end=np.array([s[2] for s in spans]),
        parent=np.array([s[3] for s in spans], dtype=np.int64),
        op=np.array([s[4] for s in spans], dtype=np.int64),
    )


def environment():
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "absent"
    return (f"python {sys.version.split()[0]}, numpy {versions['numpy']}, "
            f"scipy {versions['scipy']}, nproc {os.cpu_count()}")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "paradirac", "__init__.py")):
        fail(f"no paradirac sources under {SRC}; run from a paradirac source tree")
    sys.path.insert(0, SRC)
    # One client on one CPU, inherited by child processes, so that the
    # host-speed reference loop after an op runs where the op ran.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload = WORKLOADS[args.workload](ROOT, args.seed, Untraced())
    tracer = workload.tracer = Tracer() if args.trace else Untraced()
    setup_wall = time.perf_counter() - T0
    if args.setup_probe:
        print(repr(setup_wall))
        return 0
    setup = [(setup_wall, setup_wall * hostspeed.REFERENCE_S
              / hostspeed.reference_seconds(SETUP_REFERENCE_REPS))]

    samples, failures = run_loop(workload, tracer, args.seconds, bool(args.trace))
    rss_mb = workload.peak_rss_mb()
    attempted = len(workload.pass_ops)
    correct = all(workload.explained(op) for op, _ in failures.values())

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"closed loop, one client; {environment()}")
    by_kind = defaultdict(lambda: [0, 0])
    for op in workload.pass_ops:
        by_kind[op.kind][0] += 1
    for op, _ in failures.values():
        by_kind[op.kind][1] += 1
    print(f"pass of {attempted} ops, run {len(samples) // attempted} times; ops in the pass (failed): "
          + ", ".join(f"{k} {n} ({f})" for k, (n, f) in sorted(by_kind.items())))
    print(wall_summary(samples))
    for op, reason in list(failures.values())[:MAX_REASONS]:
        print(f"failed{'' if workload.explained(op) else ' (unexplained)'}: {reason}")

    if args.trace:
        metrics = per_layer_metrics(args.workload, workload, tracer, samples)
    else:
        setup += [setup_probe_seconds(args) for _ in range(SETUP_PROBES)]
        print("set-up wall clock (this process, then fresh ones): "
              + ", ".join(f"{wall:.4g}" for wall, _ in setup) + " s")
        metrics = end_to_end(samples, failures, attempted, statistics.median(n for _, n in setup), rss_mb)
    n = len(samples)
    for name, m in metrics.items():
        counted = f" (n={n})" if name.startswith("latency") else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{counted}")
    print(f"failed_frac = {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
