#!/usr/bin/env python3
"""kernelgames benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload design_scan --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  Each workload runs in its own process on one Python
thread, with the BLAS thread count pinned to the CPUs available before numpy
is imported.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics, measured untraced; with ``--trace 1`` the per-layer
metrics of a traced run of a fixed number of ops, whose spans are written to
``.perfbench/``.  The exit code is 1 if any op failed, 2 on a usage error or
when the library is missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
NAMES = ("design_scan", "equilibrium_dense", "reproduce_quick")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-ups per run: at least 3, and more while they take under 4 s in total
SETUP_REPEATS = (3, 9)
SETUP_SECONDS = 4.0


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(count: int) -> float:
    """p90 from 100 ops on; below that the highest percentile with ten ops
    beyond it, and never below the median."""
    if count >= 100:
        return 90.0
    return max(50.0, 100.0 * (1.0 - 10.0 / count)) if count else 50.0


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def environment(np, kg, threads: int, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    numba = importlib.util.find_spec("numba") is not None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "numba": numba,
        "scan_backend": ("numba" if kg.design._scan_kernel_jit is not None
                         else "numpy"),
        "generator_id": kg.montecarlo.GENERATOR_ID,
        "seed": seed,
        "commit": git_commit(),
    }


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing numpy and the library."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import numpy, kernelgames"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - t0


class Runner:
    """Runs ops of one workload and keeps the attempted/failed tally."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def run(self, i: int):
        """Op i's verdicts, or None when it raised."""
        self.attempted += 1
        try:
            verdicts, _ = self.workload.op(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            verdicts = None
        if verdicts is None or not all(verdicts):
            self.failed += 1
            print(f"op {i} failed: {verdicts}", file=sys.stderr)
        return verdicts

    def timed(self, seconds: float, min_ops: int = 1):
        """Run ops 0, 1, ... until ``seconds`` pass; (latencies, verdicts, wall)."""
        latencies, verdicts = [], []
        clock = time.perf_counter
        t0 = clock()
        while clock() - t0 < seconds or len(latencies) < min_ops:
            s = clock()
            verdicts.append(self.run(len(latencies)))
            latencies.append(clock() - s)
        return latencies, verdicts, clock() - t0


def end_to_end(make, seed: int, seconds: float):
    setups = []
    attempted = failed = 0
    least, most = SETUP_REPEATS
    while len(setups) < least or (sum(setups) < SETUP_SECONDS
                                  and len(setups) < most):
        t_import = import_seconds()
        t0 = time.perf_counter()
        runner = Runner(make(seed))
        runner.run(0)                                   # warm-up op
        setups.append(t_import + time.perf_counter() - t0)
        attempted += runner.attempted
        failed += runner.failed
    runner.attempted = runner.failed = 0
    lat, _, wall = runner.timed(seconds)
    q = tail_percentile(len(lat))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / wall, "ops/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    # the tail is printed, not gated: see README
    info = {"timed_ops": len(lat), "op_tail_percentile": q,
            "op_tail_ms": 1e3 * percentile(lat, q), "setups": len(setups)}
    return metrics, info, attempted + runner.attempted, failed + runner.failed


def traced(make, seed: int, seconds: float, np, kg, workload_name: str):
    from spans import Tracer, layer_metrics, write_spans
    runner = Runner(make(seed))
    runner.run(0)                                       # warm-up op
    k = runner.workload.trace_ops
    tracer = Tracer()
    tracer.install(kg, np.linalg)
    try:
        t0 = time.perf_counter()
        traced_verdicts = []
        for i in range(k):
            with tracer.op(i):
                traced_verdicts.append(runner.run(i))
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    lat, plain_verdicts, wall = runner.timed(seconds - traced_wall, min_ops=k)
    same = plain_verdicts[:k] == traced_verdicts
    if not same:
        print("traced and untraced op outcomes differ", file=sys.stderr)

    batteries = {b: fn.__name__ for b, fn in kg.checks.ALL_CHECKS.items()}
    metrics = layer_metrics(tracer.spans, batteries)
    total = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    target = sum(metrics[f"{layer}.self_s"][0]
                 for layer in runner.workload.targets)
    traced_rate = k / traced_wall
    plain_rate = len(lat) / wall
    metrics.update({
        "trace.traced_ops_per_s": (traced_rate, "ops/s"),
        "trace.untraced_ops_per_s": (plain_rate, "ops/s"),
        "trace.overhead": (plain_rate / traced_rate - 1.0, "fraction"),
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans_{workload_name}_seed{seed}.jsonl")
    write_spans(path, tracer.spans)
    info = {"traced_ops": k, "spans": len(tracer.spans),
            "target_layers": runner.workload.targets,
            "target_share": target / total if total else 0.0,
            "outcomes_match": same, "untraced_ops": len(lat),
            "spans_file": os.path.relpath(path, ROOT)}
    return metrics, info, runner.attempted, runner.failed, same


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return max(code, 1)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "kernelgames", "__init__.py")):
        print(f"error: no kernelgames sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    threads = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, SRC)
    import numpy as np
    import kernelgames as kg
    import kernelgames.checks  # noqa: F401  (not imported by the package)
    from workloads import WORKLOADS
    if not os.path.abspath(kg.__file__).startswith(SRC + os.sep):
        print(f"error: kernelgames imported from {kg.__file__}", file=sys.stderr)
        return 2

    env = environment(np, kg, threads, args.seed)
    cls = WORKLOADS[args.workload]

    def make(seed):
        return cls(kg, seed)

    correct = True
    if args.trace:
        metrics, info, attempted, failed, correct = traced(
            make, args.seed, args.seconds, np, kg, args.workload)
    else:
        metrics, info, attempted, failed = end_to_end(make, args.seed,
                                                      args.seconds)
    correct = correct and failed == 0
    print("environment " + json.dumps(env))
    print(f"workload {args.workload} " + json.dumps(info))
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
