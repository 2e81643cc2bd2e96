"""Run one latspace benchmark workload and print its metrics.

Usage, from the root of a latspace checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is single-process, single-client and closed-loop.  It
generates the workload's inputs from the seed (set-up, repeated at least
SETUP_REPEATS times and for at least SETUP_MIN_SECONDS, reported as the
median), then runs the operations one after another, in whole passes through
the workload's operation list, for S seconds, and checks every result.  With
--trace 0 it prints the end-to-end metrics, measured with nothing patched.
With --trace 1 it runs S/2 seconds untraced and S/2 seconds with the span
tracer installed, and prints the per-layer metrics.  The last line of
standard output is the JSON result; the line before it records the seed and
the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
WORK_ROOT = ".perfbench_work"
PYTHON_START_RUNS = 10

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Phase:
    """Per-operation latencies (s) and verdicts of one measured stretch."""

    latencies: list[float] = field(default_factory=list)
    verified: list[bool] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def rate(self) -> float:
        """Verified operations per second of measured time."""
        return sum(self.verified) / sum(self.latencies)


def run_ops(ops, seconds: float, tracer=None) -> Phase:
    """Closed loop: the next operation starts when the previous one ends.

    The loop stops at the end of the first pass through `ops` that ends after
    `seconds`, so every operation runs equally often and the mix of costs is
    the same in every run."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        op = ops[i % len(ops)]
        began = time.perf_counter()
        if tracer is not None:
            tracer.op = i
            root = tracer.begin("op")
        ok = False
        try:
            op(tracer)
            ok = True
        except Exception as exc:  # every failure is counted and the run goes on
            phase.failures.append(f"operation {i % len(ops)}: {type(exc).__name__}: {exc}")
            if len(phase.failures) <= 3:
                traceback.print_exc(file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.end(root)
        ended = time.perf_counter()
        phase.latencies.append(ended - began)
        phase.verified.append(ok)
        i += 1
        if i % len(ops) == 0 and ended >= deadline:
            return phase


def end_to_end(phase: Phase, setup_times: list[float], in_children: bool) -> dict[str, float]:
    ms = sorted(1000.0 * t for t in phase.latencies)
    who = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
    return {
        "ops_per_s": phase.rate(),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def python_start_ms() -> float:
    """Median wall time of `python -c pass`."""
    times = []
    for _ in range(PYTHON_START_RUNS):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(1000.0 * (time.perf_counter() - began))
    return statistics.median(times)


def per_layer(ops, seconds: float, spans, workload: str) -> tuple[dict[str, float], Phase]:
    plain = run_ops(ops, seconds / 2)
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        traced = run_ops(ops, seconds / 2, tracer)
    finally:
        patches.restore()
    metrics = spans.layer_metrics(tracer, len(traced.latencies))
    metrics["trace.op_ms"] = 1000.0 * statistics.mean(traced.latencies)
    metrics["trace.overhead_frac"] = plain.rate() / traced.rate() - 1.0 if traced.rate() else 0.0
    imports = tracer.samples.get("cli.import_ms")
    metrics["cli.import_ms"] = statistics.median(imports) if imports else 0.0
    metrics["cli.python_start_ms"] = python_start_ms() if workload == "cli-oneshot" else 0.0
    merged = Phase(plain.latencies + traced.latencies, plain.verified + traced.verified,
                   plain.failures + traced.failures)
    return metrics, merged


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "latspace", "__init__.py")):
        print("perfbench: src/latspace not found; run from the root of a latspace checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import numpy

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    setup = workloads.WORKLOADS[args.workload]
    work = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work)
    try:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            began = time.perf_counter()
            ops = setup(args.seed, work)
            setup_times.append(time.perf_counter() - began)
        gc.collect()  # earlier set-ups' garbage is not collected inside the timed loop
        if args.trace:
            metrics, phase = per_layer(ops, args.seconds, spans, args.workload)
        else:
            phase = run_ops(ops, args.seconds)
            metrics = end_to_end(phase, setup_times, args.workload in workloads.IN_CHILDREN)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    attempted, failed = len(phase.latencies), len(phase.failures)
    p90 = statistics.quantiles(phase.latencies, n=10)[8] if attempted > 1 else 0.0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "operations": attempted,
        "distinct_operations": len(ops),
        "beyond_p90": sum(t > p90 for t in phase.latencies),
        "failed_frac": failed / attempted,
        "setup_runs_s": setup_times,
        "failures": phase.failures[:5],
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
