"""One benchmark process for one workload, started fresh by run.py.

run.py sets the environment first (numpy/BLAS threads pinned to 1, the
package on PYTHONPATH). The last line of stdout is one JSON object with the
process's counts, metrics and machine information. Modes:

``run``    one warm-up call (checked, not timed), then a closed loop with
           one client for ``--seconds`` and at least MIN_CALLS calls; gives
           the end-to-end metrics. No wrapper is installed.
``trace``  one warm-up call, an untraced loop for half the time, then the
           tracer is installed and a traced loop runs for the other half;
           gives per-layer times and the tracing overhead (traced minus
           untraced instances per second).
``count``  from a cold start, the first cycle of calls (one per input-family
           pairing) with the tracer and the work counters installed; run.py
           starts two of these and requires identical counts.
``pin``    writes the reference reports of the default seed.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import references
import tracer as tracing
from workloads import WORKLOADS

MIN_CALLS = 100  # p90 then has at least ten samples beyond it
HARD_LIMIT_S = 60.0  # a loop stops here even short of MIN_CALLS
SMOKE_CALLS = 4
RATE_CHUNKS = 5


class Loop:
    """Closed loop with one client: call j starts after call j-1 returns."""

    def __init__(self, workload, resolution, seed, refs):
        self.workload = workload
        self.resolution = resolution
        self.seed = seed
        self.refs = refs
        self.run_call = lambda thunk: thunk()  # the tracer swaps in its own
        self.attempted = 0
        self.failures: list = []

    def check(self, j: int) -> tuple:
        """Run call j; returns (latency in seconds or None, failure text or None)."""
        try:
            thunk = self.workload.make(self.resolution, self.seed, j)
            start = time.perf_counter()
            report = self.run_call(thunk)
            latency = time.perf_counter() - start
        except Exception as exc:  # a raising call is a failed call
            return None, f"call {j} raised {type(exc).__name__}: {exc}"
        bad = self.workload.check(report)
        ref = self.refs.get(j)
        if ref is not None:
            bad += references.mismatches(report, ref)
        return latency, (f"call {j}: " + "; ".join(bad[:3])) if bad else None

    def record(self, j: int) -> tuple:
        """Run and check call j; returns (latency or None if it raised, passed)."""
        latency, failure = self.check(j)
        self.attempted += 1
        if failure is not None:
            self.failures.append(failure)
        return latency, failure is None

    def timed(self, seconds: float, min_calls: int, max_calls: int | None = None) -> dict:
        """Latencies of every call that returned, and the rate of passing calls."""
        latencies = []
        ends = []  # (seconds since start when call j ended, call j passed)
        j = 0
        start = time.perf_counter()
        while True:
            latency, ok = self.record(j)
            if latency is not None:
                latencies.append(latency)
            j += 1
            wall = time.perf_counter() - start
            ends.append((wall, ok))
            if j == max_calls or wall >= HARD_LIMIT_S:
                break
            if max_calls is None and wall >= seconds and j >= min_calls:
                break
        return {"calls": j, "passed": sum(ok for _, ok in ends), "wall_s": wall,
                "latencies": latencies, "rate": chunked_rate(ends)}


def chunked_rate(ends: list) -> float:
    """Passing calls per second: the median over RATE_CHUNKS consecutive
    chunks of equal call count, so that a few seconds of a slowed machine
    move one chunk rather than the whole figure."""
    chunks = min(RATE_CHUNKS, len(ends))
    bounds = [round(k * len(ends) / chunks) for k in range(chunks + 1)]
    rates = []
    for lo, hi in zip(bounds, bounds[1:]):
        begin = ends[lo - 1][0] if lo else 0.0
        rates.append(sum(ok for _, ok in ends[lo:hi]) / (ends[hi - 1][0] - begin))
    return statistics.median(rates)


def run_mode(loop: Loop, seconds: float, calls: int | None) -> dict:
    loop.record(0)  # warm-up, not timed
    run = loop.timed(seconds, MIN_CALLS, calls)
    lat_ms = [x * 1e3 for x in run["latencies"]]
    if len(lat_ms) < 2:
        raise RuntimeError("fewer than two calls returned, no latency percentiles")
    metrics = {
        "instances_per_s": run["rate"],
        "call_ms_p50": statistics.median(lat_ms),
        "call_ms_p90": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"calls": run["calls"], "passed": run["passed"], "latencies": len(lat_ms),
               "wall_s": run["wall_s"]}
    return {"metrics": metrics, "samples": samples}


def trace_mode(loop: Loop, seconds: float, calls: int | None, trace_path: Path) -> dict:
    cycle = loop.workload.cycle
    loop.record(0)  # warm-up, not timed
    untraced = loop.timed(seconds / 2.0, cycle, calls)
    tr = tracing.Tracer()
    tr.install()
    loop.run_call = tr.call
    traced = loop.timed(seconds / 2.0, cycle, calls)
    tr.uninstall()
    tr.write(trace_path)

    metrics = tracing.time_metrics(tr.spans, traced["calls"])
    metrics["trace.untraced_instances_per_s"] = untraced["rate"]
    metrics["trace.instances_per_s"] = traced["rate"]
    metrics["trace.overhead_instances_per_s"] = (
        metrics["trace.instances_per_s"] - metrics["trace.untraced_instances_per_s"]
    )
    samples = {"untraced_calls": untraced["calls"], "traced_calls": traced["calls"],
               "spans": len(tr.spans), "trace_file": str(trace_path)}
    return {"metrics": metrics, "samples": samples}


def count_mode(loop: Loop, calls: int) -> dict:
    tr = tracing.Tracer()
    tr.install(counting=True)
    loop.run_call = tr.call
    for j in range(calls):
        loop.record(j)
    tr.uninstall()
    counts = tr.work_counts()
    return {"metrics": tracing.count_metrics(counts, calls), "work_counts": counts,
            "samples": {"counted_calls": calls}}


def pin(workload, resolution: int, calls: int) -> None:
    reports = [workload.make(resolution, references.DEFAULT_SEED, j)() for j in range(calls)]
    bad = [(j, failed) for j, failed in enumerate(map(workload.check, reports)) if failed]
    if bad:
        raise SystemExit(f"{workload.name}: failing reports, not pinned: {bad[:3]}")
    references.save(workload.name, resolution, reports)
    print(f"pinned {calls} calls of {workload.name} at n={resolution}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--mode", required=True, choices=("run", "trace", "count", "pin"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=references.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-path", type=Path, help="span file written in trace mode")
    parser.add_argument("--smoke", action="store_true", help="tiny grid, few calls")
    parser.add_argument("--calls", type=int, default=0, help="calls to pin (pin mode)")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    resolution = workload.smoke_resolution if args.smoke else workload.resolution
    if args.mode == "pin":
        pin(workload, resolution, args.calls)
        return 0
    refs = references.load(workload.name, resolution) if args.seed == references.DEFAULT_SEED else {}
    loop = Loop(workload, resolution, args.seed, refs)
    calls = SMOKE_CALLS if args.smoke else None
    try:
        if args.mode == "run":
            out = run_mode(loop, args.seconds, calls)
        elif args.mode == "trace":
            out = trace_mode(loop, args.seconds, calls, args.trace_path)
        else:
            out = count_mode(loop, calls or workload.cycle)
    except Exception:
        traceback.print_exc()
        return 1
    out.update({
        "resolution": resolution,
        "referenced_calls": len(refs),
        "attempted": loop.attempted,
        "failures": loop.failures,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "platform": platform.platform()},
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
