"""entbump benchmark: checked instances through the package's public entry points.

    python3 perfbench/run.py --workload replay --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table each
    python3 perfbench/run.py --smoke               # seconds; checks metric names
    python3 perfbench/run.py --pin                 # rewrite the reference reports

Run from anywhere; the checkout is the parent of this directory, and the
package is imported from its ``src`` tree. Each workload runs in a fresh
worker process (worker.py) with numpy/BLAS threads pinned to 1. With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics. The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full records (samples, work counts, machine information) and span files go
to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("replay", "fs", "ladder", "orlicz")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_LAUNCHES = 12
RUN_BUDGET_S = 165.0  # a run must end within 180 s
# Calls pinned per workload: more than a default-seed run makes here.
PIN_CALLS = {"replay": 900, "fs": 900, "ladder": 400, "orlicz": 200}
# End-to-end figures printed in the summary and kept in the record file, but
# not declared in BENCHMARK.json, so no bound gates them. On a shared host
# whose speed switches between two levels about 1.6x apart for seconds to
# minutes at a time, a run's median call and its rate follow the share of the
# run spent at each level; over ten seeds their spread reached 0.25-0.52 of
# the median, past the largest bound allowed (0.25). The 90th percentile
# stays at the slow level whenever that level covers a tenth of the run.
SUMMARY_ONLY = {"instances_per_s": "1/s", "call_ms_p50": "ms"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    return env


def declared() -> dict:
    """BENCHMARK.json metrics: {"end_to_end" | "per_layer": {name: unit}}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def setup_times(env: dict, launches: int) -> list:
    """Wall times of fresh ``python -m entbump --version`` launches, the
    import floor every CLI command pays."""
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "entbump", "--version"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or not proc.stdout.startswith("entbump "):
            raise BenchError(f"entbump --version failed: {proc.returncode} {proc.stderr.strip()}")
    return times


def run_worker(env: dict, args: list, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
        info["cache_bytes"] = {
            key: int(value) for key, value in (ln.split() for ln in conf.splitlines() if len(ln.split()) == 2)
            if key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE") and value.isdigit()
        }
    except (OSError, subprocess.SubprocessError):
        info["cache_bytes"] = {}
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                              capture_output=True, text=True, timeout=10)
        info["commit"] = proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        info["commit"] = "unknown (git not available)"
    return info


def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    started = time.perf_counter()
    env = child_env()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    common += ["--smoke"] if smoke else []

    def worker(mode: str, *extra: str) -> dict:
        return run_worker(env, ["--mode", mode, *common, *extra],
                          RUN_BUDGET_S - (time.perf_counter() - started))

    metrics = {}
    if trace:
        # Work counts from two cold processes must repeat exactly.
        first, second = worker("count"), worker("count")
        result = worker("trace", "--trace-path", str(OUT_DIR / f"spans-{stem}.jsonl.gz"))
        counts, again = first["work_counts"], second["work_counts"]
        differ = sorted(k for k in counts.keys() | again.keys() if counts.get(k) != again.get(k))
        if differ:
            result["failures"].append(f"work counters differ between two cold runs: {differ[:5]}")
        metrics.update(first["metrics"])
        result["attempted"] += first["attempted"] + second["attempted"]
        result["failures"] += first["failures"] + second["failures"]
        result["work_counts"] = counts
        result["samples"]["counted_calls"] = first["samples"]["counted_calls"]
    else:
        # Half the launches before the worker and half after, so that the
        # median samples the machine at two moments of the run.
        launches = 1 if smoke else SETUP_LAUNCHES // 2
        times = setup_times(env, launches)
        result = worker("run")
        times += setup_times(env, launches)
        metrics["setup_s"] = statistics.median(times)
        result["samples"]["setup_launches"] = len(times)
    metrics.update(result.pop("metrics"))
    result["summary_only"] = {name: metrics.pop(name) for name in SUMMARY_ONLY if name in metrics}
    result["failed"] = len(result["failures"])
    result["machine"].update(machine())

    units = declared()["per_layer" if trace else "end_to_end"]
    if set(metrics) != set(units):
        raise BenchError(f"metric names differ from BENCHMARK.json: "
                         f"undeclared {sorted(set(metrics) - set(units))}, "
                         f"missing {sorted(set(units) - set(metrics))}")
    record = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps({**record, **result}, indent=1) + "\n")
    print_summary(workload, seed, trace, record, result)
    return record


def print_summary(workload: str, seed: int, trace: int, record: dict, result: dict) -> None:
    samples = result["samples"]
    print(f"workload {workload}  n={result['resolution']}  seed {seed}  trace {trace}  "
          f"closed loop, 1 client, 1 process")
    for name, m in record["metrics"].items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    for name, value in result["summary_only"].items():
        print(f"  {name:<36} {value:>14.6g} {SUMMARY_ONLY[name]}  (not gated)")
    if trace:
        print(f"  calls: {samples['untraced_calls']} untraced, {samples['traced_calls']} traced, "
              f"{samples['counted_calls']} counted in each of two cold processes; "
              f"{samples['spans']} spans in {samples['trace_file']}")
        print("  computed.boundary_array_mb is computed from array sizes at layer boundaries, "
              "not measured; no bandwidth figure is claimed")
    else:
        print(f"  samples: {samples['calls']} timed calls ({samples['passed']} passed, "
              f"{samples['latencies']} latencies) in {samples['wall_s']:.2f} s after 1 warm-up call; "
              f"setup_s is the median of {samples['setup_launches']} launches")
    print(f"  fail_ratio {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']} checked calls failed; "
          f"{result['referenced_calls']} calls have pinned references)")
    for failure in result["failures"][:5]:
        print(f"  FAILED {failure}")
    m = result["machine"]
    print(f"  machine: nproc {m['nproc']}, cpu {m['cpu']}, caches {m['cache_bytes']}, "
          f"python {m['python']}, numpy {m['numpy']}, commit {m['commit']}")


def smoke() -> int:
    """Every workload and the traced run at a tiny size; metric names must
    match BENCHMARK.json (run_one raises otherwise)."""
    ok = True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            record = run_one(workload, 0, 0.0, trace, smoke=True)
            ok = ok and record["correct"]
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def pin() -> int:
    env = child_env()
    for workload, calls in PIN_CALLS.items():
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", "pin", "--workload", workload,
               "--calls", str(calls)]
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload, both modes")
    parser.add_argument("--pin", action="store_true", help="rewrite the default-seed reference reports")
    args = parser.parse_args()

    if not (ROOT / "src" / "entbump" / "__init__.py").is_file():
        print(f"error: no entbump source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or (args.seconds is not None and not args.seconds > 0):
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.pin:
            return pin()
        seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        for workload in names:
            record = run_one(workload, args.seed, seconds, args.trace)
            print(json.dumps(record), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
