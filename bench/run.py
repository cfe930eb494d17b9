"""Benchmark of the shoberry CLI and library, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: oracle_sweep, closed_forms, driven_propagation (see
BENCHMARK.json for why each was chosen). From the repository root it times
cold starts (``setup_s``) by launching fresh interpreters, then runs the
workload in one fresh worker process with BLAS threads pinned to 1, reads
its pass times back, and validates the reference pass it dumped. With
``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced run. The lines before it give
the seed, the input summary, the environment and the gate counts. The exit
code is 0 only when every output check held.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_LAUNCHES = 5
TAIL_BEYOND = 10   # samples the tail percentile must leave above it
DEADLINE_S = 170   # every run ends well inside the 180 s allowed


def _declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _environment() -> dict:
    """What the numbers were measured on; the worker runs this interpreter."""
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "threads": THREAD_PINS, "machine": platform.machine()}


def _worker_cmd(args, *extra) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), *extra]


def _setup_seconds(args, env) -> float:
    """Launch to ``ready``: interpreter start, ``import shoberry.cli`` and
    input generation, in a fresh process each time."""
    start = time.perf_counter()
    launch = subprocess.Popen(_worker_cmd(args, "--setup-only"), cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True)
    try:
        line = launch.stdout.readline()
        elapsed = time.perf_counter() - start
        launch.stdout.close()
        code = launch.wait(timeout=60)
    finally:
        if launch.poll() is None:
            launch.kill()
            launch.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up launch failed with exit code {code}")
    return elapsed


def _tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples above it: the value and
    its percentile rank."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        raise RuntimeError(f"{len(times)} passes leave no tail percentile")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle_sweep", "closed_forms", "driven_propagation"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "shoberry" / "cli.py").is_file():
        print(f"error: no shoberry sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    began = time.perf_counter()
    env = _worker_env()

    setup = [] if args.trace else [_setup_seconds(args, env)
                                   for _ in range(SETUP_LAUNCHES)]
    out_dir = ROOT / ".bench_out"
    worker = subprocess.run(
        _worker_cmd(args, "--seconds", repr(args.seconds), "--trace", str(args.trace),
                    "--out-dir", str(out_dir)),
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(10.0, DEADLINE_S - (time.perf_counter() - began)))
    lines = worker.stdout.strip().splitlines()
    if not lines:
        print(f"error: worker exited {worker.returncode} without a report", file=sys.stderr)
        return 1
    report = json.loads(lines[-1])
    report["env"] = _environment()
    if report["correct"]:
        sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
        from checks import check_reference
        from workloads import CheckError
        try:
            report["rows_attempted"], report["rows_failed"] = check_reference(
                Path(report["reference"]))
        except CheckError as exc:
            report.update(correct=False, failed=1, error=f"CheckError: {exc}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  seconds {args.seconds:g}  client: 1, closed loop")
    print("inputs", json.dumps(report["summary"], sort_keys=True))
    print("env", json.dumps(report["env"], sort_keys=True))
    if report["error"]:
        print("error", report["error"])
    metrics: dict[str, dict] = {}
    if report["correct"]:
        rows, failed = report["rows_attempted"], report["rows_failed"]
        print(f"gates: {failed} of {rows} rows failed"
              f" (gate_fail_frac {failed / rows:.6g})")
        if args.trace:
            values = report["layers"]
        else:
            times = report["pass_times"]
            tail, rank = _tail(times)
            print(f"passes {len(times)} timed after 1 warm-up;"
                  f" job_s_tail is p{rank:.1f} of {len(times)} passes;"
                  f" setup_s is the median of {len(setup)} launches")
            values = {"setup_s": statistics.median(setup),
                      "job_s": statistics.median(times),
                      "job_s_tail": tail,
                      "gate_pass_frac": 1.0 - failed / rows,
                      "peak_rss_mb": report["peak_rss_mb"]}
        units = _declared_units("per_layer" if args.trace else "end_to_end")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
        for name, entry in metrics.items():
            print(f"  {name:42s} {entry['value']:.6g} {entry['unit']}")
    result = {"correct": bool(report["correct"]), "attempted": int(report["attempted"]),
              "failed": int(report["failed"]), "metrics": metrics}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({**report, "setup_times": setup, "result": result}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] and all(
        math.isfinite(m["value"]) for m in metrics.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
