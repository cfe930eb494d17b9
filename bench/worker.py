"""Benchmark worker: one fresh process, one workload, one closed-loop client.

    python3 bench/worker.py --workload NAME --seed N --setup-only
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR

``--setup-only`` imports ``shoberry.cli``, generates the inputs, prints
``ready`` and exits; ``run.py`` times it from launch. Otherwise the worker runs
one warm-up pass, the reference, untimed, and dumps its outputs under
``--out-dir`` for ``run.py`` to validate. It then runs timed passes until
``--seconds`` have passed, holding each to the reference, and prints one JSON
line. With ``--trace 1`` untraced and traced passes alternate, which gives the
per-layer metrics and the tracing overhead; alternating keeps drift in the
host's speed out of the overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import SpanRecorder, layer_metrics, write_spans

MIN_PASSES = 20         # untraced passes: enough for a tail with ten beyond it
MIN_TRACED_PASSES = 5


def _timed_pass(workload, recorder=None):
    """One pass of the closed loop, checked against the reference after its
    time is taken: the time and the outputs."""
    gc.collect()
    start = time.perf_counter()
    outputs = workload.run_pass(recorder)
    elapsed = time.perf_counter() - start
    workload.check(outputs)
    return elapsed, outputs


def _plain_passes(workload, seconds) -> list[float]:
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_PASSES or time.perf_counter() < deadline:
        times.append(_timed_pass(workload)[0])
    return times


def _traced_pairs(workload, seconds):
    """Pairs of an untraced and a traced pass: both pass times, the per-layer
    metrics of each traced pass, and the spans of the last one."""
    plain, traced, layers = [], [], []
    recorder = SpanRecorder()
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        plain.append(_timed_pass(workload)[0])
        recorder.install()
        try:
            elapsed, outputs = _timed_pass(workload, recorder)
        finally:
            recorder.uninstall()
        traced.append(elapsed)
        spans = recorder.take()
        layers.append(layer_metrics(spans))
        layers[-1]["cli.output_bytes"] = workload.output_bytes(outputs)
    return plain, traced, layers, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out-dir", type=Path)
    args = parser.parse_args(argv)
    if not args.setup_only and None in (args.seconds, args.trace, args.out_dir):
        parser.error("--seconds, --trace and --out-dir are required to run passes")

    import shoberry.cli  # noqa: F401  (the import every CLI command pays)
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    result = {"summary": workload.summary,
              "attempted": 0, "failed": 0, "correct": False, "error": None}
    try:
        reference = args.out_dir / f"reference_{args.workload}_seed{args.seed}_trace{args.trace}"
        workload.write_reference(workload.run_pass(), reference)
        result["reference"] = str(reference)
        if args.trace:
            plain, traced, layers, spans = _traced_pairs(workload, args.seconds)
            metrics = {key: statistics.median(one[key] for one in layers)
                       for key in layers[0]}
            metrics["driven.modes"] = workload.modes()
            metrics["trace.overhead_frac"] = statistics.median(
                t / p for p, t in zip(plain, traced)) - 1.0
            spans_path = args.out_dir / f"spans_{args.workload}_seed{args.seed}.csv"
            write_spans(spans_path, spans)
            result.update(pass_times=plain, traced_times=traced, layers=metrics,
                          spans_file=str(spans_path))
        else:
            result["pass_times"] = _plain_passes(workload, args.seconds)
        result["attempted"] = len(result["pass_times"]) + len(result.get("traced_times", []))
        result["correct"] = True
    except Exception as exc:  # the run's verdict: reported, never hidden
        traceback.print_exc(file=sys.stderr)
        result["failed"] = 1
        result["attempted"] = max(1, result["attempted"])
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
