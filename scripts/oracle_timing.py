#!/usr/bin/env python3
"""Layer timings of a full-mode oracle sweep, written to BENCH_oracle.json.

    PYTHONPATH=src python scripts/oracle_timing.py [--out BENCH_oracle.json]

The request is a 25 C x 20 beta sweep for n = 0 over half a period, with
C in [0.25, 4] and |beta| <= 1, so all 500 cells are in full mode and every
one runs the oracle. Each figure is the median over REPEATS runs of one
in-process call:

- sweep_end_to_end: ``shoberry.cli.main`` on the whole argv (CSV), from
  argument parsing to the report text, written to an in-memory buffer;
- overlap, branch_tracking, dynamical_quadrature: the three layers of the
  oracle on the request's 500 representations, also given per 1,000 points.

Run on an idle machine; the numbers are only comparable between runs on the
same one.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from shoberry import cli, phase, wavefunction
from shoberry.numerics import DEFAULT_QUADRATURE
from shoberry.representation import PhysicalConfig, Representation

REPEATS = 15
C_AXIS, BETA_AXIS = (0.25, 4.0, 25), (-1.0, 1.0, 20)
ARGV = ["sweep", "--sweep", "C:{}:{}:{}".format(*C_AXIS),
        "--sweep", "beta:{}:{}:{}".format(*BETA_AXIS), "--n", "0"]
NS = (0,)


def _median_seconds(call) -> float:
    call()   # warm-up: caches and lazy imports
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _end_to_end():
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main([*ARGV, "--format", "csv"]) != 0:
            raise RuntimeError("the sweep failed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("BENCH_oracle.json"))
    args = parser.parse_args()

    reps = [Representation(1.0, 1.0, C, beta)
            for C in np.linspace(*C_AXIS).tolist()
            for beta in np.linspace(*BETA_AXIS).tolist()]
    tau = 0.5 * reps[0].tau0
    config, spec = PhysicalConfig(), DEFAULT_QUADRATURE
    layers = {
        "overlap": _median_seconds(lambda: wavefunction._family_overlaps(
            reps, NS, 0.0, tau, config, spec)),
        "branch_tracking": _median_seconds(
            lambda: phase._branch_windings(reps, NS, tau)),
        "dynamical_quadrature": _median_seconds(
            lambda: phase._dynamical_phases(reps, NS, tau, spec)),
    }
    report = {
        "request": " ".join(ARGV),
        "points": len(reps),
        "repeats": REPEATS,
        "sweep_end_to_end_s": _median_seconds(_end_to_end),
        "layer_s": layers,
        "layer_s_per_1k_points": {name: s * 1000 / len(reps)
                                  for name, s in layers.items()},
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "machine": platform.machine(), "nproc": len(os.sched_getaffinity(0))},
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
