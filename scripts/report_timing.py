#!/usr/bin/env python3
"""Layer timings of a formula-only report, written to BENCH_report.json.

    PYTHONPATH=src python scripts/report_timing.py [--out BENCH_report.json]

The request has the shape of the benchmark's closed_forms sweep: 20 C x 15
beta x 17 n = 5,100 points with C < 0, so no oracle runs. Each figure is the
median over REPEATS runs of one in-process call:

- grid: the sweep's column table (closed forms, refusals, axis columns);
- json_render, csv_render: that table rendered as a report;
- sweep_end_to_end: ``shoberry.cli.main`` on the whole argv (JSON), from
  argument parsing to the report text, written to an in-memory buffer.

The layers are also given per 1,000 rows. Run on an idle machine; the
numbers are only comparable between runs on the same one.
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

from shoberry import cli

REPEATS = 15
ARGV = ["sweep", "--sweep", "C:-6.0:-0.2:20", "--sweep", "beta:-1.3:1.3:15",
        "--sweep", "n:0:64:17"]


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
        if cli.main([*ARGV, "--format", "json"]) != 0:
            raise RuntimeError("the sweep failed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("BENCH_report.json"))
    args = parser.parse_args()

    cfg = cli._load_config(cli._build_parser().parse_args(ARGV))

    def grid():
        return cli._sweep_table(cfg.sweep, *cli._berry_grid(cfg, cfg.sweep))

    table = grid()
    rows = len(table["error"])
    layers = {
        "grid": _median_seconds(grid),
        "json_render": _median_seconds(lambda: cli._render_json("sweep", table)),
        "csv_render": _median_seconds(lambda: cli._render_csv(table)),
    }
    report = {
        "request": " ".join(ARGV),
        "rows": rows,
        "repeats": REPEATS,
        "layer_s": layers,
        "layer_s_per_1k_rows": {name: s * 1000 / rows for name, s in layers.items()},
        "sweep_end_to_end_s": _median_seconds(_end_to_end),
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "machine": platform.machine(), "nproc": len(os.sched_getaffinity(0))},
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
