"""Harness shared by the timing scripts (oracle_timing.py, report_timing.py).

Each script times in-process calls with ``median_seconds``, drives the whole
CLI with ``cli_call`` and writes its figures with ``write_report``, which adds
the machine description and prints the same JSON it writes.
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


def median_seconds(call) -> float:
    """Median wall time of REPEATS calls of ``call``, after one warm-up call."""
    call()   # warm-up: caches and lazy imports
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cli_call(argv):
    """A call of ``shoberry.cli.main`` on ``argv`` that writes its report to
    an in-memory buffer and raises when the command fails."""
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"shoberry {' '.join(argv)} failed")
    return call


def out_path(doc: str, default: str, argv=None) -> Path:
    """The ``--out`` path of a timing script's command line."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path(default))
    return parser.parse_args(argv).out


def write_report(path: Path, report: dict) -> None:
    """Write ``report`` with an ``env`` block to ``path`` as JSON, and print it."""
    report["env"] = {"python": platform.python_version(), "numpy": np.__version__,
                     "machine": platform.machine(),
                     "nproc": len(os.sched_getaffinity(0))}
    text = json.dumps(report, indent=2)
    path.write_text(text + "\n", encoding="utf-8")
    print(text)
