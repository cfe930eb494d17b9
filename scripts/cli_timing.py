#!/usr/bin/env python3
"""Cold-start wall times of the CLI, written to BENCH_cli.json.

    PYTHONPATH=src python scripts/cli_timing.py [--out BENCH_cli.json]

Each figure is the median over _timing.REPEATS launches of a fresh
interpreter, after one warm-up launch, from process start to exit:

- import: ``import shoberry.cli``, the floor under every command;
- berry: the berry command at its defaults;
- sweep: oracle_timing.py's 500-cell full-mode sweep (25 C x 20 beta,
  n = 0, half a period) as CSV;
- validate: the whole self-validation battery.

Reports go to the null device. The tier-1 suite's wall time is not timed:
the suite runs this script, so it would time itself. Run on an idle
machine; the numbers are only comparable between runs on the same one.
"""

import os
import subprocess
import sys
from pathlib import Path

import shoberry

import _timing as timing
import oracle_timing

# the launched interpreters import the package this script imports
SRC = str(Path(shoberry.__file__).resolve().parents[1])
LAUNCHES = {
    "import": ["-c", "import shoberry.cli"],
    "berry": ["-m", "shoberry", "berry"],
    "sweep": ["-m", "shoberry", *oracle_timing.ARGV, "--format", "csv"],
    "validate": ["-m", "shoberry", "validate"],
}


def launch(args):
    """A call that runs a fresh interpreter on ``args`` and raises when it
    exits nonzero."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    return lambda: subprocess.run([sys.executable, *args], env=env,
                                  stdout=subprocess.DEVNULL, check=True)


def main(argv=None) -> int:
    out = timing.out_path(__doc__, "BENCH_cli.json", argv)
    report = {
        "repeats": timing.REPEATS,
        "launch_s": {name: timing.median_seconds(launch(args))
                     for name, args in LAUNCHES.items()},
    }
    timing.write_report(out, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
