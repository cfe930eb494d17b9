#!/usr/bin/env python3
"""Layer timings of a formula-only report, written to BENCH_report.json.

    PYTHONPATH=src python scripts/report_timing.py [--out BENCH_report.json]

The request has the shape of the benchmark's closed_forms sweep: 20 C x 15
beta x 17 n = 5,100 points with C < 0, so no oracle runs. Each figure is the
median over _timing.REPEATS runs of one in-process call:

- grid: the sweep's column table (closed forms, refusals, axis columns);
- json_render, csv_render: that table rendered as a report, every piece
  made and dropped, as a sink that writes each piece on would see them;
- trajectory_csv_render: the table of TRAJECTORY_ARGV (8,192 samples, the
  size of the benchmark's closed_forms CSV dump) rendered as CSV;
- sweep_end_to_end: ``shoberry.cli.main`` on the whole argv (JSON), from
  argument parsing to the report text, written to an in-memory buffer.

The layers are also given per 1,000 rows of their table. json_render_peak_mb
is the tracemalloc peak, in MiB, of one json_render: the most memory the
render holds at once, the table itself not counted. Run on an idle machine;
the numbers are only comparable between runs on the same one.
"""

import collections
import tracemalloc

import numpy as np

from shoberry import cli
from shoberry.representation import kinematics

import _timing as timing

ARGV = ["sweep", "--sweep", "C:-6.0:-0.2:20", "--sweep", "beta:-1.3:1.3:15",
        "--sweep", "n:0:64:17"]
TRAJECTORY_ARGV = ["trajectory", "--C", "-3.0", "--beta", "0.7", "--samples", "8192"]


def main(argv=None) -> int:
    out = timing.out_path(__doc__, "BENCH_report.json", argv)

    cfg = cli._load_config(cli._build_parser().parse_args(ARGV))

    def grid():
        return cli._sweep_table(cfg.sweep, *cli._berry_grid(cfg, cfg.sweep))

    table = grid()
    rows = len(table["gamma"])
    traj = cli._load_config(cli._build_parser().parse_args(TRAJECTORY_ARGV))
    ts = np.linspace(0.0, traj.rep.tau0, traj.samples)
    u, v, _, _, r, _ = kinematics(traj.rep, ts)
    trajectory = {"t": ts, "u": u, "v": v, "rho": r}
    table_rows = {"grid": rows, "json_render": rows, "csv_render": rows,
                  "trajectory_csv_render": traj.samples}

    def drain(pieces) -> None:
        collections.deque(pieces, maxlen=0)

    layers = {
        "grid": timing.median_seconds(grid),
        "json_render": timing.median_seconds(
            lambda: drain(cli._render_json("sweep", table))),
        "csv_render": timing.median_seconds(lambda: drain(cli._render_csv(table))),
        "trajectory_csv_render": timing.median_seconds(
            lambda: drain(cli._render_csv(trajectory))),
    }
    tracemalloc.start()
    drain(cli._render_json("sweep", table))
    json_render_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    report = {
        "request": " ".join(ARGV),
        "rows": rows,
        "repeats": timing.REPEATS,
        "layer_s": layers,
        "layer_s_per_1k_rows": {name: s * 1000 / table_rows[name]
                                for name, s in layers.items()},
        "sweep_end_to_end_s": timing.median_seconds(
            timing.cli_call([*ARGV, "--format", "json"])),
        "json_render_peak_mb": json_render_peak / 2 ** 20,
    }
    timing.write_report(out, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
