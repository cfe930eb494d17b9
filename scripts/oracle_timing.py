#!/usr/bin/env python3
"""Layer timings of a full-mode oracle sweep, written to BENCH_oracle.json.

    PYTHONPATH=src python scripts/oracle_timing.py [--out BENCH_oracle.json]

The request is a 25 C x 20 beta sweep for n = 0 over half a period, with
C in [0.25, 4] and |beta| <= 1, so all 500 cells are in full mode and every
one runs the oracle. Each figure is the median over _timing.REPEATS runs of
one in-process call:

- sweep_end_to_end: ``shoberry.cli.main`` on the whole argv (CSV), from
  argument parsing to the report text, written to an in-memory buffer;
- representation_arrays: RepresentationArrays.of on the request's 500
  representations, the arrays every stage reads;
- overlap, branch_tracking, dynamical_quadrature: the three stages of the
  oracle on those arrays, built once outside the timed calls; each call
  gets a fresh error list with no refusals.

layer_s_per_1k_points gives each figure per 1,000 points.

Run on an idle machine; the numbers are only comparable between runs on the
same one.
"""

import numpy as np

from shoberry import phase, wavefunction
from shoberry.representation import (PhysicalConfig, Representation,
                                     RepresentationArrays)

import _timing as timing

C_AXIS, BETA_AXIS = (0.25, 4.0, 25), (-1.0, 1.0, 20)
ARGV = ["sweep", "--sweep", "C:{}:{}:{}".format(*C_AXIS),
        "--sweep", "beta:{}:{}:{}".format(*BETA_AXIS), "--n", "0"]
NS = (0,)


def main(argv=None) -> int:
    out = timing.out_path(__doc__, "BENCH_oracle.json", argv)

    reps = [Representation(1.0, 1.0, C, beta)
            for C in np.linspace(*C_AXIS).tolist()
            for beta in np.linspace(*BETA_AXIS).tolist()]
    tau = 0.5 * reps[0].tau0
    config = PhysicalConfig()

    arrays = RepresentationArrays.of(reps)

    def stage(run):
        # one call of a stage as the oracle makes it: the points' arrays and
        # an error list with no refusals, which a stage may write to
        return lambda: run(arrays, [None] * len(reps))

    layers = {
        "representation_arrays": timing.median_seconds(
            lambda: RepresentationArrays.of(reps)),
        "overlap": timing.median_seconds(stage(lambda arrays, errors: (
            wavefunction._family_overlaps(arrays, NS, 0.0, tau, config, errors)))),
        "branch_tracking": timing.median_seconds(stage(lambda arrays, errors: (
            phase._branch_windings(arrays, NS, tau, errors)))),
        "dynamical_quadrature": timing.median_seconds(stage(lambda arrays, errors: (
            phase._dynamical_phases(arrays, NS, tau, errors)))),
    }
    report = {
        "request": " ".join(ARGV),
        "points": len(reps),
        "repeats": timing.REPEATS,
        "sweep_end_to_end_s": timing.median_seconds(
            timing.cli_call([*ARGV, "--format", "csv"])),
        "layer_s": layers,
        "layer_s_per_1k_points": {name: s * 1000 / len(reps)
                                  for name, s in layers.items()},
    }
    timing.write_report(out, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
