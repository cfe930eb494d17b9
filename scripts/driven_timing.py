#!/usr/bin/env python3
"""Layer timings of a driven sweep and propagation, written to BENCH_driven.json.

    PYTHONPATH=src python scripts/driven_timing.py [--out BENCH_driven.json]

The request has the shape of one sweep of the benchmark's driven_propagation
workload: a force of 18 harmonics (36 Fourier modes) at omega_f = 3 w (p/N = 3/1),
a 4 D_re x 4 D_im sweep of the homogeneous amplitude D at n = 1, and one
split-operator propagation of psi_driven on 1024 points over 512 steps. Each
figure is the median over _timing.REPEATS runs of one in-process call:

- sweep_end_to_end: ``shoberry.cli.main`` on the whole argv (CSV), from
  argument parsing to the report text, written to an in-memory buffer;
- driven_sweep: the same for SWEEP_ARGV, a 20 C x 20 beta x 5 D_re x 5 D_im
  sweep (10,000 rows) of a two-mode force at omega_f = 3 w, where every
  (C, beta) cell shares the drive terms of the 25 D;
- drive_quadrature_per_point, drive_quadrature_batched: the blind drive
  quadrature of the sweep's 16 points, one drive_phase_quadrature call per
  point against one drive_phase_quadratures call for all of them;
- drive_phase_closed, particular_solution: one call at one point;
- propagation: propagate_schrodinger from psi_driven at t = 0 over N tau0;
- propagation_free: the same propagation without the force, which times
  the propagator's force-free branch on the same grid and steps;
- fft_pair: one forward and one inverse transform of POINTS values by the
  pocketfft kernels a propagator step calls, the median of STEPS pairs
  divided by STEPS.

propagation_ns_per_point_step and propagation_free_ns_per_point_step divide
the two propagation figures by POINTS * STEPS: the propagator's cost per step
and grid point. fft_pair_ns_per_point divides fft_pair by POINTS, the floor
under both: a step's cost above its transforms is the difference.

Run on an idle machine; the numbers are only comparable between runs on the
same one.
"""

import math

import numpy as np

from shoberry import driven, numerics
from shoberry.representation import Representation
from shoberry.wavefunction import QuantumState, grid_halfwidth

import _timing as timing

HARMONICS = 18
OMEGA_F = 3.0
D_AXIS = (-0.2, 0.2, 4)
N = 1
POINTS, STEPS = 1024, 512
COEFFS = {k: complex(round(0.15 * 0.8 ** k * math.cos(k), 6),
                     round(0.15 * 0.8 ** k * math.sin(k), 6))
          for k in range(1, HARMONICS + 1)}
ARGV = ["sweep", "--C", "1.3", "--beta", "0.2", "--n", str(N),
        "--omega-f", repr(OMEGA_F),
        *(arg for k, f in COEFFS.items()
          for arg in ("--force-coeff", f"{k}:{f.real!r}:{f.imag!r}")),
        "--sweep", "D_re:{}:{}:{}".format(*D_AXIS),
        "--sweep", "D_im:{}:{}:{}".format(*D_AXIS)]
SWEEP_ARGV = ["sweep", "--omega-f", "3", "--force-coeff", "1:0.3:0",
              "--force-coeff", "2:0.1:0.05", "--sweep", "C:0.5:3:20",
              "--sweep", "beta:-1:1:20", "--sweep", "D_re:-0.3:0.3:5",
              "--sweep", "D_im:-0.3:0.3:5", "--format", "csv"]


def main(argv=None) -> int:
    out = timing.out_path(__doc__, "BENCH_driven.json", argv)

    rep = Representation(1.0, 1.0, 1.3, 0.2)
    force = driven.DrivingForce(OMEGA_F, {**COEFFS, **{-k: f.conjugate()
                                                       for k, f in COEFFS.items()}})
    comm = driven.commensurability(rep.tau0, force.tau_f)
    duration = comm.N * rep.tau0
    Ds = [complex(re, im) for re in np.linspace(*D_AXIS).tolist()
          for im in np.linspace(*D_AXIS).tolist()]
    xps = [driven.particular_solution(force, rep, comm, D) for D in Ds]

    state = QuantumState(rep, N)
    excursion = sum(abs(f) for f in xps[0].modes.values()) + 2 * abs(Ds[0])
    half = 1.1 * grid_halfwidth(state) + excursion
    xs = np.linspace(-half, half, POINTS, endpoint=False)
    start = numerics.GridState(-half, half, POINTS,
                               driven.psi_driven(state, xps[0], xs, 0.0), 0.0)

    fft, ifft = numerics._fft_kernels()
    transformed = np.empty_like(start.values)

    def fft_pairs():
        # the forward transform reads the fixed state, so the unscaled pair
        # does not grow the values from one pair to the next
        for _ in range(STEPS):
            ifft(fft(start.values, 1.0, out=transformed), 1.0, out=transformed)

    layers = {
        "driven_sweep": timing.median_seconds(timing.cli_call(SWEEP_ARGV)),
        "drive_quadrature_per_point": timing.median_seconds(lambda: [
            driven.drive_phase_quadrature(xp, rep.M, 1.0, duration) for xp in xps]),
        "drive_quadrature_batched": timing.median_seconds(
            lambda: driven.drive_phase_quadratures(xps, rep.M, 1.0, duration)),
        "drive_phase_closed": timing.median_seconds(
            lambda: driven.drive_phase_closed(force, comm, rep.M, rep.w, 1.0, Ds[0])),
        "particular_solution": timing.median_seconds(
            lambda: driven.particular_solution(force, rep, comm, Ds[0])),
        "propagation": timing.median_seconds(
            lambda: numerics.propagate_schrodinger(start, rep.M, rep.w, duration,
                                                   STEPS, force=force)),
        "propagation_free": timing.median_seconds(
            lambda: numerics.propagate_schrodinger(start, rep.M, rep.w, duration,
                                                   STEPS)),
        "fft_pair": timing.median_seconds(fft_pairs) / STEPS,
    }
    report = {
        "request": " ".join(ARGV),
        "points": len(Ds),
        "modes": len(force.coefficients),
        "repeats": timing.REPEATS,
        "sweep_end_to_end_s": timing.median_seconds(
            timing.cli_call([*ARGV, "--format", "csv"])),
        "layer_s": layers,
        "propagation_ns_per_point_step":
            layers["propagation"] / (POINTS * STEPS) * 1e9,
        "propagation_free_ns_per_point_step":
            layers["propagation_free"] / (POINTS * STEPS) * 1e9,
        "fft_pair_ns_per_point": layers["fft_pair"] / POINTS * 1e9,
    }
    timing.write_report(out, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
