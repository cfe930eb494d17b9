#!/usr/bin/env python3
"""Where does the Berry-phase oracle hold? A map over C, beta and n.

    python scripts/oracle_domain_map.py [--duration half|full] [--tol 1e-7]

For C at nine log-spaced values from 1e-3 to 1e3, beta in {0, 0.8, 1.4} and
n in {0, 8, 32, 64} (108 cells), makes one ``phase.berry_phase_grid`` call,
with a point per cell, and compares each oracle Berry phase with its closed
form. A cell passes when they agree within the tolerance; a refusal is a
miss. Prints one line per (C, beta) with each n's deviation or the type of
its refusal, then the pass count.
"""

import argparse
import time

import numpy as np

from shoberry import PhysicalConfig
from shoberry.phase import berry_phase_grid

C_VALUES = np.logspace(-3.0, 3.0, 9).tolist()
BETAS = (0.0, 0.8, 1.4)
NS = (0, 8, 32, 64)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", choices=("half", "full"), default="half")
    parser.add_argument("--tol", type=float, default=1e-7)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    # one point per cell, in the order (C, beta, n), each with one row
    C_at, beta_at, slots = (axis.ravel() for axis in np.indices(
        (len(C_VALUES), len(BETAS), len(NS))))
    _, _, gamma, _, oracle, _, errors = berry_phase_grid(
        1.0, 1.0, C_VALUES, BETAS, C_at, beta_at, NS, slots[:, None],
        1 if args.duration == "half" else 2, PhysicalConfig())
    deviations = np.abs(oracle - gamma)[:, 0].tolist()
    cells = [(False, type(error).__name__) if error is not None else
             (deviation < args.tol, f"{deviation:.1e}")
             for deviation, error in zip(deviations, errors)]
    seconds = time.perf_counter() - start

    print(f"{'C':>9} {'beta':>5}  " + "  ".join(f"{'n=' + str(n):>22}" for n in NS))
    for row, (C, beta) in enumerate((C, beta) for C in C_VALUES for beta in BETAS):
        print(f"{C:9.3g} {beta:5.2f}  " + "  ".join(
            f"{'pass' if ok else 'MISS'} {text:>17}"
            for ok, text in cells[row * len(NS):(row + 1) * len(NS)]))
    passed = sum(ok for ok, _ in cells)
    print(f"passed {passed}/{len(cells)} cells within {args.tol:g}"
          f" ({args.duration} period, {seconds:.2f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
