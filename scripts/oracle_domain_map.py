#!/usr/bin/env python3
"""Where does the Berry-phase oracle hold? A map over C, beta and n.

    python scripts/oracle_domain_map.py [--duration half|full] [--tol 1e-7]

For C at nine log-spaced values from 1e-3 to 1e3, beta in {0, 0.8, 1.4} and
n in {0, 8, 32, 64} (108 cells), runs the single-state oracle
``berry_phase_oracle`` and compares it with the closed form ``berry_phase``.
A cell passes when they agree within the tolerance; an exception is a miss.
Prints one line per (C, beta) with each n's deviation or error type, then the
pass count.
"""

import argparse
import time

import numpy as np

from shoberry import QuantumState, Representation, berry_phase, berry_phase_oracle

C_VALUES = np.logspace(-3.0, 3.0, 9)
BETAS = (0.0, 0.8, 1.4)
NS = (0, 8, 32, 64)


def cell(rep: Representation, n: int, duration: str, tol: float):
    """(passed, text) for one cell."""
    state = QuantumState(rep, n)
    periods = 0.5 if duration == "half" else 1.0
    try:
        oracle = berry_phase_oracle(state, periods * rep.tau0)
    except Exception as exc:   # every failure is a miss, typed or not
        return False, type(exc).__name__
    deviation = abs(oracle - berry_phase(rep, n, duration).gamma)
    return deviation < tol, f"{deviation:.1e}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", choices=("half", "full"), default="half")
    parser.add_argument("--tol", type=float, default=1e-7)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    passed = total = 0
    print(f"{'C':>9} {'beta':>5}  " + "  ".join(f"{'n=' + str(n):>22}" for n in NS))
    for C in C_VALUES:
        for beta in BETAS:
            rep = Representation(1.0, 1.0, float(C), beta)
            texts = []
            for n in NS:
                ok, text = cell(rep, n, args.duration, args.tol)
                passed += ok
                total += 1
                texts.append(f"{'pass' if ok else 'MISS'} {text:>17}")
            print(f"{C:9.3g} {beta:5.2f}  " + "  ".join(texts))
    print(f"passed {passed}/{total} cells within {args.tol:g}"
          f" ({args.duration} period, {time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
