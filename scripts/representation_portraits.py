#!/usr/bin/env python3
"""Dump representation-space portraits: the closed (u, v) curves of several
representations together with their Berry phases.

Writes one CSV per representation plus a summary table, ready for external
plotting.

    python scripts/representation_portraits.py --outdir portraits
"""

import argparse
import math
from pathlib import Path

import numpy as np

from shoberry import Representation, berry_phase
from shoberry.representation import rho, trajectory

PORTRAITS = [
    ("circle", Representation(1.0, 1.0, 1.0, 0.0)),
    ("tall_ellipse", Representation(1.0, 1.0, 2.0, 0.0)),
    ("flat_ellipse", Representation(1.0, 1.0, 0.5, 0.0)),
    ("tilted", Representation(1.0, 1.0, 1.5, math.pi / 6)),
    ("tilted_wide", Representation(1.0, 1.0, 3.0, -math.pi / 3)),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="portraits")
    parser.add_argument("--samples", type=int, default=721)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    summary = ["name,C,beta,gamma_half,gamma_full"]
    for name, rep in PORTRAITS:
        points = trajectory(rep, args.samples)
        ts = np.linspace(0.0, rep.tau0, args.samples)
        radii = rho(rep, ts)
        lines = ["t,u,v,rho"]
        for t, (u, v), r in zip(ts, points, radii):
            lines.append(f"{t:.17g},{u:.17g},{v:.17g},{r:.17g}")
        (outdir / f"{name}.csv").write_text("\n".join(lines) + "\n",
                                            encoding="utf-8")
        half = berry_phase(rep, 0, "half").gamma
        full = berry_phase(rep, 0, "full").gamma
        summary.append(f"{name},{rep.C:.17g},{rep.beta:.17g},"
                       f"{half:.17g},{full:.17g}")
        print(f"{name:>14}: C={rep.C:g} beta={rep.beta:+.4f}"
              f"  gamma(half)={half:+.6f}  gamma(full)={full:+.6f}")
    (outdir / "summary.csv").write_text("\n".join(summary) + "\n",
                                        encoding="utf-8")
    print(f"wrote {len(PORTRAITS)} portraits to {outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
