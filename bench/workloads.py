"""Workload inputs and the fixed job of one pass.

A workload draws every input from the seed when it is built; the program sees
only the generated argv lists (run through ``shoberry.cli.main`` in-process)
or the generated objects (passed to names exported by the ``shoberry``
package). Package names are looked up at call time through the module
objects, so the span recorder in ``spans.py`` can rebind them.

One pass issues every request of the job once, in a fixed order, from a single
client. The first pass is the reference: ``Workload.write_reference`` dumps
its outputs with a manifest of the requests, and ``checks.py`` validates them
in the parent process, so the worker's memory holds only the program and the
job. ``Workload.check`` holds every later pass to the reference byte for byte,
which also fixes its row counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math

import numpy as np

import shoberry
import shoberry.cli


class CheckError(Exception):
    """An output that is malformed, inconsistent, or differs between passes."""


def _r(x: float) -> str:
    return repr(float(x))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CliRequest:
    """One in-process ``shoberry.cli.main`` call that must exit 0.

    ``kind`` names the check its rows get in ``checks.py``: "oracle",
    "formula", "trajectory" or "driven". The report holds ``per_point`` rows
    for each of its ``points``, one per quantum number, or a single row with
    ``error`` set where the point raised."""

    def __init__(self, argv: list[str], kind: str, points: int, per_point: int = 1):
        self.argv = argv
        self.kind = kind
        self.points = points
        self.per_point = per_point
        self.pN = None          # (p, N) every driven row must report

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = shoberry.cli.main(self.argv)
        if code != 0:
            raise CheckError(f"exit code {code} for {' '.join(self.argv)}")
        return buf.getvalue()

    def describe(self) -> dict:
        return {"kind": self.kind, "argv": self.argv, "points": self.points,
                "per_point": self.per_point, "pN": self.pN}


class PropagationRequest:
    """Split-operator propagation of an analytic state over N tau0, compared
    at the end with the analytic state. With ``driven`` the state is
    ``psi_driven`` under the force; otherwise the undriven ``psi``, as a
    control on the same grid."""

    kind = "propagation"

    def __init__(self, force, rep, n, D, half, points, steps, driven):
        self.force, self.rep, self.n, self.D = force, rep, n, D
        self.half, self.points, self.steps = half, points, steps
        self.driven = driven

    def run(self):
        sb = shoberry
        rep = self.rep
        comm = sb.commensurability(rep.tau0, self.force.tau_f)
        state = sb.QuantumState(rep, self.n)
        T = comm.N * rep.tau0
        xs = np.linspace(-self.half, self.half, self.points, endpoint=False)
        if self.driven:
            xp = sb.particular_solution(self.force, rep, comm, self.D)
            start, end = (sb.psi_driven(state, xp, xs, t) for t in (0.0, T))
        else:
            start, end = (sb.psi(state, xs, t) for t in (0.0, T))
        grid = (-self.half, self.half, self.points)
        final = sb.propagate_schrodinger(
            sb.GridState(*grid, start, 0.0), rep.M, rep.w, T, self.steps,
            force=self.force if self.driven else None)
        fidelity = abs(sb.GridState(*grid, end, T).overlap(final))
        return (f"fidelity {float(fidelity)!r}\n"
                f"state_sha256 {_digest(final.values.tobytes())}\n")

    def describe(self) -> dict:
        return {"kind": self.kind, "driven": self.driven, "n": self.n,
                "points": self.points, "steps": self.steps}


def _antithetic(u: float, k: int) -> np.ndarray:
    """A k-point lattice on [0, 1] shifted by u, with its mirror image."""
    base = np.arange(k)
    return np.sort(np.concatenate([(base + u) / k, (base + 1.0 - u) / k]))


def _shifted(v: float, k: int) -> np.ndarray:
    """A k-point lattice on [0, 1) shifted by v modulo 1: evenly spaced, so a
    single ``sweep`` axis covers it."""
    return np.sort((v + np.arange(k) / k) % 1.0)


class Workload:
    """Base class: a fixed job plus the digests of its reference pass."""

    name = ""
    index = 0  # separates the random streams of the workloads

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, self.index])
        self.requests: list = []
        self.summary: dict = {}
        self._digests: list[str] | None = None

    def run_pass(self, recorder=None) -> list[str]:
        """Issue every request once; with a recorder, each under a root span."""
        if recorder is None:
            return [req.run() for req in self.requests]
        outputs = []
        for req in self.requests:
            with recorder.request():
                outputs.append(req.run())
        return outputs

    def output_bytes(self, outputs) -> int:
        return sum(len(out.encode()) for req, out in zip(self.requests, outputs)
                   if isinstance(req, CliRequest))

    def write_reference(self, outputs, directory) -> None:
        """Keep the digests of the reference pass and dump its outputs, with
        the manifest of the requests, into ``directory``."""
        self._digests = [_digest(out.encode()) for out in outputs]
        directory.mkdir(parents=True, exist_ok=True)
        for i, out in enumerate(outputs):
            (directory / f"{i:03d}.out").write_text(out, encoding="utf-8", newline="")
        (directory / "requests.json").write_text(
            json.dumps([req.describe() for req in self.requests]), encoding="utf-8")

    def check(self, outputs) -> None:
        """Raise CheckError unless this pass reproduces the reference."""
        for req, old, out in zip(self.requests, self._digests, outputs):
            if _digest(out.encode()) != old:
                raise CheckError("output differs from the reference pass:"
                                 f" {getattr(req, 'argv', req.kind)}")

    def modes(self) -> int:
        """Fourier modes of the job's driving forces."""
        return 0


def _squeezed_share(cells) -> float:
    """Share of (C, beta) cells in the squeezed region |C| > 8 or |beta| > 1.2."""
    return float(sum(abs(c) > 8.0 or abs(b) > 1.2 for c, b in cells) / len(cells))


class OracleSweep(Workload):
    """CSV ``sweep`` tiles in full mode over one (C, beta) lattice shared by
    every n in N_VALUES: every row runs the overlap oracle and the dynamical
    oracle.

    The lattice has one part per region of REGIONS: a log C lattice of
    C_POINTS points shifted by a seed-drawn offset, plus its mirror image,
    times a beta lattice of BETA_POINTS points shifted modulo the range. The
    first region is the whole plane. The second is the squeezed corner of
    large C and beta near 1.4, where the branch tracker is off by 2 pi k on
    about half of its rows for n > 0. Giving the corner a lattice of its own
    puts the same number of cells there for every seed, so the share of
    aliased rows, like the pass time, stays steady while the cells change.
    Each pair of neighbouring C values, with every beta of the region and
    every n, is one ``sweep`` request, so that the oracles, not the CLI, take
    the time."""

    name = "oracle_sweep"
    index = 1
    N_VALUES = (0, 3, 8, 20)
    REGIONS = (  # (C range, beta range, C_POINTS, BETA_POINTS)
        ((0.05, 64.0), (-1.4, 1.4), 3, 8),
        ((16.0, 64.0), (1.0, 1.4), 2, 4),
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        ns = ",".join(str(n) for n in self.N_VALUES)
        cells = []
        for (c_lo, c_hi), (b_lo, b_hi), c_points, b_points in self.REGIONS:
            u, v = self.rng.uniform(size=2)
            log_c = math.log(c_lo) + math.log(c_hi / c_lo) * _antithetic(u, c_points)
            betas = b_lo + (b_hi - b_lo) * _shifted(v, b_points)
            beta_axis = f"beta:{_r(betas[0])}:{_r(betas[-1])}:{b_points}"
            for c0, c1 in np.exp(log_c).reshape(-1, 2):
                argv = ["sweep", "--sweep", f"C:{_r(c0)}:{_r(c1)}:2", "--sweep", beta_axis,
                        "--n", ns, "--format", "csv"]
                self.requests.append(CliRequest(argv, "oracle", 2 * b_points,
                                                len(self.N_VALUES)))
                cells += [(c, b) for c in (c0, c1) for b in betas]
        self.summary = {
            "requests": len(self.requests),
            "rows_per_n": {str(n): len(cells) for n in self.N_VALUES},
            "squeezed_share": _squeezed_share(cells),
        }


class ClosedForms(Workload):
    """A large formula-only JSON ``sweep`` (C < 0 and |beta| < pi/2, so
    C cos beta < 0 and no oracle runs) plus two ``trajectory`` dumps."""

    name = "closed_forms"
    index = 2
    C_STEPS, BETA_STEPS, N_STEPS = 20, 15, 17
    N_MAX = 64
    TRAJECTORY_SAMPLES = (("json", 2048), ("csv", 8192))

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        c_lo, c_hi = -rng.uniform(4.0, 8.0), -rng.uniform(0.05, 0.3)
        b_max = rng.uniform(1.2, 1.45)
        argv = ["sweep",
                "--sweep", f"C:{_r(c_lo)}:{_r(c_hi)}:{self.C_STEPS}",
                "--sweep", f"beta:{_r(-b_max)}:{_r(b_max)}:{self.BETA_STEPS}",
                "--sweep", f"n:0:{self.N_MAX}:{self.N_STEPS}",
                "--format", "json"]
        points = self.C_STEPS * self.BETA_STEPS * self.N_STEPS
        self.requests.append(CliRequest(argv, "formula", points))
        for fmt, samples in self.TRAJECTORY_SAMPLES:
            C = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 8.0))
            beta = float(rng.uniform(-1.45, 1.45))
            argv = ["trajectory", "--C", _r(C), "--beta", _r(beta),  # w = 1
                    "--samples", str(samples), "--format", fmt]
            self.requests.append(CliRequest(argv, "trajectory", samples))
        n_values = np.rint(np.linspace(0, self.N_MAX, self.N_STEPS)).astype(int)
        self.summary = {
            "requests": len(self.requests),
            "rows_per_n": {str(n): self.C_STEPS * self.BETA_STEPS for n in n_values},
            "squeezed_share": _squeezed_share(
                [(c, b) for c in np.linspace(c_lo, c_hi, self.C_STEPS)
                 for b in np.linspace(-b_max, b_max, self.BETA_STEPS)]),
            "trajectory_samples": sum(s for _, s in self.TRAJECTORY_SAMPLES),
        }


class DrivenPropagation(Workload):
    """Two seed-drawn smooth periodic forces, each Fourier-decomposed, then a
    driven ``sweep`` over D_re x D_im, a propagation of ``psi_driven`` under
    the force, and a force-free control propagation on the same grid.

    The two forces have K1 + K2 = HARMONIC_TOTAL harmonics (2K + 1 modes each,
    25 to 49), so the force-evaluation work is the same for every seed while
    each force's mode count is drawn."""

    name = "driven_propagation"
    index = 3
    RATIOS = ((3, 1), (3, 2))  # p/N with p >= 2: never resonant; one p: equal work
    HARMONIC_RANGE = (12, 24)
    HARMONIC_TOTAL = 36
    D_STEPS = 4
    POINTS, STEPS = 1024, 512

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        k1 = int(rng.integers(self.HARMONIC_RANGE[0], self.HARMONIC_RANGE[1] + 1))
        self.forces = []
        modes, ratios = [], []
        for k in (k1, self.HARMONIC_TOTAL - k1):
            p, N = self.RATIOS[int(rng.integers(len(self.RATIOS)))]
            omega_f = p / N  # w = 1
            amps = 0.3 * rng.uniform(0.5, 1.0, k + 1) * 0.8 ** np.arange(k + 1)
            phases = rng.uniform(0.0, 2.0 * math.pi, k + 1)
            harmonics = np.arange(k + 1)

            def signal(t, amps=amps, phases=phases, omega_f=omega_f):
                t = np.asarray(t, dtype=float)
                return np.cos(np.multiply.outer(t, harmonics * omega_f) + phases) @ amps

            force, _ = shoberry.fourier_decompose(signal, omega_f, k)
            C, beta = float(rng.uniform(0.6, 1.8)), float(rng.uniform(-0.6, 0.6))
            n = int(rng.integers(0, 3))
            rep = shoberry.Representation(M=1.0, w=1.0, C=C, beta=beta)
            d_lo, d_hi = -rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.4)
            argv = ["sweep", "--C", _r(C), "--beta", _r(beta), "--n", str(n),
                    "--omega-f", _r(omega_f)]
            for m, f in sorted(force.coefficients.items()):
                if m >= 0:
                    argv += ["--force-coeff", f"{m}:{_r(f.real)}:{_r(f.imag)}"]
            argv += ["--sweep", f"D_re:{_r(d_lo)}:{_r(d_hi)}:{self.D_STEPS}",
                     "--sweep", f"D_im:{_r(d_lo)}:{_r(d_hi)}:{self.D_STEPS}",
                     "--format", "csv"]
            sweep = CliRequest(argv, "driven", self.D_STEPS ** 2)
            sweep.pN = (p, N)
            self.requests.append(sweep)
            D = complex(*(0.3 * rng.uniform(-1.0, 1.0, 2)))
            # the grid holds the state's tails around the largest excursion
            # |x_p| <= sum |f_m| / |w^2 - m^2 omega_f^2| + 2 |D|
            excursion = sum(abs(f) / abs(1.0 - (m * omega_f) ** 2)
                            for m, f in force.coefficients.items()) + 2 * abs(D)
            state = shoberry.QuantumState(rep, n)
            half = 1.1 * shoberry.grid_halfwidth(state) + excursion
            for driven in (True, False):
                self.requests.append(PropagationRequest(
                    force, rep, n, D, half, self.POINTS, self.STEPS, driven))
            self.forces.append(force)
            modes.append(len(force.coefficients))
            ratios.append(f"{p}/{N}")
        self.summary = {"requests": len(self.requests), "modes": modes,
                        "p/N": ratios, "points": self.POINTS, "steps": self.STEPS}

    def modes(self) -> int:
        return sum(len(f.coefficients) for f in self.forces)


WORKLOADS = {cls.name: cls for cls in (OracleSweep, ClosedForms, DrivenPropagation)}
