"""Self-validation battery behind the CLI's validate command.

Each check exercises one documented invariant on a small fixed grid and
reports its worst deviation against the pinned tolerance. Each check is
registered with its printed name, tolerance and grid; CHECKS keeps them in
report order. The battery is deterministic.

An invariant that the acceptance suite (tests/test_acceptance.py) also
checks is written once, as a public function of its grid whose docstring
names the criterion: validate calls it on the small grid registered with it,
the criterion on its own grid at the same tolerance, and some unit tests on
further inputs. Each looks up the library's functions through their modules
when called, so a patched function is what both callers run. ``drives`` are
(force, commensurability, D) triples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from . import driven as drv
from . import numerics, phase, representation as rm, wavefunction as wf
from .numerics import GridState, integrate_1d, propagate_schrodinger, rationalize
from .representation import PhysicalConfig, Representation

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    max_dev: float
    tol: float
    detail: str = ""


# (printed name, tolerance, check) in report order. A check takes no argument
# and returns its worst deviation, or (deviation, detail) when its report line
# carries a detail.
CHECKS: list[tuple[str, float, Callable]] = []


def _check(name: str, tol: float, *grid):
    """Register the decorated function, called on ``grid``, as check ``name``."""
    def register(func):
        CHECKS.append((name, tol, functools.partial(func, *grid)))
        return func
    return register


# Small representative grid: the stationary point plus stretched and tilted
# representations, including varied mass and frequency.
_REPS = (
    Representation(1.0, 1.0, 1.0, 0.0),
    Representation(1.0, 1.0, 2.0, 0.0),
    Representation(1.0, 1.0, 0.5, math.pi / 6),
    Representation(3.0, 2.0, 4.0, math.pi / 3),
    Representation(0.5, 0.7, 1.5, -math.pi / 6),
)
_FORCE = drv.DrivingForce(omega_f=2.0 / 3.0, coefficients={1: 0.35, -1: 0.35})
_COMM = drv.Commensurability(p=2, N=3)


@_check("representation/wronskian-constant", 1e-10)
def _wronskian_constant():
    worst = 0.0
    for rep in _REPS:
        ts = np.linspace(0.0, rep.tau0, 400)
        u, v, du, dv = rm.classical_pair(rep, ts)
        om = rep.M * (u * dv - v * du)
        ref = rm.omega_invariant(rep)
        worst = max(worst, float(np.max(np.abs(om - ref))) / abs(ref))
    return worst


@_check("representation/rho-half-period", 1e-12)
def _rho_half_period():
    worst = 0.0
    for rep in _REPS:
        ts = np.linspace(0.0, rep.tau0, 173)
        worst = max(worst, float(np.max(np.abs(
            rm.rho(rep, ts + 0.5 * rep.tau0) - rm.rho(rep, ts)))))
    return worst


@_check("representation/half-turn-identity", 1e-12)
def _half_turn_identity():
    worst = 0.0
    for rep in _REPS:
        ts = np.linspace(0.0, rep.tau0, 211)
        u0, v0, _, _ = rm.classical_pair(rep, ts)
        u1, v1, _, _ = rm.classical_pair(rep, ts + 0.5 * rep.tau0)
        lhs = u1 - 1j * v1
        rhs = np.exp(-1j * math.pi) * (u0 - 1j * v0)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@_check("representation/rho-dot-vs-fd", 1e-8)
def _rho_dot_finite_difference():
    worst = 0.0
    h = 1e-6
    for rep in _REPS:
        ts = np.linspace(0.1, rep.tau0, 101)
        fd = (rm.rho(rep, ts + h) - rm.rho(rep, ts - h)) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(rm.rho_dot(rep, ts) - fd))))
    return worst, "central differences, h=1e-6"


@_check("wavefunction/normalization", 1e-8)
def _normalization():
    worst = 0.0
    for rep in (_REPS[1], _REPS[2], _REPS[3]):
        for n in range(0, 9, 2):
            state = wf.QuantumState(rep, n)
            for t in (0.0, 0.31 * rep.tau0):
                worst = max(worst, abs(wf.norm_quadrature(state, t) - 1.0))
    return worst


@_check("wavefunction/orthogonality", 1e-8)
def _orthogonality():
    rep = _REPS[1]
    worst = 0.0
    t = 0.45
    states = [wf.QuantumState(rep, n) for n in range(7)]
    for i in range(7):
        for j in range(i + 1, 7):
            worst = max(worst, abs(wf.overlap(states[i], t, states[j], t)))
    return worst


@_check("wavefunction/schrodinger-residual", 1e-5)
def _schrodinger_residual():
    rep = _REPS[1]
    state = wf.QuantumState(rep, 2)
    hbar = state.config.hbar
    xs = np.arange(-4.0, 4.0 + 1e-12, 0.02)
    t0, h = 0.7, 1e-3
    stencil = [wf.psi(state, xs, t0 + k * h) for k in (-2, -1, 1, 2)]
    dpsi_dt = (-stencil[3] + 8 * stencil[2] - 8 * stencil[1] + stencil[0]) / (12 * h)
    p = wf.psi(state, xs, t0)
    dx = 0.02
    lap = (-p[:-4] + 16 * p[1:-3] - 30 * p[2:-2] + 16 * p[3:-1] - p[4:]) / (12 * dx * dx)
    inner = slice(2, -2)
    hpsi = -hbar ** 2 / (2 * rep.M) * lap \
        + 0.5 * rep.M * rep.w ** 2 * xs[inner] ** 2 * p[inner]
    resid = 1j * hbar * dpsi_dt[inner] - hpsi
    rel = math.sqrt(float(np.sum(np.abs(resid) ** 2))) \
        / math.sqrt(float(np.sum(np.abs(hpsi) ** 2)))
    return rel, "4th-order differences in t and x"


@_check("wavefunction/quasiperiodicity", 1e-9, [
    (wf.QuantumState(rep, n), t) for rep, n, t in (
        (_REPS[1], 0, 0.4), (_REPS[2], 3, 1.1), (_REPS[3], 1, 0.23), (_REPS[4], 4, 2.0))],
    601)
def quasiperiodicity(cases, points):
    """Worst |psi(x, t + tau0/2) - exp(-i (n + 1/2) pi) psi(x, t)| at ``points``
    x across the grid half-width, over the (state, t) pairs of ``cases``.
    Criterion 05."""
    worst = 0.0
    for state, t in cases:
        half = wf.grid_halfwidth(state)
        xs = np.linspace(-half, half, points)
        lhs = wf.psi(state, xs, t + 0.5 * state.rep.tau0)
        rhs = np.exp(-1j * (state.n + 0.5) * math.pi) * wf.psi(state, xs, t)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@_check("wavefunction/energy-closed-vs-quadrature", 1e-8)
def _energy_closed_vs_quadrature():
    worst = 0.0
    for rep in (_REPS[1], _REPS[3]):
        for n in (0, 2):
            state = wf.QuantumState(rep, n)
            for t in (0.0, 0.37 * rep.tau0):
                closed = wf.energy_expectation(state, t)
                quad = wf.energy_expectation_quadrature(state, t)
                worst = max(worst, abs(closed - quad) / abs(closed))
    return worst


@_check("phase/dynamical-oracle-agreement", 1e-8)
def _dynamical_oracle():
    worst = 0.0
    for rep in (_REPS[0], _REPS[1], _REPS[3]):
        for n in (0, 3):
            state = wf.QuantumState(rep, n)
            for k in (1, 2):
                closed = phase.dynamical_phase_closed(rep, n, k)
                oracle = phase.dynamical_phase_oracle(state, k * 0.5 * rep.tau0)
                worst = max(worst, abs(closed - oracle))
    return worst


def half_period_oracle(state) -> float:
    """gamma of ``state`` over half a period from the oracle pipeline."""
    return phase.berry_phase_oracle(state, 0.5 * state.rep.tau0)


@_check("phase/closed-vs-oracle", 1e-7,
        [wf.QuantumState(rep, n) for rep in _REPS for n in (0, 3)])
def closed_vs_oracle(states, oracle=half_period_oracle):
    """Worst |closed - oracle| gamma over half a period, over ``states``;
    ``oracle`` gives a state's oracle gamma. Criterion 02."""
    worst = 0.0
    for state in states:
        oracle_gamma = oracle(state)
        gamma = phase.berry_phase(state.rep, state.n, "half").gamma
        worst = max(worst, abs(gamma - oracle_gamma))
    return worst


@_check("phase/parameter-independence", 1e-7, [
    wf.QuantumState(Representation(M, w, C, beta), n, PhysicalConfig(hbar))
    for C, beta, n in ((2.0, 0.0, 1), (0.5, math.pi / 6, 0))
    for M in (0.5, 3.0) for w in (1.0, 2.0) for hbar in (0.5, 1.0)])
def parameter_independence(states, oracle=half_period_oracle):
    """Worst spread of the oracle gamma over half a period among the
    ``states`` that share C, beta and n: it depends on none of M, w and hbar.
    ``oracle`` gives a state's oracle gamma. Criterion 03."""
    groups = {}
    for state in states:
        key = (state.rep.C, state.rep.beta, state.n)
        groups.setdefault(key, []).append(oracle(state))
    worst = 0.0
    for values in groups.values():
        worst = max(worst, max(values) - min(values))
    return worst


@_check("phase/doubling", 1e-7,
        [wf.QuantumState(rep, n) for rep in _REPS[1:3] for n in (0, 2)])
def doubling(states):
    """Worst |gamma(tau0) - 2 gamma(tau0 / 2)| of the oracle over ``states``,
    once the closed form has doubled exactly for each (else deviation 1).
    Criterion 04."""
    worst_oracle = 0.0
    for state in states:
        rep, n = state.rep, state.n
        half = phase.berry_phase(rep, n, "half").gamma
        full = phase.berry_phase(rep, n, "full").gamma
        if full != 2.0 * half:
            return 1.0, "closed form failed to double exactly"
        g_half = phase.berry_phase_oracle(state, 0.5 * rep.tau0)
        g_full = phase.berry_phase_oracle(state, rep.tau0)
        worst_oracle = max(worst_oracle, abs(g_full - 2.0 * g_half))
    return worst_oracle, "closed form doubles exactly; oracle within 1e-7"


@_check("phase/ge-child", 1e-8, _REPS[:4])
def ge_child(reps):
    """Worst |Gaussian-parameter cycle integral - full-period ground-state
    gamma| over ``reps``. Criterion 06."""
    worst = 0.0
    for rep in reps:
        gc = phase.ge_child_integral(rep)
        ref = phase.berry_phase(rep, 0, "full").gamma
        worst = max(worst, abs(gc - ref))
    return worst


@_check("phase/positivity", 1e-15)
def _positivity():
    worst = -1.0
    for rep in _REPS[1:]:
        for n in (0, 1, 4):
            g = phase.berry_phase(rep, n, "half").gamma
            worst = max(worst, -g)
            if g <= 0:
                return 1.0, f"gamma <= 0 off the stationary point at C={rep.C}"
    stationary = phase.berry_phase(_REPS[0], 3, "half").gamma
    return abs(stationary), "gamma = 0 only at C=1, beta=0"


@_check("driven/ode-residual", 1e-9, _REPS[1], [(_FORCE, _COMM, 0.2 + 0.1j)], 800)
def ode_residual(rep, drives, samples):
    """Worst relative residual of x_p'' + w^2 x_p - F/M at ``samples`` times
    over the joint cycle N tau0, for the particular solution of each drive.
    Criterion 12."""
    worst = 0.0
    for force, comm, D in drives:
        xp = drv.particular_solution(force, rep, comm, D=D)
        ts = np.linspace(0.0, comm.N * rep.tau0, samples)
        resid = xp.xddot(ts) + rep.w ** 2 * xp.x(ts) - force(ts) / rep.M
        scale = max(float(np.max(np.abs(force(ts) / rep.M))),
                    rep.w ** 2 * float(np.max(np.abs(xp.x(ts)))))
        worst = max(worst, float(np.max(np.abs(resid))) / scale)
    return worst


@_check("driven/xp-periodicity", 1e-10, _REPS[1], [(_FORCE, _COMM, 0.2 + 0.1j)], 257)
def xp_periodicity(rep, drives, samples):
    """Worst |x_p(t + N tau0) - x_p(t)| at ``samples`` times over the joint
    cycle, for the particular solution of each drive."""
    worst = 0.0
    for force, comm, D in drives:
        xp = drv.particular_solution(force, rep, comm, D=D)
        span = comm.N * rep.tau0
        ts = np.linspace(0.0, span, samples)
        worst = max(worst, float(np.max(np.abs(xp.x(ts + span) - xp.x(ts)))))
    return worst


@_check("driven/closed-vs-quadrature", 1e-8,
        _REPS[1], [(_FORCE, _COMM, D) for D in (0j, 0.3 + 0.1j)])
def drive_closed_vs_quadrature(rep, drives, config=PhysicalConfig()):
    """Worst relative gap between the closed drive term over N tau0 and the
    blind quadrature of its particular solution, over the drives. Criterion 09."""
    worst = 0.0
    for force, comm, D in drives:
        xp = drv.particular_solution(force, rep, comm, D=D)
        closed = drv.drive_phase_closed(force, comm, rep.M, rep.w, config.hbar, D)
        quad = drv.drive_phase_quadrature(xp, rep.M, config.hbar, comm.N * rep.tau0)
        worst = max(worst, abs(closed - quad) / max(abs(closed), 1e-30))
    return worst


@_check("driven/decomposition-independence", 1e-8,
        _REPS[1:3], (0, 2), [(_FORCE, _COMM, 0.25 - 0.4j)])
def drive_decomposition(reps, ns, drives, config=PhysicalConfig()):
    """Worst spread, per drive, of the drive part gamma_total - N gamma_full
    over ``reps`` and ``ns`` together with its blind quadratures: the drive
    term depends on neither the representation nor n. Criterion 09."""
    worst = 0.0
    for force, comm, D in drives:
        values = []
        for rep in reps:
            for n in ns:
                res = drv.berry_phase_driven(rep, n, force, D, comm, config)
                undriven = comm.N * phase.berry_phase(rep, n, "full").gamma
                values += [res.gamma_total - undriven, res.drive_quadrature]
        worst = max(worst, max(values) - min(values))
    return worst


@_check("driven/special-rep-scaling", 1e-10)
def _special_rep_scaling():
    force, comm = _FORCE, _COMM
    w = comm.N * force.omega_f / comm.p
    full = drv.drive_phase_closed(force, comm, M=1.3, w=w, hbar=0.7, D=0j)
    special = drv.berry_phase_special_rep(force, M=1.3, w=w, hbar=0.7)
    return (abs(full / comm.p - special),
            "tau_f evolution equals the joint cycle over p")


@_check("driven/phase-scaling", 1e-12)
def _drive_phase_scaling():
    # fixed x_p shape means f_n scales with M and D stays put
    force, comm = _FORCE, _COMM
    w = comm.N * force.omega_f / comm.p
    base = drv.drive_phase_closed(force, comm, M=1.0, w=w, hbar=1.0, D=0.2j)
    half_hbar = drv.drive_phase_closed(force, comm, M=1.0, w=w, hbar=0.5, D=0.2j)
    doubled_force = drv.DrivingForce(force.omega_f,
                                     {n: 2 * f for n, f in force.coefficients.items()})
    doubled = drv.drive_phase_closed(doubled_force, comm, M=2.0, w=w, hbar=1.0,
                                     D=0.2j)
    dev = max(abs(half_hbar - 2.0 * base), abs(doubled - 2.0 * base))
    return dev, "drive term goes as 1/hbar and as M at fixed x_p"


# Analytic integrals (integrand, a, b, exact value) for the quadrature check.
QUADRATURE_CASES = (
    (lambda t: np.sin(t) ** 2, 0.0, TWO_PI, math.pi),
    (lambda t: np.exp(t), 0.0, 1.0, math.e - 1.0),
    (lambda t: np.cos(10 * t), 0.0, math.pi, math.sin(10 * math.pi) / 10),
    (lambda t: 1.0 / (1.0 + t * t), -1.0, 1.0, 0.5 * math.pi),
    (lambda t: t ** 5, 0.0, 1.0, 1.0 / 6.0),
    (lambda t: np.exp(-t * t), -6.0, 6.0, math.sqrt(math.pi) * math.erf(6.0)),
    (lambda t: np.exp(1j * t), 0.0, 0.5 * math.pi, 1.0 + 1.0j),
    (lambda t: t * np.exp(-t), 0.0, 20.0, 1.0 - 21.0 * math.exp(-20.0)),
    (lambda t: np.sin(3 * t) * np.cos(2 * t), 0.0, math.pi, 1.2),
    (lambda t: np.cosh(t), -1.0, 1.0, 2.0 * math.sinh(1.0)),
    (lambda t: 1.0 / (2.0 + np.cos(t)), 0.0, TWO_PI, TWO_PI / math.sqrt(3.0)),
    (lambda t: t * np.sin(t), 0.0, math.pi, math.pi),
    (lambda t: np.log1p(t), 0.0, 1.0, 2.0 * math.log(2.0) - 1.0),
    (lambda t: t * t * np.exp(-t * t), -8.0, 8.0, 0.5 * math.sqrt(math.pi)),
    (lambda t: np.exp(-t) * np.cos(5 * t), 0.0, 10.0,
     (math.exp(-10) * (-math.cos(50) + 5 * math.sin(50)) + 1.0) / 26.0),
    (lambda t: 1.0 / np.cosh(t) ** 2, -3.0, 3.0, 2.0 * math.tanh(3.0)),
    (lambda t: np.exp(-t * t) * (1.0 + 2.0j * t), -5.0, 5.0,
     math.sqrt(math.pi) * math.erf(5.0) + 0j),
    (lambda t: t ** 7 - 3 * t ** 3 + 1.0, -2.0, 3.0, 744.375),
    (lambda t: np.sin(t) * np.exp(np.cos(t)), 0.0, math.pi, math.e - 1.0 / math.e),
    (lambda t: 1.0 / (1.0 + np.exp(t)), 0.0, 1.0,
     1.0 + math.log(2.0) - math.log(1.0 + math.e)),
    (lambda t: 1.0 / (1.0 + 25.0 * t * t), -1.0, 1.0, 0.4 * math.atan(5.0)),
)


@_check("numerics/quadrature-battery", 1.0 + 1e-9)
def _quadrature_battery():
    worst = 0.0
    for f, a, b, exact in QUADRATURE_CASES:
        value, estimate = integrate_1d(f, a, b)
        true_err = abs(value - exact)
        allowance = max(estimate, numerics.ABS_TOL, numerics.REL_TOL * abs(exact))
        worst = max(worst, true_err / allowance)
    return worst, f"{len(QUADRATURE_CASES)} analytic integrals"


def propagations(state, steps, points=1024):
    """(initial, exact, finals): the analytic state at 0 and at tau0 on
    ``points`` grid points over 1.1 grid half-widths, and the split-operator
    propagations of the first over tau0 in each number of ``steps``."""
    rep = state.rep
    half = wf.grid_halfwidth(state) * 1.1
    xs = np.linspace(-half, half, points, endpoint=False)
    initial, exact = (GridState(-half, half, points, wf.psi(state, xs, t), t)
                      for t in (0.0, rep.tau0))
    return initial, exact, [propagate_schrodinger(initial, rep.M, rep.w, rep.tau0, count)
                            for count in steps]


def propagator_order(runs):
    """Deviation 0 when the propagator converges at second order, else 1:
    each halving of the step divides |<exact|final> - 1| by 3.5 to 4.5, and
    the norm drifts below 1e-10. ``runs`` are propagations() over step counts
    that double. Criterion 08."""
    ratios, norm_dev = [], 0.0
    for _, exact, finals in runs:
        errors = [abs(exact.overlap(final) - 1.0) for final in finals]
        ratios += [coarse / fine for coarse, fine in zip(errors, errors[1:])]
        norm_dev = max(norm_dev, *(abs(final.norm() - 1.0) for final in finals))
    dev = 0.0 if all(3.5 <= r <= 4.5 for r in ratios) and norm_dev < 1e-10 else 1.0
    return dev, (f"halving ratios {', '.join(f'{r:.2f}' for r in ratios)};"
                 f" norm drift {norm_dev:.1e}")


@_check("numerics/propagator-order", 0.5)
def _propagator_order():
    return propagator_order([propagations(wf.QuantumState(_REPS[1], 0), (128, 256, 512))])


@_check("numerics/rationalize", 0.5)
def _rationalize():
    cases_ok = (rationalize(2.0 / 3.0, 1e-10) == (2, 3)
                and rationalize(0.5 + 1e-14, 1e-10) == (1, 2)
                and rationalize(math.sqrt(2.0), 1e-12) is None)
    return 0.0 if cases_ok else 1.0


def run_battery(only: Optional[Iterable[str]] = None) -> list[CheckResult]:
    """Run the checks in report order; with `only`, just those whose printed
    name contains one of its strings."""
    results = []
    for name, tol, func in CHECKS:
        if only and not any(part in name for part in only):
            continue
        out = func()
        max_dev, detail = out if isinstance(out, tuple) else (out, "")
        results.append(CheckResult(name, max_dev < tol, float(max_dev), tol, detail))
    return results
