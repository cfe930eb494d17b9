"""Self-validation battery behind the CLI's validate command.

Each check exercises one documented invariant on a small fixed grid and
reports its worst deviation against the pinned tolerance. Each check is
registered with its printed name and tolerance; CHECKS keeps them in report
order. The battery is deterministic.
"""

from __future__ import annotations

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


# (printed name, tolerance, check) in report order. A check returns its worst
# deviation, or (deviation, detail) when its report line carries a detail.
CHECKS: list[tuple[str, float, Callable]] = []


def _check(name: str, tol: float):
    def register(func):
        CHECKS.append((name, tol, func))
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


@_check("wavefunction/quasiperiodicity", 1e-9)
def _quasiperiodicity():
    worst = 0.0
    for rep, n, t in ((_REPS[1], 0, 0.4), (_REPS[2], 3, 1.1),
                      (_REPS[3], 1, 0.23), (_REPS[4], 4, 2.0)):
        state = wf.QuantumState(rep, n)
        xs = np.linspace(-wf.grid_halfwidth(state), wf.grid_halfwidth(state), 601)
        lhs = wf.psi(state, xs, t + 0.5 * rep.tau0)
        rhs = np.exp(-1j * (n + 0.5) * math.pi) * wf.psi(state, xs, t)
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


@_check("phase/closed-vs-oracle", 1e-7)
def _closed_vs_oracle():
    worst = 0.0
    for rep in _REPS:
        for n in (0, 3):
            state = wf.QuantumState(rep, n)
            tau = 0.5 * rep.tau0
            chi, _ = phase.overall_phase_oracle(state, tau)
            delta = phase.dynamical_phase_oracle(state, tau)
            gamma = phase.berry_phase(rep, n, "half").gamma
            worst = max(worst, abs(gamma - (chi - delta)))
    return worst


@_check("phase/parameter-independence", 1e-7)
def _parameter_independence():
    worst = 0.0
    for C, beta, n in ((2.0, 0.0, 1), (0.5, math.pi / 6, 0)):
        values = []
        for M in (0.5, 3.0):
            for w in (1.0, 2.0):
                for hbar in (0.5, 1.0):
                    rep = Representation(M, w, C, beta)
                    state = wf.QuantumState(rep, n, PhysicalConfig(hbar))
                    values.append(phase.berry_phase_oracle(state, 0.5 * rep.tau0))
        worst = max(worst, max(values) - min(values))
    return worst


@_check("phase/doubling", 1e-7)
def _doubling():
    worst_oracle = 0.0
    for rep in (_REPS[1], _REPS[2]):
        for n in (0, 2):
            half = phase.berry_phase(rep, n, "half").gamma
            full = phase.berry_phase(rep, n, "full").gamma
            if full != 2.0 * half:
                return 1.0, "closed form failed to double exactly"
            state = wf.QuantumState(rep, n)
            g_half = phase.berry_phase_oracle(state, 0.5 * rep.tau0)
            g_full = phase.berry_phase_oracle(state, rep.tau0)
            worst_oracle = max(worst_oracle, abs(g_full - 2.0 * g_half))
    return worst_oracle, "closed form doubles exactly; oracle within 1e-7"


@_check("phase/ge-child", 1e-8)
def _ge_child():
    worst = 0.0
    for rep in (_REPS[0], _REPS[1], _REPS[2], _REPS[3]):
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


def _demo_drive():
    force = drv.DrivingForce(omega_f=2.0 / 3.0, coefficients={1: 0.35, -1: 0.35})
    comm = drv.Commensurability(p=2, N=3)
    return force, comm


@_check("driven/ode-residual", 1e-9)
def _ode_residual():
    rep = _REPS[1]
    force, comm = _demo_drive()
    xp = drv.particular_solution(force, rep, comm, D=0.2 + 0.1j)
    ts = np.linspace(0.0, comm.N * rep.tau0, 800)
    resid = xp.xddot(ts) + rep.w ** 2 * xp.x(ts) - force(ts) / rep.M
    scale = max(float(np.max(np.abs(force(ts) / rep.M))),
                rep.w ** 2 * float(np.max(np.abs(xp.x(ts)))))
    return float(np.max(np.abs(resid))) / scale


@_check("driven/xp-periodicity", 1e-10)
def _xp_periodicity():
    rep = _REPS[1]
    force, comm = _demo_drive()
    xp = drv.particular_solution(force, rep, comm, D=0.2 + 0.1j)
    ts = np.linspace(0.0, comm.N * rep.tau0, 257)
    dev = np.max(np.abs(xp.x(ts + comm.N * rep.tau0) - xp.x(ts)))
    return float(dev)


@_check("driven/closed-vs-quadrature", 1e-8)
def _drive_closed_vs_quadrature():
    rep = _REPS[1]
    force, comm = _demo_drive()
    worst = 0.0
    for D in (0j, 0.3 + 0.1j):
        xp = drv.particular_solution(force, rep, comm, D=D)
        closed = drv.drive_phase_closed(force, comm, rep.M, rep.w, 1.0, D)
        quad = drv.drive_phase_quadrature(xp, rep.M, 1.0, comm.N * rep.tau0)
        worst = max(worst, abs(closed - quad) / max(abs(closed), 1e-30))
    return worst


@_check("driven/decomposition-independence", 1e-8)
def _drive_decomposition():
    force, comm = _demo_drive()
    reference = None
    worst = 0.0
    for rep in (_REPS[1], Representation(1.0, 1.0, 0.5, math.pi / 6)):
        for n in (0, 2):
            res = drv.berry_phase_driven(rep, n, force, 0.25 - 0.4j, comm)
            drive_part = res.gamma_total - comm.N * phase.berry_phase(rep, n, "full").gamma
            if reference is None:
                reference = drive_part
            worst = max(worst, abs(drive_part - reference),
                        abs(res.drive_quadrature - reference))
    return worst


@_check("driven/special-rep-scaling", 1e-10)
def _special_rep_scaling():
    force, comm = _demo_drive()
    w = comm.N * force.omega_f / comm.p
    full = drv.drive_phase_closed(force, comm, M=1.3, w=w, hbar=0.7, D=0j)
    special = drv.berry_phase_special_rep(force, M=1.3, w=w, hbar=0.7)
    return (abs(full / comm.p - special),
            "tau_f evolution equals the joint cycle over p")


@_check("driven/phase-scaling", 1e-12)
def _drive_phase_scaling():
    # fixed x_p shape means f_n scales with M and D stays put
    force, comm = _demo_drive()
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
    spec = numerics.DEFAULT_QUADRATURE
    worst = 0.0
    for f, a, b, exact in QUADRATURE_CASES:
        value, estimate = integrate_1d(f, a, b, spec)
        true_err = abs(value - exact)
        allowance = max(estimate, spec.abs_tol, spec.rel_tol * abs(exact))
        worst = max(worst, true_err / allowance)
    return worst, f"{len(QUADRATURE_CASES)} analytic integrals"


def _analytic_grid_state(state, half, points, t):
    xs = np.linspace(-half, half, points, endpoint=False)
    return GridState(-half, half, points, wf.psi(state, xs, t), t)


@_check("numerics/propagator-order", 0.5)
def _propagator_order():
    rep = _REPS[1]
    state = wf.QuantumState(rep, 0)
    half = wf.grid_halfwidth(state) * 1.1
    points = 1024
    initial = _analytic_grid_state(state, half, points, 0.0)
    exact = _analytic_grid_state(state, half, points, rep.tau0)
    errors = []
    norm_dev = 0.0
    for steps in (128, 256, 512):
        final = propagate_schrodinger(initial, rep.M, rep.w, rep.tau0, steps)
        errors.append(abs(exact.overlap(final) - 1.0))
        norm_dev = max(norm_dev, abs(final.norm() - 1.0))
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    ok_ratio = all(3.5 <= r <= 4.5 for r in ratios)
    dev = 0.0 if (ok_ratio and norm_dev < 1e-10) else 1.0
    return dev, (f"halving ratios {ratios[0]:.2f}, {ratios[1]:.2f};"
                 f" norm drift {norm_dev:.1e}")


@_check("numerics/rationalize", 0.5)
def _rationalize():
    cases_ok = (rationalize(2.0 / 3.0, 1e-10) == (2, 3)
                and rationalize(0.5 + 1e-14, 1e-10) == (1, 2)
                and rationalize(math.sqrt(2.0), 1e-12, 10 ** 6) is None)
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
