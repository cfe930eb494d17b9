"""Exact oscillator wavefunctions for a representation.

The number-state wavefunction attached to a representation (M, w, C, beta) is

    psi_n(x, t) = (Omega/(pi hbar))^(1/4) / sqrt(2^n n! rho)
                  * exp(i (n + 1/2) theta(t))
                  * exp[(x^2 / 2 hbar)(-Omega/rho^2 + i M rho'/rho)]
                  * H_n(sqrt(Omega/hbar) x / rho)

where theta(t) is the continuously tracked argument of u - i v. The
half-integer power of a unit-modulus complex number is multivalued, so the
branch is pinned to the principal value at t = 0 and unwrapped along time;
without that convention the overall phase after a cycle is meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .numerics import DEFAULT_QUADRATURE, QuadratureSpec, integrate_1d
from .representation import (PhysicalConfig, Representation, kinematics,
                             require_valid, rho_ddot, winding_phase)

# Upward Hermite recurrence keeps full double precision for degrees this low;
# beyond it the values overflow for the arguments the Gaussian tails allow.
MAX_HERMITE_DEGREE = 64

_LOG2 = math.log(2.0)


def check_quantum_number(n) -> int:
    """n as an int; refuses bools, non-integers and negative values."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise InvalidParameterError(
            f"quantum number must be a nonnegative integer, got {n!r}")
    return int(n)


def _check_degree(n):
    if check_quantum_number(n) > MAX_HERMITE_DEGREE:
        raise InvalidParameterError(
            f"quantum number capped at {MAX_HERMITE_DEGREE}, got {n!r}")


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n via the upward recurrence.

    H_{k+1} = 2x H_k - 2k H_{k-1}. Overflow is reported as OverflowError, not
    silently saturated. Accepts scalars or arrays.
    """
    _check_degree(n)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    if n == 0:
        result = np.ones_like(arr)
    else:
        prev = np.ones_like(arr)
        cur = 2.0 * arr
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, n):
                prev, cur = cur, 2.0 * arr * cur - (2.0 * k) * prev
        result = cur
    if not np.all(np.isfinite(result)):
        raise OverflowError(
            f"H_{n} overflowed in double precision (max |x| = {np.max(np.abs(arr)):.3g})")
    return float(result) if scalar else result


@dataclass(frozen=True)
class QuantumState:
    """Number state n of the wavefunction family of a representation."""

    rep: Representation
    n: int
    config: PhysicalConfig = field(default_factory=PhysicalConfig)

    def __post_init__(self):
        _check_degree(self.n)
        require_valid(self.rep, "full")


def _parts(state: QuantumState, x, t):
    """Envelope (everything but the Hermite factor), Hermite argument, the
    quadratic exponent coefficient and rho, broadcast over x and t."""
    rep = state.rep
    hbar = state.config.hbar
    _, _, _, _, r, rdot = kinematics(rep, t)
    om = rep.omega
    theta = winding_phase(rep, t)
    n = state.n
    log_pref = 0.25 * math.log(om / (math.pi * hbar)) \
        - 0.5 * (n * _LOG2 + math.lgamma(n + 1))
    quad = (-om / (r * r) + 1j * rep.M * rdot / r) / (2.0 * hbar)
    x = np.asarray(x, dtype=float)
    env = (math.exp(log_pref) / np.sqrt(r)) \
        * np.exp(1j * (n + 0.5) * theta) * np.exp(quad * x * x)
    y = np.sqrt(om / hbar) * x / r
    return env, y, quad, r


def psi(state: QuantumState, x, t):
    """Wavefunction value at (x, t); x and t broadcast together."""
    env, y, _, _ = _parts(state, x, t)
    out = env * hermite(state.n, y)
    arr = np.asarray(out)
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError("wavefunction evaluation produced non-finite values")
    return complex(out) if arr.ndim == 0 else out


def psi_dx(state: QuantumState, x, t):
    """Analytic spatial derivative of psi (uses H_n' = 2n H_{n-1})."""
    env, y, quad, r = _parts(state, x, t)
    x = np.asarray(x, dtype=float)
    out = env * (2.0 * quad * x) * hermite(state.n, y)
    if state.n > 0:
        scale = np.sqrt(state.rep.omega / state.config.hbar) / r
        out = out + env * (2.0 * state.n * scale) * hermite(state.n - 1, y)
    arr = np.asarray(out)
    return complex(out) if arr.ndim == 0 else out


def alpha(rep: Representation, t, config: PhysicalConfig = PhysicalConfig()):
    """Gaussian exponent parameter (Omega/rho^2 - i M rho'/rho) / (2 hbar)."""
    require_valid(rep, "full")
    _, _, _, _, r, rdot = kinematics(rep, t)
    om = rep.omega
    return (om / (r * r) - 1j * rep.M * rdot / r) / (2.0 * config.hbar)


def alpha_dot(rep: Representation, t, config: PhysicalConfig = PhysicalConfig()):
    """Exact time derivative of alpha."""
    require_valid(rep, "full")
    _, _, _, _, r, rdot = kinematics(rep, t)
    rddot = rho_ddot(rep, t)
    om = rep.omega
    return (-2.0 * om * rdot / r ** 3
            - 1j * rep.M * (rddot / r - (rdot / r) ** 2)) / (2.0 * config.hbar)


def energy_expectation(state: QuantumState, t):
    """Closed-form <psi_n|H|psi_n> at time t.

    (hbar/2)(n + 1/2) [Omega/(M rho^2) + M rho'^2/Omega + M w^2 rho^2/Omega];
    reduces to (n + 1/2) hbar w in the stationary representation.
    """
    rep = state.rep
    u, v, du, dv, _, _ = kinematics(rep, t)
    r2 = u * u + v * v
    rd2 = (u * du + v * dv) ** 2 / r2
    om = rep.omega
    bracket = om / (rep.M * r2) + rep.M * rd2 / om + rep.M * rep.w ** 2 * r2 / om
    return 0.5 * state.config.hbar * (state.n + 0.5) * bracket


def grid_halfwidth(state: QuantumState) -> float:
    """Half-width of a spatial domain containing the Gaussian tails.

    rho never exceeds sqrt(1 + C^2); ten widths beyond the classical turning
    point keeps the truncated tail far below 1e-10.
    """
    rep = state.rep
    om = rep.omega
    rho_max = math.sqrt(1.0 + rep.C * rep.C)
    return rho_max * math.sqrt(state.config.hbar / om) \
        * (math.sqrt(2.0 * state.n + 1.0) + 10.0)


def overlap(bra: QuantumState, t_bra: float, ket: QuantumState, t_ket: float,
            spec: QuadratureSpec = DEFAULT_QUADRATURE) -> complex:
    """<bra(t_bra)|ket(t_ket)> by adaptive spatial quadrature."""
    half = max(grid_halfwidth(bra), grid_halfwidth(ket))

    def integrand(xs):
        return np.conj(psi(bra, xs, t_bra)) * psi(ket, xs, t_ket)

    value, _ = integrate_1d(integrand, -half, half, spec, initial_panels=8)
    return complex(value)


def norm_quadrature(state: QuantumState, t: float,
                    spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """integral of |psi_n|^2 dx, which must equal 1."""
    half = grid_halfwidth(state)

    def integrand(xs):
        return np.abs(psi(state, xs, t)) ** 2

    value, _ = integrate_1d(integrand, -half, half, spec, initial_panels=8)
    return float(value)


def energy_expectation_quadrature(state: QuantumState, t: float,
                                  spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """<psi|H|psi> by spatial quadrature, independent of the closed form.

    Uses the integrated-by-parts kinetic term (hbar^2/2M) |psi'|^2 so only the
    analytic first derivative enters.
    """
    rep = state.rep
    hbar = state.config.hbar
    half = grid_halfwidth(state)

    def integrand(xs):
        dpsi = psi_dx(state, xs, t)
        p = psi(state, xs, t)
        kinetic = (hbar ** 2 / (2.0 * rep.M)) * np.abs(dpsi) ** 2
        potential = 0.5 * rep.M * rep.w ** 2 * xs * xs * np.abs(p) ** 2
        return kinetic + potential

    value, _ = integrate_1d(integrand, -half, half, spec, initial_panels=8)
    return float(value)
