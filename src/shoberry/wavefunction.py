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

Spatial integrals use a Gauss-Hermite rule in the scaled variable y = s x,
with s^2 the Gaussian rate of the integrand's modulus, read off rho alone:
the node layout follows the width of the states at the times involved, so a
state squeezed to a narrow peak is resolved as well as a wide one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, InvalidParameterError
from .numerics import DEFAULT_QUADRATURE, QuadratureSpec
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


def _hermite_rows(ns, y) -> np.ndarray:
    """H_n(y) for every n of ns, one row each in the order of ns, from one
    upward recurrence H_{k+1} = 2y H_k - 2k H_{k-1} up to max(ns)."""
    rows = np.empty((len(ns),) + y.shape)
    wanted = {}
    for i, n in enumerate(ns):
        wanted.setdefault(n, []).append(i)
    two_y = 2.0 * y
    top = max(ns)
    prev, cur = np.zeros_like(y), np.ones_like(y)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(top):
            if k in wanted:
                rows[wanted[k]] = cur
            prev, cur = cur, two_y * cur - (2.0 * k) * prev
    rows[wanted[top]] = cur
    if not np.all(np.isfinite(rows)):
        raise OverflowError(
            f"H_{top} overflowed in double precision"
            f" (max |x| = {np.max(np.abs(y)):.3g})")
    return rows


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n via the upward recurrence.

    H_{k+1} = 2x H_k - 2k H_{k-1}. Overflow is reported as OverflowError, not
    silently saturated. Accepts scalars or arrays.
    """
    _check_degree(n)
    arr = np.asarray(x, dtype=float)
    result = _hermite_rows((n,), arr)[0]
    return float(result) if arr.ndim == 0 else result


@dataclass(frozen=True)
class QuantumState:
    """Number state n of the wavefunction family of a representation."""

    rep: Representation
    n: int
    config: PhysicalConfig = field(default_factory=PhysicalConfig)

    def __post_init__(self):
        _check_degree(self.n)
        require_valid(self.rep, "full")


def _prefactor(n: int, om: float, hbar: float) -> float:
    """(Omega/(pi hbar))^(1/4) / sqrt(2^n n!), the rho-free normalization."""
    return math.exp(0.25 * math.log(om / (math.pi * hbar))
                    - 0.5 * (n * _LOG2 + math.lgamma(n + 1)))


def _geometry(rep: Representation, config: PhysicalConfig, t):
    """rho, the quadratic exponent coefficient (-Omega/rho^2 + i M rho'/rho)
    / (2 hbar) and theta at t, shared by every n."""
    _, _, _, _, r, rdot = kinematics(rep, t)
    quad = (-rep.omega / (r * r) + 1j * rep.M * rdot / r) / (2.0 * config.hbar)
    return r, quad, winding_phase(rep, t)


def _parts(state: QuantumState, x, t):
    """Envelope (everything but the Hermite factor), Hermite argument, the
    quadratic exponent coefficient and rho, broadcast over x and t."""
    rep = state.rep
    hbar = state.config.hbar
    r, quad, theta = _geometry(rep, state.config, t)
    om = rep.omega
    n = state.n
    x = np.asarray(x, dtype=float)
    env = (_prefactor(n, om, hbar) / np.sqrt(r)) \
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


def energy_per_quantum(rep: Representation, t):
    """<psi_n|H|psi_n> / ((n + 1/2) hbar) at time t, the same for every n:

    (1/2) [Omega/(M rho^2) + M rho'^2/Omega + M w^2 rho^2/Omega], which is w
    in the stationary representation.
    """
    u, v, du, dv, _, _ = kinematics(rep, t)
    r2 = u * u + v * v
    rd2 = (u * du + v * dv) ** 2 / r2
    om = rep.omega
    return 0.5 * (om / (rep.M * r2) + rep.M * rd2 / om + rep.M * rep.w ** 2 * r2 / om)


def energy_expectation(state: QuantumState, t):
    """Closed-form <psi_n|H|psi_n> at time t: (n + 1/2) hbar energy_per_quantum;
    reduces to (n + 1/2) hbar w in the stationary representation."""
    return state.config.hbar * (state.n + 0.5) * energy_per_quantum(state.rep, t)


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


# Spatial quadrature. Every integrand is a product of wavefunctions of known
# Gaussian rate, so the Gauss-Hermite rule in y = s x places its nodes where
# the integrand lives whatever the width of the states.
_HERMITE_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}
# The node count stops doubling here: building a rule is an eigenvalue
# problem of this size, cubic in m.
MAX_SPATIAL_NODES = 2048
# On the rule a spatial result converged on, each state involved must
# integrate |psi|^2 to 1 within this tolerance, or the result is refused.
NORM_TOL = 1e-10


def _scaled_hermite_functions(m: int, y: np.ndarray):
    """Orthonormal Hermite functions h_{m-1}, h_m at y without their
    exp(-y^2/2) factor, divided per node by a scale kept finite, and the log
    of that scale."""
    prev, cur = np.zeros_like(y), np.full_like(y, math.pi ** -0.25)
    log_scale = np.zeros_like(y)
    for k in range(m):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * y * cur \
            - math.sqrt(k / (k + 1)) * prev
        scale = np.maximum(np.abs(prev), np.abs(cur))
        prev, cur = prev / scale, cur / scale
        log_scale += np.log(scale)
    return prev, cur, log_scale


def hermite_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y_k and weights W_k = w_k exp(y_k^2) of the m-point Gauss-Hermite
    rule, so that sum_k W_k f(y_k) integrates f over the real line, exactly
    when f(y) exp(y^2) is a polynomial of degree below 2m.

    Built on first use and cached read-only: Golub-Welsch nodes polished by
    one Newton step, and W_k = exp(y_k^2) / (m h_{m-1}(y_k)^2) in logarithms,
    so nothing overflows or underflows at the outer nodes.
    """
    if m not in _HERMITE_RULES:
        k = np.arange(1.0, m)
        y = np.linalg.eigvalsh(np.diag(np.sqrt(0.5 * k), 1), UPLO="U")
        prev, cur, _ = _scaled_hermite_functions(m, y)
        y = y - cur / (math.sqrt(2.0 * m) * prev)
        prev, _, log_scale = _scaled_hermite_functions(m, y)
        weights = np.exp(y * y - math.log(m)
                         - 2.0 * (np.log(np.abs(prev)) + log_scale))
        y = 0.5 * (y - y[::-1])
        weights = 0.5 * (weights + weights[::-1])
        y.setflags(write=False)
        weights.setflags(write=False)
        _HERMITE_RULES[m] = (y, weights)
    return _HERMITE_RULES[m]


class _Snapshot:
    """The number states of one representation at one time t: rho, the
    exponent and theta are evaluated once, for any abscissas and any n."""

    def __init__(self, rep: Representation, config: PhysicalConfig, t: float):
        self.rep, self.config = rep, config
        self.r, self.quad, self.theta = _geometry(rep, config, float(t))
        # |psi_n| decays like exp(-rate x^2)
        self.rate = rep.omega / (2.0 * config.hbar * self.r * self.r)

    def envelope(self, ns, x: np.ndarray) -> np.ndarray:
        """psi_n(x, t) / H_n(hermite_argument(x)), one row per n of ns."""
        om, hbar = self.rep.omega, self.config.hbar
        n = np.array(ns, dtype=float)[:, None]
        pref = np.array([_prefactor(k, om, hbar) for k in ns])[:, None]
        return (pref / np.sqrt(self.r)) * np.exp(1j * (n + 0.5) * self.theta) \
            * np.exp(self.quad * x * x)

    def hermite_argument(self, x: np.ndarray) -> np.ndarray:
        return np.sqrt(self.rep.omega / self.config.hbar) * x / self.r


def _psi_at(points, ns) -> list[np.ndarray]:
    """psi_n for every n of ns (one row each) at each (snapshot, x) of
    points, from one Hermite recurrence over all the abscissas."""
    args = [snapshot.hermite_argument(x) for snapshot, x in points]
    rows = _hermite_rows(ns, np.concatenate(args))
    cuts = np.cumsum([arg.size for arg in args])[:-1]
    return [snapshot.envelope(ns, x) * h
            for (snapshot, x), h in zip(points, np.split(rows, cuts, axis=1))]


def _spatial_integrals(integrands, s: float, m: int, spec: QuadratureSpec):
    """Integrals over the real line of the rows of integrands(x), whose moduli
    decay like exp(-s^2 x^2), on the Gauss-Hermite rule in y = s x.

    The node count doubles from m until every row agrees with the previous
    level within spec. Returns the values and the node count they came from.
    Raises ConvergenceError past spec.max_refinements or MAX_SPATIAL_NODES.
    """
    prev = None
    err = math.inf
    for _ in range(spec.max_refinements + 1):
        if m > MAX_SPATIAL_NODES:
            break
        y, weights = hermite_rule(m)
        cur = np.sum(weights * integrands(y / s), axis=-1) / s
        if prev is not None:
            change = np.abs(cur - prev)
            if np.all(change <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(cur))):
                return cur, m
            err = float(np.max(change))
        prev = cur
        m *= 2
    raise ConvergenceError(
        f"spatial quadrature did not meet tol up to {m // 2} Gauss-Hermite"
        f" nodes (last change {err:.3e})")


def _certify(snapshots, ns, m: int) -> None:
    """Raise ConvergenceError unless the m-node rule, scaled to the width of
    each snapshot's states, integrates |psi_n|^2 to 1 within NORM_TOL for
    every n of ns."""
    y, weights = hermite_rule(m)
    scales = [math.sqrt(2.0 * snapshot.rate) for snapshot in snapshots]
    values = _psi_at([(snapshot, y / s) for snapshot, s in zip(snapshots, scales)], ns)
    for s, psis in zip(scales, values):
        norms = np.sum(weights * np.abs(psis) ** 2, axis=-1) / s
        for n, norm in zip(ns, norms):
            if not abs(norm - 1.0) <= NORM_TOL:
                raise ConvergenceError(
                    f"the {m}-node spatial rule integrates |psi_{n}|^2 to"
                    f" {norm:.12g}, not 1; the spatial integral is not"
                    " trustworthy")


def _overlaps(bra: _Snapshot, bra_ns, ket: _Snapshot, ket_ns,
              spec: QuadratureSpec) -> np.ndarray:
    """<bra_ns[i]|ket_ns[i]> for every i, each state of bra_ns and ket_ns
    evaluated at both times from one Hermite recurrence per level."""
    ns = list(bra_ns)
    if ns != list(ket_ns):
        ns += list(ket_ns)
    bra_rows = slice(0, len(bra_ns))
    ket_rows = slice(len(ns) - len(ket_ns), len(ns))

    def integrand(x):
        at_bra, at_ket = _psi_at([(bra, x), (ket, x)], ns)
        return np.conj(at_bra[bra_rows]) * at_ket[ket_rows]

    m = (max(bra_ns) + max(ket_ns)) // 2 + 16
    values, m = _spatial_integrals(integrand, math.sqrt(bra.rate + ket.rate), m, spec)
    _certify((bra, ket), ns, m)
    return values


def family_overlaps(rep: Representation, ns, t_bra: float, t_ket: float,
                    config: PhysicalConfig = PhysicalConfig(),
                    spec: QuadratureSpec = DEFAULT_QUADRATURE) -> np.ndarray:
    """<psi_n(t_bra)|psi_n(t_ket)> for every n of ns, on one shared rule:
    rho and theta once per time, one Hermite recurrence up to max(ns)."""
    require_valid(rep, "full")
    for n in ns:
        _check_degree(n)
    return _overlaps(_Snapshot(rep, config, t_bra), ns,
                     _Snapshot(rep, config, t_ket), ns, spec)


def overlap(bra: QuantumState, t_bra: float, ket: QuantumState, t_ket: float,
            spec: QuadratureSpec = DEFAULT_QUADRATURE) -> complex:
    """<bra(t_bra)|ket(t_ket)> by the self-certified Gauss-Hermite rule."""
    return complex(_overlaps(_Snapshot(bra.rep, bra.config, t_bra), (bra.n,),
                             _Snapshot(ket.rep, ket.config, t_ket), (ket.n,),
                             spec)[0])


def norm_quadrature(state: QuantumState, t: float,
                    spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """integral of |psi_n|^2 dx, which must equal 1; this is the integral the
    certification of the other spatial results checks."""
    snapshot = _Snapshot(state.rep, state.config, t)
    value, _ = _spatial_integrals(
        lambda x: np.abs(_psi_at([(snapshot, x)], (state.n,))[0]) ** 2,
        math.sqrt(2.0 * snapshot.rate), state.n + 16, spec)
    return float(value[0])


def energy_expectation_quadrature(state: QuantumState, t: float,
                                  spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """<psi|H|psi> by spatial quadrature, independent of the closed form.

    Uses the integrated-by-parts kinetic term (hbar^2/2M) |psi'|^2 so only the
    analytic first derivative enters.
    """
    rep = state.rep
    hbar = state.config.hbar
    snapshot = _Snapshot(rep, state.config, t)

    def integrand(xs):
        dpsi = psi_dx(state, xs, t)
        p = psi(state, xs, t)
        kinetic = (hbar ** 2 / (2.0 * rep.M)) * np.abs(dpsi) ** 2
        potential = 0.5 * rep.M * rep.w ** 2 * xs * xs * np.abs(p) ** 2
        return kinetic + potential

    value, m = _spatial_integrals(integrand, math.sqrt(2.0 * snapshot.rate),
                                  state.n + 16, spec)
    _certify((snapshot,), (state.n,), m)
    return float(value)
