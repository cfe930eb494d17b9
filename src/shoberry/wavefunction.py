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
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, InvalidParameterError, _attempt
from .numerics import chunks, refine
from .representation import (PhysicalConfig, Representation, RepresentationArrays,
                             _winding, classical_pair, kinematics, require_valid,
                             rho_ddot)

# Upward Hermite recurrence keeps full double precision for degrees this low;
# beyond it the values overflow for the arguments the Gaussian tails allow.
MAX_HERMITE_DEGREE = 64

_LOG2 = math.log(2.0)


def check_quantum_number(n) -> int:
    """n as an int; refuses bools, non-integers, negative values and values
    that do not convert to a float, which every phase formula needs."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise InvalidParameterError(
            f"quantum number must be a nonnegative integer, got {n!r}")
    try:
        float(n)
    except OverflowError:
        raise InvalidParameterError(
            f"quantum number of {int(n).bit_length()} bits is beyond double"
            " precision") from None
    return int(n)


def _check_degree(n):
    if check_quantum_number(n) > MAX_HERMITE_DEGREE:
        raise InvalidParameterError(
            f"quantum number capped at {MAX_HERMITE_DEGREE}, got {n!r}")


def _hermite_rows(ns, y) -> np.ndarray:
    """H_n(y) for every n of ns from one upward recurrence H_{k+1} = 2y H_k
    - 2k H_{k-1} up to max(ns). y has a length-1 axis second to last, which
    the result fills with one row per n, in the order of ns."""
    rows = np.empty(y.shape[:-2] + (len(ns),) + y.shape[-1:])
    wanted = {}
    for i, n in enumerate(ns):
        wanted.setdefault(n, []).append(i)
    two_y = 2.0 * y
    top = max(ns)
    prev, cur = np.zeros_like(y), np.ones_like(y)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(top):
            if k in wanted:
                rows[..., wanted[k], :] = cur
            prev, cur = cur, two_y * cur - (2.0 * k) * prev
    rows[..., wanted[top], :] = cur
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
    result = _hermite_rows((n,), arr[..., None, None])[..., 0, 0]
    return float(result) if arr.ndim == 0 else result


@dataclass(frozen=True)
class QuantumState:
    """Number state n of the wavefunction family of a representation."""

    rep: Representation
    n: int
    config: PhysicalConfig = field(default_factory=PhysicalConfig)

    def __post_init__(self):
        _check_degree(self.n)
        require_valid(self.rep)


def _prefactor(n: int, om: float, hbar: float) -> float:
    """(Omega/(pi hbar))^(1/4) / sqrt(2^n n!), the rho-free normalization."""
    return math.exp(0.25 * math.log(om / (math.pi * hbar))
                    - 0.5 * (n * _LOG2 + math.lgamma(n + 1)))


def _scalar_time(t) -> float:
    """t as a float; an array of times is refused."""
    if np.ndim(t):
        raise InvalidParameterError(f"t must be a scalar time, not shape {np.shape(t)}")
    return float(t)


def _parts(state: QuantumState, x, t):
    """Envelope (everything but the Hermite factor), Hermite argument, the
    quadratic exponent coefficient and rho at the scalar time t, broadcast
    over x: the oracle's snapshot of the one representation."""
    snapshot = _Snapshot(RepresentationArrays.of([state.rep]), state.config,
                         _scalar_time(t))
    x = np.asarray(x, dtype=float)
    quad, r = snapshot.quad[0, 0, 0], snapshot.r[0, 0, 0]
    env = snapshot.coefficient((state.n,))[0, 0, 0] * np.exp(quad * x * x)
    return env, np.sqrt(state.rep.omega / state.config.hbar) * x / r, quad, r


def psi(state: QuantumState, x, t):
    """Wavefunction value at (x, t) for an array or scalar x and a scalar t."""
    env, y, _, _ = _parts(state, x, t)
    out = env * hermite(state.n, y)
    arr = np.asarray(out)
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError("wavefunction evaluation produced non-finite values")
    return complex(out) if arr.ndim == 0 else out


def psi_dx(state: QuantumState, x, t):
    """Analytic spatial derivative of psi (uses H_n' = 2n H_{n-1}); x and t
    as for psi."""
    env, y, quad, r = _parts(state, x, t)
    x = np.asarray(x, dtype=float)
    out = env * (2.0 * quad * x) * hermite(state.n, y)
    if state.n > 0:
        scale = np.sqrt(state.rep.omega / state.config.hbar) / r
        out = out + env * (2.0 * state.n * scale) * hermite(state.n - 1, y)
    arr = np.asarray(out)
    return complex(out) if arr.ndim == 0 else out


def alpha(rep: Representation, t):
    """Gaussian exponent parameter (Omega/rho^2 - i M rho'/rho) / (2 hbar)
    at hbar = 1."""
    require_valid(rep)
    _, _, _, _, r, rdot = kinematics(rep, t)
    om = rep.omega
    return (om / (r * r) - 1j * rep.M * rdot / r) / 2.0


def alpha_dot(rep: Representation, t):
    """Exact time derivative of alpha, at hbar = 1."""
    require_valid(rep)
    _, _, _, _, r, rdot = kinematics(rep, t)
    rddot = rho_ddot(rep, t)
    om = rep.omega
    return (-2.0 * om * rdot / r ** 3
            - 1j * rep.M * (rddot / r - (rdot / r) ** 2)) / 2.0


def energy_per_quantum(rep: Representation, t):
    """<psi_n|H|psi_n> / ((n + 1/2) hbar) at time t, the same for every n:

    (1/2) [Omega/(M rho^2) + M rho'^2/Omega + M w^2 rho^2/Omega], which is w
    in the stationary representation. rep is a Representation or
    RepresentationArrays.
    """
    u, v, du, dv = classical_pair(rep, t)
    r2 = u * u + v * v
    rd2 = (u * du + v * dv) ** 2 / r2
    om = rep.omega
    return 0.5 * (om / (rep.M * r2) + rep.M * rd2 / om + rep.stiffness * r2 / om)


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
    """The number states of several representations at one time t: rho, the
    exponent and theta are evaluated once, for any abscissas and any n.
    Arrays have one entry per representation, shaped (points, 1, 1) to
    broadcast against (points, len(ns), nodes)."""

    def __init__(self, reps: RepresentationArrays, config: PhysicalConfig, t: float):
        self.reps = reps.at((slice(None), None, None))
        self.hbar = config.hbar
        om = self.reps.omega
        t = np.full(om.shape, float(t))
        _, _, _, _, self.r, rdot = kinematics(self.reps, t)
        self.theta = _winding(self.reps, t)[0]
        # (-Omega/rho^2 + i M rho'/rho) / (2 hbar) from its real and imaginary
        # parts, each divided by rho in real arithmetic and multiplied by the
        # reciprocal of 2 hbar: numpy's complex array division would take
        # the reciprocal of rho too, and differ in the last digit.
        reciprocal = 1.0 / (2.0 * self.hbar)
        self.quad = np.empty(om.shape, dtype=complex)
        with np.errstate(over="ignore", divide="ignore"):   # refused below
            self.quad.real = -om / (self.r * self.r) * reciprocal
            self.quad.imag = self.reps.M * rdot / self.r * reciprocal
            # |psi_n| decays like exp(-rate x^2)
            self.rate = om / (2.0 * self.hbar * self.r * self.r)
        # the rho-free normalizations per tuple of ns do not depend on t:
        # snapshots of the same representations may share this table
        self.prefactors = {}
        self._coefficients = {}

    def refuse(self, errors: list) -> None:
        """Refuse in ``errors``, with an InvalidParameterError, each point not
        yet refused whose Gaussian rate is not a normal float or has an
        infinite double, which bounds the sum of two rates that scales a
        spatial rule, so that its abscissas and Hermite arguments are finite."""
        with np.errstate(over="ignore"):
            normal = (self.rate >= sys.float_info.min) & (2.0 * self.rate < math.inf)
        for p in np.flatnonzero(~normal.ravel()).tolist():
            if errors[p] is None:
                M, w, C, beta = (float(field[p, 0, 0]) for field in self.reps[:4])
                errors[p] = InvalidParameterError(
                    "the Gaussian rate Omega/(2 hbar rho^2) is not a normal float"
                    f" at M={M!r}, w={w!r}, C={C!r}, beta={beta!r},"
                    f" hbar={self.hbar!r}")

    def coefficient(self, ns) -> np.ndarray:
        """The x-independent factor of psi_n, (points, len(ns), 1)."""
        key = tuple(ns)
        if key not in self._coefficients:
            if key not in self.prefactors:
                self.prefactors[key] = np.array(
                    [[_prefactor(k, om, self.hbar) for k in key]
                     for om in self.reps.omega.ravel().tolist()])[:, :, None]
            n = np.array(key, dtype=float)[:, None]
            self._coefficients[key] = (self.prefactors[key] / np.sqrt(self.r)) \
                * np.exp(1j * (n + 0.5) * self.theta)
        return self._coefficients[key]


def _psi_at(points, ns, active) -> list[np.ndarray]:
    """psi_n for every n of ns at each (snapshot, x) of points, for the
    representations ``active`` of the snapshots: one (len(active), len(ns),
    nodes) array per pair, from one Hermite recurrence over all abscissas."""
    rows = _hermite_rows(ns, np.stack([
        np.sqrt(snapshot.reps.omega[active] / snapshot.hbar) * x / snapshot.r[active]
        for snapshot, x in points]))
    return [snapshot.coefficient(ns)[active]
            * np.exp(snapshot.quad[active] * x * x) * h
            for (snapshot, x), h in zip(points, rows)]


def _live(errors) -> np.ndarray:
    """The points of a batch that no stage has refused yet."""
    return np.flatnonzero([error is None for error in errors])


def _one_point(values, errors):
    """The only point's row of values; its error is raised."""
    if errors[0] is not None:
        raise errors[0]
    return values[0]


def _spatial_integrals(integrands, bra: _Snapshot, ket: _Snapshot, m: int,
                       errors: list):
    """Integrals over the real line of the rows of integrands(active, x) for
    every point p not yet refused in ``errors``, whose moduli decay like
    exp(-s[p]^2 x^2) with s^2 the sum of the rates of bra and ket, on the
    Gauss-Hermite rule in y = s x. A point whose rates either snapshot
    refuses gets that refusal first.

    integrands takes an index array of points and their abscissas, shaped
    (len(active), 1, nodes), and returns (len(active), rows, nodes). A
    point's node count doubles from m up to MAX_SPATIAL_NODES, refined by
    numerics.refine until all its rows converge. Returns the values (points,
    rows) and each point's node count; a point that does not converge gets
    its ConvergenceError in ``errors``.
    """
    bra.refuse(errors)
    ket.refuse(errors)
    s = np.sqrt(bra.rate + ket.rate)[:, 0, 0]

    def evaluate(m, active):
        y, weights = hermite_rule(m)
        return np.concatenate([
            np.sum(weights * integrands(part, y / s[part, None, None]), axis=-1)
            / s[part, None] for part in chunks(active, m)])

    # m, 2m, 4m, ... up to MAX_SPATIAL_NODES
    levels = [m << k for k in range((MAX_SPATIAL_NODES // m).bit_length())]
    values, nodes, changes, refining = refine(evaluate, levels, _live(errors), len(s))
    for p in refining.tolist():
        errors[p] = ConvergenceError(
            f"spatial quadrature did not meet tol up to {nodes[p]} Gauss-Hermite"
            f" nodes (last change {changes[p]:.3e})")
    return values, nodes


def _certify(snapshots, ns, nodes: np.ndarray, errors: list) -> None:
    """Refuse in ``errors``, with a ConvergenceError, each point not yet
    refused whose nodes[p]-node rule, scaled to the width of each snapshot's
    states, does not integrate |psi_n|^2 to 1 within NORM_TOL for every n of
    ns. The first failure in the order (snapshot, n) is a point's error,
    after the refusal of its rates by a snapshot."""
    for snapshot in snapshots:
        snapshot.refuse(errors)
    points = _live(errors)
    for m in np.unique(nodes[points]).tolist():
        y, weights = hermite_rule(m)
        for part in chunks(points[nodes[points] == m], m):
            scales = [np.sqrt(2.0 * snapshot.rate[part]) for snapshot in snapshots]
            values = _psi_at([(snapshot, y / s) for snapshot, s in zip(snapshots, scales)],
                             ns, part)
            norms = np.stack([np.sum(weights * np.abs(psis) ** 2, axis=-1) / s[:, :, 0]
                              for s, psis in zip(scales, values)], axis=1)
            failed = ~(np.abs(norms - 1.0) <= NORM_TOL)
            for i in np.flatnonzero(failed.any(axis=(1, 2))).tolist():
                k, j = divmod(int(np.argmax(failed[i])), len(ns))
                errors[int(part[i])] = ConvergenceError(
                    f"the {m}-node spatial rule integrates |psi_{ns[j]}|^2 to"
                    f" {norms[i, k, j]:.12g}, not 1; the spatial integral is not"
                    " trustworthy")


def _overlaps(bra: _Snapshot, bra_ns, ket: _Snapshot, ket_ns, errors: list) -> np.ndarray:
    """<bra_ns[i]|ket_ns[i]> for every i at every point of the snapshots, one
    row per point; a point refused in ``errors`` is skipped, and one whose
    integral fails, or whose rates a snapshot refuses, gets its error there.
    Each state is evaluated at both times from one Hermite recurrence per
    level."""
    ns = list(bra_ns)
    if ns != list(ket_ns):
        ns += list(ket_ns)
    bra_rows = slice(0, len(bra_ns))
    ket_rows = slice(len(ns) - len(ket_ns), len(ns))

    def integrand(active, x):
        at_bra, at_ket = _psi_at([(bra, x), (ket, x)], ns, active)
        return np.conj(at_bra[:, bra_rows]) * at_ket[:, ket_rows]

    m = (max(bra_ns) + max(ket_ns)) // 2 + 16
    values, nodes = _spatial_integrals(integrand, bra, ket, m, errors)
    _certify((bra, ket), ns, nodes, errors)
    return values


def _check_width(rep: Representation, hbar: float) -> None:
    """Refuse the states of rep unless they are normalizable (require_valid),
    Omega/hbar, whose logarithm the normalization takes, is a normal float,
    and 1/(2 hbar), which scales their Gaussian exponent, is finite."""
    require_valid(rep)
    scale = rep.omega / hbar
    if not sys.float_info.min <= scale < math.inf:
        bound = "overflows" if scale > 1.0 else "underflows"
        raise InvalidParameterError(
            f"Omega/hbar {bound} double precision at Omega={rep.omega!r},"
            f" hbar={hbar!r}")
    if not 0.5 / hbar < math.inf:
        raise InvalidParameterError(
            f"1/(2 hbar) overflows double precision at hbar={hbar!r}")


def _refusals(reps, ns, hbar: float) -> list:
    """Each representation's refusal by the spatial stages, or None: its
    _check_width refusal, else a quantum number of ns beyond the Hermite cap."""
    degree = _attempt(lambda: [_check_degree(n) for n in ns])
    capped = degree if isinstance(degree, Exception) else None
    return [_attempt(lambda: _check_width(rep, hbar)) or capped for rep in reps]


def _family_overlaps(arrays: RepresentationArrays, ns, t_bra: float, t_ket: float,
                     config: PhysicalConfig, errors: list) -> np.ndarray:
    """<psi_n(t_bra)|psi_n(t_ket)> for every n of ns, one row per point of
    arrays not yet refused in ``errors``, refused as by _overlaps: rho and
    theta once per time, one Hermite recurrence up to max(ns), and the
    normalizations once for both times."""
    values = np.zeros((len(errors), len(ns)), dtype=complex)
    live = _live(errors)
    if live.size:
        reps = arrays.at(live)
        bra, ket = _Snapshot(reps, config, t_bra), _Snapshot(reps, config, t_ket)
        ket.prefactors = bra.prefactors
        found = [None] * len(live)
        values[live] = _overlaps(bra, ns, ket, ns, found)
        for p, error in zip(live.tolist(), found):
            errors[p] = error
    return values


def overlap(bra: QuantumState, t_bra: float, ket: QuantumState, t_ket: float) -> complex:
    """<bra(t_bra)|ket(t_ket)> by the self-certified Gauss-Hermite rule."""
    snapshots = [_Snapshot(RepresentationArrays.of([state.rep]), state.config, t)
                 for state, t in ((bra, t_bra), (ket, t_ket))]
    errors = [None]
    values = _overlaps(snapshots[0], (bra.n,), snapshots[1], (ket.n,), errors)
    return complex(_one_point(values, errors)[0])


def norm_quadrature(state: QuantumState, t: float) -> float:
    """integral of |psi_n|^2 dx, which must equal 1; this is the integral the
    certification of the other spatial results checks."""
    snapshot = _Snapshot(RepresentationArrays.of([state.rep]), state.config, t)
    errors = [None]
    values, _ = _spatial_integrals(
        lambda active, x: np.abs(_psi_at([(snapshot, x)], (state.n,), active)[0]) ** 2,
        snapshot, snapshot, state.n + 16, errors)
    return float(_one_point(values, errors)[0])


def energy_expectation_quadrature(state: QuantumState, t: float) -> float:
    """<psi|H|psi> by spatial quadrature, independent of the closed form.

    Uses the integrated-by-parts kinetic term (hbar^2/2M) |psi'|^2 so only the
    analytic first derivative enters.
    """
    rep = state.rep
    hbar = state.config.hbar
    snapshot = _Snapshot(RepresentationArrays.of([rep]), state.config, t)

    def integrand(_, xs):
        dpsi = psi_dx(state, xs, t)
        p = psi(state, xs, t)
        kinetic = (hbar ** 2 / (2.0 * rep.M)) * np.abs(dpsi) ** 2
        potential = 0.5 * rep.M * rep.w ** 2 * xs * xs * np.abs(p) ** 2
        return kinetic + potential

    errors = [None]
    values, nodes = _spatial_integrals(integrand, snapshot, snapshot, state.n + 16, errors)
    _certify((snapshot,), (state.n,), nodes, errors)
    return float(_one_point(values, errors)[0])
