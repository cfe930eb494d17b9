"""Shared numerical machinery.

Quadrature, phase unwrapping, best-rational approximation, and a
split-operator Schrodinger propagator used as the strongest
independent cross-check of the analytic wavefunctions.

All routines are deterministic: node layouts and summation orders are fixed,
so repeated runs produce bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = (x, w)
    return _GL_CACHE[order]


def composite_gauss_nodes(a: float, b: float, panels: int, order: int = 16):
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b]."""
    base_x, base_w = _gauss_rule(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and refinement cap for adaptive quadrature."""

    abs_tol: float = 1e-11
    rel_tol: float = 1e-10
    max_refinements: int = 14

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be at least 1")


DEFAULT_QUADRATURE = QuadratureSpec()


# Array elements one call of a batched evaluation may hold per temporary:
# batches are split so that memory stays that of a single small evaluation.
CHUNK_ELEMENTS = 1 << 13


def chunks(index: np.ndarray, width: int) -> list[np.ndarray]:
    """``index`` split into as few near-equal consecutive parts as keep each
    part's len(part) * width elements within about CHUNK_ELEMENTS."""
    if len(index) * width <= CHUNK_ELEMENTS:
        return [index]
    return np.array_split(index, -(-len(index) * width // CHUNK_ELEMENTS))


def integrate_rows(f, a: float, b: float, rows: int,
                   spec: QuadratureSpec = DEFAULT_QUADRATURE, *, order: int = 16,
                   initial_panels: int = 4):
    """Integrate ``rows`` integrands over [a, b] at once.

    f(active, nodes) gives the values of the rows ``active`` (an index array)
    at the abscissas ``nodes``, shape (len(active), len(nodes)), real or
    complex. Composite Gauss-Legendre panels; each row's panel count doubles
    until two successive results of that row agree within the spec
    tolerances, and a row that has converged drops out of the next level.
    Returns (values, errors, failures): each row's value, its last
    refinement difference, and the ConvergenceError of a row that hit the
    refinement cap, else None.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if a == b:
        return np.zeros(rows), np.zeros(rows), [None] * rows
    values = errors = prev = None
    active = np.arange(rows)
    for level in range(spec.max_refinements + 1):
        nodes, weights = composite_gauss_nodes(a, b, initial_panels * 2 ** level, order)
        cur = np.concatenate([np.sum(weights * f(part, nodes), axis=-1)
                              for part in chunks(active, len(nodes))])
        if values is None:
            values, errors = np.zeros(rows, dtype=cur.dtype), np.zeros(rows)
        if prev is not None:
            change = np.abs(cur - prev)
            done = change <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(cur))
            values[active[done]] = cur[done]
            errors[active] = change
            active, cur = active[~done], cur[~done]
            if not active.size:
                break
        prev = cur
    failures = [None] * rows
    for row in active.tolist():
        failures[row] = ConvergenceError(
            f"quadrature on [{a:g}, {b:g}] did not meet tol within "
            f"{spec.max_refinements} refinements (last change {errors[row]:.3e})")
    return values, errors, failures


def integrate_1d(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_QUADRATURE,
                 *, order: int = 16, initial_panels: int = 4):
    """Integrate a vectorized callable over [a, b]: integrate_rows for one row.

    Returns (value, error_estimate) where the estimate is the last refinement
    difference. The integrand may return real or complex arrays and must
    accept an ndarray of abscissas.

    Raises ConvergenceError when the refinement cap is hit.
    """
    def row(_, nodes):
        vals = np.asarray(f(nodes))
        if vals.shape != nodes.shape:
            raise ValueError("integrand must be vectorized over its input array")
        return vals[None]

    values, errors, (failure,) = integrate_rows(row, a, b, 1, spec, order=order,
                                                initial_panels=initial_panels)
    if failure is not None:
        raise failure
    value = complex(values[0]) if np.iscomplexobj(values) else float(values[0])
    return value, float(errors[0])


def sample_vectorized(f: Callable, ts: np.ndarray) -> np.ndarray:
    """f(ts) as a float array of the shape of ts, for a callable that must be
    vectorized over time arrays; a scalar-only callable raises ValueError."""
    message = "force callable must be vectorized over time arrays"
    try:
        values = np.asarray(f(ts), dtype=float)
    except TypeError as exc:
        raise ValueError(message) from exc
    if values.shape != ts.shape:
        raise ValueError(message)
    return values


def unwrap_phase(samples, margin: float = 1e-6) -> np.ndarray:
    """Continuous phase of a complex sequence.

    Starts from the principal argument of the first sample; consecutive output
    differences lie in (-pi, pi). A consecutive jump of at least pi - margin
    means the sampling is too coarse to fix the branch, and the caller should
    refine: that raises ConvergenceError.
    """
    z = np.asarray(samples, dtype=complex)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("expected a nonempty 1-d sequence of complex samples")
    if np.any(z == 0):
        raise ValueError("zero sample has no phase")
    steps = np.angle(z[1:] / z[:-1])
    if steps.size and np.max(np.abs(steps)) >= math.pi - margin:
        raise ConvergenceError(
            "consecutive phase jump too close to pi; refine the sampling")
    out = np.empty(z.shape, dtype=float)
    out[0] = np.angle(z[0])
    np.cumsum(steps, out=out[1:])
    out[1:] += out[0]
    return out


def rationalize(x: float, tol: float, max_den: int = 10 ** 6) -> Optional[tuple[int, int]]:
    """Best rational p/N with N <= max_den approximating x > 0.

    Continued-fraction best approximant (via Fraction.limit_denominator), so
    p and N are coprime by construction. Returns None when no fraction within
    relative tolerance tol exists under the denominator cap.
    """
    if not x > 0:
        raise ValueError("x must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    best = Fraction(x).limit_denominator(max_den)
    p, n = best.numerator, best.denominator
    if p <= 0:
        return None
    if abs(x - p / n) < tol * x:
        return p, n
    return None


@dataclass
class GridState:
    """Complex amplitudes on a uniform periodic spatial grid at one time.

    The grid excludes the right endpoint (FFT convention): node j sits at
    x_min + j*(x_max - x_min)/points.
    """

    x_min: float
    x_max: float
    points: int
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        if self.points < 64 or (self.points & (self.points - 1)) != 0:
            raise ValueError("points must be a power of two, at least 64")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.points,):
            raise ValueError("values must be a 1-d array of length points")
        if not np.all(np.isfinite(self.values.view(float))):
            raise ValueError("grid amplitudes must be finite")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.points

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.points)

    def norm(self) -> float:
        return math.sqrt(self.dx * float(np.sum(np.abs(self.values) ** 2)))

    def overlap(self, other: "GridState") -> complex:
        if (other.points != self.points or other.x_min != self.x_min
                or other.x_max != self.x_max):
            raise ValueError("grids do not match")
        return complex(self.dx * np.sum(np.conj(self.values) * other.values))


def _check_resolution(state: GridState):
    amp = np.abs(state.values)
    peak = float(np.max(amp))
    if peak == 0.0:
        raise ValueError("empty state cannot be propagated")
    edge = max(float(amp[0]), float(amp[-1]))
    if edge > 1e-10 * peak:
        raise ValueError(
            "domain too small: boundary amplitude exceeds 1e-10 of the peak")
    prob = amp ** 2
    total = float(np.sum(prob))
    xs = state.x
    mean = float(np.sum(prob * xs)) / total
    var = float(np.sum(prob * (xs - mean) ** 2)) / total
    if math.sqrt(var) < 8.0 * state.dx:
        raise ValueError("grid too coarse: fewer than 8 points per state width")


def propagate_schrodinger(initial: GridState, M: float, w: float,
                          t_final: float, steps: int,
                          force: Optional[Callable] = None,
                          hbar: float = 1.0) -> GridState:
    """Evolve a grid state under H = p^2/2M + M w^2 x^2/2 - F(t) x.

    Strang-split FFT stepping: half potential kick, full kinetic step, half
    potential kick, second order in the time step and norm-preserving. A
    time-dependent force enters the potential evaluated at the midpoint of
    each step: the force callable must be vectorized over time arrays, and it
    is called once, on the array of all step midpoints.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    if t_final == initial.t:
        return GridState(initial.x_min, initial.x_max, initial.points,
                         initial.values.copy(), initial.t)
    _check_resolution(initial)
    dt = (t_final - initial.t) / steps
    xs = initial.x
    k = 2.0 * math.pi * np.fft.fftfreq(initial.points, d=initial.dx)
    kinetic = np.exp(-0.5j * hbar * k * k * dt / M)
    v_quad = 0.5 * M * w * w * xs * xs
    psi = initial.values.astype(complex, copy=True)
    if force is None:
        half_kick = np.exp(-0.5j * v_quad * dt / hbar)
        for _ in range(steps):
            psi *= half_kick
            psi = np.fft.ifft(kinetic * np.fft.fft(psi))
            psi *= half_kick
    else:
        midpoints = initial.t + (np.arange(steps) + 0.5) * dt
        for f_mid in sample_vectorized(force, midpoints):
            half_kick = np.exp(-0.5j * (v_quad - f_mid * xs) * dt / hbar)
            psi *= half_kick
            psi = np.fft.ifft(kinetic * np.fft.fft(psi))
            psi *= half_kick
    return GridState(initial.x_min, initial.x_max, initial.points, psi, t_final)
