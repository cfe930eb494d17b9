"""Shared numerical machinery.

Quadrature, best-rational approximation, and a split-operator Schrodinger
propagator used as the strongest independent cross-check of the analytic
wavefunctions.

All routines are deterministic: node layouts and summation orders are fixed,
so repeated runs produce bit-identical results.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, InvalidParameterError

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


# Adaptive quadrature (refine): a result has converged when two successive
# levels agree within max(ABS_TOL, REL_TOL * |value|); integrate_rows refuses
# a result still refining after MAX_REFINEMENTS doublings.
ABS_TOL = 1e-11
REL_TOL = 1e-10
MAX_REFINEMENTS = 14

# Denominator cap of the best rational approximations of rationalize.
MAX_DENOMINATOR = 10 ** 6


# Array elements one call of a batched evaluation may hold per temporary:
# batches are split so that memory stays that of a single small evaluation.
CHUNK_ELEMENTS = 1 << 13


def chunks(items: np.ndarray, width: int) -> list[np.ndarray]:
    """The 1-d array ``items`` split into as few near-equal consecutive parts
    as keep each part's len(part) * width elements within about
    CHUNK_ELEMENTS."""
    if len(items) * width <= CHUNK_ELEMENTS:
        return [items]
    return np.array_split(items, -(-len(items) * width // CHUNK_ELEMENTS))


def refine(evaluate, levels, active: np.ndarray, rows: int):
    """Refine the rows ``active`` of a batch of ``rows`` over ``levels``.

    evaluate(level, active) gives the rows ``active`` (an index array) at one
    level, shape (len(active), ...). A row has converged when all its entries
    agree with the previous level within max(ABS_TOL, REL_TOL |value|), and
    drops out of the next level. Returns (values, reached, changes, active):
    each row's value (zero unless it converged), the last level it reached,
    its last change (the largest over its entries; inf before a second
    level) and the rows still refining after the last level.
    """
    values = prev = None
    reached = np.zeros(rows, dtype=int)
    changes = np.full(rows, math.inf)
    for level in levels:
        cur = evaluate(level, active)
        if values is None:
            values = np.zeros((rows,) + cur.shape[1:], dtype=cur.dtype)
        reached[active] = level
        if prev is not None:
            change = np.abs(cur - prev).reshape(len(active), -1)
            tol = np.maximum(ABS_TOL, REL_TOL * np.abs(cur)).reshape(change.shape)
            done = (change <= tol).all(axis=1)
            values[active[done]] = cur[done]
            changes[active] = change.max(axis=1)
            active, cur = active[~done], cur[~done]
        prev = cur
        if not active.size:
            break
    return values, reached, changes, active


def integrate_rows(f, a: float, b: float, rows: int):
    """Integrate ``rows`` integrands over [a, b] at once.

    f(active, nodes) gives the values of the rows ``active`` (an index array)
    at the abscissas ``nodes``, shape (len(active), len(nodes)), real or
    complex. Composite 16-point Gauss-Legendre panels, four at first, refined
    row by row: each row's panel count doubles until it converges.
    Returns (values, errors, failures): each row's value, its last
    refinement difference, and the ConvergenceError of a row still refining
    after MAX_REFINEMENTS doublings, else None.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if a == b:
        return np.zeros(rows), np.zeros(rows), [None] * rows

    def evaluate(panels, active):
        nodes, weights = composite_gauss_nodes(a, b, panels)
        return np.concatenate([np.sum(weights * f(part, nodes), axis=-1)
                               for part in chunks(active, len(nodes))])

    values, _, errors, refining = refine(
        evaluate, [4 << k for k in range(MAX_REFINEMENTS + 1)], np.arange(rows), rows)
    failures = [None] * rows
    for row in refining.tolist():
        failures[row] = ConvergenceError(
            f"quadrature on [{a:g}, {b:g}] did not meet tol within "
            f"{MAX_REFINEMENTS} refinements (last change {errors[row]:.3e})")
    return values, errors, failures


def integrate_1d(f, a: float, b: float):
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

    values, errors, (failure,) = integrate_rows(row, a, b, 1)
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


def rationalize(x: float, tol: float) -> Optional[tuple[int, int]]:
    """Best rational p/N with N <= MAX_DENOMINATOR approximating x > 0.

    Continued-fraction best approximant (via Fraction.limit_denominator), so
    p and N are coprime by construction. Returns None when no fraction within
    relative tolerance tol exists under the denominator cap.
    """
    if not x > 0:
        raise ValueError("x must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    best = Fraction(x).limit_denominator(MAX_DENOMINATOR)
    p, n = best.numerator, best.denominator
    if p <= 0:
        return None
    if abs(x - p / n) < tol * x:
        return p, n
    return None


def _integer(value, name: str) -> int:
    """value as a Python int; floats and bools are refused, not rounded."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise InvalidParameterError(f"{name} must be an integer")
    return operator.index(value)


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
        self.points = _integer(self.points, "points")
        if self.points < 64 or (self.points & (self.points - 1)) != 0:
            raise InvalidParameterError("points must be a power of two, at least 64")
        if not (-math.inf < self.x_min < self.x_max < math.inf and math.isfinite(self.t)):
            raise InvalidParameterError("x_min < x_max and t must be finite")
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.points,):
            raise InvalidParameterError("values must be a 1-d array of length points")
        if not np.all(np.isfinite(self.values.view(float))):
            raise InvalidParameterError("grid amplitudes must be finite")

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
    prob = (amp / peak) ** 2   # a peak below 1e-154 would square to zero
    total = float(np.sum(prob))
    xs = state.x
    mean = float(np.sum(prob * xs)) / total
    var = float(np.sum(prob * (xs - mean) ** 2)) / total
    if math.sqrt(var) < 8.0 * state.dx:
        raise ValueError("grid too coarse: fewer than 8 points per state width")


def _fft_kernels():
    """The pocketfft kernels ``fft(a, fct, out=)`` and ``ifft(a, fct, out=)``
    behind np.fft.fft and np.fft.ifft, which multiply the transform by fct.

    np.fft's wrappers spend about 1.6 us a call on norm and axis handling, a
    tenth of a propagator step at 1024 points. numpy imports numpy.fft on
    first use, and so does this.
    """
    from numpy.fft._pocketfft_umath import fft, ifft
    return fft, ifft


# Steps whose merged force kicks are built at once: a block holds
# KICK_BLOCK * points complex values, 256 KiB at 1024 points.
KICK_BLOCK = 16


def propagate_schrodinger(initial: GridState, M: float, w: float,
                          t_final: float, steps: int,
                          force: Optional[Callable] = None,
                          hbar: float = 1.0) -> GridState:
    """Evolve a grid state under H = p^2/2M + M w^2 x^2/2 - F(t) x.

    Strang-split FFT stepping: half potential kick, full kinetic step, half
    potential kick, second order in the time step and norm-preserving. A
    time-dependent force enters the potential evaluated at the midpoint of
    each step: the force callable must be vectorized over time arrays, and it
    is called once, on the array of all step midpoints. The closing half kick
    of one step and the opening half kick of the next are applied as one
    merged kick; with a force, the merged kicks are built for KICK_BLOCK steps
    at a time.
    """
    steps = _integer(steps, "steps")
    if steps < 1:
        raise InvalidParameterError("steps must be positive")
    if not (all(map(math.isfinite, (M, w, t_final, hbar))) and M > 0 and hbar > 0):
        raise InvalidParameterError(
            "M, w, t_final and hbar must be finite, and M and hbar positive")
    if t_final == initial.t:
        return GridState(initial.x_min, initial.x_max, initial.points,
                         initial.values.copy(), initial.t)
    _check_resolution(initial)
    dt = (t_final - initial.t) / steps
    xs = initial.x
    k = 2.0 * math.pi * np.fft.fftfreq(initial.points, d=initial.dx)
    # the inverse FFT's 1/points goes into the kinetic factor, which saves a
    # pass per step; points is a power of two, so no rounding changes
    kinetic = np.exp(-0.5j * hbar * k * k * dt / M) / initial.points
    quad_kick = np.exp(-0.5j * (0.5 * M * w * w * xs * xs) * dt / hbar)
    psi = initial.values.astype(complex, copy=True)
    fft, ifft = _fft_kernels()

    def drift():
        # unscaled, as np.fft.fft and np.fft.ifft(norm="forward") transform
        ifft(np.multiply(kinetic, fft(psi, 1.0, out=psi), out=psi), 1.0, out=psi)

    quad_step = quad_kick * quad_kick
    if force is None:
        psi *= quad_kick
        for _ in range(steps - 1):
            drift()
            psi *= quad_step
        drift()
        psi *= quad_kick
        return GridState(initial.x_min, initial.x_max, initial.points, psi, t_final)
    midpoints = initial.t + (np.arange(steps) + 0.5) * dt
    f_mid = sample_vectorized(force, midpoints)
    if not np.all(np.isfinite(f_mid)):
        raise InvalidParameterError("force samples must be finite")
    # the force's kick exp(i a x_j) is rank 1 in the split j = b r + s of the
    # grid index: a coarse factor over r times a fine factor over s, so a kick
    # takes 2 sqrt(points) exponentials, not points
    b = 2 ** (initial.points.bit_length() // 2)
    coarse, fine = 1j * xs[::b, None], 1j * initial.dx * np.arange(b)
    block = np.empty((KICK_BLOCK, initial.points // b, b), dtype=complex)

    def kicks(quad, a):
        """quad * exp(i a_k x) for each a_k of the 1-d array a, one per row,
        in ``block``, which the next call overwrites."""
        out = block[:len(a)]
        np.multiply(quad.reshape(-1, b), np.exp(a[:, None, None] * coarse), out=out)
        out *= np.exp(a[:, None, None] * fine)
        return out.reshape(len(a), -1)

    half = (0.5 * dt / hbar) * f_mid
    merged = half[:-1] + half[1:]
    psi *= kicks(quad_kick, half[:1])[0]
    for start in range(0, steps - 1, KICK_BLOCK):
        for kick in kicks(quad_step, merged[start:start + KICK_BLOCK]):
            drift()
            psi *= kick
    drift()
    psi *= kicks(quad_kick, half[-1:])[0]
    return GridState(initial.x_min, initial.x_max, initial.points, psi, t_final)
