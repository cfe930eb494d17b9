"""Driven oscillator: Fourier forces, periodic particular solutions, and the
Berry phase contribution of the drive.

A periodic force F(t) = sum_n f_n exp(i n omega_f t) admits the bounded
particular solution

    x_p(t) = sum_n f_n / (M (w^2 - n^2 omega_f^2)) exp(i n omega_f t)
             + D exp(i w t) + conj(D) exp(-i w t)

with a free complex homogeneous amplitude D. When the period ratio
tau0/tau_f equals p/N in lowest terms, x_p is (N tau0)-periodic and the Berry
phase over N tau0 separates into N times the undriven phase plus the drive
term (1/hbar) int M xdot_p^2 dt, which this module evaluates both in closed
form (mode by mode; cross terms cancel over the joint period) and by blind
time quadrature. Disagreement between the two is a bug, not a branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import (ConditioningError, ConvergenceError, IncommensurateError,
                     InvalidParameterError, ResonanceError)
from .numerics import DEFAULT_QUADRATURE, QuadratureSpec, integrate_1d, rationalize
from .phase import berry_phase
from .representation import PhysicalConfig, Representation
from .wavefunction import QuantumState, _parts, hermite

# Relative threshold below which a mode coefficient counts as absent, and the
# conditioning floor on resonance denominators |w^2 - n^2 omega_f^2|.
COEFF_EPS = 1e-12
RESONANCE_DENOM_EPS = 1e-9


def _ordered_modes(coefficients: Mapping[int, complex]) -> list[int]:
    return sorted(coefficients, key=lambda n: (abs(n), n))


@dataclass(frozen=True)
class DrivingForce:
    """Real periodic force as complex Fourier coefficients over omega_f."""

    omega_f: float
    coefficients: dict[int, complex]

    def __post_init__(self):
        if not (math.isfinite(self.omega_f) and self.omega_f > 0):
            raise InvalidParameterError(
                f"omega_f must be finite and positive, got {self.omega_f!r}")
        coeffs = {int(n): complex(f) for n, f in self.coefficients.items()
                  if f != 0}
        for n, f in coeffs.items():
            if not cmath.isfinite(f):
                raise InvalidParameterError(
                    f"force coefficient of mode {n} must be finite, got {f!r}")
        scale = max((abs(f) for f in coeffs.values()), default=0.0)
        for n, f in coeffs.items():
            mate = coeffs.get(-n, 0j)
            if abs(mate - f.conjugate()) > COEFF_EPS * max(scale, 1.0):
                raise InvalidParameterError(
                    f"coefficients must satisfy f_-n = conj(f_n) for a real"
                    f" force; violated at n = {n}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def tau_f(self) -> float:
        return 2.0 * math.pi / self.omega_f

    def norm(self) -> float:
        return math.sqrt(sum(abs(f) ** 2 for f in self.coefficients.values()))

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        total = np.zeros(arr.shape, dtype=complex)
        for n in _ordered_modes(self.coefficients):
            total += self.coefficients[n] * np.exp(1j * n * self.omega_f * arr)
        out = total.real
        return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class Commensurability:
    """Coprime positive integers with tau0/tau_f = p/N."""

    p: int
    N: int

    def __post_init__(self):
        if self.p < 1 or self.N < 1:
            raise ValueError("p and N must be positive")
        if math.gcd(self.p, self.N) != 1:
            raise ValueError("p and N must be coprime")


def fourier_decompose(force: Callable, omega_f: float, n_max: int, *,
                      samples: Optional[int] = None,
                      max_tail_fraction: float = 1e-8) -> tuple[DrivingForce, float]:
    """Fourier coefficients f_n = (1/tau_f) int_0^tau_f F(t) exp(-i n omega_f t) dt.

    Uniform sampling over one period (the trapezoid rule is exact for
    band-limited periodic integrands) evaluated by FFT. Reality is enforced by
    symmetrizing the +/-n pairs. Returns the truncated force together with the
    tail energy fraction, the share of the sampled signal's power not captured
    by |n| <= n_max; a tail above max_tail_fraction is refused because the
    truncation would misrepresent the force.
    """
    if not omega_f > 0:
        raise ValueError("omega_f must be positive")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if samples is None:
        count = max(256, 1 << int(math.ceil(math.log2(8 * (n_max + 1)))))
    else:
        count = samples
    if count <= 2 * n_max:
        raise ValueError("need more than 2*n_max samples")
    tau_f = 2.0 * math.pi / omega_f
    ts = tau_f * np.arange(count) / count
    vals = np.asarray(force(ts), dtype=float)
    if vals.shape != ts.shape:
        raise ValueError("force callable must be vectorized over time arrays")
    spectrum = np.fft.fft(vals) / count
    coeffs: dict[int, complex] = {}
    for n in range(-n_max, n_max + 1):
        plus = spectrum[n % count]
        minus = spectrum[(-n) % count]
        coeffs[n] = 0.5 * (plus + minus.conjugate())
    # drop rounding-noise modes so they cannot masquerade as resonant drive
    floor = 1e-14 * max((abs(f) for f in coeffs.values()), default=0.0)
    coeffs = {n: f for n, f in coeffs.items() if abs(f) > floor}
    total_energy = float(np.mean(vals ** 2))
    retained = sum(abs(f) ** 2 for f in coeffs.values())
    tail = 0.0 if total_energy == 0.0 else max(0.0, total_energy - retained) / total_energy
    if tail > max_tail_fraction:
        raise ConvergenceError(
            f"Fourier tail energy fraction {tail:.3e} exceeds"
            f" {max_tail_fraction:g}; raise n_max or the allowance")
    return DrivingForce(omega_f=omega_f, coefficients=coeffs), tail


def commensurability(tau0: float, tau_f: float, tolerance: float = 1e-13,
                     max_den: int = 10 ** 6) -> Commensurability:
    """Coprime (p, N) with |tau0/tau_f - p/N| < tolerance * (p/N).

    The default tolerance sits just above double-precision rounding: period
    ratios constructed as actual fractions pass, while irrational ratios have
    no convergent under the denominator cap that comes this close.
    """
    if not (tau0 > 0 and tau_f > 0):
        raise ValueError("periods must be positive")
    ratio = tau0 / tau_f
    found = rationalize(ratio, tol=max(tolerance, 1e-15), max_den=max_den)
    if found is not None:
        p, n = found
        if abs(ratio - p / n) < tolerance * (p / n):
            return Commensurability(p=p, N=n)
    raise IncommensurateError(
        f"tau0/tau_f = {ratio!r} has no rational approximation p/N with"
        f" N <= {max_den} within relative tolerance {tolerance:g};"
        " Berry phase undefined in this representation")


@dataclass(frozen=True)
class ParticularSolution:
    """Bounded periodic solution of xdd + w^2 x = F/M plus D exp(iwt) + c.c."""

    omega_f: float
    modes: dict[int, complex]
    D: complex
    w: float

    def _mode_list(self) -> list[tuple[float, complex]]:
        out = [(n * self.omega_f, self.modes[n]) for n in _ordered_modes(self.modes)]
        if self.D != 0:
            out.append((self.w, self.D))
            out.append((-self.w, self.D.conjugate()))
        return out

    def _sum(self, t, weight):
        arr = np.asarray(t, dtype=float)
        total = np.zeros(arr.shape, dtype=complex)
        for nu, amp in self._mode_list():
            total += weight(nu) * amp * np.exp(1j * nu * arr)
        out = total.real
        return float(out) if arr.ndim == 0 else out

    def x(self, t):
        return self._sum(t, lambda nu: 1.0)

    def xdot(self, t):
        return self._sum(t, lambda nu: 1j * nu)

    def xddot(self, t):
        return self._sum(t, lambda nu: -nu * nu)


def particular_solution(force: DrivingForce, rep: Representation,
                        comm: Optional[Commensurability] = None,
                        D: complex = 0j) -> ParticularSolution:
    """Mode-by-mode particular solution for a commensurate (or D=0) drive.

    For p = 1 the mode n = N would resonate with the oscillator, so its
    coefficient must vanish; near-resonant denominators are refused outright
    rather than returned with huge amplification.
    """
    D = complex(D)
    if not cmath.isfinite(D):
        raise InvalidParameterError(f"D must be finite, got {D!r}")
    w, mass = rep.w, rep.M
    omega_f = force.omega_f
    norm = force.norm()
    if comm is not None and comm.p == 1:
        resonant = force.coefficients.get(comm.N, 0j)
        if abs(resonant) >= COEFF_EPS * max(norm, 1e-300):
            raise ResonanceError(
                f"p = 1 requires the coefficient of mode N = {comm.N} to vanish;"
                " the particular solution is otherwise unbounded")
    modes: dict[int, complex] = {}
    for n in _ordered_modes(force.coefficients):
        denom = w * w - n * n * omega_f * omega_f
        if abs(denom) < RESONANCE_DENOM_EPS * w * w:
            raise ConditioningError(
                f"mode {n} is within {RESONANCE_DENOM_EPS:g}*w^2 of resonance;"
                " the amplified solution would not be trustworthy")
        modes[n] = force.coefficients[n] / (mass * denom)
    return ParticularSolution(omega_f=omega_f, modes=modes, D=D, w=w)


def _exp_integral(mu, t0, t1):
    """int_{t0}^{t1} exp(i mu z) dz, stable for small and zero mu."""
    span = t1 - t0
    return span * np.exp(0.5j * mu * (t0 + t1)) * np.sinc(mu * span / (2.0 * math.pi))


def action_phase(rep: Representation, xp: ParticularSolution, t0: float, t):
    """(M/2) int_{t0}^{t} [w^2 x_p^2 - xdot_p^2] dz, integrated mode by mode.

    The reference time t0 shifts the result by a constant that cancels in any
    cyclic phase difference.
    """
    w = rep.w
    arr = np.asarray(t, dtype=float)
    pairs = xp._mode_list()
    total = np.zeros(arr.shape, dtype=complex)
    for nu_j, a_j in pairs:
        for nu_k, a_k in pairs:
            coeff = a_j * a_k * (w * w + nu_j * nu_k)
            if coeff != 0:
                total += coeff * _exp_integral(nu_j + nu_k, t0, arr)
    out = 0.5 * rep.M * total.real
    return float(out) if arr.ndim == 0 else out


def velocity_squared_integral(xp: ParticularSolution, t0: float, t1: float) -> float:
    """int_{t0}^{t1} xdot_p^2 dz evaluated analytically mode by mode."""
    pairs = xp._mode_list()
    total = 0j
    for nu_j, a_j in pairs:
        for nu_k, a_k in pairs:
            coeff = -nu_j * nu_k * a_j * a_k
            if coeff != 0:
                total += coeff * _exp_integral(nu_j + nu_k, t0, t1)
    return float(total.real)


def drive_phase_closed(force: DrivingForce, comm: Commensurability, M: float,
                       w: float, hbar: float, D: complex = 0j) -> float:
    """Closed-form drive term of the Berry phase over N tau0.

    2 pi N^3 p^2 / (hbar M w^3) * sum_n n^2 |f_n|^2 / (p^2 n^2 - N^2)^2
    + 4 pi (M N w / hbar) |D|^2. Every mode and the two homogeneous
    frequencies +/-w contribute their mean-square velocity over the joint
    period; cross terms integrate to zero there.
    """
    p, N = comm.p, comm.N
    total = 0.0
    norm = force.norm()
    for n in _ordered_modes(force.coefficients):
        if n == 0:
            continue
        denom = p * p * n * n - N * N
        if denom == 0:
            if abs(force.coefficients[n]) < COEFF_EPS * max(norm, 1e-300):
                continue
            raise ResonanceError(
                f"mode {n} coincides with the oscillator frequency (p*n = N)")
        total += n * n * abs(force.coefficients[n]) ** 2 / (denom * denom)
    drive = 2.0 * math.pi * N ** 3 * p * p / (hbar * M * w ** 3) * total
    drive += 4.0 * math.pi * M * N * w * abs(complex(D)) ** 2 / hbar
    return drive


def drive_phase_quadrature(xp: ParticularSolution, M: float, hbar: float,
                           duration: float,
                           spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """(1/hbar) int_0^duration M xdot_p^2 dt by blind time quadrature."""
    value, _ = integrate_1d(lambda ts: xp.xdot(ts) ** 2, 0.0, duration, spec)
    return M * float(value) / hbar


@dataclass(frozen=True)
class DrivenPhaseResult:
    """Berry phase of the driven oscillator over N tau0, decomposed."""

    n: int
    p: int
    N: int
    duration: float
    gamma_undriven: float
    drive_closed: float
    drive_quadrature: float

    @property
    def gamma_total(self) -> float:
        return self.gamma_undriven + self.drive_closed


def berry_phase_driven(rep: Representation, n: int, force: DrivingForce,
                       D: complex, comm: Commensurability,
                       config: PhysicalConfig = PhysicalConfig(),
                       spec: QuadratureSpec = DEFAULT_QUADRATURE) -> DrivenPhaseResult:
    """Berry phase over N tau0: N times the undriven phase plus the drive term.

    The drive term is computed both in closed form and by quadrature of the
    mean-square velocity; both are returned so callers can confront them.
    """
    xp = particular_solution(force, rep, comm, D)
    undriven = comm.N * berry_phase(rep, n, "full").gamma
    closed = drive_phase_closed(force, comm, rep.M, rep.w, config.hbar, D)
    duration = comm.N * rep.tau0
    quadrature = drive_phase_quadrature(xp, rep.M, config.hbar, duration, spec)
    return DrivenPhaseResult(n=n, p=comm.p, N=comm.N, duration=duration,
                             gamma_undriven=undriven, drive_closed=closed,
                             drive_quadrature=quadrature)


def berry_phase_special_rep(force: DrivingForce, M: float, w: float,
                            hbar: float) -> float:
    """Berry phase over one force period in the C=1, beta=0, D=0 representation.

    (2 pi omega_f / (hbar M)) sum_n n^2 |f_n|^2 / (n^2 omega_f^2 - w^2)^2.
    Valid for any periodic particular solution: no commensurability between
    tau0 and tau_f is needed because the undriven phase vanishes there for
    every evolution time.
    """
    if not (M > 0 and w > 0 and hbar > 0):
        raise ValueError("M, w, hbar must be positive")
    omega_f = force.omega_f
    total = 0.0
    for n in _ordered_modes(force.coefficients):
        if n == 0:
            continue
        denom = n * n * omega_f * omega_f - w * w
        if abs(denom) < RESONANCE_DENOM_EPS * w * w:
            raise ResonanceError(
                f"mode {n} is (near-)resonant; no bounded periodic solution")
        total += n * n * abs(force.coefficients[n]) ** 2 / (denom * denom)
    return 2.0 * math.pi * omega_f / (hbar * M) * total


def psi_driven(state: QuantumState, xp: ParticularSolution, x, t):
    """Driven wavefunction: the undriven structure recentered at x - x_p with
    the extra factor exp[i (M xdot_p x + action)/hbar].

    The winding factor uses the same continuous branch of arg(u - iv) as the
    undriven wavefunction.
    """
    rep = state.rep
    hbar = state.config.hbar
    arr_t = np.asarray(t, dtype=float)
    xpv = xp.x(arr_t)
    xdv = xp.xdot(arr_t)
    action = action_phase(rep, xp, 0.0, arr_t)
    x = np.asarray(x, dtype=float)
    shifted = x - xpv
    env, y, _, _ = _parts(state, shifted, arr_t)
    extra = np.exp(1j * (rep.M * xdv * x + action) / hbar)
    out = env * extra * hermite(state.n, y)
    arr = np.asarray(out)
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError("driven wavefunction produced non-finite values")
    return complex(out) if arr.ndim == 0 else out
