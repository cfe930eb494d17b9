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
form, the duration times the time average of M xdot_p^2 / hbar at the float
omega_f that x_p uses (p/N fixes only the duration), and by blind time
quadrature. Disagreement between the two is a bug, not a branch.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import (ConditioningError, ConvergenceError, IncommensurateError,
                     InvalidParameterError, ResonanceError, _attempt, _value)
from .numerics import (MAX_DENOMINATOR, chunks, integrate_rows, rationalize,
                       sample_vectorized)
from .phase import _closed_form_grid
from .representation import PhysicalConfig, Representation
from .wavefunction import QuantumState, _parts, _scalar_time, hermite

# Relative threshold below which a mode coefficient counts as absent, and the
# conditioning floor on resonance denominators |w^2 - n^2 omega_f^2|.
COEFF_EPS = 1e-12
RESONANCE_DENOM_EPS = 1e-9

# The largest integer a float holds: a larger int raises OverflowError when
# it is converted.
_LARGEST_FLOAT = int(sys.float_info.max)


def _ordered_modes(coefficients: Mapping[int, complex]) -> list[int]:
    return sorted(coefficients, key=lambda n: (abs(n), n))


def _mode_arrays(coefficients: Mapping[int, complex], omega_f: float,
                 extra: tuple[tuple[float, complex], ...] = ()):
    """Read-only angular frequencies n omega_f, in (|n|, n) order, and their
    complex amplitudes; the (frequency, amplitude) pairs of ``extra`` go last."""
    order = _ordered_modes(coefficients)
    nu = np.array([n * omega_f for n in order] + [f for f, _ in extra], dtype=float)
    amp = np.array([coefficients[n] for n in order] + [a for _, a in extra],
                   dtype=complex)
    nu.flags.writeable = False
    amp.flags.writeable = False
    return nu, amp


def _blocked_sum(t, basis, coeff):
    """Re sum_k coeff_k basis(t)_k for scalar or array t; a 0-d t gives a float.

    ``basis`` maps a column of B times to a (B, coeff.size) matrix. Times go
    through it in numerics.chunks, so temporaries stay bounded for any number
    of times.
    """
    arr = np.asarray(t, dtype=float)
    out = np.concatenate([np.sum(basis(part[:, None]) * coeff, axis=1).real
                          for part in chunks(arr.reshape(-1), coeff.size)])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _mode_sum(t, nu, amp):
    """Re sum_k amp_k exp(i nu_k t)."""
    return _blocked_sum(t, lambda ts: np.exp(1j * nu * ts), amp)


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
            if n * n > _LARGEST_FLOAT:
                raise InvalidParameterError(
                    f"force mode number of {n.bit_length()} bits has n^2 beyond"
                    " the float range")
            if not cmath.isfinite(f):
                raise InvalidParameterError(
                    f"force coefficient of mode {n} must be finite, got {f!r}")
            if not math.isfinite(f.real * f.real + f.imag * f.imag):
                raise InvalidParameterError(
                    f"force coefficient of mode {n} must have |f|^2 within the"
                    f" float range, got {f!r}")
            if not math.isfinite(n * self.omega_f):
                raise InvalidParameterError(
                    f"the frequency n omega_f of force mode {n} is beyond the"
                    f" float range at omega_f = {self.omega_f!r}")
        scale = max((abs(f) for f in coeffs.values()), default=0.0)
        for n, f in coeffs.items():
            mate = coeffs.get(-n, 0j)
            if abs(mate - f.conjugate()) > COEFF_EPS * max(scale, 1.0):
                raise InvalidParameterError(
                    f"coefficients must satisfy f_-n = conj(f_n) for a real"
                    f" force; violated at n = {n}")
        object.__setattr__(self, "coefficients", coeffs)
        nu, amp = _mode_arrays(coeffs, self.omega_f)
        object.__setattr__(self, "_nu", nu)
        object.__setattr__(self, "_amp", amp)

    @property
    def tau_f(self) -> float:
        return 2.0 * math.pi / self.omega_f

    def norm(self) -> float:
        return math.hypot(*(abs(f) for f in self.coefficients.values()))

    def __call__(self, t):
        return _mode_sum(t, self._nu, self._amp)


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
    vals = sample_vectorized(force, ts)
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


# Just above double-precision rounding: period ratios constructed as actual
# fractions pass, while irrational ratios have no convergent under the
# denominator cap that comes this close.
COMMENSURABILITY_TOL = 1e-13


def commensurability(tau0: float, tau_f: float) -> Commensurability:
    """Coprime (p, N) with |tau0/tau_f - p/N| < COMMENSURABILITY_TOL * tau0/tau_f.
    A ratio that overflows or underflows to 0 has no p/N."""
    if not (tau0 > 0 and tau_f > 0):
        raise ValueError("periods must be positive")
    ratio = tau0 / tau_f
    found = rationalize(ratio, tol=COMMENSURABILITY_TOL) \
        if 0.0 < ratio < math.inf else None
    if found is not None:
        return Commensurability(*found)
    raise IncommensurateError(
        f"tau0/tau_f = {ratio!r} has no rational approximation p/N with"
        f" N <= {MAX_DENOMINATOR} within relative tolerance {COMMENSURABILITY_TOL:g};"
        " Berry phase undefined in this representation")


@dataclass(frozen=True)
class ParticularSolution:
    """Bounded periodic solution of xdd + w^2 x = F/M plus D exp(iwt) + c.c."""

    omega_f: float
    modes: dict[int, complex]
    D: complex
    w: float

    def __post_init__(self):
        D = complex(self.D)
        homogeneous = ((self.w, D), (-self.w, D.conjugate())) if D != 0 else ()
        nu, amp = _mode_arrays(self.modes, self.omega_f, homogeneous)
        object.__setattr__(self, "_nu", nu)
        object.__setattr__(self, "_amp", amp)

    def x(self, t):
        return _mode_sum(t, self._nu, self._amp)

    def xdot(self, t):
        return _mode_sum(t, self._nu, 1j * self._nu * self._amp)

    def xddot(self, t):
        return _mode_sum(t, self._nu, -self._nu * self._nu * self._amp)


def check_amplitude(D, w: float) -> complex:
    """The free homogeneous amplitude D as a complex; refused unless its
    velocity bound (2 w |D|)^2, which the drive quadrature squares, is finite."""
    D = complex(D)
    _finite(lambda: (2.0 * w * math.hypot(D.real, D.imag)) ** 2,
            "the velocity bound (2 w |D|)^2 at D = {!r}", D)
    return D


def particular_solution(force: DrivingForce, rep: Representation,
                        comm: Optional[Commensurability] = None,
                        D: complex = 0j) -> ParticularSolution:
    """Mode-by-mode particular solution for a commensurate (or D=0) drive.

    For p = 1 the mode n = N would resonate with the oscillator, so its
    coefficient must vanish; near-resonant denominators are refused outright
    rather than returned with huge amplification. D is checked first.
    """
    D = check_amplitude(D, rep.w)
    return ParticularSolution(force.omega_f, _forced_modes(force, rep.M, rep.w, comm),
                              D, rep.w)


def _forced_modes(force: DrivingForce, mass: float, w: float,
                  comm: Optional[Commensurability]) -> dict[int, complex]:
    """The particular solution's mode amplitudes f_n / (M (w^2 - n^2 omega_f^2)),
    after the resonance and conditioning checks: the part of
    particular_solution that D leaves alone, refused unless their velocity
    bound (sum |n omega_f a_n|)^2 is finite."""
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
    _finite(lambda: sum(math.hypot(a.real, a.imag) * abs(n) * omega_f
                        for n, a in modes.items()) ** 2,
            "the velocity bound (sum |n omega_f a_n|)^2 at omega_f = {!r}", omega_f)
    return modes


def _exp_integral(mu, t0, t1):
    """int_{t0}^{t1} exp(i mu z) dz, stable for small and zero mu."""
    span = t1 - t0
    return span * np.exp(0.5j * mu * (t0 + t1)) * np.sinc(mu * span / (2.0 * math.pi))


def _pair_integral(nu, coeff, t0: float, t):
    """Re sum_jk coeff_jk int_{t0}^{t} exp(i (nu_j + nu_k) z) dz."""
    mu = np.add.outer(nu, nu).ravel()
    return _blocked_sum(t, lambda ts: _exp_integral(mu, t0, ts), coeff.ravel())


def action_phase(rep: Representation, xp: ParticularSolution, t0: float, t):
    """(M/2) int_{t0}^{t} [w^2 x_p^2 - xdot_p^2] dz, integrated mode by mode.

    The reference time t0 shifts the result by a constant that cancels in any
    cyclic phase difference.
    """
    w = rep.w
    nu, amp = xp._nu, xp._amp
    coeff = np.outer(amp, amp) * (w * w + np.outer(nu, nu))
    return 0.5 * rep.M * _pair_integral(nu, coeff, t0, t)


def velocity_squared_integral(xp: ParticularSolution, t0: float, t1: float) -> float:
    """int_{t0}^{t1} xdot_p^2 dz evaluated analytically mode by mode."""
    nu, amp = xp._nu, xp._amp
    return _pair_integral(nu, -np.outer(nu, nu) * np.outer(amp, amp), t0, t1)


def drive_phase_closed(force: DrivingForce, comm: Commensurability, M: float,
                       w: float, hbar: float, D: complex = 0j) -> float:
    """Closed-form drive term of the Berry phase over N tau0 (_drive_terms)."""
    return _value(_drive_terms(force, M, w, hbar, comm.N * (2.0 * math.pi / w), [D])[0])


def _forced_rate(force: DrivingForce, stiffness: float, w: float,
                 hbar: float) -> float:
    """The force's part of the time average of M xdot_p^2 / hbar at the float
    omega_f, (1/(hbar M w^2)) sum_n x_n^2 |f_n|^2 / (x_n^2 - 1)^2 with
    x_n = n omega_f / w: each term as (|f_n|^2 / s) / (x_n - 1/x_n)^2, s the
    largest |f_n|^2, so none overflows, then divided by the stiffness M w^2.
    A mode within RESONANCE_DENOM_EPS of x_n^2 = 1 is refused."""
    omega_f = force.omega_f
    powers = {n: f.real * f.real + f.imag * f.imag
              for n, f in force.coefficients.items() if n != 0}
    scale = max(powers.values(), default=0.0) or 1.0   # every |f_n|^2 may underflow
    total = 0.0
    for n in _ordered_modes(powers):
        x = n * omega_f / w
        if abs(x * x - 1.0) < RESONANCE_DENOM_EPS:
            raise ResonanceError(
                f"mode {n} is (near-)resonant; no bounded periodic solution")
        gap = x - w / (n * omega_f)
        total += powers[n] / scale / (gap * gap)
    return scale * total / stiffness / hbar


def _drive_terms(force: DrivingForce, M: float, w: float, hbar: float,
                 duration: float, Ds) -> list:
    """(1/hbar) int_0^duration M xdot_p^2 dt in closed form for each D of
    ``Ds``, or its point error: the duration times the rate _forced_rate plus
    the homogeneous pair's 2 M w^2 |D|^2 / hbar, as cross terms average to
    zero over whole periods. The force's part is computed once and refused,
    naming omega_f, unless finite; each D adds (duration M w^2) 2 |D|^2 /
    hbar, refused, naming D, unless the sum is."""
    stiffness = M * (w * w)
    forced = _attempt(lambda: _finite(
        lambda: duration * _forced_rate(force, stiffness, w, hbar),
        "the closed drive term at omega_f = {!r}", force.omega_f))
    return [forced if isinstance(forced, Exception) else
            _attempt(lambda: _finite(
                lambda: forced + duration * stiffness * 2.0 * abs(D) ** 2 / hbar,
                "the closed drive term at D = {!r}", complex(D)))
            for D in Ds]


def _finite(compute: Callable[[], float], what: str, *args) -> float:
    """compute(), refused unless finite; what.format(*args) names it."""
    try:
        value = compute()
    except OverflowError:   # float ** raises where * gives inf
        value = math.inf
    if not math.isfinite(value):
        raise InvalidParameterError(what.format(*args) + " is not a finite float")
    return value


def drive_phase_quadratures(xps, M: float, hbar: float, duration: float):
    """(1/hbar) int_0^duration M xdot_p^2 dt by blind time quadrature, for
    particular solutions ``xps`` that share omega_f, w and their forced modes,
    and may differ in D.

    A solution is refused first unless the largest phase of the basis,
    duration max |nu_n|, and the integral's range, duration times the
    squared velocity bound (sum |nu_n a_n| + 2 w |D|)^2, are finite. One
    integrate_rows call takes a row per other solution. The forced velocity
    Re sum_n i nu_n a_n exp(i nu_n t) does not depend on D: it is evaluated
    once per node, in chunks that share the basis exp(i nu t), and each row
    adds its own homogeneous pair 2 Re(i w D exp(i w t)). Each row's value is
    bit for bit what drive_phase_quadrature gives for that solution alone.
    Returns (values, failures): a float array, and per solution its
    InvalidParameterError or the ConvergenceError of a row that hit the
    refinement cap, else None.
    """
    first = xps[0]
    if any((xp.omega_f, xp.w, xp.modes) != (first.omega_f, first.w, first.modes)
           for xp in xps):
        raise ValueError("particular solutions must share omega_f, w and"
                         " their forced modes")
    forced = len(first.modes)   # the modes come first in _nu and _amp
    nu, w = first._nu[:forced], first.w
    velocity = 1j * nu * first._amp[:forced]
    speed = float(np.sum(np.abs(velocity)))
    turns = _attempt(lambda: _finite(
        lambda: duration * float(np.max(np.abs(nu), initial=0.0)),
        "the drive quadrature's largest phase duration max |nu_n| at"
        " omega_f = {!r}", first.omega_f))
    ranges = [turns if isinstance(turns, Exception) else _attempt(lambda: _finite(
        lambda: duration * (speed + 2.0 * w * abs(xp.D)) ** 2,
        "the drive quadrature's range duration (sum |nu_n a_n| + 2 w |D|)^2"
        " at D = {!r}", complex(xp.D))) for xp in xps]
    failures = [bound if isinstance(bound, Exception) else None for bound in ranges]
    live = np.flatnonzero([failure is None for failure in failures])
    pair = np.array([2j * w * complex(xps[i].D) for i in live.tolist()])
    level = [None, None, None]   # nodes, their forced velocity, exp(i w nodes)

    def rows(active, nodes):
        if level[0] is not nodes:   # a new level: every chunk of rows shares it
            # with every D = 0 no pair is added: over tau_f, w t may overflow
            level[:] = (nodes, _blocked_sum(nodes, lambda ts: np.exp(1j * nu * ts),
                                            velocity),
                        np.exp(1j * w * nodes) if pair.any() else 0.0)
        _, forced_velocity, turn = level
        return (forced_velocity + (pair[active, None] * turn).real) ** 2

    values = np.zeros(len(xps))
    if live.size:
        values[live], _, found = integrate_rows(rows, 0.0, duration, live.size)
        for i, failure in zip(live.tolist(), found):
            failures[i] = failure
    return M * values / hbar, failures


def drive_phase_quadrature(xp: ParticularSolution, M: float, hbar: float,
                           duration: float) -> float:
    """(1/hbar) int_0^duration M xdot_p^2 dt by blind time quadrature:
    drive_phase_quadratures for one solution."""
    (value,), (failure,) = drive_phase_quadratures([xp], M, hbar, duration)
    if failure is not None:
        raise failure
    return float(value)


@dataclass(frozen=True)
class DrivenPhaseResult:
    """Driven Berry phase over ``duration``, N tau0 (or tau_f where p = N = 0)."""

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
                       D: complex,
                       config: PhysicalConfig = PhysicalConfig()) -> DrivenPhaseResult:
    """Berry phase over N tau0: N times the undriven phase plus the drive term.

    The drive term is computed both in closed form and by quadrature of the
    mean-square velocity; both are returned so callers can confront them.
    berry_phase_driven_grid at one point.
    """
    zero = np.zeros(1, dtype=int)   # the one point's index on every axis
    *columns, (error,) = berry_phase_driven_grid(
        rep.M, rep.w, [rep.C], [rep.beta], zero, zero, force, [force.omega_f], zero,
        [D], zero, [n], zero[:, None], config)
    _value(error)
    undriven, closed, quadrature, _, p, N = (column[0, 0] for column in columns)
    return DrivenPhaseResult(n, int(p), int(N), int(N) * rep.tau0 if N else force.tau_f,
                             float(undriven), float(closed), float(quadrature))


def berry_phase_driven_grid(M: float, w: float, Cs, betas, C_at, beta_at,
                            force: DrivingForce, omega_fs, omega_f_at, Ds, D_at, ns,
                            slots, config: PhysicalConfig):
    """Driven Berry phases at every point of a grid, as (gamma_undriven,
    drive_closed, drive_quadrature, gamma_total, p, N, errors).

    Point q is Representation(M, w, Cs[C_at[q]], betas[beta_at[q]]) under
    force's coefficients at omega_fs[omega_f_at[q]], with the homogeneous
    amplitude Ds[D_at[q]] and a row per quantum number ns[k], k in slots[q].
    Each column is a (points, rows) array (p's of object dtype where int64
    cannot hold it); errors holds each point's exception or None. A row is
    what berry_phase_driven gives or raises at its point and n, and a point's
    error that of its first row that raises.

    The phases are over the joint period N tau0, tau0/tau_f = p/N. With
    incommensurate periods only D = 0 in the C = 1, beta = 0 representation
    has a phase, over one force period, as the undriven phase vanishes there
    for any periodic drive (p = N = 0); every other D gets the
    IncommensurateError. A row's first error wins: its cell's, its force's,
    its D's own (not finite, then incommensurate), then over N tau0 the
    particular solution's, n's (refused, or closed forms that overflow), the
    closed drive term's and the quadrature's; over one force period n's
    (refused), the closed drive term's, the particular solution's and the
    quadrature's.

    The drive term depends on neither C, beta nor n: per omega_f, the force,
    its p/N and its particular solution's modes are computed once, and the
    closed terms and quadratures of its D values are one _drive_terms and
    one drive_phase_quadratures call. The cells, the n checks and every
    row's N gamma_full are one _closed_form_grid call.
    """
    cells, cell, (_, _, gamma, canonical), n_errors, errors = _closed_form_grid(
        M, w, Cs, betas, C_at, beta_at, ns, slots, 2)
    forces = [_attempt(lambda: force if omega_f == force.omega_f else
                       DrivingForce(omega_f, force.coefficients)) for omega_f in omega_fs]
    built = np.array([not isinstance(c, Exception) for c in cells])[cell]
    force_bad = np.array([isinstance(f, Exception) for f in forces])[omega_f_at]
    for q in np.flatnonzero(built & force_bad).tolist():
        errors[q] = forces[omega_f_at[q]]
    live = built & ~force_bad
    used = set(omega_f_at[live].tolist())
    comms = [_attempt(lambda: commensurability(2.0 * math.pi / w, f.tau_f))
             if j in used else None for j, f in enumerate(forces)]
    refused = np.array([isinstance(comm, Exception) for comm in comms])
    special = np.array([not isinstance(c, Exception) and c.C == 1.0 and c.beta == 0.0
                        for c in cells])[cell]
    # an entry's points share omega_f, D and, with incommensurate periods,
    # whether their cell is the special representation
    keys, entry = np.unique(((omega_f_at * len(Ds) + D_at) * 2 + (
        special & refused[omega_f_at]))[live], return_inverse=True)
    heads, tails = [None] * len(keys), [None] * len(keys)   # errors before, after n's
    drives = np.zeros((2, len(keys)))   # per entry: closed term, quadrature
    for j in sorted(used):
        f, at = forces[j], np.flatnonzero(keys // (2 * len(Ds)) == j)
        comm, incommensurate = (None, comms[j]) if refused[j] else (comms[j], None)
        duration = f.tau_f if incommensurate else comm.N * (2.0 * math.pi / w)
        modes = _attempt(lambda: _forced_modes(f, M, w, comm))
        amplitude = {e: _attempt(lambda: check_amplitude(Ds[key // 2 % len(Ds)], w))
                     for e, key in zip(at.tolist(), keys[at].tolist())}
        for e, D in amplitude.items():   # the errors before n's
            heads[e] = D if isinstance(D, Exception) else \
                (None if keys[e] % 2 and D == 0 else incommensurate) if incommensurate \
                else modes if isinstance(modes, Exception) else None
        reach = [e for e in amplitude if heads[e] is None]
        for e, drive in zip(reach, _drive_terms(f, M, w, config.hbar, duration,
                                                [amplitude[e] for e in reach])):
            tails[e] = next((x for x in (drive, modes) if isinstance(x, Exception)), None)
            drives[0, e] = 0.0 if tails[e] else drive
        rows = [e for e in reach if tails[e] is None]
        if rows:
            drives[1, rows], failures = drive_phase_quadratures(
                [ParticularSolution(f.omega_f, modes, amplitude[e], w) for e in rows],
                M, config.hbar, duration)
            for e, failure in zip(rows, failures):
                tails[e] = failure
    for q, e in zip(np.flatnonzero(live).tolist(), entry.tolist()):
        if heads[e] or tails[e] or errors[q]:   # errors[q]: its n's, if any
            ks, j = slots[q].tolist(), omega_f_at[q]
            if refused[j]:   # only n's own refusals, as no N gamma_full enters
                errors[q] = next((n_errors[k] for k in ks if n_errors[k]), None)
            lead = errors[q] if n_errors[ks[0]] or not (
                refused[j] or math.isfinite(canonical[q, 0])) else None
            errors[q] = heads[e] or lead or tails[e] or errors[q]
    at_points = np.zeros((2, len(cell)))
    at_points[:, live] = drives[:, entry]
    ps, Ns = zip(*[(c.p, c.N) if isinstance(c, Commensurability) else (0, 0)
                   for c in comms])
    N_at = np.array(Ns)[omega_f_at]
    with np.errstate(over="ignore", invalid="ignore"):
        undriven = np.where(N_at[:, None] > 0, N_at[:, None] * gamma, 0.0)
    drive, quad, p, N = (np.repeat(column[:, None], gamma.shape[1], axis=1) for column in (
        *at_points, np.array(ps, dtype=object if max(ps) > np.iinfo(np.int64).max
                             else np.int64)[omega_f_at], N_at))
    return undriven, drive, quad, undriven + drive, p, N, errors


def berry_phase_special_rep(force: DrivingForce, M: float, w: float,
                            hbar: float) -> float:
    """Berry phase over one force period in the C=1, beta=0, D=0 representation:
    _drive_terms over the duration tau_f.

    Valid for any periodic particular solution: no commensurability between
    tau0 and tau_f is needed because the undriven phase vanishes there for
    every evolution time.
    """
    if not (M > 0 and w > 0 and hbar > 0):
        raise ValueError("M, w, hbar must be positive")
    return _value(_drive_terms(force, M, w, hbar, force.tau_f, [0j])[0])


def psi_driven(state: QuantumState, xp: ParticularSolution, x, t):
    """Driven wavefunction at an array or scalar x and a scalar t: the
    undriven structure recentered at x - x_p with the extra factor
    exp[i (M xdot_p x + action)/hbar].

    The winding factor uses the same continuous branch of arg(u - iv) as the
    undriven wavefunction.
    """
    rep = state.rep
    hbar = state.config.hbar
    t = _scalar_time(t)
    xpv = xp.x(t)
    xdv = xp.xdot(t)
    action = action_phase(rep, xp, 0.0, t)
    x = np.asarray(x, dtype=float)
    shifted = x - xpv
    env, y, _, _ = _parts(state, shifted, t)
    extra = np.exp(1j * (rep.M * xdv * x + action) / hbar)
    out = env * extra * hermite(state.n, y)
    arr = np.asarray(out)
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError("driven wavefunction produced non-finite values")
    return complex(out) if arr.ndim == 0 else out
