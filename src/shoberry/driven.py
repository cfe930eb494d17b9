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
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import (POINT_ERRORS, ConditioningError, ConvergenceError,
                     IncommensurateError, InvalidParameterError, ResonanceError)
from .numerics import (MAX_DENOMINATOR, integrate_rows, rationalize,
                       sample_vectorized)
from .phase import berry_phase
from .representation import PhysicalConfig, Representation
from .wavefunction import (QuantumState, _parts, _scalar_time,
                           check_quantum_number, hermite)

# Relative threshold below which a mode coefficient counts as absent, and the
# conditioning floor on resonance denominators |w^2 - n^2 omega_f^2|.
COEFF_EPS = 1e-12
RESONANCE_DENOM_EPS = 1e-9

# The largest integer a float holds: a larger int raises OverflowError when
# it is converted.
_LARGEST_FLOAT = int(sys.float_info.max)


# Values in one block of a blocked sum: a block of time points times the
# modes (or mode pairs) stays at 2^12 complex values, 64 kB, whatever the
# length of the time array.
_BLOCK = 1 << 12


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
    through it in blocks, so temporaries stay bounded for any number of times.
    """
    arr = np.asarray(t, dtype=float)
    flat = arr.reshape(-1)
    out = np.empty(flat.size)
    block = max(1, _BLOCK // max(coeff.size, 1))
    for start in range(0, flat.size, block):
        out[start:start + block] = np.sum(
            basis(flat[start:start + block, None]) * coeff, axis=1).real
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


def commensurability(tau0: float, tau_f: float,
                     tolerance: float = 1e-13) -> Commensurability:
    """Coprime (p, N) with |tau0/tau_f - p/N| < tolerance * (p/N).

    The default tolerance sits just above double-precision rounding: period
    ratios constructed as actual fractions pass, while irrational ratios have
    no convergent under the denominator cap that comes this close.
    """
    if not (tau0 > 0 and tau_f > 0):
        raise ValueError("periods must be positive")
    ratio = tau0 / tau_f
    found = rationalize(ratio, tol=max(tolerance, 1e-15))
    if found is not None:
        p, n = found
        if abs(ratio - p / n) < tolerance * (p / n):
            return Commensurability(p=p, N=n)
    raise IncommensurateError(
        f"tau0/tau_f = {ratio!r} has no rational approximation p/N with"
        f" N <= {MAX_DENOMINATOR} within relative tolerance {tolerance:g};"
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


def check_amplitude(D) -> complex:
    """The free homogeneous amplitude D as a complex; a non-finite D is refused."""
    D = complex(D)
    if not cmath.isfinite(D):
        raise InvalidParameterError(f"D must be finite, got {D!r}")
    return D


def particular_solution(force: DrivingForce, rep: Representation,
                        comm: Optional[Commensurability] = None,
                        D: complex = 0j) -> ParticularSolution:
    """Mode-by-mode particular solution for a commensurate (or D=0) drive.

    For p = 1 the mode n = N would resonate with the oscillator, so its
    coefficient must vanish; near-resonant denominators are refused outright
    rather than returned with huge amplification. A non-finite D is refused
    first.
    """
    D = check_amplitude(D)
    return ParticularSolution(force.omega_f, _forced_modes(force, rep, comm), D, rep.w)


def _forced_modes(force: DrivingForce, rep: Representation,
                  comm: Optional[Commensurability]) -> dict[int, complex]:
    """The particular solution's mode amplitudes f_n / (M (w^2 - n^2 omega_f^2)),
    after the resonance and conditioning checks: the part of
    particular_solution that D leaves alone."""
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
    """Closed-form drive term of the Berry phase over N tau0.

    2 pi N^3 p^2 / (hbar M w^3) * sum_n n^2 |f_n|^2 / (p^2 n^2 - N^2)^2
    + 4 pi (M N w / hbar) |D|^2. Every mode and the two homogeneous
    frequencies +/-w contribute their mean-square velocity over the joint
    period; cross terms integrate to zero there.
    """
    return _with_homogeneous(_forced_drive(force, comm, M, w, hbar), M, comm.N, w,
                             hbar, D)


def _forced_drive(force: DrivingForce, comm: Commensurability, M: float,
                  w: float, hbar: float) -> float:
    """The force's part of drive_phase_closed, the same for every D.

    Its integers N^3 p^2 and (p^2 n^2 - N^2)^2 are checked against the float
    range before any is converted: a huge period ratio is refused, not
    overflowed.
    """
    p, N = comm.p, comm.N
    denoms = {n: p * p * n * n - N * N
              for n in _ordered_modes(force.coefficients) if n != 0}
    if max([N ** 3 * p * p, *(d * d for d in denoms.values())]) > _LARGEST_FLOAT:
        raise InvalidParameterError(
            f"omega_f = {force.omega_f!r} gives tau0/tau_f = p/N = {p / N:.6g}:"
            " the drive term's N^3 p^2 or (p^2 n^2 - N^2)^2 exceeds the float range")
    total = 0.0
    norm = force.norm()
    for n, denom in denoms.items():
        if denom == 0:
            if abs(force.coefficients[n]) < COEFF_EPS * max(norm, 1e-300):
                continue
            raise ResonanceError(
                f"mode {n} coincides with the oscillator frequency (p*n = N)")
        total += n * n * abs(force.coefficients[n]) ** 2 / (denom * denom)
    return 2.0 * math.pi * N ** 3 * p * p / (hbar * M * w ** 3) * total


def _with_homogeneous(drive: float, M: float, N: int, w: float, hbar: float,
                      D: complex) -> float:
    """The force's drive term plus the homogeneous pair's 4 pi M N w |D|^2/hbar."""
    return drive + 4.0 * math.pi * M * N * w * abs(complex(D)) ** 2 / hbar


def drive_phase_quadratures(xps, M: float, hbar: float, duration: float):
    """(1/hbar) int_0^duration M xdot_p^2 dt by blind time quadrature, for
    particular solutions ``xps`` that share omega_f, w and their forced modes,
    and may differ in D.

    One integrate_rows call with a row per solution. The forced velocity
    Re sum_n i nu_n a_n exp(i nu_n t) does not depend on D: it is evaluated
    once per node, in blocks that share the basis exp(i nu t), and each row
    adds its own homogeneous pair 2 Re(i w D exp(i w t)). Each row's value is
    bit for bit what drive_phase_quadrature gives for that solution alone.
    Returns (values, failures): a float array, and per row the
    ConvergenceError of a row that hit the refinement cap, else None.
    """
    first = xps[0]
    if any((xp.omega_f, xp.w, xp.modes) != (first.omega_f, first.w, first.modes)
           for xp in xps):
        raise ValueError("particular solutions must share omega_f, w and"
                         " their forced modes")
    forced = len(first.modes)   # the modes come first in _nu and _amp
    nu, w = first._nu[:forced], first.w
    velocity = 1j * nu * first._amp[:forced]
    pair = np.array([2j * w * complex(xp.D) for xp in xps])
    level = [None, None, None]   # nodes, their forced velocity, exp(i w nodes)

    def rows(active, nodes):
        if level[0] is not nodes:   # a new level: every chunk of rows shares it
            level[:] = (nodes, _blocked_sum(nodes, lambda ts: np.exp(1j * nu * ts),
                                            velocity), np.exp(1j * w * nodes))
        _, forced_velocity, turn = level
        return (forced_velocity + (pair[active, None] * turn).real) ** 2

    values, _, failures = integrate_rows(rows, 0.0, duration, len(xps))
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
                       D: complex, comm: Optional[Commensurability],
                       config: PhysicalConfig = PhysicalConfig()) -> DrivenPhaseResult:
    """Berry phase over N tau0: N times the undriven phase plus the drive term.

    The drive term is computed both in closed form and by quadrature of the
    mean-square velocity; both are returned so callers can confront them.
    berry_phases_driven for one D and one n.
    """
    ((result,),) = berry_phases_driven(rep, [n], force, [D], comm, config)
    if isinstance(result, Exception):
        raise result
    return result


def _attempt(compute):
    """compute(), or the point error it raised."""
    try:
        return compute()
    except POINT_ERRORS as exc:
        return exc


def berry_phases_driven(rep: Representation, ns, force: DrivingForce, Ds,
                        comm: Optional[Commensurability],
                        config: PhysicalConfig = PhysicalConfig()) -> list[list]:
    """berry_phase_driven at every D of ``Ds`` and n of ``ns``: entry [i][k]
    is the DrivenPhaseResult of Ds[i] at ns[k], or the point error its
    one-point call raises, the first in the order particular solution,
    undriven phase, closed drive term, quadrature.

    The undriven phase of each n and the particular solution and closed drive
    term of each D are computed once, and so is the quadrature, which does
    not depend on n: one drive_phase_quadratures call, with a row per D that
    reaches it. The work that does not depend on D, the particular solution's
    modes with their checks and the force's part of the closed drive term, is
    done once for all of them; each D adds its homogeneous pair. With comm
    None the entries are the phases over one force period of the C = 1,
    beta = 0 representation at D = 0, where the undriven phase vanishes for
    any periodic drive: p = N = 0, and the order is n,
    berry_phase_special_rep, particular solution, quadrature.
    """
    M, w, hbar = rep.M, rep.w, config.hbar
    if comm is None:
        if not (rep.C == 1.0 and rep.beta == 0.0 and all(D == 0 for D in Ds)):
            raise ValueError("without a commensurability only the C = 1,"
                             " beta = 0 representation at D = 0 has a phase")
        p = N = 0
        duration = force.tau_f
        # the undriven phase vanishes; each n is still checked
        undriven = [_attempt(lambda: 0.0 * check_quantum_number(n)) for n in ns]
        closed = [_attempt(lambda: berry_phase_special_rep(force, M, w, hbar))] * len(Ds)
    else:
        p, N = comm.p, comm.N
        duration = N * rep.tau0
        undriven = [_attempt(lambda: N * berry_phase(rep, n, "full").gamma) for n in ns]
        base_drive = _attempt(lambda: _forced_drive(force, comm, M, w, hbar))
        closed = [base_drive if isinstance(base_drive, Exception) else
                  _attempt(lambda: _with_homogeneous(base_drive, M, N, w, hbar, D))
                  for D in Ds]
    # each D's particular solution, or its refusal: a non-finite D's own
    # first, then that of the modes every D shares
    modes = _attempt(lambda: _forced_modes(force, rep, comm))
    amplitudes = [_attempt(lambda: check_amplitude(D)) for D in Ds]
    xps = [D if isinstance(D, Exception) else
           modes if isinstance(modes, Exception) else
           ParticularSolution(force.omega_f, modes, D, w)
           for D in amplitudes]
    rows = [i for i, (xp, drive) in enumerate(zip(xps, closed))
            if not isinstance(xp, Exception) and not isinstance(drive, Exception)]
    quadrature = [None] * len(Ds)
    if rows:
        values, failures = drive_phase_quadratures([xps[i] for i in rows], M, hbar,
                                                   duration)
        for i, value, failure in zip(rows, values.tolist(), failures):
            quadrature[i] = value if failure is None else failure
    table = []
    for i in range(len(Ds)):
        row = []
        for k, n in enumerate(ns):
            stages = (undriven[k], closed[i], xps[i]) if comm is None else \
                (xps[i], undriven[k], closed[i])
            error = next((v for v in (*stages, quadrature[i])
                          if isinstance(v, Exception)), None)
            row.append(error or DrivenPhaseResult(
                n=n, p=p, N=N, duration=duration, gamma_undriven=undriven[k],
                drive_closed=closed[i], drive_quadrature=quadrature[i]))
        table.append(row)
    return table


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
