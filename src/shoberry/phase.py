"""Overall, dynamical, and Berry phases of the undriven oscillator.

Closed forms (which depend only on C and beta) sit next to numerical oracles
that never touch them: the overall phase comes from spatial overlap integrals
tracked continuously in time, and the dynamical phase from time quadrature of
the energy expectation. Both sides share the t=0 principal-branch convention,
so agreement is checked on unwrapped phases, not mod-2pi residues.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidRepresentationError, NotCyclicError
from .numerics import DEFAULT_QUADRATURE, QuadratureSpec, integrate_1d
from .representation import (COS_BETA_EPS, PhysicalConfig, Representation,
                             require_valid)
from .wavefunction import (QuantumState, check_quantum_number,
                           energy_expectation, overlap, psi, psi_dx)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhaseResult:
    """Phases accumulated over a cyclic evolution of duration tau'.

    gamma is exactly chi - delta; gamma_canonical is gamma reduced to [0, 2pi).
    """

    chi: float
    delta: float
    gamma: float
    gamma_canonical: float
    duration: float

    def __post_init__(self):
        if self.gamma != self.chi - self.delta:
            raise ValueError("gamma must equal chi - delta exactly")
        if not (0.0 <= self.gamma_canonical < TWO_PI):
            raise ValueError("gamma_canonical must lie in [0, 2pi)")


def canonical_angle(gamma: float) -> float:
    """Reduce an unwrapped angle to [0, 2pi)."""
    g = gamma % TWO_PI
    if g >= TWO_PI or g < 0.0:  # guard the float boundary
        g = 0.0
    return g


def _check_half_periods(half_periods: int):
    if not isinstance(half_periods, (int, np.integer)) or half_periods < 1:
        raise ValueError("half_periods must be a positive integer")


def overall_phase_closed(n: int, half_periods: int = 1) -> float:
    """Unwrapped overall phase after k half periods: -k (n + 1/2) pi."""
    check_quantum_number(n)
    _check_half_periods(half_periods)
    return -half_periods * (n + 0.5) * math.pi


def _energy_ratio(rep: Representation) -> float:
    """(1 + C^2) / (2 C cos beta), the mean energy in units of (n+1/2) hbar w."""
    return (1.0 + rep.C * rep.C) / (2.0 * rep.C * math.cos(rep.beta))


def dynamical_phase_closed(rep: Representation, n: int, half_periods: int = 1) -> float:
    """-k (n + 1/2) pi (1 + C^2)/(2 C cos beta); independent of M, w, hbar."""
    _check_half_periods(half_periods)
    return overall_phase_closed(n, half_periods) * _energy_ratio(rep)


def phase_result_for_half_periods(rep: Representation, n: int,
                                  half_periods: int) -> PhaseResult:
    """Closed-form phases for an evolution of k half periods."""
    _check_half_periods(half_periods)
    chi = overall_phase_closed(n, half_periods)
    delta = dynamical_phase_closed(rep, n, half_periods)
    gamma = chi - delta
    return PhaseResult(chi=chi, delta=delta, gamma=gamma,
                       gamma_canonical=canonical_angle(gamma),
                       duration=half_periods * 0.5 * rep.tau0)


_DURATIONS = {"half": 1, "full": 2}


def berry_phase(rep: Representation, n: int, duration: str = "half") -> PhaseResult:
    """Closed-form Berry phase over half or one classical period.

    gamma(half) = (n + 1/2) pi [(1 + C^2)/(2 C cos beta) - 1], and the
    full-period value is exactly twice that. Only C and beta enter.
    """
    try:
        half_periods = _DURATIONS[duration]
    except (KeyError, TypeError):
        raise ValueError('duration must be "half" or "full"') from None
    return phase_result_for_half_periods(rep, n, half_periods)


_STEP_LIMIT = 0.25 * math.pi
# Branch-tracking samples evaluated per array call: memory stays bounded for
# long evolutions of squeezed states, and typical cells fit in one block.
_BLOCK_SAMPLES = 1 << 16
# Beyond this many samples (about 256 blocks) the tracker raises rather than
# grinding on a near-degenerate representation.
_MAX_SAMPLES = 1 << 24


def _branch_amplitude(state: QuantumState, ts):
    """Zero-free scalar amplitude of the state, used to carry the 2pi branch.

    The overlap <psi(0)|psi(t)> crosses zero exactly for excited states in
    strongly squeezed representations, so its argument cannot fix the branch
    there. The on-axis value psi(0, t) (even n) or slope dpsi/dx(0, t) (odd n)
    never vanishes: the matching-parity Hermite factor is a nonzero constant
    at the origin and no chirp enters at x = 0, so the unwrapped change of its
    argument is exactly the continuous family phase shared by every x.
    """
    if state.n % 2 == 0:
        return psi(state, 0.0, ts)
    return psi_dx(state, 0.0, ts)


def _branch_samples(state: QuantumState, tau_prime: float) -> int:
    """Uniform sample count keeping every true phase step under pi/4.

    The branch amplitude's argument is (n + 1/2) theta(t) plus a constant,
    and |theta'| = Omega/(M rho^2). rho^2 is a positive quadratic form in
    (cos wt, sin wt) with trace 1 + C^2 and determinant (C cos beta)^2, so its
    smallest value exceeds (C cos beta)^2 / (1 + C^2) and
    |theta'| < w (1 + C^2)/(C cos beta). Sampling at that a-priori rate
    (Itoh's condition) leaves no step that could alias to 2pi k plus a small
    angle. Only n, w, C and beta enter, never the closed-form phase, so the
    oracle stays independent of it.
    """
    rep = state.rep
    rate = (state.n + 0.5) * rep.w * (1.0 + rep.C * rep.C) \
        / (rep.C * math.cos(rep.beta))
    samples = max(64, 32 * (state.n + 1))
    samples = int(samples * max(1.0, 2.0 * tau_prime / rep.tau0))
    return max(samples, math.ceil(rate * tau_prime / _STEP_LIMIT))


def _branch_winding(state: QuantumState, tau_prime: float) -> float:
    """Unwrapped change of the branch amplitude's argument over [0, tau']."""
    samples = _branch_samples(state, tau_prime)
    if samples > _MAX_SAMPLES:
        raise ConvergenceError(
            f"branch tracking needs {samples} samples (cap {_MAX_SAMPLES});"
            " the representation is too close to degenerate")
    winding = 0.0
    carry = np.empty(0, dtype=complex)
    for lo in range(0, samples + 1, _BLOCK_SAMPLES):
        ks = np.arange(lo, min(lo + _BLOCK_SAMPLES, samples + 1))
        block = _branch_amplitude(state, tau_prime * (ks / samples))
        if np.any(block == 0):
            raise ConvergenceError("branch amplitude vanished at a tracking node")
        series = np.concatenate((carry, block))
        steps = np.angle(series[1:] / series[:-1])
        if np.max(np.abs(steps)) >= _STEP_LIMIT:
            raise ConvergenceError(
                "a branch-tracking step reached pi/4 despite the a-priori"
                " sample count; the phase branch is not trustworthy")
        winding += float(np.sum(steps))
        carry = series[-1:]
    return winding


def overall_phase_oracle(state: QuantumState, tau_prime: float,
                         spec: QuadratureSpec = DEFAULT_QUADRATURE,
                         fidelity_floor: float = 1e-8) -> tuple[float, float]:
    """Unwrapped overall phase and fidelity after evolving for tau_prime.

    The mod-2pi phase and the fidelity come from the overlap
    <psi(0)|psi(tau')> computed by adaptive spatial quadrature; the 2pi branch
    comes from continuously tracking a zero-free amplitude of the state from
    t = 0 on a uniform grid fine enough that every phase step stays under
    pi/4. Raises NotCyclicError when the fidelity falls below
    1 - fidelity_floor, i.e. the evolution did not return the state to
    itself, and ConvergenceError when the branch cannot be tracked.
    """
    if not tau_prime > 0:
        raise ValueError("tau_prime must be positive")
    final = overlap(state, 0.0, state, float(tau_prime), spec)
    fidelity = abs(final)
    if fidelity < 1.0 - fidelity_floor:
        raise NotCyclicError(
            f"evolution over {tau_prime:g} is not cyclic"
            f" (fidelity {fidelity:.12f}); overall phase undefined")
    angle = cmath.phase(final)
    winding = _branch_winding(state, float(tau_prime))
    chi = angle + TWO_PI * round((winding - angle) / TWO_PI)
    return chi, fidelity


def dynamical_phase_oracle(state: QuantumState, tau_prime: float,
                           spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """-(1/hbar) * time integral of <psi|H|psi> by adaptive quadrature."""
    if not tau_prime > 0:
        raise ValueError("tau_prime must be positive")
    value, _ = integrate_1d(lambda ts: energy_expectation(state, ts),
                            0.0, float(tau_prime), spec)
    return -float(value) / state.config.hbar


def berry_phase_oracle(state: QuantumState, tau_prime: float,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Oracle Berry phase chi - delta, sharing the closed forms' branch."""
    chi, _ = overall_phase_oracle(state, tau_prime, spec)
    return chi - dynamical_phase_oracle(state, tau_prime, spec)


def ge_child_integral(rep: Representation,
                      config: PhysicalConfig = PhysicalConfig(),
                      spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Cycle integral -(i/2) * int_0^tau0 alpha' / (alpha + alpha*) dt.

    alpha is the Gaussian exponent parameter; its derivative is analytic. The
    result is real for the closed cycle and equals the full-period Berry phase
    of the ground state.
    """
    require_valid(rep, "full")
    from .wavefunction import alpha, alpha_dot  # local import avoids a cycle

    def integrand(ts):
        return alpha_dot(rep, ts, config) / (2.0 * np.real(alpha(rep, ts, config)))

    value, _ = integrate_1d(integrand, 0.0, rep.tau0, spec)
    result = -0.5j * complex(value)
    if abs(result.imag) > 1e-9:
        raise ConvergenceError(
            f"cycle integral kept an imaginary part {result.imag:.3e};"
            " quadrature did not converge")
    return float(result.real)


def equivalence_class_C(beta: float, target_gamma_mod_2pi: float = 0.0,
                        count: int = 2) -> list[float]:
    """C values sharing the Berry phase 0 (mod 2pi) for every n, at fixed beta.

    gamma_n(half) = (n + 1/2) pi X with X = (1 + C^2)/(2 C cos beta) - 1
    vanishes mod 2pi for all n simultaneously exactly when X = 4m, m integer.
    Solving gives C = a +/- sqrt(a^2 - 1) with a = (4m + 1) cos beta; both
    roots are returned for every feasible |m| <= count (infeasible m, where
    the roots are complex, are skipped). Only the zero target is supported:
    no other phase can be shared by every quantum number.
    """
    cos_beta = math.cos(beta)
    if abs(cos_beta) <= COS_BETA_EPS:
        raise InvalidRepresentationError(
            "beta is too close to an odd multiple of pi/2")
    wrapped = target_gamma_mod_2pi % TWO_PI
    if min(wrapped, TWO_PI - wrapped) > 1e-12:
        raise ValueError(
            "only the zero equivalence class exists for every quantum number"
            " simultaneously; nonzero targets would need a different phase"
            " multiple for each n")
    if count < 1:
        raise ValueError("count must be at least 1")
    values: list[float] = []
    for m in range(-count, count + 1):
        a = (4 * m + 1) * cos_beta
        disc = a * a - 1.0
        if disc < 0.0:
            continue
        if disc == 0.0:
            values.append(a)
            continue
        root = math.sqrt(disc)
        outer = a + math.copysign(root, a)  # the root of larger magnitude
        inner = 1.0 / outer                  # the pair multiplies to 1
        if a > 0:
            values.extend([outer, inner])    # a + root, a - root
        else:
            values.extend([inner, outer])
    return values
