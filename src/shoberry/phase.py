"""Overall, dynamical, and Berry phases of the undriven oscillator.

Closed forms (which depend only on C and beta) sit next to numerical oracles
that never evaluate them. The overall phase mod 2pi and the fidelity come from
the spatial overlap <psi(0)|psi(tau')>, and its whole-2pi part from the
continuous winding of u - i v at the evolution's two endpoints; the dynamical
phase comes from time quadrature of the energy expectation. Both sides share
the t=0 principal-branch convention, so agreement is checked on unwrapped
phases, not mod-2pi residues. The whole-2pi part is the winding theorem, -pi
per half period, that the closed forms use too: the oracle checks chi mod 2pi
and delta independently, not that integer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, InvalidParameterError,
                     InvalidRepresentationError, NotCyclicError)
from .numerics import integrate_1d, integrate_rows
from .representation import (COS_BETA_EPS, PhysicalConfig, Representation,
                             RepresentationArrays, _winding, require_valid)
from .wavefunction import (QuantumState, _family_overlaps, _live, _one_point,
                           _refusals, check_quantum_number, energy_per_quantum)

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


def canonical_angle(gamma):
    """Reduce an unwrapped angle, or an array of them, to [0, 2pi)."""
    with np.errstate(invalid="ignore"):   # inf reduces to NaN, as with %
        g = np.remainder(gamma, TWO_PI)
    g = np.where((g >= TWO_PI) | (g < 0.0), 0.0, g)   # guard the float boundary
    return float(g) if g.ndim == 0 else g


def _check_half_periods(half_periods: int):
    if isinstance(half_periods, bool) or not isinstance(
            half_periods, (int, np.integer)) or half_periods < 1:
        raise ValueError("half_periods must be a positive integer")


def overall_phase_closed(n: int, half_periods: int = 1) -> float:
    """Unwrapped overall phase after k half periods: -k (n + 1/2) pi."""
    check_quantum_number(n)
    _check_half_periods(half_periods)
    return -half_periods * (n + 0.5) * math.pi


def closed_form_phases(C, cos_beta, n, half_periods: int):
    """chi, delta, gamma and gamma_canonical after k half periods, broadcast
    over array arguments.

    chi = -k (n + 1/2) pi and delta = chi (1 + C^2)/(2 C cos beta): the one
    closed-form expression, shared by phase_result_for_half_periods and the
    CLI's sweep grid. Each entry goes through the same IEEE operations in the
    same order as a scalar evaluation, so the two agree bit for bit. Where
    the result overflows double precision (C*C beyond the float range, or a
    subnormal denominator) it comes out inf or NaN, and gamma_canonical is
    NaN; callers refuse such entries. C is a numpy array or scalar, so that
    a zero denominator gives inf rather than ZeroDivisionError. Arguments
    are not checked.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        chi = -half_periods * (n + 0.5) * math.pi
        delta = chi * ((1.0 + C * C) / (2.0 * C * cos_beta))
        gamma = chi - delta
    return chi, delta, gamma, canonical_angle(gamma)


def closed_form_overflow(C: float, beta: float, n: int) -> InvalidParameterError:
    """The error for closed-form phases that are not finite in double precision."""
    return InvalidParameterError(
        f"closed-form phases overflow double precision at C={C!r},"
        f" beta={beta!r}, n={n}")


def phase_result_for_half_periods(rep: Representation, n: int,
                                  half_periods: int) -> PhaseResult:
    """Closed-form phases for an evolution of k half periods.

    Raises InvalidParameterError when they overflow double precision, as for
    |C| above about 1.3e154 or a subnormal C.
    """
    check_quantum_number(n)
    _check_half_periods(half_periods)
    chi, delta, gamma, canonical = (float(x) for x in closed_form_phases(
        np.float64(rep.C), math.cos(rep.beta), n, half_periods))
    if not math.isfinite(canonical):
        raise closed_form_overflow(rep.C, rep.beta, n)
    return PhaseResult(chi=chi, delta=delta, gamma=gamma,
                       gamma_canonical=canonical,
                       duration=half_periods * 0.5 * rep.tau0)


def dynamical_phase_closed(rep: Representation, n: int, half_periods: int = 1) -> float:
    """-k (n + 1/2) pi (1 + C^2)/(2 C cos beta); independent of M, w, hbar."""
    return phase_result_for_half_periods(rep, n, half_periods).delta


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


# An evolution is cyclic when |<psi(0)|psi(tau')>| is at least 1 - this.
FIDELITY_FLOOR = 1e-8
_STEP_LIMIT = 0.25 * math.pi
# Beyond this a-priori sample count the oracle refuses a point as too close
# to degenerate.
_MAX_SAMPLES = 1 << 24


def _branch_samples(rep: Representation, n: int, tau_prime: float) -> int:
    """Uniform sample count keeping every true phase step of state n under pi/4.

    The branch amplitude's argument is (n + 1/2) theta(t) plus a constant,
    and |theta'| = Omega/(M rho^2). rho^2 is a positive quadratic form in
    (cos wt, sin wt) with trace 1 + C^2 and determinant (C cos beta)^2, so its
    smallest value exceeds (C cos beta)^2 / (1 + C^2) and
    |theta'| < w (1 + C^2)/(C cos beta). Sampling at that a-priori rate
    (Itoh's condition) would leave no step that could alias to 2pi k plus a
    small angle. Only n, w, C and beta enter, never the closed-form phase.
    The oracle samples nothing: it refuses a point whose count exceeds
    _MAX_SAMPLES.
    """
    rate = (n + 0.5) * rep.w * (1.0 + rep.C * rep.C) \
        / (rep.C * math.cos(rep.beta))
    samples = max(64, 32 * (n + 1))
    samples = int(samples * max(1.0, 2.0 * tau_prime / rep.tau0))
    return max(samples, math.ceil(rate * tau_prime / _STEP_LIMIT))


def _branch_windings(arrays: RepresentationArrays, ns, tau_prime: float,
                     errors: list) -> np.ndarray:
    """Unwrapped change over [0, tau'] of each state's branch amplitude, one
    row over ns per point of arrays not yet refused in ``errors``; a point
    whose a-priori sample count exceeds _MAX_SAMPLES for some n gets its
    ConvergenceError there.

    The overlap <psi(0)|psi(t)> crosses zero exactly for excited states in
    strongly squeezed representations, so its argument cannot fix the branch
    there. The on-axis value psi(0, t) (even n) or slope dpsi/dx(0, t) (odd n)
    never vanishes: no Gaussian or chirp enters at x = 0 and the Hermite
    factor there is a nonzero constant, so the amplitude is
    sign * rho^(-1/2 or -3/2) * exp(i (n + 1/2) theta) times a positive
    constant, and the unwrapped change of its argument is the continuous
    family phase shared by every x. theta is the continuous winding of
    u - i v, which decreases monotonically and drops by exactly pi each half
    period, so the change is (n + 1/2) (theta(tau') - theta(0)), from the
    two endpoints alone.
    """
    windings = np.zeros((len(errors), len(ns)))
    # the sample counts from each point's fields as Python floats, as a
    # Representation holds them
    for p, fields in enumerate(zip(*(values.tolist() for values in arrays))):
        if errors[p] is not None:
            continue
        rep = RepresentationArrays(*fields)
        needed = [_branch_samples(rep, n, tau_prime) for n in ns]
        over = [count for count in needed if count > _MAX_SAMPLES]
        if over:
            errors[p] = ConvergenceError(
                f"branch tracking needs {over[0]} samples (cap {_MAX_SAMPLES});"
                " the representation is too close to degenerate")
    live = _live(errors)
    columns = arrays.at((live, None))
    theta = _winding(columns, np.array([0.0, tau_prime]))[0]
    half = np.array(ns, dtype=float) + 0.5   # n + 1/2
    windings[live] = half * (theta[:, 1] - theta[:, 0])[:, None]
    return windings


def _check_duration(tau_prime) -> float:
    if not tau_prime > 0:
        raise ValueError("tau_prime must be positive")
    return float(tau_prime)


def _overall_phases(arrays: RepresentationArrays, ns, tau_prime: float,
                    finals: np.ndarray, errors: list) -> np.ndarray:
    """chi for every n of ns, one row per point of arrays not yet refused in
    ``errors``, from the overlaps ``finals`` = <psi_n(0)|psi_n(tau')> and the
    endpoint windings of _branch_windings: a point that is not cyclic gets
    its NotCyclicError in ``errors``, and one over the sample cap its
    ConvergenceError; see overall_phase_oracle."""
    fidelities = np.abs(finals)
    low = fidelities < 1.0 - FIDELITY_FLOOR
    for p in np.flatnonzero(low.any(axis=1)).tolist():
        if errors[p] is None:
            errors[p] = NotCyclicError(
                f"evolution over {tau_prime:g} is not cyclic (fidelity"
                f" {fidelities[p, np.argmax(low[p])]:.12f}); overall phase undefined")
    windings = _branch_windings(arrays, ns, tau_prime, errors)
    chis = np.zeros(windings.shape)
    for p in _live(errors).tolist():
        for j, (final, turn) in enumerate(zip(finals[p].tolist(),
                                              windings[p].tolist())):
            angle = cmath.phase(final)
            chis[p, j] = angle + TWO_PI * round((turn - angle) / TWO_PI)
    return chis


def _dynamical_phases(arrays: RepresentationArrays, ns, tau_prime: float,
                      errors: list) -> np.ndarray:
    """delta for every n of ns, one row per point of arrays not yet refused
    in ``errors``; a point whose time integral does not converge gets its
    ConvergenceError there. See dynamical_phase_oracle.

    <psi_n|H|psi_n> is (n + 1/2) hbar times energy_per_quantum, so one time
    integral of the latter gives delta = -(n + 1/2) * integral for every n.
    The integral is at least pi over a half period, so the relative
    tolerance, not the absolute one, decides when it has converged. The
    integrals of all points are refined together, each until its own has
    converged.
    """
    deltas = np.zeros((len(errors), len(ns)))
    live = _live(errors)
    if not live.size:
        return deltas

    def energy(rows, ts):
        return energy_per_quantum(arrays.at((live[rows], None)), ts)

    values, _, failures = integrate_rows(energy, 0.0, tau_prime, len(live))
    deltas[live] = -(np.array(ns, dtype=float) + 0.5) * values[:, None]
    for p, failure in zip(live.tolist(), failures):
        errors[p] = failure
    return deltas


def _oracle_batch(reps, ns, tau_prime: float,
                  config: PhysicalConfig = PhysicalConfig()):
    """berry_phase_oracles for every representation of reps, as (gammas,
    errors): one row of oracle Berry phases over ns per representation, and
    the exception its one-representation call raises, or None. A refused
    representation's row holds no result.

    The representations are evaluated together, as arrays: the overlaps of
    all of them on one Gauss-Hermite level at a time, their endpoint
    windings in one call, their time integrals as rows of one quadrature.
    Each still refines, is certified, is checked against the sample cap and
    is checked on its own, so its result is the same float, and its error
    the same message, as when it is alone. An ArithmeticError names no
    representation (a Hermite overflow, rho vanishing at a node), so the
    batch then reruns each one alone.
    """
    tau_prime = _check_duration(tau_prime)
    errors = _refusals(reps, ns)
    arrays = RepresentationArrays.of(reps)
    try:
        finals = _family_overlaps(arrays, ns, 0.0, tau_prime, config, errors)
        chis = _overall_phases(arrays, ns, tau_prime, finals, errors)
        return chis - _dynamical_phases(arrays, ns, tau_prime, errors), errors
    except ArithmeticError as exc:
        if len(reps) == 1:
            return np.zeros((1, len(ns))), [exc]
        alone = [_oracle_batch([rep], ns, tau_prime, config) for rep in reps]
        return (np.concatenate([gammas for gammas, _ in alone]),
                [error for _, (error,) in alone])


def berry_phase_oracles(rep: Representation, ns, tau_prime: float,
                        config: PhysicalConfig = PhysicalConfig()) -> list[float]:
    """Oracle Berry phases chi - delta of the states n of ns after tau'.

    One call serves every n: theta and rho are evaluated once per time, the
    overlaps share one Gauss-Hermite rule and one Hermite recurrence, theta
    at the two endpoints gives every branch, and one time integral of the
    energy per quantum gives every delta. Every check still holds per n, and
    the first failure raises.
    """
    return _one_point(*_oracle_batch([rep], ns, tau_prime, config)).tolist()


def overall_phase_oracle(state: QuantumState, tau_prime: float) -> tuple[float, float]:
    """Unwrapped overall phase and fidelity after evolving for tau_prime.

    The mod-2pi phase and the fidelity come from the overlap
    <psi(0)|psi(tau')> on the self-certified Gauss-Hermite rule; the 2pi
    branch is that of a zero-free amplitude of the state, whose argument
    changes by (n + 1/2)(theta(tau') - theta(0)) with theta the continuous
    winding of u - i v, taken at the two endpoints. Raises NotCyclicError
    when the fidelity falls below 1 - FIDELITY_FLOOR, i.e. the evolution did
    not return the state to itself, and ConvergenceError when the
    representation is so close to degenerate that the a-priori sample count
    exceeds 2^24.
    """
    tau_prime = _check_duration(tau_prime)
    arrays, ns, errors = RepresentationArrays.of([state.rep]), (state.n,), [None]
    finals = _family_overlaps(arrays, ns, 0.0, tau_prime, state.config, errors)
    chi = _one_point(_overall_phases(arrays, ns, tau_prime, finals, errors), errors)
    return float(chi[0]), float(np.abs(finals)[0, 0])


def dynamical_phase_oracle(state: QuantumState, tau_prime: float) -> float:
    """-(1/hbar) * time integral of <psi|H|psi> by adaptive quadrature."""
    errors = [None]
    deltas = _dynamical_phases(RepresentationArrays.of([state.rep]), (state.n,),
                               _check_duration(tau_prime), errors)
    return float(_one_point(deltas, errors)[0])


def berry_phase_oracle(state: QuantumState, tau_prime: float) -> float:
    """Oracle Berry phase chi - delta, sharing the closed forms' branch."""
    return berry_phase_oracles(state.rep, (state.n,), tau_prime, state.config)[0]


def ge_child_integral(rep: Representation) -> float:
    """Cycle integral -(i/2) * int_0^tau0 alpha' / (alpha + alpha*) dt.

    alpha is the Gaussian exponent parameter; its derivative is analytic. The
    result is real for the closed cycle and equals the full-period Berry phase
    of the ground state. The ratio alpha'/(2 Re alpha) does not depend on hbar.
    """
    require_valid(rep)
    from .wavefunction import alpha, alpha_dot  # local import avoids a cycle

    def integrand(ts):
        return alpha_dot(rep, ts) / (2.0 * np.real(alpha(rep, ts)))

    value, _ = integrate_1d(integrand, 0.0, rep.tau0)
    result = -0.5j * complex(value)
    if abs(result.imag) > 1e-9:
        raise ConvergenceError(
            f"cycle integral kept an imaginary part {result.imag:.3e};"
            " quadrature did not converge")
    return float(result.real)


def equivalence_class_C(beta: float, count: int = 2) -> list[float]:
    """C values sharing the Berry phase 0 (mod 2pi) for every n, at fixed beta.

    gamma_n(half) = (n + 1/2) pi X with X = (1 + C^2)/(2 C cos beta) - 1
    vanishes mod 2pi for all n simultaneously exactly when X = 4m, m integer.
    Solving gives C = a +/- sqrt(a^2 - 1) with a = (4m + 1) cos beta; both
    roots are returned for every feasible |m| <= count (infeasible m, where
    the roots are complex, are skipped). Zero is the only phase that every
    quantum number can share.
    """
    cos_beta = math.cos(beta)
    if abs(cos_beta) <= COS_BETA_EPS:
        raise InvalidRepresentationError(
            "beta is too close to an odd multiple of pi/2")
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
