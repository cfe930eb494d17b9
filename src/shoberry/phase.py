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

from .errors import (ConvergenceError, InvalidParameterError,
                     InvalidRepresentationError, NotCyclicError)
from .numerics import (DEFAULT_QUADRATURE, QuadratureSpec, integrate_1d,
                       integrate_rows)
from .representation import (COS_BETA_EPS, PhysicalConfig, Representation,
                             RepresentationArrays, _winding, require_valid)
from .wavefunction import (QuantumState, _energy_per_quantum, _family_overlaps,
                           check_quantum_number)

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
# Branch-tracking samples evaluated per array call, across the points of a
# batch: memory stays bounded for long evolutions of squeezed states.
_BLOCK_SAMPLES = 1 << 11
# Beyond this many samples (about 8192 blocks) the tracker raises rather than
# grinding on a near-degenerate representation.
_MAX_SAMPLES = 1 << 24


def _branch_samples(rep: Representation, n: int, tau_prime: float) -> int:
    """Uniform sample count keeping every true phase step of state n under pi/4.

    The branch amplitude's argument is (n + 1/2) theta(t) plus a constant,
    and |theta'| = Omega/(M rho^2). rho^2 is a positive quadratic form in
    (cos wt, sin wt) with trace 1 + C^2 and determinant (C cos beta)^2, so its
    smallest value exceeds (C cos beta)^2 / (1 + C^2) and
    |theta'| < w (1 + C^2)/(C cos beta). Sampling at that a-priori rate
    (Itoh's condition) leaves no step that could alias to 2pi k plus a small
    angle. Only n, w, C and beta enter, never the closed-form phase, so the
    oracle stays independent of it.
    """
    rate = (n + 0.5) * rep.w * (1.0 + rep.C * rep.C) \
        / (rep.C * math.cos(rep.beta))
    samples = max(64, 32 * (n + 1))
    samples = int(samples * max(1.0, 2.0 * tau_prime / rep.tau0))
    return max(samples, math.ceil(rate * tau_prime / _STEP_LIMIT))


def _sample_extremes(arrays: RepresentationArrays, counts: np.ndarray,
                     tau_prime: float):
    """The largest theta step and the largest rho of each representation over
    its counts[p] + 1 uniform samples of [0, tau'].

    The samples of every representation form one stream, evaluated
    _BLOCK_SAMPLES steps per array call; a representation whose samples
    straddle two calls appears in both, sharing the boundary sample. theta
    and rho come from the same u and v.
    """
    largest, widest = np.zeros(len(counts)), np.zeros(len(counts))
    offsets = np.concatenate([[0], np.cumsum(counts)])   # of each one's steps
    for lo in range(0, int(offsets[-1]), _BLOCK_SAMPLES):
        hi = min(lo + _BLOCK_SAMPLES, int(offsets[-1]))
        present = np.arange(np.searchsorted(offsets, lo, side="right") - 1,
                            np.searchsorted(offsets, hi))
        first = np.maximum(lo - offsets[present], 0)
        sizes = np.minimum(hi - offsets[present], counts[present]) - first + 1
        starts = np.cumsum(sizes) - sizes
        at = np.repeat(present, sizes)
        ks = np.arange(int(sizes.sum())) - np.repeat(starts - first, sizes)
        theta, u, v = _winding(arrays.at(at), tau_prime * (ks / counts[at]),
                               arrays.theta0[at])
        steps = np.abs(np.diff(theta))
        steps[starts[1:] - 1] = 0.0   # from one representation to the next
        largest[present] = np.maximum(largest[present], np.maximum.reduceat(steps, starts))
        widest[present] = np.maximum(widest[present],
                                     np.maximum.reduceat(np.hypot(u, v), starts))
    return largest, widest


def _branch_windings(reps, ns, tau_prime: float) -> list:
    """Unwrapped change over [0, tau'] of each state's branch amplitude, for
    each representation of reps: a list over ns, or the ConvergenceError
    that refuses the representation.

    The overlap <psi(0)|psi(t)> crosses zero exactly for excited states in
    strongly squeezed representations, so its argument cannot fix the branch
    there. The on-axis value psi(0, t) (even n) or slope dpsi/dx(0, t) (odd n)
    never vanishes: no Gaussian or chirp enters at x = 0 and the Hermite
    factor there is a nonzero constant, so the amplitude is
    sign * rho^(-1/2 or -3/2) * exp(i (n + 1/2) theta) times a positive
    constant, and the unwrapped change of its argument is the continuous
    family phase shared by every x. Consecutive samples of it differ by a
    positive factor times exp(i (n + 1/2) dtheta), so each phase step is
    (n + 1/2) dtheta, which must stay under pi/4. One theta series per
    representation, sampled at the largest a-priori count over ns, serves
    every n; the steps telescope, so the change is
    (n + 1/2) (theta(tau') - theta(0)).
    """
    results, counts = [None] * len(reps), np.zeros(len(reps), dtype=np.int64)
    for p, rep in enumerate(reps):
        needed = [_branch_samples(rep, n, tau_prime) for n in ns]
        over = [count for count in needed if count > _MAX_SAMPLES]
        if over:
            results[p] = ConvergenceError(
                f"branch tracking needs {over[0]} samples (cap {_MAX_SAMPLES});"
                " the representation is too close to degenerate")
        else:
            counts[p] = max(needed)
    tracked = np.flatnonzero(counts)
    if not tracked.size:
        return results
    arrays = RepresentationArrays.of([reps[p] for p in tracked])
    largest, widest = _sample_extremes(arrays, counts[tracked], tau_prime)
    columns = arrays.at((slice(None), None))
    theta = _winding(columns, np.array([0.0, tau_prime]), columns.theta0)[0]
    turns = (theta[:, 1] - theta[:, 0]).tolist()
    # rho^(-1/2 - odd) is smallest where rho is largest, so one power per
    # representation tells whether the amplitude vanished at any sample
    with np.errstate(divide="ignore", over="ignore"):
        vanished = {odd: ~(widest ** (-0.5 - odd) > 0) for odd in {n % 2 for n in ns}}
    for i, p in enumerate(tracked.tolist()):
        for n in ns:
            if vanished[n % 2][i]:
                results[p] = ConvergenceError("branch amplitude vanished at a tracking node")
                break
            if not (n + 0.5) * largest[i] < _STEP_LIMIT:   # NaN fails too
                results[p] = ConvergenceError(
                    "a branch-tracking step reached pi/4 despite the a-priori"
                    " sample count; the phase branch is not trustworthy")
                break
        else:
            results[p] = [(n + 0.5) * turns[i] for n in ns]
    return results


def _check_duration(tau_prime) -> None:
    if not tau_prime > 0:
        raise ValueError("tau_prime must be positive")


def _overall_phases(reps, ns, tau_prime: float, config: PhysicalConfig,
                    spec: QuadratureSpec, fidelity_floor: float) -> list:
    """(chi, fidelity) for every n of ns, or the exception that refuses the
    representation, for each representation of reps; see
    overall_phase_oracle."""
    _check_duration(tau_prime)
    finals, results = _family_overlaps(reps, ns, 0.0, float(tau_prime), config, spec)
    fidelities = np.abs(finals)
    for p, row in enumerate(fidelities):
        if results[p] is not None:
            continue
        for fidelity in row:
            if fidelity < 1.0 - fidelity_floor:
                results[p] = NotCyclicError(
                    f"evolution over {tau_prime:g} is not cyclic"
                    f" (fidelity {fidelity:.12f}); overall phase undefined")
                break
    live = [p for p, result in enumerate(results) if result is None]
    windings = _branch_windings([reps[p] for p in live], ns, float(tau_prime))
    for p, winding in zip(live, windings):
        if isinstance(winding, Exception):
            results[p] = winding
            continue
        results[p] = []
        for final, fidelity, turn in zip(finals[p], fidelities[p], winding):
            angle = cmath.phase(final)
            chi = angle + TWO_PI * round((turn - angle) / TWO_PI)
            results[p].append((chi, float(fidelity)))
    return results


def _dynamical_phases(reps, ns, tau_prime: float, spec: QuadratureSpec) -> list:
    """delta for every n of ns, or the ConvergenceError that refuses the
    representation, for each representation of reps; see
    dynamical_phase_oracle.

    <psi_n|H|psi_n> is (n + 1/2) hbar times energy_per_quantum, so one time
    integral of the latter gives delta = -(n + 1/2) * integral for every n.
    The integral is at least pi over a half period, so the relative
    tolerance, not the absolute one, decides when it has converged. The
    integrals of all representations are refined together, each until its
    own has converged.
    """
    _check_duration(tau_prime)
    arrays = RepresentationArrays.of(reps)

    def energy(rows, ts):
        columns = arrays.at((rows, None))
        return _energy_per_quantum(columns, ts, columns.stiffness)

    values, _, failures = integrate_rows(energy, 0.0, float(tau_prime), len(reps), spec)
    return [failure or [-(n + 0.5) * value for n in ns]
            for value, failure in zip(values.tolist(), failures)]


def _each_point(stage, reps, *args) -> list:
    """stage(reps, *args), a list with each representation's result or
    exception. An ArithmeticError names no representation (a Hermite
    overflow, rho vanishing at a node), so it runs the representations one
    at a time, and each gets its own result or error."""
    try:
        return stage(reps, *args)
    except ArithmeticError as exc:
        if len(reps) == 1:
            return [exc]
        return [_each_point(stage, [rep], *args)[0] for rep in reps]


def _oracle_batch(reps, ns, tau_prime: float,
                  config: PhysicalConfig = PhysicalConfig(),
                  spec: QuadratureSpec = DEFAULT_QUADRATURE) -> list:
    """berry_phase_oracles for every representation of reps: a list of the
    oracle Berry phases over ns, or the exception the one-representation
    call raises, per representation.

    The representations are evaluated together, as arrays: the overlaps of
    all of them on one Gauss-Hermite level at a time, their branch samples
    as one stream, their time integrals as rows of one quadrature. Each
    still refines, is certified and is checked on its own, so its result is
    the same float, and its error the same message, as when it is alone.
    """
    results = _each_point(_overall_phases, reps, ns, tau_prime, config, spec,
                          FIDELITY_FLOOR)
    live = [p for p, result in enumerate(results) if not isinstance(result, Exception)]
    deltas = _each_point(_dynamical_phases, [reps[p] for p in live], ns, tau_prime, spec)
    for p, delta in zip(live, deltas):
        results[p] = delta if isinstance(delta, Exception) else [
            chi - d for (chi, _), d in zip(results[p], delta)]
    return results


def _only(results):
    """The one representation's result of a batch; its exception is raised."""
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result


def berry_phase_oracles(rep: Representation, ns, tau_prime: float,
                        config: PhysicalConfig = PhysicalConfig(),
                        spec: QuadratureSpec = DEFAULT_QUADRATURE) -> list[float]:
    """Oracle Berry phases chi - delta of the states n of ns after tau'.

    One call serves every n: theta and rho are evaluated once per time, the
    overlaps share one Gauss-Hermite rule and one Hermite recurrence, one
    theta series carries every branch, and one time integral of the energy
    per quantum gives every delta. Every check still holds per n, and the
    first failure raises.
    """
    return _only(_oracle_batch([rep], ns, tau_prime, config, spec))


def overall_phase_oracle(state: QuantumState, tau_prime: float,
                         spec: QuadratureSpec = DEFAULT_QUADRATURE,
                         fidelity_floor: float = FIDELITY_FLOOR) -> tuple[float, float]:
    """Unwrapped overall phase and fidelity after evolving for tau_prime.

    The mod-2pi phase and the fidelity come from the overlap
    <psi(0)|psi(tau')> on the self-certified Gauss-Hermite rule; the 2pi
    branch comes from continuously tracking a zero-free amplitude of the state
    from t = 0 on a uniform grid fine enough that every phase step stays under
    pi/4. Raises NotCyclicError when the fidelity falls below
    1 - fidelity_floor, i.e. the evolution did not return the state to
    itself, and ConvergenceError when the branch cannot be tracked.
    """
    return _only(_each_point(_overall_phases, [state.rep], (state.n,), tau_prime,
                             state.config, spec, fidelity_floor))[0]


def dynamical_phase_oracle(state: QuantumState, tau_prime: float,
                           spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """-(1/hbar) * time integral of <psi|H|psi> by adaptive quadrature."""
    return _only(_each_point(_dynamical_phases, [state.rep], (state.n,), tau_prime,
                             spec))[0]


def berry_phase_oracle(state: QuantumState, tau_prime: float,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Oracle Berry phase chi - delta, sharing the closed forms' branch."""
    return berry_phase_oracles(state.rep, (state.n,), tau_prime, state.config,
                               spec)[0]


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
