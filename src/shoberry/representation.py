"""Oscillator representations built from pairs of classical solutions.

A representation is the classical solution pair u(t) = cos(wt),
v(t) = C sin(wt + beta) for an oscillator of mass M and angular frequency w,
together with the quantities derived from it: the amplitude rho = sqrt(u^2+v^2),
the conserved Wronskian M(u v' - v u'), and the closed (u, v) trajectory.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidParameterError, InvalidRepresentationError

# Degeneracy guard: |cos beta| below this makes the Wronskian vanish and every
# phase integrand blow up, so such representations are rejected outright.
COS_BETA_EPS = 1e-9


def _as_time(t):
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class PhysicalConfig:
    """Physical constants entering the wavefunctions."""

    hbar: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise InvalidParameterError(
                f"hbar must be finite and positive, got {self.hbar!r}")


@dataclass(frozen=True)
class Representation:
    """Classical-solution pair (cos wt, C sin(wt + beta)).

    Construction refuses non-finite fields, M or w <= 0, a stiffness M w^2
    beyond double precision or subnormal, C = 0 and |cos beta| <=
    COS_BETA_EPS. It stores the Wronskian omega = M C w cos(beta), the
    stiffness M w^2, theta0 (the argument of u - i v at t = 0) and rho_scale
    (1 where w (1 + C^2) is finite, else 2^-e with |C| w < 2^e).
    A negative omega is admitted: the phase formulas tolerate it, while
    wavefunctions need require_valid.
    """

    M: float
    w: float
    C: float
    beta: float
    omega: float = field(init=False, repr=False, compare=False)
    stiffness: float = field(init=False, repr=False, compare=False)
    theta0: float = field(init=False, repr=False, compare=False)
    rho_scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("M", "w", "C", "beta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidRepresentationError(f"{name} must be finite, got {value!r}")
        if not self.M > 0:
            raise InvalidRepresentationError("mass M must be positive")
        if not self.w > 0:
            raise InvalidRepresentationError("angular frequency w must be positive")
        try:
            stiffness = self.M * self.w ** 2
        except OverflowError:   # float ** raises where * gives inf
            stiffness = math.inf
        # a subnormal stiffness loses the bits of energy_per_quantum's M w^2 term
        if not sys.float_info.min <= stiffness < math.inf:
            bound = "overflows" if stiffness > 1.0 else "underflows"
            raise InvalidRepresentationError(
                f"the stiffness M w^2 {bound} double precision at M={self.M!r},"
                f" w={self.w!r}")
        failures = []
        if self.C == 0:
            failures.append("C must be nonzero")
        cos_beta = math.cos(self.beta)
        if abs(cos_beta) <= COS_BETA_EPS:
            failures.append(
                f"|cos(beta)| must exceed {COS_BETA_EPS:g}"
                " (beta is too close to an odd multiple of pi/2)")
        if failures:
            raise InvalidRepresentationError("; ".join(failures))
        object.__setattr__(self, "omega", self.M * self.C * self.w * cos_beta)
        object.__setattr__(self, "stiffness", stiffness)
        object.__setattr__(self, "theta0", math.atan2(-self.C * math.sin(self.beta), 1.0))
        # rho' sums u u' + v v', bounded by w (1 + C^2); scaled only where
        # that bound overflows, so subnormal products keep every bit elsewhere
        exponent = math.frexp(self.C)[1] + math.frexp(self.w)[1]
        object.__setattr__(self, "rho_scale", 1.0 if math.isfinite(
            self.w * (1.0 + self.C * self.C)) else math.ldexp(1.0, -exponent))

    @property
    def tau0(self) -> float:
        """Classical period, always derived from w."""
        return 2.0 * math.pi / self.w


STATIONARY = Representation(M=1.0, w=1.0, C=1.0, beta=0.0)


def validate(rep: Representation) -> Optional[str]:
    """Why the wavefunctions of ``rep`` are not normalizable, or None.

    Construction has refused every representation whose phase formulas are
    not finite; wavefunctions further need a positive Wronskian omega, i.e.
    C cos(beta) > 0.
    """
    if not rep.omega > 0:
        return ("C*cos(beta) must be positive for normalizable wavefunctions"
                " (the Wronskian M*C*w*cos(beta) is not positive)")
    return None


def require_valid(rep: Representation) -> None:
    """Raise InvalidRepresentationError with validate's reason, if any."""
    failure = validate(rep)
    if failure is not None:
        raise InvalidRepresentationError(failure)


class RepresentationArrays(NamedTuple):
    """The fields of several representations as arrays, one entry each.

    classical_pair, kinematics, energy_per_quantum and the core of
    winding_phase read only these names, so they take this in place of a
    Representation and broadcast the fields against the times: fields shaped
    as columns evaluate every representation on a row of times. Each field
    is read by name from its Representation, which computed it when it was
    built, so every entry matches the one-representation code bit for bit.
    """

    M: np.ndarray
    w: np.ndarray
    C: np.ndarray
    beta: np.ndarray
    omega: np.ndarray
    tau0: np.ndarray
    theta0: np.ndarray
    stiffness: np.ndarray
    rho_scale: np.ndarray

    @classmethod
    def of(cls, reps) -> "RepresentationArrays":
        get = operator.attrgetter(*cls._fields)
        fields = np.array([get(r) for r in reps]).reshape(-1, len(cls._fields))
        return cls(*np.ascontiguousarray(fields.T))

    def at(self, index) -> "RepresentationArrays":
        """Every field indexed by ``index``, e.g. ``(rows, None)`` for columns."""
        return RepresentationArrays(*(values[index] for values in self))


def classical_pair(rep: Representation, t):
    """u, v and their time derivatives at t (scalar or array)."""
    arr, scalar = _as_time(t)
    wt = rep.w * arr
    shifted = wt + rep.beta
    u = np.cos(wt)
    v = rep.C * np.sin(shifted)
    du = -rep.w * np.sin(wt)
    dv = rep.C * rep.w * np.cos(shifted)
    if scalar:
        return float(u), float(v), float(du), float(dv)
    return u, v, du, dv


def kinematics(rep: Representation, t):
    """u, v, u', v', rho = sqrt(u^2 + v^2) and rho' at t (scalar or array)."""
    u, v, du, dv = classical_pair(rep, t)
    r = np.hypot(u, v)
    if np.any(np.asarray(r) == 0.0):
        raise ArithmeticError("u^2 + v^2 vanished; classical pair is degenerate")
    # u', v' and rho scaled by rho_scale where v v' ~ C^2 w could overflow: a
    # power of two changes no bit of rho' while the products stay normal
    s = rep.rho_scale
    return u, v, du, dv, r, (u * (du * s) + v * (dv * s)) / (r * s)


def rho(rep: Representation, t):
    """Amplitude sqrt(u^2 + v^2); periodic with half the classical period."""
    return kinematics(rep, t)[4]


def rho_dot(rep: Representation, t):
    return kinematics(rep, t)[5]


def rho_ddot(rep: Representation, t):
    """Second time derivative of rho, from u'' = -w^2 u exactly."""
    _, _, du, dv, r, rdot = kinematics(rep, t)
    return (du * du + dv * dv - rep.w ** 2 * r * r - rdot * rdot) / r


def omega_invariant(rep: Representation) -> float:
    """Conserved Wronskian M (u v' - v u') = M C w cos(beta)."""
    return rep.omega


def winding_phase(rep: Representation, t):
    """Continuous argument of u - i v, anchored at its principal value at t=0.

    For a positive Wronskian the argument decreases monotonically (at the rate
    -Omega/(M rho^2)) and drops by exactly pi every half period, so the branch
    at any isolated t equals the one obtained by unwrapping along [0, t]. That
    lets the value be computed in closed form: reduce t into [0, tau0/2), take
    atan2 there, and shift by -pi per elapsed half period.
    """
    require_valid(rep)
    arr, scalar = _as_time(t)
    out = _winding(rep, arr)[0]
    return float(out) if scalar else out


def _winding(rep, arr):
    """winding_phase at the times arr, for a Representation or
    RepresentationArrays; also u and v at the times reduced into
    [0, tau0/2), which the argument is taken of."""
    half = 0.5 * rep.tau0
    m = np.floor(arr / half)
    wt = rep.w * (arr - m * half)
    u, v = np.cos(wt), rep.C * np.sin(wt + rep.beta)
    raw = np.arctan2(np.negative(v), u)
    # unique representative of raw (mod 2pi) inside (theta0 - pi, theta0]
    center = rep.theta0 - 0.5 * math.pi
    theta_local = raw + 2.0 * math.pi * np.round((center - raw) / (2.0 * math.pi))
    return theta_local - math.pi * m, u, v


def trajectory(rep: Representation, samples: int) -> np.ndarray:
    """Sample the closed (u, v) curve over one classical period.

    Returns an array of shape (samples, 2) including both endpoints, which
    coincide by periodicity.
    """
    if samples < 2:
        raise ValueError("at least two samples are needed")
    ts = np.linspace(0.0, rep.tau0, samples)
    u, v, _, _ = classical_pair(rep, ts)
    return np.stack([u, v], axis=1)
