"""Adaptive ODE integration for the tests, built on scipy.

An independent cross-check of the closed-form particular solutions of the
driven oscillator; the package itself never integrates ODEs, so scipy stays
a test-only dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from shoberry.errors import ConvergenceError


@dataclass(frozen=True)
class OdeTrajectory:
    t: np.ndarray
    x: np.ndarray
    v: np.ndarray


def rk_integrate(accel: Callable[[float, float], float], x0: float, v0: float,
                 t_span: tuple[float, float], t_eval=None,
                 rtol: float = 1e-11, atol: float = 1e-11) -> OdeTrajectory:
    """Integrate xdd = accel(x, t) with an adaptive 4th/5th-order pair.

    Dormand-Prince RK45 with local tolerance 1e-11 by default. Returns the
    sampled trajectory; raises ConvergenceError on solver failure (including
    step underflow).
    """

    def rhs(t, y):
        return (y[1], accel(y[0], t))

    sol = solve_ivp(rhs, t_span, [float(x0), float(v0)], method="RK45",
                    rtol=rtol, atol=atol, t_eval=t_eval)
    if not sol.success:
        raise ConvergenceError(f"ODE integration failed: {sol.message}")
    return OdeTrajectory(t=sol.t, x=sol.y[0], v=sol.y[1])
