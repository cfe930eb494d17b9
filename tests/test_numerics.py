import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shoberry import numerics
from shoberry.errors import ConvergenceError, InvalidParameterError
from shoberry.numerics import (KICK_BLOCK, GridState, integrate_1d,
                               propagate_schrodinger, rationalize)
from shoberry.selfcheck import QUADRATURE_CASES

from _ode import rk_integrate

TWO_PI = 2.0 * math.pi


class TestIntegrate1d:
    def test_sin_squared(self):
        value, err = integrate_1d(lambda t: np.sin(t) ** 2, 0.0, TWO_PI)
        assert abs(value - math.pi) < 1e-12
        assert err >= 0

    def test_exponential(self):
        value, _ = integrate_1d(np.exp, 0.0, 1.0)
        assert abs(value - (math.e - 1.0)) < 1e-12

    def test_complex_integrand(self):
        value, _ = integrate_1d(lambda t: np.exp(1j * t), 0.0, 0.5 * math.pi)
        assert isinstance(value, complex)
        assert abs(value - (1.0 + 1.0j)) < 1e-12

    def test_empty_interval(self):
        assert integrate_1d(np.exp, 2.0, 2.0) == (0.0, 0.0)

    def test_error_estimate_bounds_true_error(self):
        for f, a, b, exact in QUADRATURE_CASES:
            value, estimate = integrate_1d(f, a, b)
            allowance = max(estimate, numerics.ABS_TOL, numerics.REL_TOL * abs(exact))
            assert abs(value - exact) <= allowance, f"case [{a}, {b}]"

    def test_battery_is_large_enough(self):
        assert len(QUADRATURE_CASES) >= 20

    def test_refinement_cap(self, monkeypatch):
        monkeypatch.setattr(numerics, "ABS_TOL", 1e-300)
        monkeypatch.setattr(numerics, "REL_TOL", 1e-300)
        monkeypatch.setattr(numerics, "MAX_REFINEMENTS", 2)
        with pytest.raises(ConvergenceError):
            integrate_1d(lambda t: np.sin(57.3 * t) ** 2, 0.0, 10.0)

    def test_non_vectorized_integrand_rejected(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda t: 1.0, 0.0, 1.0)


class TestRationalize:
    def test_two_thirds(self):
        assert rationalize(2.0 / 3.0, 1e-10) == (2, 3)

    def test_half_with_noise(self):
        assert rationalize(0.5 + 1e-14, 1e-10) == (1, 2)

    def test_sqrt2_has_no_convergent_under_cap(self):
        assert rationalize(math.sqrt(2.0), 1e-12) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rationalize(-1.0, 1e-10)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 400), st.integers(1, 400))
    def test_recovers_exact_fractions(self, a, b):
        g = math.gcd(a, b)
        found = rationalize(a / b, 1e-9)
        assert found == (a // g, b // g)


class TestRkIntegrate:
    def test_sho_period_return(self):
        traj = rk_integrate(lambda x, t: -x, 1.0, 0.0, (0.0, TWO_PI),
                            t_eval=[TWO_PI])
        assert abs(traj.x[-1] - 1.0) < 1e-9
        assert abs(traj.v[-1]) < 1e-9

    def test_energy_drift_ten_periods(self):
        traj = rk_integrate(lambda x, t: -x, 1.0, 0.0, (0.0, 10 * TWO_PI),
                            t_eval=[10 * TWO_PI])
        energy = 0.5 * (traj.x[-1] ** 2 + traj.v[-1] ** 2)
        assert abs(energy - 0.5) < 1e-8

    def test_driven_matches_closed_form(self):
        # xdd + x = cos(0.5 t) has the bounded solution cos(0.5 t)/0.75
        amp = 1.0 / 0.75
        ts = np.linspace(0.0, 4 * TWO_PI, 200)
        traj = rk_integrate(lambda x, t: math.cos(0.5 * t) - x, amp, 0.0,
                            (0.0, 4 * TWO_PI), t_eval=ts)
        assert np.max(np.abs(traj.x - amp * np.cos(0.5 * ts))) < 1e-8


def _gaussian_state(points=512, half=12.0, k0=0.0):
    xs = -half + 2 * half * np.arange(points) / points
    values = np.exp(-0.5 * xs ** 2 + 1j * k0 * xs) / math.pi ** 0.25
    return GridState(-half, half, points, values, 0.0)


class TestGridState:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            GridState(-1.0, 1.0, 96, np.zeros(96), 0.0)

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            GridState(-1.0, 1.0, 32, np.zeros(32), 0.0)

    def test_norm(self):
        state = _gaussian_state()
        assert abs(state.norm() - 1.0) < 1e-12

    @pytest.mark.parametrize("x_min, x_max, t", [
        (0.0, math.inf, 0.0), (-math.inf, 1.0, 0.0), (math.nan, 1.0, 0.0),
        (0.0, math.nan, 0.0), (0.0, 1.0, math.nan), (0.0, 1.0, -math.inf)])
    def test_non_finite_bounds_and_time_refused(self, x_min, x_max, t):
        with pytest.raises(InvalidParameterError, match="finite"):
            GridState(x_min, x_max, 64, np.ones(64), t)

    @pytest.mark.parametrize("points", [1024.0, True, "1024"])
    def test_non_integer_points_refused(self, points):
        with pytest.raises(InvalidParameterError, match="integer"):
            GridState(-1.0, 1.0, points, np.ones(1024), 0.0)

    def test_numpy_integer_points_stored_as_int(self):
        state = GridState(-1.0, 1.0, np.int64(64), np.ones(64), 0.0)
        assert type(state.points) is int and state.points == 64


class TestPropagator:
    def test_ground_state_phase_one_period(self):
        # H with M = w = hbar = 1: E_0 = 1/2, so one period gives phase -pi
        state = _gaussian_state()
        final = propagate_schrodinger(state, 1.0, 1.0, TWO_PI, 2048)
        overlap = state.overlap(final)
        assert abs(abs(overlap) - 1.0) < 1e-9
        assert abs(abs(np.angle(overlap)) - math.pi) < 1e-5

    def test_first_excited_phase_half_period(self):
        # E_1 = 3/2 at M = w = hbar = 1: phase -3pi/2 over tau0/2, i.e. +pi/2
        from shoberry.representation import Representation
        from shoberry.wavefunction import QuantumState, grid_halfwidth, psi

        qs = QuantumState(Representation(1.0, 1.0, 1.0, 0.0), 1)
        half = grid_halfwidth(qs) * 1.1
        xs = np.linspace(-half, half, 512, endpoint=False)
        initial = GridState(-half, half, 512, psi(qs, xs, 0.0), 0.0)
        final = propagate_schrodinger(initial, 1.0, 1.0, math.pi, 2048)
        assert abs(np.angle(initial.overlap(final)) - 0.5 * math.pi) < 1e-5

    def test_norm_preserved_many_steps(self):
        state = _gaussian_state()
        final = propagate_schrodinger(state, 1.0, 1.0, TWO_PI, 10 ** 4)
        assert abs(final.norm() - 1.0) < 1e-9

    def test_force_called_once_on_step_midpoints(self):
        state = _gaussian_state()
        initial = GridState(state.x_min, state.x_max, state.points,
                            state.values, 0.3)
        calls = []

        def force(t):
            calls.append(np.array(t, copy=True))
            return 0.1 * np.cos(t)

        propagate_schrodinger(initial, 1.0, 1.0, 1.3, 16, force=force)
        assert len(calls) == 1
        dt = (1.3 - 0.3) / 16
        assert calls[0].tolist() == [0.3 + (j + 0.5) * dt for j in range(16)]

    def test_scalar_only_force_refused(self):
        with pytest.raises(ValueError, match="vectorized"):
            propagate_schrodinger(_gaussian_state(), 1.0, 1.0, 1.0, 16,
                                  force=lambda t: math.cos(t))

    def test_rejects_coarse_grid(self):
        xs = np.linspace(-40.0, 40.0, 64, endpoint=False)
        values = np.exp(-0.5 * xs ** 2)
        state = GridState(-40.0, 40.0, 64, values, 0.0)
        with pytest.raises(ValueError):
            propagate_schrodinger(state, 1.0, 1.0, 1.0, 16)

    def test_rejects_leaky_domain(self):
        xs = np.linspace(-2.0, 2.0, 256, endpoint=False)
        values = np.exp(-0.125 * xs ** 2)
        state = GridState(-2.0, 2.0, 256, values, 0.0)
        with pytest.raises(ValueError):
            propagate_schrodinger(state, 1.0, 1.0, 1.0, 16)

    @pytest.mark.parametrize("force", [None, lambda t: 0.1 * np.cos(t)])
    def test_tiny_state_propagates_as_scaled(self, force):
        # amplitudes near 1e-165 square below the smallest double, so the
        # resolution check must not weigh the grid by their squares as given
        state = _gaussian_state(points=1024)
        tiny = GridState(state.x_min, state.x_max, state.points, 1e-165 * state.values)
        final = propagate_schrodinger(tiny, 1.0, 1.0, 1.0, 64, force=force)
        reference = 1e-165 * propagate_schrodinger(state, 1.0, 1.0, 1.0, 64,
                                                   force=force).values
        assert np.max(np.abs(final.values - reference)) \
            <= 1e-12 * np.max(np.abs(reference))

    def test_empty_state_refused(self):
        state = GridState(-12.0, 12.0, 1024, np.zeros(1024), 0.0)
        with pytest.raises(ValueError, match="empty"):
            propagate_schrodinger(state, 1.0, 1.0, 1.0, 16)

    @pytest.mark.parametrize("x_half, points, rate, message", [
        (40.0, 64, 0.5, "coarse"), (2.0, 256, 0.125, "domain")])
    def test_tiny_unresolved_states_refused(self, x_half, points, rate, message):
        # the refusals of test_rejects_coarse_grid and
        # test_rejects_leaky_domain, for the same states scaled to 1e-165
        xs = np.linspace(-x_half, x_half, points, endpoint=False)
        state = GridState(-x_half, x_half, points, 1e-165 * np.exp(-rate * xs ** 2), 0.0)
        with pytest.raises(ValueError, match=message):
            propagate_schrodinger(state, 1.0, 1.0, 1.0, 16)

    @pytest.mark.parametrize("force", [None, lambda t: 0.1 * np.cos(t)])
    @pytest.mark.parametrize("steps", [2.5, 16.0, True, np.float64(16)])
    def test_non_integer_steps_refused(self, steps, force):
        with pytest.raises(InvalidParameterError, match="integer"):
            propagate_schrodinger(_gaussian_state(), 1.0, 1.0, 1.0, steps,
                                  force=force)

    def test_numpy_integer_steps_accepted(self):
        state = _gaussian_state()
        final = propagate_schrodinger(state, 1.0, 1.0, 1.0, np.int64(16))
        assert np.array_equal(
            final.values, propagate_schrodinger(state, 1.0, 1.0, 1.0, 16).values)

    @pytest.mark.parametrize("M, w, t_final, hbar", [
        (0.0, 1.0, 1.0, 1.0), (-1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 0.0),
        (1.0, 1.0, 1.0, -0.5), (math.inf, 1.0, 1.0, 1.0),
        (math.nan, 1.0, 1.0, 1.0), (1.0, math.nan, 1.0, 1.0),
        (1.0, -math.inf, 1.0, 1.0), (1.0, 1.0, math.inf, 1.0),
        (1.0, 1.0, math.nan, 1.0), (1.0, 1.0, 1.0, math.inf),
        (1.0, 1.0, 1.0, math.nan)])
    def test_bad_parameters_refused_before_stepping(self, M, w, t_final, hbar):
        calls = []

        def force(t):
            calls.append(t)
            return np.cos(t)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError):
                propagate_schrodinger(_gaussian_state(), M, w, t_final, 16,
                                      force=force, hbar=hbar)
        assert calls == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_force_refused(self, bad):
        def force(t):
            return np.where(t > 0.5, bad, np.cos(t))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="force samples"):
                propagate_schrodinger(_gaussian_state(), 1.0, 1.0, 1.0, 16,
                                      force=force)


def _reference_propagate(initial, M, w, t_final, steps, force=None, hbar=1.0):
    """The Strang step with the potential kick exponentiated on the whole
    grid at every step: the direct form of propagate_schrodinger's kicks."""
    dt = (t_final - initial.t) / steps
    xs = initial.x
    k = 2.0 * math.pi * np.fft.fftfreq(initial.points, d=initial.dx)
    kinetic = np.exp(-0.5j * hbar * k * k * dt / M)
    v_quad = 0.5 * M * w * w * xs * xs
    psi = initial.values.astype(complex, copy=True)
    midpoints = initial.t + (np.arange(steps) + 0.5) * dt
    for f_mid in [None] * steps if force is None else force(midpoints):
        v = v_quad if f_mid is None else v_quad - f_mid * xs
        half_kick = np.exp(-0.5j * v * dt / hbar)
        psi *= half_kick
        psi = np.fft.ifft(kinetic * np.fft.fft(psi))
        psi *= half_kick
    return psi


# 24 steps at four sizes; then, since merged kicks are built KICK_BLOCK steps
# at a time, one step (no merged kick) and step counts that end inside, at and
# just past a block
@pytest.mark.parametrize("points, steps", [
    *(pytest.param(points, 24, id=str(points)) for points in (64, 128, 1024, 2048)),
    *((points, steps) for points in (64, 2048)
      for steps in (1, 2, KICK_BLOCK - 1, KICK_BLOCK, KICK_BLOCK + 1,
                    3 * KICK_BLOCK + 5))])
def test_kicks_match_direct_exponentials(points, steps):
    # a flat-topped state on an off-centre grid resolves at 64 points; at 24
    # steps the force's half-kick phase F dt x / 2 hbar reaches about a radian
    x_min, x_max = -7.0, 13.0
    xs = x_min + (x_max - x_min) * np.arange(points) / points
    values = np.exp(-((xs - 3.0) / 6.0) ** 8 + 0.7j * xs)
    initial = GridState(x_min, x_max, points, values, 0.2)
    M, w, hbar, t_final = 1.3, 0.4, 0.8, 1.7

    def force(t):
        return 2.0 * np.cos(3.0 * t) + 0.5

    forced = propagate_schrodinger(initial, M, w, t_final, steps, force, hbar)
    reference = _reference_propagate(initial, M, w, t_final, steps, force, hbar)
    assert np.max(np.abs(forced.values - reference)) <= 1e-13
    free = propagate_schrodinger(initial, M, w, t_final, steps, hbar=hbar)
    reference = _reference_propagate(initial, M, w, t_final, steps, hbar=hbar)
    assert np.max(np.abs(free.values - reference)) <= 1e-13


def test_integrate_rows_converge_on_their_own():
    # rows of growing frequency need more panels; each matches integrate_1d
    from shoberry.numerics import integrate_rows
    ks = np.array([0.5, 3.0, 40.0, 200.0])
    values, errors, failures = integrate_rows(
        lambda rows, t: np.sin(ks[rows, None] * t) ** 2, 0.0, 10.0, len(ks))
    assert failures == [None] * len(ks)
    for k, value, error in zip(ks.tolist(), values.tolist(), errors.tolist()):
        alone = integrate_1d(lambda t: np.sin(k * t) ** 2, 0.0, 10.0)
        assert (value, error) == alone
        assert value == pytest.approx(5.0 - math.sin(20.0 * k) / (4.0 * k), abs=1e-9)


def test_integrate_rows_reports_a_row_at_the_cap(monkeypatch):
    from shoberry.numerics import integrate_rows
    monkeypatch.setattr(numerics, "MAX_REFINEMENTS", 2)
    ks = np.array([0.1, 57.3])
    values, _, failures = integrate_rows(
        lambda rows, t: np.sin(ks[rows, None] * t) ** 2, 0.0, 10.0, 2)
    assert failures[0] is None and isinstance(failures[1], ConvergenceError)
    assert values[0] == integrate_1d(lambda t: np.sin(0.1 * t) ** 2, 0.0, 10.0)[0]
    with pytest.raises(ConvergenceError) as alone:
        integrate_1d(lambda t: np.sin(57.3 * t) ** 2, 0.0, 10.0)
    assert str(alone.value) == str(failures[1])
