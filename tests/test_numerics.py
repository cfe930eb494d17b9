import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shoberry.errors import ConvergenceError
from shoberry.numerics import (DEFAULT_QUADRATURE, GridState, QuadratureSpec,
                               integrate_1d, propagate_schrodinger,
                               rationalize, unwrap_phase)
from shoberry.selfcheck import _quad_battery

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
        spec = DEFAULT_QUADRATURE
        for f, a, b, exact in _quad_battery():
            value, estimate = integrate_1d(f, a, b, spec)
            allowance = max(estimate, spec.abs_tol, spec.rel_tol * abs(exact))
            assert abs(value - exact) <= allowance, f"case [{a}, {b}]"

    def test_battery_is_large_enough(self):
        assert len(_quad_battery()) >= 20

    def test_refinement_cap(self):
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_refinements=2)
        with pytest.raises(ConvergenceError):
            integrate_1d(lambda t: np.sin(57.3 * t) ** 2, 0.0, 10.0, spec)

    def test_non_vectorized_integrand_rejected(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda t: 1.0, 0.0, 1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_refinements=0)


class TestUnwrapPhase:
    def test_quarter_turns(self):
        thetas = np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, TWO_PI])
        out = unwrap_phase(np.exp(1j * thetas))
        assert np.allclose(out, thetas, atol=1e-12)

    def test_constant_samples(self):
        out = unwrap_phase(np.full(7, 0.3 - 0.4j))
        assert np.allclose(out, out[0])

    def test_two_negative_turns(self):
        thetas = -np.linspace(0.0, 2 * TWO_PI, 200)
        out = unwrap_phase(np.exp(1j * thetas))
        assert abs(out[-1] + 2 * TWO_PI) < 1e-10
        assert np.all(np.diff(out) <= 0)

    def test_rejects_large_jump(self):
        with pytest.raises(ConvergenceError):
            unwrap_phase(np.array([1.0, -1.0 + 1e-9j]))

    def test_rejects_zero_sample(self):
        with pytest.raises(ValueError):
            unwrap_phase(np.array([1.0, 0.0, 1.0j]))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-2.5, 2.5), st.floats(0.05, 2.8))
    def test_global_phase_equivariance(self, shift, span):
        # first sample pinned near arg 0 so the principal anchor cannot wrap
        thetas = np.linspace(0.0, span, 60) - 0.0
        z = np.exp(1j * thetas)
        base = unwrap_phase(z)
        moved = unwrap_phase(z * np.exp(1j * shift))
        offsets = moved - base - shift
        wrapped = (offsets + math.pi) % TWO_PI - math.pi
        assert np.max(np.abs(wrapped)) < 1e-9
        if abs(shift) < math.pi - 1e-6:
            assert np.max(np.abs(offsets)) < 1e-9


class TestRationalize:
    def test_two_thirds(self):
        assert rationalize(2.0 / 3.0, 1e-10) == (2, 3)

    def test_half_with_noise(self):
        assert rationalize(0.5 + 1e-14, 1e-10) == (1, 2)

    def test_sqrt2_has_no_convergent_under_cap(self):
        assert rationalize(math.sqrt(2.0), 1e-12, 10 ** 6) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rationalize(-1.0, 1e-10)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 400), st.integers(1, 400))
    def test_recovers_exact_fractions(self, a, b):
        g = math.gcd(a, b)
        found = rationalize(a / b, 1e-9, max_den=1000)
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

    def test_second_order_convergence(self):
        from shoberry.representation import Representation
        from shoberry.wavefunction import QuantumState, grid_halfwidth, psi

        rep = Representation(1.0, 1.0, 2.0, 0.0)
        qs = QuantumState(rep, 0)
        half = grid_halfwidth(qs) * 1.1
        xs = np.linspace(-half, half, 1024, endpoint=False)
        initial = GridState(-half, half, 1024, psi(qs, xs, 0.0), 0.0)
        exact = GridState(-half, half, 1024, psi(qs, xs, rep.tau0), rep.tau0)
        errors = [abs(exact.overlap(
            propagate_schrodinger(initial, 1.0, 1.0, rep.tau0, steps)) - 1.0)
            for steps in (128, 256, 512)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5


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


def test_integrate_rows_reports_a_row_at_the_cap():
    from shoberry.numerics import integrate_rows
    spec = QuadratureSpec(max_refinements=2)
    ks = np.array([0.1, 57.3])
    values, _, failures = integrate_rows(
        lambda rows, t: np.sin(ks[rows, None] * t) ** 2, 0.0, 10.0, 2, spec)
    assert failures[0] is None and isinstance(failures[1], ConvergenceError)
    assert values[0] == integrate_1d(lambda t: np.sin(0.1 * t) ** 2, 0.0, 10.0, spec)[0]
    with pytest.raises(ConvergenceError) as alone:
        integrate_1d(lambda t: np.sin(57.3 * t) ** 2, 0.0, 10.0, spec)
    assert str(alone.value) == str(failures[1])
