import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shoberry.driven import (Commensurability, DrivingForce,
                             ParticularSolution, action_phase,
                             berry_phase_driven, berry_phase_special_rep,
                             commensurability, drive_phase_closed,
                             drive_phase_quadrature, fourier_decompose,
                             particular_solution, psi_driven,
                             velocity_squared_integral)
from shoberry.errors import (ConditioningError, ConvergenceError,
                             IncommensurateError, ResonanceError)
from shoberry.phase import berry_phase
from shoberry.representation import PhysicalConfig, Representation
from shoberry.wavefunction import QuantumState, grid_halfwidth, psi

from _ode import rk_integrate

TWO_PI = 2.0 * math.pi
STRETCHED = Representation(1.0, 1.0, 2.0, 0.0)


def square_wave_force(amplitude, omega_f, n_max=25):
    coeffs = {n: 2.0 * amplitude / (1j * math.pi * n)
              for n in range(-n_max, n_max + 1) if n % 2 != 0}
    return DrivingForce(omega_f, coeffs)


class TestDrivingForce:
    def test_reality_constraint_enforced(self):
        with pytest.raises(ValueError):
            DrivingForce(1.0, {1: 1.0 + 0.5j, -1: 1.0 + 0.5j})
        with pytest.raises(ValueError, match="finite"):
            DrivingForce(1.0, {1: complex(math.nan, 0.0), -1: complex(math.nan, 0.0)})

    def test_zero_modes_dropped(self):
        force = DrivingForce(1.0, {1: 0.5, -1: 0.5, 3: 0.0, -3: 0.0})
        assert set(force.coefficients) == {1, -1}

    def test_evaluates_real_cosine(self):
        force = DrivingForce(0.5, {1: 0.4, -1: 0.4})
        ts = np.linspace(0.0, force.tau_f, 50)
        assert np.allclose(force(ts), 0.8 * np.cos(0.5 * ts), atol=1e-14)

    def test_tau_f(self):
        assert DrivingForce(0.5, {}).tau_f == pytest.approx(2 * TWO_PI)


class TestFourierDecompose:
    def test_single_cosine(self):
        force, tail = fourier_decompose(lambda t: 0.8 * np.cos(0.5 * t), 0.5, 3)
        assert force.coefficients[1] == pytest.approx(0.4, abs=1e-14)
        assert force.coefficients[-1] == pytest.approx(0.4, abs=1e-14)
        assert set(force.coefficients) == {1, -1}
        assert tail < 1e-14

    def test_single_sine_second_mode(self):
        force, _ = fourier_decompose(lambda t: np.sin(2 * 0.7 * t), 0.7, 4)
        assert force.coefficients[2] == pytest.approx(-0.5j, abs=1e-14)
        assert force.coefficients[-2] == pytest.approx(0.5j, abs=1e-14)

    def test_truncated_square_wave_recovered(self):
        reference = square_wave_force(1.0, 1.0)
        force, tail = fourier_decompose(reference, 1.0, 25)
        assert tail < 1e-14
        for n, f in reference.coefficients.items():
            assert force.coefficients[n] == pytest.approx(f, abs=1e-13)

    def test_true_square_wave_refused_by_default(self):
        square = lambda t: np.where(np.sin(t) >= 0, 1.0, -1.0)
        with pytest.raises(ConvergenceError):
            fourier_decompose(square, 1.0, 25)

    def test_true_square_wave_coefficients_with_allowance(self):
        square = lambda t: np.where(np.sin(t) >= 0, 1.0, -1.0)
        force, tail = fourier_decompose(square, 1.0, 25, samples=2 ** 16,
                                        max_tail_fraction=0.1)
        assert 0.01 < tail < 0.02
        for n in (1, 3, 5, 25):
            assert force.coefficients[n] == pytest.approx(
                2.0 / (1j * math.pi * n), rel=1e-3)


class TestCommensurability:
    def test_exact_rational(self):
        assert commensurability(TWO_PI, 3 * math.pi) == Commensurability(2, 3)

    def test_unit_ratio(self):
        assert commensurability(2.0, 2.0) == Commensurability(1, 1)

    def test_sqrt2_incommensurate(self):
        with pytest.raises(IncommensurateError):
            commensurability(math.sqrt(2.0), 1.0, 1e-12)

    def test_coprimality_enforced_in_type(self):
        with pytest.raises(ValueError):
            Commensurability(2, 4)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40))
    def test_recovers_rational_ratios(self, p, n):
        g = math.gcd(p, n)
        comm = commensurability(p * 1.7, n * 1.7)
        assert (comm.p, comm.N) == (p // g, n // g)


class TestParticularSolution:
    def test_zero_force_zero_D(self):
        force = DrivingForce(0.5, {})
        xp = particular_solution(force, STRETCHED, Commensurability(1, 2), 0j)
        ts = np.linspace(0.0, 5.0, 20)
        assert np.allclose(xp.x(ts), 0.0)
        assert np.allclose(xp.xdot(ts), 0.0)

    def test_single_cosine_amplitude(self):
        force = DrivingForce(0.5, {1: 0.35, -1: 0.35})
        xp = particular_solution(force, STRETCHED, Commensurability(1, 2), 0j)
        ts = np.linspace(0.0, force.tau_f, 64)
        expected = (0.7 / (1.0 - 0.25)) * np.cos(0.5 * ts)
        assert np.max(np.abs(xp.x(ts) - expected)) < 1e-14

    def test_matches_rk_integration(self):
        force = DrivingForce(2.0 / 3.0, {1: 0.35, -1: 0.35, 3: 0.1j, -3: -0.1j})
        comm = Commensurability(2, 3)
        xp = particular_solution(force, STRETCHED, comm, D=0.2 - 0.1j)
        span = comm.N * STRETCHED.tau0
        ts = np.linspace(0.0, span, 300)
        traj = rk_integrate(lambda x, t: force(t) / STRETCHED.M
                            - STRETCHED.w ** 2 * x,
                            xp.x(0.0), xp.xdot(0.0), (0.0, span), t_eval=ts)
        assert np.max(np.abs(traj.x - xp.x(ts))) < 1e-8

    def test_resonant_mode_rejected(self):
        force = DrivingForce(0.5, {2: 0.1, -2: 0.1})
        with pytest.raises(ResonanceError):
            particular_solution(force, STRETCHED, Commensurability(1, 2))

    def test_near_resonant_denominator_rejected(self):
        omega_f = 0.5 * (1.0 + 1e-12)
        force = DrivingForce(omega_f, {2: 0.1, -2: 0.1})
        with pytest.raises(ConditioningError):
            particular_solution(force, STRETCHED, None)

    def test_ode_residual_and_periodicity(self):
        force = square_wave_force(0.4, 0.75)
        comm = Commensurability(3, 4)
        xp = particular_solution(force, STRETCHED, comm, D=0.15 + 0.2j)
        span = comm.N * STRETCHED.tau0
        ts = np.linspace(0.0, span, 900)
        residual = xp.xddot(ts) + STRETCHED.w ** 2 * xp.x(ts) - force(ts)
        scale = max(np.max(np.abs(force(ts))),
                    STRETCHED.w ** 2 * np.max(np.abs(xp.x(ts))))
        assert np.max(np.abs(residual)) < 1e-9 * scale
        assert np.max(np.abs(xp.x(ts + span) - xp.x(ts))) < 1e-10


class TestActionPhase:
    def test_zero_solution(self):
        xp = ParticularSolution(0.5, {}, 0j, 1.0)
        assert action_phase(STRETCHED, xp, 0.0, 3.7) == 0.0

    def test_single_cosine_closed_form(self):
        force = DrivingForce(0.5, {1: 0.35, -1: 0.35})
        xp = particular_solution(force, STRETCHED, Commensurability(1, 2), 0j)
        amplitude = 0.7 / 0.75
        tau_f = force.tau_f
        expected = (STRETCHED.M * amplitude ** 2 / 4.0) \
            * (STRETCHED.w ** 2 - 0.5 ** 2) * tau_f
        assert action_phase(STRETCHED, xp, 0.0, tau_f) \
            == pytest.approx(expected, rel=1e-12)

    def test_additivity(self):
        force = square_wave_force(0.3, 2.0 / 3.0, n_max=7)
        xp = particular_solution(force, STRETCHED, Commensurability(2, 3),
                                 D=0.1 + 0.3j)
        a = action_phase(STRETCHED, xp, 0.0, 1.1)
        b = action_phase(STRETCHED, xp, 1.1, 2.9)
        c = action_phase(STRETCHED, xp, 0.0, 2.9)
        assert a + b == pytest.approx(c, rel=1e-12, abs=1e-12)

    def test_matches_quadrature(self):
        from shoberry.numerics import integrate_1d
        force = DrivingForce(2.0 / 3.0, {1: 0.4, -1: 0.4, 2: 0.2j, -2: -0.2j})
        xp = particular_solution(force, STRETCHED, Commensurability(2, 3),
                                 D=0.25j)
        value, _ = integrate_1d(
            lambda ts: STRETCHED.w ** 2 * xp.x(ts) ** 2 - xp.xdot(ts) ** 2,
            0.0, 4.0)
        assert action_phase(STRETCHED, xp, 0.0, 4.0) \
            == pytest.approx(0.5 * STRETCHED.M * value, rel=1e-10)


class TestDrivePhase:
    def test_homogeneous_amplitude_term(self):
        # x_p = D e^{iwt} + c.c. alone: quadrature fixes the coefficient at
        # 4 pi M N w |D|^2 / hbar
        force = DrivingForce(0.5, {})
        comm = Commensurability(1, 2)
        D = 0.3 + 0.1j
        closed = drive_phase_closed(force, comm, 1.0, 1.0, 1.0, D)
        assert closed == pytest.approx(4.0 * math.pi * 2 * abs(D) ** 2)
        xp = particular_solution(force, STRETCHED, comm, D)
        quad = drive_phase_quadrature(xp, 1.0, 1.0, comm.N * STRETCHED.tau0)
        assert quad == pytest.approx(closed, rel=1e-10)

    @pytest.mark.parametrize("D", [0j, 0.3 + 0.1j])
    @pytest.mark.parametrize("p,N", [(1, 2), (2, 3), (3, 4)])
    def test_closed_matches_quadrature(self, p, N, D):
        omega_f = p / N
        force = DrivingForce(omega_f, {1: 0.35, -1: 0.35, 3: 0.06j, -3: -0.06j})
        comm = Commensurability(p, N)
        xp = particular_solution(force, STRETCHED, comm, D)
        closed = drive_phase_closed(force, comm, STRETCHED.M, STRETCHED.w, 1.0, D)
        quad = drive_phase_quadrature(xp, STRETCHED.M, 1.0,
                                      comm.N * STRETCHED.tau0)
        assert abs(closed - quad) < 1e-8 * abs(closed)

    def test_velocity_squared_integral_matches_quadrature(self):
        from shoberry.numerics import integrate_1d
        force = square_wave_force(0.4, 0.75, n_max=9)
        xp = particular_solution(force, STRETCHED, Commensurability(3, 4),
                                 D=0.2 - 0.3j)
        direct, _ = integrate_1d(lambda ts: xp.xdot(ts) ** 2, 0.0, 5.0)
        assert velocity_squared_integral(xp, 0.0, 5.0) \
            == pytest.approx(direct, rel=1e-10)


class TestBerryPhaseDriven:
    def test_zero_force_reduces_to_undriven(self):
        force = DrivingForce(0.5, {})
        comm = Commensurability(1, 2)
        res = berry_phase_driven(STRETCHED, 1, force, 0j, comm)
        assert res.gamma_total == comm.N * berry_phase(STRETCHED, 1, "full").gamma
        assert res.drive_closed == 0.0
        assert abs(res.drive_quadrature) < 1e-12

    def test_pure_homogeneous_drive(self):
        force = DrivingForce(1.0, {})
        comm = Commensurability(1, 1)
        D = 0.3 + 0.1j
        res = berry_phase_driven(STRETCHED, 0, force, D, comm)
        expected = berry_phase(STRETCHED, 0, "full").gamma \
            + 4.0 * math.pi * abs(D) ** 2
        assert res.gamma_total == pytest.approx(expected, rel=1e-12)

    def test_single_cosine_stationary_tau_f(self):
        # p = 1: the joint cycle is one force period, so the drive part is the
        # special-representation value pi w_f f^2 / (hbar M (w_f^2 - w^2)^2)
        rep = Representation(1, 1, 1, 0)
        f = 1.0
        force = DrivingForce(0.5, {1: f / 2, -1: f / 2})
        comm = commensurability(rep.tau0, force.tau_f)
        assert (comm.p, comm.N) == (1, 2)
        res = berry_phase_driven(rep, 0, force, 0j, comm)
        expected = math.pi * 0.5 * f ** 2 / (1.0 * (0.5 ** 2 - 1.0) ** 2)
        assert res.gamma_undriven == 0.0
        assert res.drive_closed == pytest.approx(expected, rel=1e-12)
        assert res.drive_quadrature == pytest.approx(expected, rel=1e-8)

    def test_drive_part_independent_of_n_and_representation(self):
        force = DrivingForce(2.0 / 3.0, {1: 0.35, -1: 0.35})
        comm = Commensurability(2, 3)
        drives = []
        for rep in (STRETCHED, Representation(1.0, 1.0, 0.5, math.pi / 6)):
            for n in (0, 2, 5):
                res = berry_phase_driven(rep, n, force, 0.25 - 0.4j, comm)
                drives.append(res.gamma_total
                              - comm.N * berry_phase(rep, n, "full").gamma)
                drives.append(res.drive_quadrature)
        assert max(drives) - min(drives) < 1e-8

    def test_scales_inversely_with_hbar(self):
        force = DrivingForce(2.0 / 3.0, {1: 0.35, -1: 0.35})
        comm = Commensurability(2, 3)
        full = berry_phase_driven(STRETCHED, 0, force, 0.2j, comm,
                                  PhysicalConfig(1.0)).drive_closed
        half = berry_phase_driven(STRETCHED, 0, force, 0.2j, comm,
                                  PhysicalConfig(0.5)).drive_closed
        assert half == pytest.approx(2.0 * full, rel=1e-15)


class TestSpecialRepresentation:
    def test_zero_force(self):
        assert berry_phase_special_rep(DrivingForce(0.7, {}), 1.0, 1.0, 1.0) == 0.0

    def test_single_mode_value(self):
        f = 0.9
        omega_f = 0.61803398875
        force = DrivingForce(omega_f, {1: f / 2, -1: f / 2})
        expected = math.pi * omega_f * f ** 2 / ((omega_f ** 2 - 1.0) ** 2)
        assert berry_phase_special_rep(force, 1.0, 1.0, 1.0) \
            == pytest.approx(expected, rel=1e-14)

    def test_additive_over_disjoint_modes(self):
        omega_f = 0.37
        one = DrivingForce(omega_f, {1: 0.4, -1: 0.4})
        two = DrivingForce(omega_f, {3: 0.2j, -3: -0.2j})
        both = DrivingForce(omega_f, {1: 0.4, -1: 0.4, 3: 0.2j, -3: -0.2j})
        args = (1.3, 1.0, 0.7)
        assert berry_phase_special_rep(both, *args) == pytest.approx(
            berry_phase_special_rep(one, *args)
            + berry_phase_special_rep(two, *args), rel=1e-14)

    def test_resonant_mode_rejected(self):
        force = DrivingForce(0.5, {2: 0.1, -2: 0.1})
        with pytest.raises(ResonanceError):
            berry_phase_special_rep(force, 1.0, 1.0, 1.0)

    def test_no_commensurability_needed(self):
        # irrational-looking drive frequency: quadrature over one force period
        # still matches because x_p is tau_f-periodic when D = 0
        rep = Representation(1, 1, 1, 0)
        omega_f = 0.61803398875
        force = DrivingForce(omega_f, {1: 0.5, -1: 0.5})
        gamma = berry_phase_special_rep(force, rep.M, rep.w, 1.0)
        xp = particular_solution(force, rep, None, 0j)
        quad = drive_phase_quadrature(xp, rep.M, 1.0, force.tau_f)
        assert abs(gamma - quad) < 1e-8 * gamma


class TestPsiDriven:
    def test_reduces_to_undriven_without_force(self):
        xp = ParticularSolution(0.5, {}, 0j, STRETCHED.w)
        state = QuantumState(STRETCHED, 2)
        xs = np.linspace(-4.0, 4.0, 41)
        for t in (0.0, 1.3):
            assert np.array_equal(psi_driven(state, xp, xs, t),
                                  psi(state, xs, t))

    def test_normalized(self):
        from shoberry.numerics import integrate_1d
        force = DrivingForce(0.5, {1: 0.35, -1: 0.35})
        xp = particular_solution(force, STRETCHED, Commensurability(1, 2),
                                 D=0.1 + 0.05j)
        state = QuantumState(STRETCHED, 1)
        half = grid_halfwidth(state) + 2.0
        for t in (0.0, 1.7):
            value, _ = integrate_1d(
                lambda xs: np.abs(psi_driven(state, xp, xs, t)) ** 2,
                -half, half, initial_panels=8)
            assert abs(value - 1.0) < 1e-8

    def test_schrodinger_residual_with_force(self):
        # fourth-order differences against H = p^2/2M + M w^2 x^2/2 - F(t) x
        rep = STRETCHED
        force = DrivingForce(0.5, {1: 0.35, -1: 0.35})
        xp = particular_solution(force, rep, Commensurability(1, 2),
                                 D=0.1 + 0.05j)
        state = QuantumState(rep, 1)
        hbar = state.config.hbar
        dx, h, t0 = 0.02, 1e-3, 0.6
        xs = np.arange(-5.0, 5.0 + 1e-12, dx)
        stack = [psi_driven(state, xp, xs, t0 + k * h) for k in (-2, -1, 1, 2)]
        dpsi_dt = (-stack[3] + 8 * stack[2] - 8 * stack[1] + stack[0]) / (12 * h)
        p = psi_driven(state, xp, xs, t0)
        lap = (-p[:-4] + 16 * p[1:-3] - 30 * p[2:-2] + 16 * p[3:-1] - p[4:]) \
            / (12 * dx * dx)
        inner = slice(2, -2)
        hpsi = -hbar ** 2 / (2 * rep.M) * lap \
            + (0.5 * rep.M * rep.w ** 2 * xs[inner] ** 2
               - force(t0) * xs[inner]) * p[inner]
        residual = 1j * hbar * dpsi_dt[inner] - hpsi
        rel = np.linalg.norm(residual) / np.linalg.norm(hpsi)
        assert rel < 1e-5
