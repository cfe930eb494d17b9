import cmath
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shoberry.driven import (Commensurability, DrivenPhaseResult, DrivingForce,
                             ParticularSolution, action_phase,
                             berry_phase_driven, berry_phase_driven_grid,
                             berry_phase_special_rep,
                             commensurability, drive_phase_closed,
                             drive_phase_quadrature, drive_phase_quadratures,
                             fourier_decompose,
                             particular_solution, psi_driven,
                             velocity_squared_integral)
from shoberry import cli, driven, numerics, selfcheck
from shoberry.errors import (POINT_ERRORS, ConditioningError, ConvergenceError,
                             IncommensurateError, InvalidParameterError,
                             InvalidRepresentationError, ResonanceError)
from shoberry.numerics import GridState, propagate_schrodinger
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


def grid_entries(rep, ns, force, Ds, config=PhysicalConfig()):
    """berry_phase_driven_grid at one cell and one omega_f, a point per (D,
    n): entry [i][k] is the DrivenPhaseResult of Ds[i] at ns[k], or its
    point's error."""
    D_at, n_at = (axis.ravel() for axis in np.indices((len(Ds), len(ns))))
    zero = np.zeros(len(D_at), dtype=int)
    *columns, errors = berry_phase_driven_grid(
        rep.M, rep.w, [rep.C], [rep.beta], zero, zero, force, [force.omega_f], zero,
        Ds, D_at, ns, n_at[:, None], config)
    undriven, closed, quadrature, total, p, N = (column[:, 0] for column in columns)
    assert total.tolist() == (undriven + closed).tolist()
    entries = [errors[q] or DrivenPhaseResult(
        ns[k], int(p[q]), int(N[q]), int(N[q]) * rep.tau0 if N[q] else force.tau_f,
        float(undriven[q]), float(closed[q]), float(quadrature[q]))
        for q, k in enumerate(n_at.tolist())]
    return [entries[i * len(ns):(i + 1) * len(ns)] for i in range(len(Ds))]


class TestDrivingForce:
    def test_reality_constraint_enforced(self):
        with pytest.raises(ValueError):
            DrivingForce(1.0, {1: 1.0 + 0.5j, -1: 1.0 + 0.5j})
        with pytest.raises(ValueError, match="finite"):
            DrivingForce(1.0, {1: complex(math.nan, 0.0), -1: complex(math.nan, 0.0)})

    def test_coefficient_whose_square_overflows_refused(self):
        # |f| = 1e154 squares to 1e308, within range, and the norm over the
        # pair stays finite; 1e155, a modulus past the float range and a mode
        # number whose square is past it are refused
        assert DrivingForce(1.0, {1: 1e154, -1: 1e154}).norm() == \
            pytest.approx(math.sqrt(2.0) * 1e154, rel=1e-15)
        for f in (1e155, complex(1.5e308, 1.5e308)):
            with pytest.raises(InvalidParameterError, match="mode 1 must have"):
                DrivingForce(1.0, {1: f, -1: f.conjugate()})
        with pytest.raises(InvalidParameterError, match="665 bits has n.2 beyond"):
            DrivingForce(1.0, {10 ** 200: 0.5, -10 ** 200: 0.5})

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
            commensurability(math.sqrt(2.0), 1.0)

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
        drives = [(square_wave_force(0.4, 0.75), Commensurability(3, 4), 0.15 + 0.2j)]
        assert selfcheck.ode_residual(STRETCHED, drives, 900) < 1e-9
        assert selfcheck.xp_periodicity(STRETCHED, drives, 900) < 1e-10


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


def mode_terms(xp):
    """(frequency, amplitude) of every term of x_p, the +/-w pair included."""
    terms = [(n * xp.omega_f, a) for n, a in xp.modes.items()]
    if xp.D != 0:
        terms += [(xp.w, xp.D), (-xp.w, xp.D.conjugate())]
    return terms


def mode_loop(t, terms):
    """Re sum of a exp(i nu t) over (nu, a) terms, one scalar at a time."""
    flat = [sum(a * cmath.exp(1j * nu * s) for nu, a in terms).real
            for s in np.ravel(t)]
    return np.reshape(flat, np.shape(t))


def pair_loop(terms, weight, t0, t1):
    """Re sum_jk weight(nu_j, nu_k) a_j a_k int_t0^t1 exp(i (nu_j + nu_k) z) dz."""
    total = 0j
    for nu_j, a_j in terms:
        for nu_k, a_k in terms:
            mu = nu_j + nu_k
            integral = t1 - t0 if mu == 0 else \
                (cmath.exp(1j * mu * t1) - cmath.exp(1j * mu * t0)) / (1j * mu)
            total += weight(nu_j, nu_k) * a_j * a_k * integral
    return total.real


class TestModeArrays:
    """The array-valued mode sums against per-mode reference loops."""

    FORCE = DrivingForce(0.75, {n: 0.3 * (0.6 + 0.05j * n) ** n if n >= 0
                                else (0.3 * (0.6 - 0.05j * n) ** -n).conjugate()
                                for n in range(-13, 14)})
    TIMES = (1.3, np.linspace(-5.0, 40.0, 257),
             np.linspace(0.0, 25.0, 320).reshape(16, 20))

    def test_force_matches_mode_loop(self):
        force = self.FORCE
        scale = sum(abs(f) for f in force.coefficients.values())
        terms = [(n * force.omega_f, f) for n, f in force.coefficients.items()]
        for t in self.TIMES:
            value = force(t)
            assert np.shape(value) == np.shape(t)
            assert np.max(np.abs(value - mode_loop(t, terms))) < 1e-14 * scale
        assert type(force(1.3)) is float
        assert type(force(np.float64(1.3))) is float

    def test_mode_arrays_leave_eq_and_repr_alone(self):
        force = DrivingForce(0.5, {1: 0.4, -1: 0.4})
        assert force == DrivingForce(0.5, {-1: 0.4, 1: 0.4})
        assert repr(force) == \
            "DrivingForce(omega_f=0.5, coefficients={1: (0.4+0j), -1: (0.4+0j)})"

    def test_particular_solution_matches_mode_loop(self):
        xp = particular_solution(self.FORCE, STRETCHED, Commensurability(3, 4),
                                 D=0.2 - 0.3j)
        terms = mode_terms(xp)
        for method, weight in ((xp.x, lambda nu: 1.0),
                               (xp.xdot, lambda nu: 1j * nu),
                               (xp.xddot, lambda nu: -nu * nu)):
            weighted = [(nu, weight(nu) * a) for nu, a in terms]
            scale = sum(abs(a) for _, a in weighted)
            for t in self.TIMES:
                value = method(t)
                assert np.shape(value) == np.shape(t)
                assert np.max(np.abs(value - mode_loop(t, weighted))) < 1e-14 * scale
            assert type(method(1.3)) is float

    def test_pair_sums_match_double_loop(self):
        xp = particular_solution(self.FORCE, STRETCHED, Commensurability(3, 4),
                                 D=0.2 - 0.3j)
        terms = mode_terms(xp)
        w = STRETCHED.w
        ts = np.linspace(-3.0, 11.0, 13)   # two chunks of time points
        action = action_phase(STRETCHED, xp, 0.4, ts)
        assert action.shape == ts.shape
        for t, value in zip(ts, action):
            expected = 0.5 * STRETCHED.M * pair_loop(
                terms, lambda a, b: w * w + a * b, 0.4, t)
            assert value == pytest.approx(expected, rel=1e-13, abs=1e-13)
            assert action_phase(STRETCHED, xp, 0.4, float(t)) \
                == pytest.approx(expected, rel=1e-13, abs=1e-13)
        assert type(action_phase(STRETCHED, xp, 0.4, 2.0)) is float
        for t1 in (0.4, 2.0, 9.5):
            expected = pair_loop(terms, lambda a, b: -a * b, 0.4, t1)
            assert velocity_squared_integral(xp, 0.4, t1) \
                == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_times_in_several_chunks_match_one_time_calls(self):
        xp = particular_solution(self.FORCE, STRETCHED, Commensurability(3, 4),
                                 D=0.2 - 0.3j)
        ts = np.linspace(-5.0, 40.0, 1001)
        assert len(numerics.chunks(np.arange(ts.size), self.FORCE._nu.size)) > 2
        for method in (self.FORCE, xp.x, xp.xdot, xp.xddot,
                       lambda t: action_phase(STRETCHED, xp, 0.4, t),
                       lambda t: velocity_squared_integral(xp, 0.4, t)):
            assert [value.hex() for value in method(ts).tolist()] == \
                [method(t).hex() for t in ts.tolist()]

    def test_long_time_array_memory_is_bounded(self):
        # an unblocked (points x modes) product would need about 690 MB
        force = DrivingForce(0.75, {n: 0.1 / (1 + n * n) for n in range(-20, 21)})
        xp = particular_solution(force, STRETCHED, None, D=0.2j)
        assert len(mode_terms(xp)) >= 40
        ts = np.linspace(0.0, 100.0, 1 << 20)
        tracemalloc.start()
        try:
            xp.xdot(ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100e6


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
        res = berry_phase_driven(STRETCHED, 1, force, 0j)
        assert (res.p, res.N) == (1, 2)
        assert res.gamma_total == 2 * berry_phase(STRETCHED, 1, "full").gamma
        assert res.drive_closed == 0.0
        assert abs(res.drive_quadrature) < 1e-12

    def test_pure_homogeneous_drive(self):
        force = DrivingForce(1.0, {})
        D = 0.3 + 0.1j
        res = berry_phase_driven(STRETCHED, 0, force, D)
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
        res = berry_phase_driven(rep, 0, force, 0j)
        expected = math.pi * 0.5 * f ** 2 / (1.0 * (0.5 ** 2 - 1.0) ** 2)
        assert res.gamma_undriven == 0.0
        assert res.drive_closed == pytest.approx(expected, rel=1e-12)
        assert res.drive_quadrature == pytest.approx(expected, rel=1e-8)

    def test_drive_part_independent_of_n_and_representation(self):
        drive = (DrivingForce(2.0 / 3.0, {1: 0.35, -1: 0.35}), Commensurability(2, 3),
                 0.25 - 0.4j)
        assert selfcheck.drive_decomposition(
            (STRETCHED, Representation(1.0, 1.0, 0.5, math.pi / 6)), (0, 2, 5),
            [drive]) < 1e-8

    def test_scales_inversely_with_hbar(self):
        force = DrivingForce(2.0 / 3.0, {1: 0.35, -1: 0.35})
        full = berry_phase_driven(STRETCHED, 0, force, 0.2j,
                                  PhysicalConfig(1.0)).drive_closed
        half = berry_phase_driven(STRETCHED, 0, force, 0.2j,
                                  PhysicalConfig(0.5)).drive_closed
        assert half == pytest.approx(2.0 * full, rel=1e-15)


    def test_near_resonant_closed_term_matches_quadrature(self):
        # omega_f lies 9e-14 above p/N = 500000/999999, where mode 2 sits at
        # |2p - N| = 1: a closed term taken at p/N rather than at the float
        # omega_f is 1.8e-7 off the quadrature
        rep = Representation(1.0, 1.0, 1.7, 0.4)
        force = DrivingForce(0.500000500000545, {2: 1e-6, -2: 1e-6})
        res = berry_phase_driven(rep, 0, force, 0j)
        assert (res.p, res.N) == (500000, 999999)
        assert abs(res.drive_closed - res.drive_quadrature) \
            <= 1e-8 * abs(res.drive_closed)

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100, 1e103, 1e150])
    def test_drive_term_scales_with_the_frequency(self, scale):
        # (M, w, omega_f) = (1/s^2, s, 2 s/3) keeps the stiffness and x_n fixed
        # and divides the duration N tau0 by s, so s times the term is fixed
        def drive(s):
            rep = Representation(1.0 / (s * s), s, 1.7, 0.4)
            force = DrivingForce(2.0 * s / 3.0, {1: 0.3, -1: 0.3, 3: 0.1j, -3: -0.1j})
            return berry_phase_driven(rep, 0, force, 0j)

        res = drive(scale)
        assert scale * res.drive_closed == pytest.approx(drive(1.0).drive_closed,
                                                         rel=1e-14)
        assert abs(res.drive_closed - res.drive_quadrature) \
            <= 1e-8 * abs(res.drive_closed)


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


GOLDEN_RATIO_F = "0.61803398874989484"   # incommensurate with w = 1
TWO_MODE_FORCE = ["--force-coeff", "1:0.5:0", "--force-coeff", "3:0.1:0.05"]


def driven_rows(capsys, *argv):
    """The rows of a driven report, read back from its round-trip JSON."""
    assert cli.main([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["rows"]


def one_point_quadrature(row, C, beta, hbar):
    """drive_phase_quadrature for the point of a sweep row, built from scratch."""
    rep = Representation(1.0, 1.0, C, beta)
    force = DrivingForce(row["omega_f"], {1: 0.5, -1: 0.5, 3: 0.1 + 0.05j,
                                          -3: 0.1 - 0.05j})
    D = complex(row.get("D_re", 0.0), row.get("D_im", 0.0))
    try:
        comm = commensurability(rep.tau0, force.tau_f)
    except IncommensurateError:
        xp, duration = particular_solution(force, rep, None), force.tau_f
    else:
        xp, duration = particular_solution(force, rep, comm, D), comm.N * rep.tau0
    return drive_phase_quadrature(xp, rep.M, hbar, duration)


class TestDrivenSweep:
    """The driven sweep integrates each point once, in one batch per
    (C, beta, omega_f) cell; every row is bit for bit the one-point
    quadrature."""

    @pytest.mark.parametrize("n_flags", [("--n", "0,2,5"), ("--sweep", "n:0:4:3")],
                             ids=["n-list", "n-axis"])
    @pytest.mark.parametrize("C,beta,omega_f_axis", [
        # N = 2, 8 and 4: three commensurate groups
        (1.3, 0.2, "omega_f:0.5:0.75:3"),
        # the special representation at the incommensurate omega_f (D = 0
        # only; D != 0 is refused there), next to a commensurate one
        (1.0, 0.0, f"omega_f:0.5:{GOLDEN_RATIO_F}:2"),
    ], ids=["commensurate", "special"])
    def test_rows_equal_one_point_quadrature(self, capsys, n_flags, C, beta,
                                             omega_f_axis):
        rows = driven_rows(capsys, "sweep", "--C", str(C), "--beta", str(beta),
                           "--hbar", "0.7", "--omega-f", "0.5", *TWO_MODE_FORCE,
                           *n_flags, "--sweep", omega_f_axis,
                           "--sweep", "D_re:0:0.2:2", "--sweep", "D_im:-0.1:0.1:3")
        computed = [row for row in rows if row["error"] is None]
        assert len({(row["D_re"], row["D_im"]) for row in computed}) == 6
        if C == 1.0:
            assert {(row["p"], row["N"]) for row in computed} == {(0, 0), (1, 2)}
            refused = [row for row in rows if row["error"]]
            assert {row["omega_f"] for row in refused} == {float(GOLDEN_RATIO_F)}
            assert (0.0, 0.0) not in {(row["D_re"], row["D_im"]) for row in refused}
        else:
            assert {row["N"] for row in computed} == {2, 8, 4}
        for row in computed:
            assert row["drive_part_quadrature"] == one_point_quadrature(
                row, C, beta, 0.7)

    def test_each_point_is_integrated_once(self, capsys, monkeypatch):
        batches = []

        def counting(xps, *args):
            batches.append(len(xps))
            return drive_phase_quadratures(xps, *args)

        monkeypatch.setattr(driven, "drive_phase_quadratures", counting)
        rows = driven_rows(capsys, "sweep", "--omega-f", "0.5", *TWO_MODE_FORCE,
                           "--n", "0,1,2", "--sweep", "D_re:-0.2:0.2:3",
                           "--sweep", "D_im:0:0.1:2")
        assert len(rows) == 3 * 6
        assert batches == [6]    # D = 0 with the other five points

    def test_force_without_modes(self, capsys):
        # --force-coeff 1:0:0 leaves no mode, so the drive term is the
        # homogeneous pair's 4 pi M N w |D|^2 / hbar alone (N = 2 at
        # omega_f = 0.5); in a sweep, D = 0 shares the empty forced block
        force = ["--omega-f", "0.5", "--force-coeff", "1:0:0"]
        (alone,) = driven_rows(capsys, "driven", *force, "--D", "0.1:0.05")
        closed = 4.0 * math.pi * 2 * abs(0.1 + 0.05j) ** 2
        assert alone["drive_part_closed"] == pytest.approx(closed, rel=1e-15)
        assert abs(alone["drive_part_quadrature"] - closed) <= 1e-8 * closed
        rows = driven_rows(capsys, "sweep", *force, "--sweep", "D_re:0:0.1:2",
                           "--sweep", "D_im:0:0.05:2")
        assert len(rows) == 4 and rows[0]["drive_part_quadrature"] == 0.0
        for row in rows:
            closed = row["drive_part_closed"]
            assert abs(row["drive_part_quadrature"] - closed) <= 1e-8 * closed
        assert {**rows[-1], "D_re": None, "D_im": None, "error": None} == \
            {**alone, "D_re": None, "D_im": None, "error": None}

    def test_failing_points_fail_alone(self, capsys):
        # omega_f = -0.5 and 0 are refused, omega_f = 1 = w resonates with
        # mode 1; the 0.5 point between them computes
        sweep = driven_rows(capsys, "sweep", "--omega-f", "0.5", *TWO_MODE_FORCE,
                            "--n", "0,1", "--sweep", "omega_f:-0.5:1:4")
        at = {omega_f: [row for row in sweep if row["omega_f"] == omega_f]
              for omega_f in (-0.5, 0.0, 0.5, 1.0)}
        for omega_f in (-0.5, 0.0):
            with pytest.raises(InvalidParameterError) as refused:
                DrivingForce(omega_f, {1: 0.5, -1: 0.5})
            assert [row["error"] for row in at[omega_f]] == [str(refused.value)]
        argv = ["driven", "--omega-f", "1", *TWO_MODE_FORCE, "--n", "0,1"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == f"error: {at[1.0][0]['error']}\n"
        assert len(at[1.0]) == 1 and at[1.0][0]["gamma_total"] is None
        alone = driven_rows(capsys, *argv[:2], "0.5", *argv[3:])
        assert [{"omega_f": 0.5, **row, "error": None} for row in alone] == at[0.5]

    def test_quadrature_at_the_cap_fails_alone(self, monkeypatch):
        # three solutions with one set of forced modes, whose fast mode two
        # levels cannot resolve to ABS_TOL; only the middle one, with the
        # small D, is not large enough for the relative tolerance to cover it
        monkeypatch.setattr(numerics, "MAX_REFINEMENTS", 1)
        modes = {1: 0.3, -1: 0.3, 19: 1e-3, -19: 1e-3}
        xps = [ParticularSolution(0.5, modes, D, 1.0) for D in (10j, 0.1j, 3 - 4j)]
        duration = 2 * STRETCHED.tau0
        values, failures = drive_phase_quadratures(xps, 1.0, 0.7, duration)
        with pytest.raises(ConvergenceError) as alone:
            drive_phase_quadrature(xps[1], 1.0, 0.7, duration)
        assert str(failures[1]) == str(alone.value) and "refinements" in str(alone.value)
        assert failures[0] is None and failures[2] is None
        neighbours, _ = drive_phase_quadratures(xps[::2], 1.0, 0.7, duration)
        assert values[::2].tolist() == neighbours.tolist() == [
            drive_phase_quadrature(xp, 1.0, 0.7, duration) for xp in xps[::2]]

    def test_quadrature_range_refused_alone(self):
        # at D = 1e154 the integral's range duration (sum |nu_n a_n| +
        # 2 w |D|)^2 overflows: that solution is refused before the quadrature,
        # and its neighbours are their one-solution calls, bit for bit
        xps = [ParticularSolution(0.5, {1: 0.3, -1: 0.3}, D, 1.0)
               for D in (0.1j, 1e154, 0.2)]
        duration = 2 * STRETCHED.tau0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, failures = drive_phase_quadratures(xps, 1.0, 0.7, duration)
            with pytest.raises(InvalidParameterError) as alone:
                drive_phase_quadrature(xps[1], 1.0, 0.7, duration)
        assert str(failures[1]) == str(alone.value) and "range" in str(alone.value)
        assert failures[0] is None and failures[2] is None
        assert values[::2].tolist() == [
            drive_phase_quadrature(xp, 1.0, 0.7, duration) for xp in xps[::2]]

    def test_batch_entries_are_one_point_calls(self):
        # D = 0 and not (two frequency vectors), a refused n between two
        # valid ones; every entry is what berry_phase_driven gives or raises
        force = DrivingForce(0.5, {1: 0.5, -1: 0.5, 3: 0.1 + 0.05j, -3: 0.1 - 0.05j})
        comm = commensurability(STRETCHED.tau0, force.tau_f)
        Ds, ns, config = [0.2 - 0.1j, 0j, 0.1j], [0, -1, 2], PhysicalConfig(hbar=0.7)
        table = grid_entries(STRETCHED, ns, force, Ds, config)
        assert [len(row) for row in table] == [3, 3, 3]
        for D, row in zip(Ds, table):
            assert isinstance(row[1], InvalidParameterError)
            with pytest.raises(InvalidParameterError) as alone:
                berry_phase_driven(STRETCHED, -1, force, D, config)
            assert str(row[1]) == str(alone.value)
            for n, entry in zip(ns[::2], row[::2]):
                assert entry == berry_phase_driven(STRETCHED, n, force, D, config)
                assert entry.drive_quadrature == drive_phase_quadrature(
                    particular_solution(force, STRETCHED, comm, D), 1.0, 0.7,
                    comm.N * STRETCHED.tau0)

    def test_shared_work_is_bit_identical_to_one_point_calls(self, monkeypatch):
        # a 4 x 4 grid of D plus D = 0, two frequency vectors, at p/N = 2/3
        # and M, w, hbar away from 1: each entry and each particular solution
        # the batch integrates is its one-point call, bit for bit
        rep = Representation(1.3, 0.9, 2.0, 0.3)
        force = DrivingForce(0.6, {1: 0.5, -1: 0.5, 3: 0.1 + 0.05j, -3: 0.1 - 0.05j})
        comm = commensurability(rep.tau0, force.tau_f)
        assert (comm.p, comm.N) == (2, 3)
        config = PhysicalConfig(hbar=0.7)
        axis = np.linspace(-0.3, 0.3, 4).tolist()
        Ds = [complex(re, im) for re in axis for im in axis] + [0j]
        integrated = {}
        batched = driven.drive_phase_quadratures

        def spy(xps, *args):
            integrated.update((xp.D, xp) for xp in xps)
            return batched(xps, *args)

        monkeypatch.setattr(driven, "drive_phase_quadratures", spy)
        table = grid_entries(rep, [1], force, Ds, config)
        assert len({xp._nu.tobytes() for xp in integrated.values()}) == 2
        duration = comm.N * rep.tau0
        for D, (entry,) in zip(Ds, table):
            alone = particular_solution(force, rep, comm, D)
            xp = integrated[D]
            assert (xp.omega_f, xp.modes, xp.D, xp.w) == \
                (alone.omega_f, alone.modes, alone.D, alone.w)
            assert xp._nu.tobytes() == alone._nu.tobytes()
            assert xp._amp.tobytes() == alone._amp.tobytes()
            assert entry.drive_closed.hex() == \
                drive_phase_closed(force, comm, rep.M, rep.w, 0.7, D).hex()
            assert entry.drive_quadrature.hex() == \
                drive_phase_quadrature(alone, rep.M, 0.7, duration).hex()
            assert entry == berry_phase_driven(rep, 1, force, D, config)

    @pytest.mark.parametrize("resonant", [0.0, 0.1])
    def test_refusals_are_those_of_one_point_calls(self, resonant):
        # p/N = 1/2: a force with mode N = 2 makes the shared part of the
        # particular solution raise; a non-finite D is refused before that
        force = DrivingForce(0.5, {1: 0.3, -1: 0.3, 2: resonant, -2: resonant})
        comm = commensurability(STRETCHED.tau0, force.tau_f)
        assert (comm.p, comm.N) == (1, 2)
        Ds = [0.1j, complex(math.nan, 0.2), 0j, complex(0.1, math.inf)]
        table = grid_entries(STRETCHED, [0, 2], force, Ds)
        for D, row in zip(Ds, table):
            for n, entry in zip([0, 2], row):
                if resonant or not cmath.isfinite(D):
                    with pytest.raises((InvalidParameterError, ResonanceError)) as alone:
                        berry_phase_driven(STRETCHED, n, force, D)
                    assert type(entry) is type(alone.value)
                    assert str(entry) == str(alone.value)
                else:
                    assert entry == berry_phase_driven(STRETCHED, n, force, D)
        kinds = {type(entry) for row in table for entry in row}
        assert InvalidParameterError in kinds
        assert (ResonanceError in kinds) == bool(resonant)

    def test_shared_error_fails_every_entry(self):
        # mode 2 at omega_f = 0.5 resonates: the particular solution's error
        # comes before the refused n's
        force = DrivingForce(0.5, {2: 0.1, -2: 0.1})
        table = grid_entries(STRETCHED, [0, -1], force, [0j, 0.1j])
        with pytest.raises(ResonanceError) as alone:
            berry_phase_driven(STRETCHED, -1, force, 0.1j)
        assert {str(entry) for row in table for entry in row} == {str(alone.value)}

    def test_special_representation_without_commensurability(self):
        rep = Representation(1, 1, 1, 0)
        force = DrivingForce(float(GOLDEN_RATIO_F), {1: 0.5, -1: 0.5})
        (row,) = grid_entries(rep, [0, 3], force, [0j])
        xp = particular_solution(force, rep, None, 0j)
        for n, entry in zip([0, 3], row):
            assert (entry.n, entry.p, entry.N, entry.gamma_undriven) == (n, 0, 0, 0.0)
            assert entry.drive_closed == berry_phase_special_rep(force, 1.0, 1.0, 1.0)
            assert entry.drive_quadrature == drive_phase_quadrature(xp, 1.0, 1.0,
                                                                    force.tau_f)
        # every other D, or any D in another representation, has no phase
        with pytest.raises(IncommensurateError) as refused:
            commensurability(rep.tau0, force.tau_f)
        for other, D in ((STRETCHED, 0j), (rep, 0.1j)):
            ((entry,),) = grid_entries(other, [0], force, [D])
            assert type(entry) is IncommensurateError
            assert str(entry) == str(refused.value)

    def test_solutions_must_share_frequencies(self):
        # a batch may mix D = 0 and D != 0, each row its one-point call; it
        # may not mix forced modes, omega_f or w
        xps = [particular_solution(DrivingForce(0.5, {1: 0.3, -1: 0.3}), STRETCHED,
                                   D=D) for D in (0j, 0.1j)]
        values, failures = drive_phase_quadratures(xps, 1.0, 1.0, TWO_PI)
        assert failures == [None, None]
        assert values.tolist() == [drive_phase_quadrature(xp, 1.0, 1.0, TWO_PI)
                                   for xp in xps]
        modes, w = xps[0].modes, STRETCHED.w
        for other in (ParticularSolution(0.5, {n: 2 * f for n, f in modes.items()}, 0j, w),
                      ParticularSolution(0.5, {**modes, 2: 0.1, -2: 0.1}, 0j, w),
                      ParticularSolution(0.25, modes, 0j, w),
                      ParticularSolution(0.5, modes, 0j, 2 * w)):
            with pytest.raises(ValueError, match="share omega_f, w and their forced modes"):
                drive_phase_quadratures([xps[1], other], 1.0, 1.0, TWO_PI)


def alone(M, w, C, beta, coefficients, omega_f, D, n, config):
    """The one-point berry_phase_driven call of a grid row, or its error."""
    try:
        return berry_phase_driven(Representation(M, w, C, beta), n,
                                  DrivingForce(omega_f, coefficients), D, config)
    except POINT_ERRORS as exc:
        return exc


class TestDrivenPhaseGrid:
    M, W, CONFIG = 1.3, 1.0, PhysicalConfig(hbar=0.7)
    COEFFS = {1: 0.5, -1: 0.5, 3: 0.1 + 0.05j, -3: 0.1 - 0.05j}

    def grid(self, Cs, betas, omega_fs, Ds, ns, slots):
        """The grid over the product of Cs, betas, omega_fs and Ds, each point
        with the rows slots[point % len(slots)], and its points' parameters."""
        C_at, beta_at, omega_f_at, D_at = (axis.ravel() for axis in np.indices(
            (len(Cs), len(betas), len(omega_fs), len(Ds))))
        slots = np.array([slots[q % len(slots)] for q in range(len(C_at))])
        *columns, errors = berry_phase_driven_grid(
            self.M, self.W, Cs, betas, C_at, beta_at,
            DrivingForce(1.5, self.COEFFS), omega_fs, omega_f_at, Ds, D_at, ns,
            slots, self.CONFIG)
        params = [(Cs[a], betas[b], omega_fs[c], Ds[d])
                  for a, b, c, d in zip(C_at, beta_at, omega_f_at, D_at)]
        return columns, errors, params, slots

    @pytest.mark.parametrize("slots", [[(0,), (1,), (2,), (3,)],
                                       [(0, 2), (2, 1), (1, 0), (3, 2), (2, 3)]],
                             ids=["one-n", "two-n"])
    def test_every_point_is_its_one_point_calls(self, slots):
        # a C axis through 0 (a refused cell) with C = 1 at beta = 0 (the
        # special representation) beside other cells; omega_f refused, at
        # resonance with mode 1 (p/N = 1), at p/N = 1/2 and incommensurate; a
        # non-finite D and D = 6e153, whose closed drive term overflows; a
        # refused n, and n = 3e307, whose closed forms overflow, while the
        # special representation's undriven part is 0
        Cs, betas = [-1.0, 0.0, 1.0, 2.0], [0.0, 0.3]
        omega_fs = [-0.5, 1.0, 0.5, float(GOLDEN_RATIO_F)]
        Ds, ns = [0j, 0.1j, complex(math.nan, 0.2), 6e153], [0, -1, 2, 3 * 10 ** 307]
        (undriven, closed, quadrature, total, p, N), errors, params, slots = self.grid(
            Cs, betas, omega_fs, Ds, ns, slots)
        kinds = set()
        for q, (C, beta, omega_f, D) in enumerate(params):
            rows = [alone(self.M, self.W, C, beta, self.COEFFS, omega_f, D, ns[k],
                          self.CONFIG) for k in slots[q]]
            error = next((row for row in rows if isinstance(row, Exception)), None)
            kinds.add(type(error))
            if error is not None:
                assert type(errors[q]) is type(error) and str(errors[q]) == str(error)
                continue
            assert errors[q] is None
            for r, row in enumerate(rows):
                assert (p[q, r], N[q, r]) == (row.p, row.N)
                assert [undriven[q, r].hex(), closed[q, r].hex(), quadrature[q, r].hex(),
                        total[q, r].hex()] == [row.gamma_undriven.hex(),
                                               row.drive_closed.hex(),
                                               row.drive_quadrature.hex(),
                                               row.gamma_total.hex()]
        assert kinds == {type(None), InvalidParameterError, InvalidRepresentationError,
                         ResonanceError, IncommensurateError}

    def test_first_error_order(self):
        # the order of the grid's docstring, at points of two rows, pinned
        # apart from the one-point call (the grid's batch of one): D = 6e153
        # passes its own check but overflows the closed drive term, and n =
        # 3e307 the closed forms of N gamma_full, which the special
        # representation at incommensurate periods does not use
        golden, nan = float(GOLDEN_RATIO_F), complex(math.nan, 0)
        points = [   # C, beta, omega_f, D, indices into ns, expected error
            (2.0, 0.3, 0.5, 6e153, (0, 2), "the closed drive term at D"),
            (2.0, 0.3, 0.5, 6e153, (2, 0), "quantum number must be"),
            (2.0, 0.3, 0.5, 6e153, (1, 0), "closed-form phases overflow"),
            (2.0, 0.3, 0.5, 0j, (0, 1), "closed-form phases overflow"),
            (2.0, 0.3, 0.5, nan, (2, 0), "the velocity bound"),
            (1.0, 0.0, golden, 0j, (0, 1), None),
            (1.0, 0.0, golden, 0j, (0, 2), "quantum number must be"),
            (1.0, 0.0, golden, 0.1j, (2, 0), "has no rational approximation"),
            (1.0, 0.0, golden, 6e153, (0, 1), "has no rational approximation")]
        Cs, betas, omega_fs = [1.0, 2.0], [0.0, 0.3], [golden, 0.5]
        Ds = [0j, 6e153, nan, 0.1j]   # list.index finds nan by identity
        index = np.array([[Cs.index(C), betas.index(beta), omega_fs.index(omega_f),
                           Ds.index(D)] for C, beta, omega_f, D, _, _ in points]).T
        *columns, errors = berry_phase_driven_grid(
            self.M, self.W, Cs, betas, index[0], index[1], DrivingForce(1.5, self.COEFFS),
            omega_fs, index[2], Ds, index[3], [0, 3 * 10 ** 307, -1],
            np.array([point[4] for point in points]), self.CONFIG)
        undriven, closed, _, _, p, N = columns
        for q, (*_, expected) in enumerate(points):
            assert expected in str(errors[q]) if expected else errors[q] is None
        special = berry_phase_special_rep(DrivingForce(golden, self.COEFFS), self.M,
                                          self.W, 0.7)
        assert (undriven[5].tolist(), closed[5].tolist(), p[5].tolist(),
                N[5].tolist()) == ([0.0, 0.0], [special] * 2, [0, 0], [0, 0])

    def test_one_drive_quadrature_per_valid_omega_f(self, monkeypatch):
        # 5 C x 4 beta cells, each with 3 D, at two valid omega_f, a refused
        # one and a resonant one: one quadrature of the 3 D per valid omega_f
        calls = []
        batched = driven.drive_phase_quadratures

        def spy(xps, *args):
            calls.append((xps[0].omega_f, [xp.D for xp in xps]))
            return batched(xps, *args)

        monkeypatch.setattr(driven, "drive_phase_quadratures", spy)
        Ds = [0j, 0.1j, -0.2 + 0.1j]
        (_, _, quadrature, _, _, _), errors, params, _ = self.grid(
            np.linspace(0.5, 3.0, 5).tolist(), np.linspace(-1.0, 1.0, 4).tolist(),
            [0.5, -1.0, 1.0, 1.5], Ds, [0], [(0,)])
        assert calls == [(0.5, Ds), (1.5, Ds)]
        assert all((error is None) == (omega_f in (0.5, 1.5))
                   for error, (_, _, omega_f, _) in zip(errors, params))

    def test_a_grid_of_refused_cells_gives_each_point_its_error(self):
        # M <= 0 refuses every cell: no drive work runs, and each point,
        # D = nan or not, reports its own cell's refusal
        columns = berry_phase_driven_grid(
            -1.0, 1.0, [1.0, 0.0], [0.0], np.arange(2), np.zeros(2, dtype=int),
            DrivingForce(0.5, self.COEFFS), [0.5], np.zeros(2, dtype=int),
            [complex(math.nan, 0), 0j], np.arange(2), [0], np.zeros((2, 1), dtype=int),
            self.CONFIG)
        messages = []
        for C in (1.0, 0.0):
            with pytest.raises(InvalidParameterError) as refused:
                Representation(-1.0, 1.0, C, 0.0)
            messages.append(str(refused.value))
        assert [str(error) for error in columns[-1]] == messages


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
                -half, half)
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

    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize("D", [0j, 0.3 + 0.1j])
    @pytest.mark.parametrize("p, N", [(1, 2), (2, 3)])
    def test_split_operator_oracle(self, p, N, D, n):
        # psi_d(0) propagated under the force over N tau0 lands on
        # psi_d(N tau0), phase included: second order in the step, and the
        # Richardson-extrapolated phase vanishes
        rep = Representation(1.0, 1.0, 1.7, 0.4)
        force = DrivingForce(p * rep.w / N, {1: 0.3, -1: 0.3, 3: 0.1j, -3: -0.1j})
        xp = particular_solution(force, rep, Commensurability(p, N), D)
        state = QuantumState(rep, n)
        T = N * rep.tau0
        half = (1.1 * grid_halfwidth(state) + sum(map(abs, xp.modes.values()))
                + 2 * abs(D))
        xs = np.linspace(-half, half, 1024, endpoint=False)
        initial = GridState(-half, half, 1024, psi_driven(state, xp, xs, 0.0), 0.0)
        exact = GridState(-half, half, 1024, psi_driven(state, xp, xs, T), T)
        overlaps = [exact.overlap(propagate_schrodinger(
            initial, rep.M, rep.w, T, steps, force=force))
            for steps in (1024, 2048, 4096)]
        errors = [abs(o - 1.0) for o in overlaps]
        assert abs(overlaps[-1]) >= 1.0 - 1e-6
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5
        phases = [cmath.phase(o) for o in overlaps]
        assert abs(4.0 * phases[2] - phases[1]) / 3.0 < 1e-8
