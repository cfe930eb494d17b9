import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_hermite

from shoberry import selfcheck, wavefunction
from shoberry.errors import (ConvergenceError, InvalidParameterError,
                             InvalidRepresentationError)
from shoberry.numerics import composite_gauss_nodes, integrate_1d
from shoberry.representation import (PhysicalConfig, Representation,
                                     RepresentationArrays)
from shoberry.wavefunction import (MAX_HERMITE_DEGREE, QuantumState, alpha,
                                   alpha_dot, energy_expectation,
                                   energy_expectation_quadrature,
                                   grid_halfwidth,
                                   hermite, hermite_rule, norm_quadrature,
                                   overlap, psi, psi_dx)

STRETCHED = Representation(1.0, 1.0, 2.0, 0.0)
TILTED = Representation(1.5, 0.8, 0.7, math.pi / 6)
STATIONARY = Representation(1.0, 1.0, 1.0, 0.0)


class TestHermite:
    def test_basis_cases(self):
        xs = np.linspace(-3.0, 3.0, 11)
        assert np.allclose(hermite(0, xs), 1.0)
        assert np.allclose(hermite(1, xs), 2.0 * xs)
        assert np.allclose(hermite(2, xs), 4.0 * xs ** 2 - 2.0)

    def test_cubic_value(self):
        assert hermite(3, 1.0) == -4.0  # 8x^3 - 12x at x = 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 12), st.floats(-6.0, 6.0))
    def test_parity(self, n, x):
        assert hermite(n, -x) == pytest.approx((-1.0) ** n * hermite(n, x),
                                               rel=1e-12, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 20), st.floats(-5.0, 5.0))
    def test_against_scipy(self, n, x):
        assert hermite(n, x) == pytest.approx(float(eval_hermite(n, x)),
                                              rel=1e-10, abs=1e-9)

    def test_rejects_negative_degree(self):
        for n in (-1, True):
            with pytest.raises(ValueError):
                hermite(n, 0.0)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            hermite(MAX_HERMITE_DEGREE + 1, 0.0)

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            hermite(64, 1e9)


class TestQuantumState:
    def test_requires_full_validity(self):
        with pytest.raises(InvalidRepresentationError):
            QuantumState(Representation(1, 1, -0.5, 0.0), 0)

    def test_requires_nonnegative_n(self):
        for n in (-1, True):
            with pytest.raises(ValueError):
                QuantumState(STATIONARY, n)


class TestPsi:
    def test_stationary_ground_value_at_origin(self):
        value = psi(QuantumState(STATIONARY, 0), 0.0, 0.0)
        assert value == pytest.approx((1.0 / math.pi) ** 0.25)
        assert value.imag == 0.0

    def test_stationary_probability_is_time_independent(self):
        state = QuantumState(STATIONARY, 3)
        xs = np.linspace(-5.0, 5.0, 101)
        base = np.abs(psi(state, xs, 0.0))
        for t in (0.7, 2.9, 4.1):
            assert np.max(np.abs(np.abs(psi(state, xs, t)) - base)) < 1e-12

    @pytest.mark.parametrize("rep", [STRETCHED, TILTED])
    @pytest.mark.parametrize("n", range(7))
    def test_normalization(self, rep, n):
        state = QuantumState(rep, n)
        for t in (0.0, 0.4 * rep.tau0):
            assert abs(norm_quadrature(state, t) - 1.0) < 1e-8

    def test_orthogonality(self):
        t = 0.9
        states = [QuantumState(STRETCHED, n) for n in range(7)]
        for i in range(7):
            for j in range(i + 1, 7):
                assert abs(overlap(states[i], t, states[j], t)) < 1e-8

    def test_quasiperiodicity_identity(self):
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(6):
            rep = Representation(float(rng.uniform(0.5, 2.0)),
                                 float(rng.uniform(0.5, 2.0)),
                                 float(rng.uniform(0.3, 3.0)),
                                 float(rng.uniform(-1.0, 1.0)))
            n = int(rng.integers(0, 7))
            cases.append((QuantumState(rep, n), float(rng.uniform(0.0, rep.tau0))))
        assert selfcheck.quasiperiodicity(cases, 301) < 1e-9

    def test_psi_dx_matches_finite_difference(self):
        state = QuantumState(TILTED, 3)
        xs = np.linspace(-3.0, 3.0, 41)
        h = 1e-6
        fd = (psi(state, xs + h, 0.8) - psi(state, xs - h, 0.8)) / (2 * h)
        assert np.max(np.abs(psi_dx(state, xs, 0.8) - fd)) < 1e-7


# Narrow at t = 0 (rho = 1) and wide at 0.3 tau0 (rho about 951).
SQUEEZED = Representation(1.0, 1.0, 1000.0, 0.0)


class TestGaussHermiteRule:
    @pytest.mark.parametrize("m", [1, 2, 17, 80, 700, 2048])
    def test_weights_and_moments(self, m):
        y, weights = hermite_rule(m)
        assert y.shape == weights.shape == (m,)
        assert np.all(np.isfinite(weights)) and np.all(weights > 0)
        w = weights * np.exp(-y * y)
        assert abs(np.sum(w) - math.sqrt(math.pi)) < 1e-13
        if m > 1:  # exact through degree 2m - 1
            assert abs(np.sum(w * y * y) - 0.5 * math.sqrt(math.pi)) < 1e-13
            assert abs(np.sum(w * y ** 3)) < 1e-13

    def test_cached_read_only(self):
        y, weights = hermite_rule(36)
        assert hermite_rule(36)[0] is y
        with pytest.raises(ValueError):
            weights[0] = 1.0

    def test_cli_import_builds_no_rule(self):
        code = ("import shoberry.cli, shoberry.wavefunction as wf;"
                " print(len(wf._HERMITE_RULES))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


class TestSqueezedStates:
    def test_narrow_ground_state_norm(self):
        # composite Gauss-Legendre panels missed this peak and returned 1.8e-22
        assert abs(norm_quadrature(QuantumState(SQUEEZED, 0), 0.0) - 1.0) < 1e-10

    def test_overlap_of_narrow_and_wide_state_matches_brute_force(self):
        state = QuantumState(SQUEEZED, 5)
        t = 0.3 * SQUEEZED.tau0
        half = grid_halfwidth(state)
        xs, weights = composite_gauss_nodes(-half, half, 65536)
        brute = np.sum(weights * np.conj(psi(state, xs, 0.0)) * psi(state, xs, t))
        value = overlap(state, 0.0, state, t)
        assert abs(brute) > 1e-4
        assert abs(value - brute) < 1e-10

    @pytest.mark.parametrize("n", [0, 64])
    @pytest.mark.parametrize("periods", [0.5, 1.0])
    def test_cyclic_fidelity_is_one(self, n, periods):
        state = QuantumState(SQUEEZED, n)
        final = overlap(state, 0.0, state, periods * SQUEEZED.tau0)
        assert abs(abs(final) - 1.0) < 1e-10

    def test_rule_too_small_for_the_degree_is_refused(self):
        # on 4 nodes |psi_20|^2 cannot integrate to 1: certification refuses it
        snapshot = wavefunction._Snapshot(RepresentationArrays.of([STRETCHED]),
                                          PhysicalConfig(), 0.3)
        nodes, errors = np.array([4]), [None]
        wavefunction._certify((snapshot,), (0, 3), nodes, errors)
        assert errors == [None]
        wavefunction._certify((snapshot,), (0, 20), nodes, errors)
        (error,) = errors
        assert isinstance(error, ConvergenceError)

    def test_unresolved_chirp_raises_instead_of_converging(self):
        # two wide, strongly chirped times: the rule refuses, it never guesses
        state = QuantumState(SQUEEZED, 5)
        with pytest.raises(ConvergenceError):
            overlap(state, 0.2 * SQUEEZED.tau0, state, 0.3 * SQUEEZED.tau0)

    @pytest.mark.parametrize("integral", [
        lambda state: overlap(state, 0.0, state, 1.0),
        lambda state: norm_quadrature(state, 0.0),
        lambda state: energy_expectation_quadrature(state, 0.0),
    ], ids=["overlap", "norm", "energy"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_gaussian_rate_is_refused(self, integral):
        # rho^2 overflows at C = 1e200, so Omega/(2 hbar rho^2) reads 0
        state = QuantumState(Representation(1.0, 1.0, 1e200, 0.3), 3)
        with pytest.raises(InvalidParameterError, match="the Gaussian rate "):
            integral(state)


class TestAlpha:
    def test_stationary_constant(self):
        for t in (0.0, 0.3, 1.9):
            value = alpha(STATIONARY, t)
            assert value == pytest.approx(0.5)
            assert value.imag == pytest.approx(0.0, abs=1e-15)

    def test_stretched_quarter_period(self):
        value = alpha(STRETCHED, math.pi / 4)
        assert value == pytest.approx(0.4 - 0.3j)

    def test_real_part_positive(self):
        ts = np.linspace(0.0, TILTED.tau0, 200)
        assert np.all(np.real(alpha(TILTED, ts)) > 0)

    def test_alpha_dot_matches_finite_difference(self):
        h = 1e-6
        ts = np.linspace(0.0, STRETCHED.tau0, 37)
        fd = (alpha(STRETCHED, ts + h) - alpha(STRETCHED, ts - h)) / (2 * h)
        assert np.max(np.abs(alpha_dot(STRETCHED, ts) - fd)) < 1e-7


class TestEnergy:
    def test_stationary_eigenvalues(self):
        for n in range(5):
            state = QuantumState(STATIONARY, n)
            for t in (0.0, 1.1):
                assert energy_expectation(state, t) == pytest.approx(n + 0.5)

    def test_stretched_value_at_zero(self):
        assert energy_expectation(QuantumState(STRETCHED, 0), 0.0) \
            == pytest.approx(5.0 / 8.0)

    @pytest.mark.parametrize("rep,n", [(STRETCHED, 0), (STRETCHED, 2),
                                       (TILTED, 1)])
    def test_closed_form_vs_spatial_quadrature(self, rep, n):
        state = QuantumState(rep, n)
        for t in (0.0, 0.37 * rep.tau0):
            closed = energy_expectation(state, t)
            quad = energy_expectation_quadrature(state, t)
            assert abs(closed - quad) < 1e-8 * abs(closed)

    def test_scales_with_hbar(self):
        lo = QuantumState(STRETCHED, 1, PhysicalConfig(0.5))
        hi = QuantumState(STRETCHED, 1, PhysicalConfig(1.0))
        assert energy_expectation(hi, 0.9) == pytest.approx(
            2.0 * energy_expectation(lo, 0.9))

    def test_period_average_offset_independent(self):
        state = QuantumState(STRETCHED, 1)
        tau = STRETCHED.tau0

        def average(start):
            value, _ = integrate_1d(
                lambda ts: energy_expectation(state, ts), start, start + tau)
            return value / tau

        assert average(0.0) == pytest.approx(average(1.234), rel=1e-10)
