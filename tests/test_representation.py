import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from shoberry.errors import InvalidRepresentationError
from shoberry.representation import (PhysicalConfig, Representation,
                                     RepresentationArrays, _winding,
                                     classical_pair, kinematics, omega_invariant,
                                     require_valid, rho, rho_ddot, rho_dot,
                                     trajectory, validate, winding_phase)

reps_formula = st.builds(
    Representation,
    M=st.floats(0.2, 5.0),
    w=st.floats(0.2, 4.0),
    C=st.floats(-4.0, 4.0).filter(lambda c: abs(c) > 0.05),
    beta=st.floats(-1.25, 1.25),
)

reps_full = st.builds(
    Representation,
    M=st.floats(0.2, 5.0),
    w=st.floats(0.2, 4.0),
    C=st.floats(0.1, 4.0),
    beta=st.floats(-1.25, 1.25),
)


def test_physical_config_requires_positive_hbar():
    for hbar in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            PhysicalConfig(hbar=hbar)
    assert PhysicalConfig().hbar == 1.0


def test_construction_rejects_bad_mass_and_frequency():
    with pytest.raises(InvalidRepresentationError):
        Representation(M=-1.0, w=1.0, C=1.0, beta=0.0)
    with pytest.raises(InvalidRepresentationError):
        Representation(M=1.0, w=0.0, C=1.0, beta=0.0)
    good = dict(M=1.0, w=1.0, C=1.0, beta=0.0)
    for name in good:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidRepresentationError, match="finite"):
                Representation(**{**good, name: value})


@pytest.mark.parametrize("M, w", [(1.0, 1e160), (1e300, 1e10)])
def test_stiffness_beyond_double_precision_refused(M, w):
    # w ** 2 raises OverflowError at w = 1e160; M * w**2 is inf at the second
    with pytest.raises(InvalidRepresentationError, match=r"M w\^2"):
        Representation(M=M, w=w, C=2.0, beta=0.3)


@pytest.mark.parametrize("M, w", [(1.0, 1e-160), (1e-300, 1e-10), (1.0, 1e-170)])
def test_subnormal_stiffness_refused(M, w):
    # M w^2 below the smallest normal double: w ** 2 is subnormal or 0
    with pytest.raises(InvalidRepresentationError, match=r"M w\^2 underflows"):
        Representation(M=M, w=w, C=2.0, beta=0.3)


def test_smallest_normal_stiffness_builds():
    rep = Representation(M=sys.float_info.min, w=1.0, C=2.0, beta=0.3)
    assert rep.stiffness == sys.float_info.min


def test_large_finite_stiffness_builds():
    rep = Representation(M=1.0, w=1e150, C=2.0, beta=0.3)
    assert math.isfinite(rep.stiffness) and rep.stiffness == 1.0 * 1e150 ** 2


def test_tau0_derived_from_w():
    assert Representation(1.0, 2.0, 1.0, 0.0).tau0 == math.pi


class TestValidate:
    def test_stationary_full_pass(self):
        assert validate(Representation(1, 1, 1, 0)) is None

    def test_cos_beta_zero_fails_any_mode(self):
        with pytest.raises(InvalidRepresentationError, match="cos"):
            Representation(1, 1, 1, math.pi / 2)

    def test_negative_wronskian_formula_only_vs_full(self):
        # construction admits it (its phase formulas are finite); its
        # wavefunctions are not normalizable
        rep = Representation(1, 1, -0.382, math.pi / 3)
        assert "Wronskian" in validate(rep)
        with pytest.raises(InvalidRepresentationError, match="Wronskian"):
            require_valid(rep)

    def test_zero_C_fails(self):
        with pytest.raises(InvalidRepresentationError, match="nonzero"):
            Representation(1, 1, 0.0, 0.0)

    def test_require_valid_raises_with_reason(self):
        with pytest.raises(InvalidRepresentationError, match="cos"):
            require_valid(Representation(1, 1, 1, math.pi / 2))


class TestClassicalPair:
    def test_stationary_at_zero(self):
        assert classical_pair(Representation(1, 1, 1, 0), 0.0) == (1.0, 0.0, -0.0, 1.0)

    def test_titled_pair_at_zero(self):
        u, v, du, dv = classical_pair(Representation(1, 2, 2, math.pi / 3), 0.0)
        assert abs(u - 1.0) < 1e-15
        assert abs(v - math.sqrt(3.0)) < 1e-15
        assert abs(du) < 1e-15
        assert abs(dv - 2.0) < 1e-14

    @settings(max_examples=50, deadline=None)
    @given(reps_formula, st.floats(-10.0, 10.0))
    def test_periodicity(self, rep, t):
        a = np.array(classical_pair(rep, t))
        b = np.array(classical_pair(rep, t + rep.tau0))
        assert np.max(np.abs(a - b)) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(reps_formula, st.floats(0.0, 6.0))
    def test_derivatives_match_finite_differences(self, rep, t):
        h = 1e-6
        _, _, du, dv = classical_pair(rep, t)
        up, vp, _, _ = classical_pair(rep, t + h)
        um, vm, _, _ = classical_pair(rep, t - h)
        assert abs((up - um) / (2 * h) - du) < 1e-7
        assert abs((vp - vm) / (2 * h) - dv) < 1e-7


class TestRho:
    def test_stationary_unit_circle(self):
        rep = Representation(1, 1, 1, 0)
        ts = np.linspace(0.0, rep.tau0, 64)
        assert np.allclose(rho(rep, ts), 1.0, atol=1e-15)
        assert np.allclose(rho_dot(rep, ts), 0.0, atol=1e-15)

    def test_value_at_quarter_period(self):
        assert abs(rho(Representation(1, 1, 2, 0), math.pi / 4)
                   - math.sqrt(2.5)) < 1e-14

    @settings(max_examples=50, deadline=None)
    @given(reps_formula, st.floats(0.0, 12.0))
    def test_half_period_periodicity(self, rep, t):
        assert abs(rho(rep, t + 0.5 * rep.tau0) - rho(rep, t)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(reps_formula, st.floats(0.1, 6.0))
    def test_rho_dot_matches_finite_difference(self, rep, t):
        h = 1e-6
        fd = (rho(rep, t + h) - rho(rep, t - h)) / (2 * h)
        assert abs(rho_dot(rep, t) - fd) < 5e-8

    @settings(max_examples=40, deadline=None)
    @given(reps_formula, st.floats(0.0, 12.0))
    # subnormal products, which a power-of-two scale would round
    @example(Representation(1, 1, 2, 0), 5e-324)
    def test_rho_dot_is_the_unscaled_formula_bit_for_bit(self, rep, t):
        ts = t + np.linspace(0.0, rep.tau0, 33)
        u, v, du, dv = classical_pair(rep, ts)
        assert np.array_equal(kinematics(rep, ts)[5],
                              (u * du + v * dv) / np.hypot(u, v))
        arrays = RepresentationArrays.of([rep, Representation(1.0, 0.5, 3.0, 0.2)])
        columns = kinematics(arrays.at((slice(None), None)), ts)[5]
        assert np.array_equal(columns[0], kinematics(rep, ts)[5])

    @pytest.mark.parametrize("C,w", [(1e300, 1.0), (-1e200, 3e50), (1e-300, 1e-100)])
    def test_rho_dot_stays_finite_where_c_squared_w_overflows(self, C, w):
        rep = Representation(1.0, w, C, 0.3)
        ts = np.linspace(0.1, 6.0, 13) * rep.tau0
        with np.errstate(over="raise", invalid="raise"):
            rdot = rho_dot(rep, ts)
        h = 1e-7 * rep.tau0
        fd = (rho(rep, ts + h) - rho(rep, ts - h)) / (2 * h)
        assert np.all(np.isfinite(rdot))
        assert np.max(np.abs(rdot - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_rho_ddot_matches_finite_difference(self):
        rep = Representation(1.3, 1.7, 2.5, 0.4)
        ts = np.linspace(0.0, rep.tau0, 37)
        h = 1e-4
        fd = (rho(rep, ts + h) - 2 * rho(rep, ts) + rho(rep, ts - h)) / h ** 2
        assert np.max(np.abs(rho_ddot(rep, ts) - fd)) < 1e-5


class TestWronskian:
    def test_identity_case(self):
        assert omega_invariant(Representation(1, 1, 1, 0)) == 1.0

    def test_tilted_case(self):
        assert abs(omega_invariant(Representation(3, 2, 2, math.pi / 3)) - 6.0) < 1e-14

    @settings(max_examples=50, deadline=None)
    @given(reps_formula, st.floats(0.0, 10.0))
    def test_constant_in_time(self, rep, t):
        u, v, du, dv = classical_pair(rep, t)
        numeric = rep.M * (u * dv - v * du)
        ref = omega_invariant(rep)
        assert abs(numeric - ref) < 1e-10 * abs(ref)

    def test_agrees_at_two_times(self):
        rep = Representation(2.2, 1.4, 3.0, -0.7)
        vals = []
        for t in (0.0, 1.234):
            u, v, du, dv = classical_pair(rep, t)
            vals.append(rep.M * (u * dv - v * du))
        assert abs(vals[0] - vals[1]) < 1e-12


class TestWindingPhase:
    def test_starts_at_principal_value(self):
        rep = Representation(1, 1, 2.0, 0.3)
        expected = math.atan2(-2.0 * math.sin(0.3), 1.0)
        assert abs(winding_phase(rep, 0.0) - expected) < 1e-15

    @settings(max_examples=40, deadline=None)
    @given(reps_full, st.floats(-8.0, 8.0))
    def test_drops_pi_per_half_period(self, rep, t):
        a = winding_phase(rep, t)
        b = winding_phase(rep, t + 0.5 * rep.tau0)
        assert abs(b - a + math.pi) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(reps_full)
    def test_monotone_decreasing(self, rep):
        ts = np.linspace(0.0, 2 * rep.tau0, 400)
        theta = winding_phase(rep, ts)
        assert np.all(np.diff(theta) < 0)

    def test_requires_positive_wronskian(self):
        with pytest.raises(InvalidRepresentationError):
            winding_phase(Representation(1, 1, -1.0, 0.0), 1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(math.log(1e-3), math.log(1e3)),
           st.floats(-math.acos(1e-3), math.acos(1e-3)), st.booleans(),
           st.floats(0.3, 3.0))
    def test_winding_theorem_in_squeezed_representations(self, log_c, beta,
                                                         negative, w):
        # The oracle takes the whole-2pi part of the overall phase from
        # theta at the two endpoints of an evolution, which holds only if
        # theta is monotone, drops by exactly pi per half period and is the
        # continuous argument of u - i v. Both signs of C cos(beta) > 0.
        C = math.exp(log_c)
        if negative:
            C, beta = -C, beta + math.pi
        rep = Representation(1.0, w, C, beta)
        ts = np.linspace(0.0, 2.0 * rep.tau0, 4097)
        theta = _winding(rep, ts)[0]
        shifted = _winding(rep, ts + 0.5 * rep.tau0)[0]
        # theta moves at up to w (1 + C^2)/(C cos beta), so rounding the
        # times, here and in the half-period reduction, moves it by that
        # rate times a few ulp of the latest time
        slack = 8.0 * np.spacing(2.5 * rep.tau0) * rep.w * (1.0 + C * C) \
            / abs(C * math.cos(beta))
        assert np.all(np.diff(theta) <= 0.0)
        assert np.all(np.abs(shifted - (theta - math.pi))
                      <= 1e-10 * np.abs(theta - math.pi) + slack)
        # np.unwrap follows the argument wherever a grid step turns it by
        # less than pi/2, so the two differ by whole turns that change only
        # at the steps it does not resolve
        u, v = np.cos(rep.w * ts), C * np.sin(rep.w * ts + beta)
        unwrapped = np.unwrap(np.arctan2(-v, u))
        turns = np.round((theta - unwrapped) / (2.0 * math.pi))
        resolved = np.abs(np.diff(unwrapped)) < 0.5 * math.pi
        assert turns[0] == 0 and np.all(np.diff(turns)[resolved] == 0)
        assert np.all(np.abs(theta - unwrapped - 2.0 * math.pi * turns)
                      <= 1e-10 * np.abs(theta) + slack)


class TestTrajectory:
    def test_unit_circle(self):
        pts = trajectory(Representation(1, 1, 1, 0), 64)
        assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), 1.0, atol=1e-14)

    def test_axis_aligned_ellipse(self):
        pts = trajectory(Representation(1, 1, 2, 0), 257)
        assert np.max(np.abs(pts[:, 0] ** 2 + pts[:, 1] ** 2 / 4.0 - 1.0)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(reps_formula, st.integers(2, 300))
    def test_curve_closes(self, rep, samples):
        pts = trajectory(rep, samples)
        assert pts.shape == (samples, 2)
        assert np.max(np.abs(pts[0] - pts[-1])) < 1e-12

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            trajectory(Representation(1, 1, 1, 0), 1)
