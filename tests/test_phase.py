import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shoberry import phase, selfcheck
from shoberry.errors import (ConvergenceError, InvalidParameterError,
                             InvalidRepresentationError, NotCyclicError,
                             UndefinedPhaseError)
from shoberry.numerics import integrate_1d
from shoberry.errors import POINT_ERRORS
from shoberry.phase import (PhaseResult, berry_phase, berry_phase_grid, berry_phase_oracle,
                            berry_phase_oracles, canonical_angle, closed_form_phases,
                            dynamical_phase_closed,
                            dynamical_phase_oracle, equivalence_class_C,
                            ge_child_integral, overall_phase_closed,
                            overall_phase_oracle, phase_result_for_half_periods)
from shoberry.representation import (PhysicalConfig, Representation,
                                     RepresentationArrays)
from shoberry.wavefunction import QuantumState, _family_overlaps, alpha, alpha_dot

TWO_PI = 2.0 * math.pi
STATIONARY = Representation(1.0, 1.0, 1.0, 0.0)
STRETCHED = Representation(1.0, 1.0, 2.0, 0.0)

reps_full = st.builds(
    Representation,
    M=st.floats(0.3, 4.0),
    w=st.floats(0.3, 3.0),
    C=st.floats(0.15, 4.0),
    beta=st.floats(-1.2, 1.2),
)


class TestClosedForms:
    def test_overall_phase_values(self):
        assert overall_phase_closed(0, 1) == -0.5 * math.pi
        assert overall_phase_closed(1, 1) == -1.5 * math.pi
        assert overall_phase_closed(0, 2) == -math.pi

    def test_overall_phase_additivity(self):
        for n in range(4):
            assert overall_phase_closed(n, 6) == 6 * overall_phase_closed(n, 1)

    def test_dynamical_phase_values(self):
        assert dynamical_phase_closed(STATIONARY, 0, 1) == -0.5 * math.pi
        assert dynamical_phase_closed(STRETCHED, 0, 1) \
            == pytest.approx(-5.0 * math.pi / 8.0)

    def test_dynamical_phase_ignores_mass_frequency_hbar(self):
        base = dynamical_phase_closed(Representation(1, 1, 2, 0.3), 2, 1)
        for M, w in ((0.5, 2.0), (3.0, 0.7)):
            assert dynamical_phase_closed(Representation(M, w, 2, 0.3), 2, 1) == base

    def test_degenerate_beta_rejected(self):
        with pytest.raises(InvalidRepresentationError):
            dynamical_phase_closed(Representation(1, 1, 1, math.pi / 2), 0, 1)


class TestBerryPhase:
    def test_stationary_is_exactly_zero(self):
        for n in range(6):
            for duration in ("half", "full"):
                assert berry_phase(STATIONARY, n, duration).gamma == 0.0

    def test_stretched_values(self):
        assert berry_phase(STRETCHED, 0, "half").gamma \
            == pytest.approx(math.pi / 8.0)
        assert berry_phase(STRETCHED, 0, "full").gamma \
            == pytest.approx(math.pi / 4.0)

    def test_doubling_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rep = Representation(1.0, 1.0, float(rng.uniform(0.2, 4.0)),
                                 float(rng.uniform(-1.2, 1.2)))
            n = int(rng.integers(0, 6))
            assert berry_phase(rep, n, "full").gamma \
                == 2.0 * berry_phase(rep, n, "half").gamma

    def test_result_components(self):
        res = berry_phase(STRETCHED, 1, "half")
        assert res.gamma == res.chi - res.delta
        assert res.duration == pytest.approx(math.pi)
        assert 0.0 <= res.gamma_canonical < TWO_PI

    def test_closed_form_bit_identical_across_M_w(self):
        ref = berry_phase(Representation(1, 1, 2, 0.4), 3, "half").gamma
        for M, w in ((0.5, 0.5), (3.0, 2.0), (2.2, 0.9)):
            assert berry_phase(Representation(M, w, 2, 0.4), 3, "half").gamma == ref

    @settings(max_examples=60, deadline=None)
    @given(reps_full, st.integers(0, 6))
    def test_positive_off_stationary(self, rep, n):
        gamma = berry_phase(rep, n, "half").gamma
        assert gamma >= 0.0
        if abs(rep.C - 1.0) > 1e-3 or abs(rep.beta) > 1e-3:
            assert gamma > 0.0

    def test_zero_class_value(self):
        c = 2.5 + math.sqrt(2.5 ** 2 - 1.0)
        rep = Representation(1, 1, c, math.pi / 3)
        for n in range(5):
            res = berry_phase(rep, n, "half")
            assert min(res.gamma_canonical, TWO_PI - res.gamma_canonical) < 1e-9

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            berry_phase(STATIONARY, 0, "quarter")
        with pytest.raises(ValueError):
            berry_phase(STATIONARY, True)  # a bool is not a quantum number

    def test_invalid_phase_result_rejected(self):
        with pytest.raises(ValueError):
            PhaseResult(chi=1.0, delta=0.25, gamma=0.8, gamma_canonical=0.8,
                        duration=1.0)
        with pytest.raises(ValueError):
            PhaseResult(chi=1.0, delta=0.25, gamma=0.75, gamma_canonical=-0.1,
                        duration=1.0)

    def test_canonical_angle_range(self):
        for g in (-13.0, -1e-18, 0.0, 1.0, 12 * math.pi):
            assert 0.0 <= canonical_angle(g) < TWO_PI


class TestOracles:
    def test_stationary_ground_half_period(self):
        state = QuantumState(STATIONARY, 0)
        chi, fidelity = overall_phase_oracle(state, math.pi)
        assert abs(chi + 0.5 * math.pi) < 1e-9
        assert fidelity > 1.0 - 1e-8

    def test_full_period_overall_phase(self):
        for rep, n, periods in ((STRETCHED, 0, 1),
                                (Representation(1, 1, 0.6, 0.4), 3, 1),
                                (Representation(1, 1, 64.0, 1.4), 20, 2)):
            state = QuantumState(rep, n)
            chi, _ = overall_phase_oracle(state, periods * rep.tau0)
            assert abs(chi + 2.0 * periods * (n + 0.5) * math.pi) < 1e-7

    @settings(max_examples=60, deadline=None)
    @given(st.floats(math.log(1e-2), math.log(1e3)),
           st.floats(-math.acos(0.05), math.acos(0.05)),
           st.lists(st.integers(0, 64), min_size=1, max_size=4, unique=True),
           st.sampled_from([1, 2, 4]))
    def test_squeezed_oracle_never_off_by_2pi_k(self, log_c, beta, ns,
                                                 half_periods):
        # half a period or one or two whole periods, anywhere a state exists,
        # several quantum numbers per call as a sweep point runs them
        rep = Representation(1.0, 1.0, math.exp(log_c), beta)
        try:
            gammas = berry_phase_oracles(rep, ns, half_periods * 0.5 * rep.tau0)
        except (NotCyclicError, ConvergenceError):
            return
        for n, gamma in zip(ns, gammas):
            closed = phase_result_for_half_periods(rep, n, half_periods).gamma
            assert abs(gamma - closed) < 1e-7

    def test_near_degenerate_representation_raises(self):
        # the spatial quadrature of n = 20 does not converge this close to
        # degenerate
        rep = Representation(1.0, 1.0, 1e6, 1.5)
        with pytest.raises(ConvergenceError, match="spatial quadrature"):
            overall_phase_oracle(QuantumState(rep, 20), 0.5 * rep.tau0)

    def test_non_cyclic_duration_detected(self):
        state = QuantumState(STRETCHED, 0)
        with pytest.raises(NotCyclicError):
            overall_phase_oracle(state, 0.3 * STRETCHED.tau0)

    def test_stationary_any_duration_is_cyclic(self):
        state = QuantumState(STATIONARY, 2)
        tau = 0.3 * STATIONARY.tau0
        chi, fidelity = overall_phase_oracle(state, tau)
        assert fidelity > 1.0 - 1e-8
        assert abs(chi + 2.5 * tau) < 1e-9  # -E_2 t / hbar

    def test_dynamical_oracle_stationary_full_period(self):
        for n in (0, 3):
            state = QuantumState(STATIONARY, n)
            value = dynamical_phase_oracle(state, STATIONARY.tau0)
            assert abs(value + TWO_PI * (n + 0.5)) < 1e-9

    def test_dynamical_oracle_matches_closed_form(self):
        state = QuantumState(STRETCHED, 0)
        value = dynamical_phase_oracle(state, math.pi)
        assert abs(value + 5.0 * math.pi / 8.0) < 1e-8
        full = dynamical_phase_oracle(state, TWO_PI)
        assert abs(full + 5.0 * math.pi / 4.0) < 1e-8

    def test_dynamical_linearity(self):
        state = QuantumState(STRETCHED, 1)
        half = dynamical_phase_oracle(state, math.pi)
        full = dynamical_phase_oracle(state, TWO_PI)
        assert abs(full - 2.0 * half) < 1e-9

    def test_gamma_pipeline_agrees_with_closed_form(self):
        assert selfcheck.closed_vs_oracle([
            QuantumState(rep, n)
            for rep in (STRETCHED, Representation(2.0, 1.5, 0.5, -math.pi / 6),
                        Representation(1.0, 1.0, 4.0, math.pi / 3))
            for n in (0, 2, 4)]) < 1e-7

    def test_oracle_branch_with_exact_overlap_zeros(self):
        # the overlap <psi(0)|psi(t)> crosses zero for this state; the branch
        # tracking must survive and agree with the closed form
        state = QuantumState(Representation(1.0, 1.0, 0.5, 0.0), 4)
        assert selfcheck.closed_vs_oracle([state]) < 1e-7

    def test_oracle_independent_of_M_w_hbar(self):
        assert selfcheck.parameter_independence([
            QuantumState(Representation(M, w, 2.0, 0.4), 1, PhysicalConfig(hbar))
            for M in (0.5, 1.0, 3.0) for w in (0.5, 1.0, 2.0)
            for hbar in (0.5, 1.0)]) < 1e-7


class TestPerPointOracle:
    NS = (0, 3, 8, 20)

    @pytest.mark.parametrize("rep", [STRETCHED,
                                     Representation(2.0, 1.5, 0.5, -math.pi / 6),
                                     Representation(1.0, 1.0, 64.0, 1.4)])
    def test_matches_one_n_calls(self, rep):
        # one call for every n against the single-state entry points
        tau = 0.5 * rep.tau0
        arrays, errors = RepresentationArrays.of([rep]), [None]
        finals = _family_overlaps(arrays, self.NS, 0.0, tau, PhysicalConfig(), errors)
        (chis,) = phase._overall_phases(arrays, self.NS, tau, finals, errors)
        (deltas,) = phase._dynamical_phases(arrays, self.NS, tau, errors)
        assert errors == [None]
        gammas = berry_phase_oracles(rep, self.NS, tau)
        for n, chi, fidelity, delta, gamma in zip(self.NS, chis, np.abs(finals[0]),
                                                  deltas, gammas):
            state = QuantumState(rep, n)
            chi_one, fidelity_one = overall_phase_oracle(state, tau)
            assert abs(chi - chi_one) < 1e-12
            assert abs(fidelity - fidelity_one) < 1e-12
            assert abs(delta - dynamical_phase_oracle(state, tau)) < 1e-12
            one = berry_phase_oracle(state, tau)
            assert abs(gamma - one) <= 1e-12 * max(1.0, abs(one))

    def test_one_failing_n_fails_the_call(self):
        # n = 0 computes here, n = 20's spatial quadrature does not converge
        rep = Representation(1.0, 1.0, 1e6, 1.5)
        assert abs(berry_phase_oracles(rep, (0,), math.pi)[0]
                   - berry_phase(rep, 0).gamma) < 1e-7
        with pytest.raises(ConvergenceError, match="spatial quadrature"):
            berry_phase_oracles(rep, (0, 20), math.pi)

    def test_squeezed_cell_gets_every_n(self):
        # theta at the two endpoints fixes every branch, however fast the
        # phase of n = 20 turns at |cos beta| = 9e-6
        rep = Representation(1.0, 1.0, 1.0, math.acos(9e-6))
        gammas = berry_phase_oracles(rep, (0, 20), math.pi)
        for n, gamma in zip((0, 20), gammas):
            assert abs(gamma - berry_phase(rep, n).gamma) < 1e-7

    def test_checks_hold_per_n(self):
        with pytest.raises(ValueError):
            berry_phase_oracles(STRETCHED, (0, 65), math.pi)
        with pytest.raises(NotCyclicError):
            berry_phase_oracles(STRETCHED, (0, 3), 0.3 * STRETCHED.tau0)
        with pytest.raises(InvalidRepresentationError):
            berry_phase_oracles(Representation(1, 1, -0.5, 0.0), (0,), math.pi)


class TestGeChild:
    def test_stationary_zero(self):
        assert abs(ge_child_integral(STATIONARY)) < 1e-12

    def test_stretched_value(self):
        assert abs(ge_child_integral(STRETCHED) - math.pi / 4.0) < 1e-8

    def test_matches_full_period_ground_phase(self):
        assert selfcheck.ge_child([Representation(1, 1, 0.5, math.pi / 6),
                                   Representation(2, 1.5, 3.0, -math.pi / 3)]) < 1e-8

    def test_integral_is_real(self):
        rep = Representation(1, 1, 2.0, 0.5)

        def integrand(ts):
            return alpha_dot(rep, ts) / (2.0 * np.real(alpha(rep, ts)))

        value, _ = integrate_1d(integrand, 0.0, rep.tau0)
        assert abs((-0.5j * value).imag) < 1e-10


class TestEquivalenceClasses:
    def test_reproduces_reference_sequence(self):
        beta = math.pi / 3  # cos beta = 1/2
        values = equivalence_class_C(beta, 2)
        expected = []
        for m in (-2, -1, 1, 2):
            a = (4 * m + 1) * 0.5
            root = math.sqrt(a * a - 1.0)
            expected.extend([a + root, a - root])
        assert sorted(values) == pytest.approx(sorted(expected), rel=1e-12)
        assert len(values) == 8

    def test_members_have_zero_canonical_phase(self):
        beta = math.pi / 3
        for c in equivalence_class_C(beta, 2):
            for n in range(5):
                g = berry_phase(Representation(1, 1, c, beta), n, "half")
                assert min(g.gamma_canonical, TWO_PI - g.gamma_canonical) < 1e-9

    def test_m_zero_included_when_real(self):
        values = equivalence_class_C(0.0, 1)
        assert any(abs(v - 1.0) < 1e-12 for v in values)  # a = 1, double root

    def test_infeasible_m_skipped(self):
        # cos beta = 1/2 makes m = 0 complex: only the m = +-1 pairs remain
        values = equivalence_class_C(math.pi / 3, 1)
        assert len(values) == 4

    def test_degenerate_beta_rejected(self):
        with pytest.raises(InvalidRepresentationError):
            equivalence_class_C(math.pi / 2, 2)


class TestPhaseResultForHalfPeriods:
    def test_matches_berry_phase(self):
        assert phase_result_for_half_periods(STRETCHED, 1, 2) \
            == berry_phase(STRETCHED, 1, "full")

    def test_scaling_with_k(self):
        one = phase_result_for_half_periods(STRETCHED, 0, 1)
        five = phase_result_for_half_periods(STRETCHED, 0, 5)
        assert five.chi == pytest.approx(5.0 * one.chi, rel=1e-15)
        assert five.delta == pytest.approx(5.0 * one.delta, rel=1e-15)

    def test_rejects_bad_half_periods(self):
        with pytest.raises(ValueError):
            phase_result_for_half_periods(STRETCHED, 0, 0)
        with pytest.raises(ValueError):
            phase_result_for_half_periods(STRETCHED, 0, True)

    @pytest.mark.parametrize("C,beta", [
        (1e200, 0.0), (-2e154, 0.3), (5e-324, 0.0), (-1e-310, 1.0),
        (1e-300, 1.5707963)])
    def test_overflowing_closed_form_is_refused(self, C, beta):
        rep = Representation(1.0, 1.0, C, beta)
        # the last case is finite for n = 0 and overflows for n = 1e300
        n = 10 ** 300 if C == 1e-300 else 0
        with pytest.raises(InvalidParameterError, match="overflow"):
            phase_result_for_half_periods(rep, n, 2)
        with pytest.raises(InvalidParameterError, match="overflow"):
            dynamical_phase_closed(rep, n, 1)


def _closed_form_reference(C, beta, n, half_periods):
    """The scalar formulas as plain float arithmetic, operation by operation."""
    chi = -half_periods * (n + 0.5) * math.pi
    delta = chi * ((1.0 + C * C) / (2.0 * C * math.cos(beta)))
    gamma = chi - delta
    canonical = gamma % TWO_PI
    if canonical >= TWO_PI or canonical < 0.0:
        canonical = 0.0
    return chi, delta, gamma, canonical


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.one_of(st.floats(0.01, 100.0), st.floats(-100.0, -0.01),
              st.floats(1e-150, 1e150), st.floats(-1e150, -1e-150)),
    st.floats(-1.57, 1.57), st.integers(0, 200)), min_size=1, max_size=40),
    st.integers(1, 7))
def test_closed_form_grid_matches_scalar_arithmetic_bit_for_bit(cells, half_periods):
    C, beta, n = (np.array(column) for column in zip(*cells))
    grid = closed_form_phases(C, np.array([math.cos(b) for b in beta.tolist()]),
                              n, half_periods)
    for i, (c, b, k) in enumerate(cells):
        expected = _closed_form_reference(c, b, k, half_periods)
        assert [repr(float(column[i])) for column in grid] == \
            [repr(value) for value in expected]
        result = phase_result_for_half_periods(Representation(1.0, 1.0, c, b), k,
                                               half_periods)
        assert [repr(v) for v in (result.chi, result.delta, result.gamma,
                                  result.gamma_canonical)] == \
            [repr(value) for value in expected]


def _one_point(rep, ns, tau):
    """berry_phase_oracles for one representation, or the exception it raises."""
    try:
        return berry_phase_oracles(rep, ns, tau)
    except (InvalidParameterError, NotCyclicError, ConvergenceError,
            ArithmeticError) as exc:
        return exc


def _batch(reps, ns, tau):
    """phase._oracle_batch as one outcome per point: its list of Berry
    phases, or its exception."""
    gammas, errors = phase._oracle_batch(reps, ns, tau)
    assert gammas.shape == (len(reps), len(ns)) and len(errors) == len(reps)
    return [error or row for row, error in zip(gammas.tolist(), errors)]


def _same_outcome(batched, alone):
    if isinstance(alone, Exception):
        return type(batched) is type(alone) and str(batched) == str(alone)
    return not isinstance(batched, Exception) and batched == alone


class TestBatchedOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(math.log(1e-2), math.log(1e2)),
                              st.floats(-math.acos(0.05), math.acos(0.05))),
                    min_size=1, max_size=5),
           st.lists(st.integers(0, 20), min_size=1, max_size=4, unique=True),
           st.sampled_from([1, 2]))
    def test_batch_gives_the_floats_of_one_point_calls(self, cells, ns, half_periods):
        # per point exactly the floats (or the exception) of a call alone
        reps = [Representation(1.0, 1.0, math.exp(log_c), beta) for log_c, beta in cells]
        tau = half_periods * 0.5 * reps[0].tau0
        batched = _batch(reps, ns, tau)
        assert len(batched) == len(reps)
        for rep, result in zip(reps, batched):
            assert _same_outcome(result, _one_point(rep, ns, tau))

    @pytest.mark.parametrize("periods,reps,kinds", [
        # half a period: a spatial quadrature that does not converge (n = 20
        # at C = 1e6, beta = 1.5) and a formula-only cell
        (0.5, [STRETCHED, Representation(1.0, 1.0, 1e6, 1.5),
               Representation(2.0, 1.0, 0.5, -math.pi / 6),
               Representation(1.0, 1.0, -1.0, 0.3), Representation(1.0, 1.0, 64.0, 1.4)],
         ["list", "ConvergenceError", "list", "InvalidRepresentationError", "list"]),
        # 0.3 periods: cyclic only for the stationary cell; a spatial rule
        # that does not converge, and fidelities of their own
        (0.3, [STRETCHED, STATIONARY, Representation(1.0, 1.0, 30.0, 0.5),
               Representation(1.0, 1.0, 1000.0, 0.0)],
         ["NotCyclicError", "list", "ConvergenceError", "NotCyclicError"]),
        # C far beyond the closed forms' range: rho^2 overflows, so the
        # Gaussian rate Omega/(2 hbar rho^2) is refused for that point alone
        (0.5, [STRETCHED, Representation(1.0, 1.0, 1e200, 0.3),
               Representation(1.0, 1.0, 1e-160, 0.0)],
         ["list", "InvalidParameterError", "ConvergenceError"]),
    ])
    def test_failing_points_fail_alone(self, periods, reps, kinds):
        ns = (0, 3, 20)
        tau = periods * reps[0].tau0
        batched = _batch(reps, ns, tau)
        assert [type(result).__name__ for result in batched] == kinds
        for rep, result in zip(reps, batched):
            assert _same_outcome(result, _one_point(rep, ns, tau))

    @pytest.mark.parametrize("rep,hbar,ns,neighbour", [
        # rho^2 overflows at C = 1e200, 2 hbar rho^2 at the second point (the
        # rate's denominator): each is refused, its neighbour computes
        (Representation(1.0, 1.0, 1e200, 0.3), 1.0, (0, 3), "list"),
        (Representation(1.0, 1.0, 3.0155703575137995e+29, -1.0),
         7.065286027335156e+293, (3,), "list"),
        # Omega/hbar overflows at any Omega here, so both points are refused
        (STRETCHED, 1e-310, (3,), "InvalidParameterError"),
    ])
    def test_batch_and_single_state_refuse_alike(self, rep, hbar, ns, neighbour):
        config = PhysicalConfig(hbar)

        def alone(rep):
            try:
                return berry_phase_oracles(rep, ns, math.pi, config)
            except POINT_ERRORS as exc:
                return exc

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for reps in ([rep, STRETCHED], [STRETCHED, rep]):
                gammas, errors = phase._oracle_batch(reps, ns, math.pi, config)
                for other, row, error in zip(reps, gammas.tolist(), errors):
                    assert _same_outcome(error or row, alone(other))
            refusal = alone(rep)
            assert isinstance(refusal, InvalidParameterError)
            assert type(alone(STRETCHED)).__name__ == neighbour
            with pytest.raises(type(refusal)) as exc:
                overall_phase_oracle(QuantumState(rep, ns[-1], config), math.pi)
        assert type(exc.value) is type(refusal) and str(exc.value) == str(refusal)

    def test_quantum_number_above_the_cap_refuses_every_point(self):
        results = _batch([STRETCHED, STATIONARY], (0, 65), math.pi)
        assert all(isinstance(r, InvalidParameterError) and "capped at 64" in str(r)
                   for r in results)


_DURATION_NAMES = {1: "half", 2: "full"}


def _grid_point(M, w, C, beta, ns, half_periods, config):
    """berry_phase and berry_phase_oracles at one point: the closed columns
    over ns and the oracle row (None in formula-only mode), or the first
    exception the calls raise."""
    try:
        rep = Representation(M, w, C, beta)
        results = [berry_phase(rep, n, _DURATION_NAMES[half_periods]) for n in ns]
        oracle = berry_phase_oracles(rep, ns, half_periods * 0.5 * rep.tau0,
                                     config) if rep.omega > 0 else None
    except POINT_ERRORS as exc:
        return exc
    closed = [[getattr(r, name) for r in results]
              for name in ("chi", "delta", "gamma", "gamma_canonical")]
    return closed, oracle


class TestBerryPhaseGrid:
    @pytest.mark.parametrize("half_periods", [1, 2])
    def test_cells_give_the_floats_of_one_point_calls(self, half_periods):
        # two full-mode and two formula-only cells, every n at each point
        M, w, config = 1.7, 0.6, PhysicalConfig(hbar=0.8)
        Cs, betas, ns = [2.0, -1.5], [0.3, -0.7], (0, 3, 8)
        C_at, beta_at = np.indices((2, 2)).reshape(2, 4)
        slots = np.tile(np.arange(len(ns)), (4, 1))
        *closed, oracle, has_oracle, errors = berry_phase_grid(
            M, w, Cs, betas, C_at, beta_at, ns, slots, half_periods, config)
        assert errors == [None] * 4 and has_oracle.tolist() == [True, True, False, False]
        for p, (i, j) in enumerate(zip(C_at.tolist(), beta_at.tolist())):
            alone_closed, alone_oracle = _grid_point(M, w, Cs[i], betas[j], ns,
                                                     half_periods, config)
            assert [column[p].tolist() for column in closed] == alone_closed
            if has_oracle[p]:
                assert oracle[p].tolist() == alone_oracle
            else:
                assert alone_oracle is None

    def test_each_point_reports_the_error_of_its_one_point_call(self):
        Cs, betas, ns = [0.0, 2.0, -2.0, 1e200, 1e6], [0.3, 1.5], (0, 20, 65)
        points = [  # (C, beta, quantum numbers) as indices into Cs, betas, ns
            (0, 0, [0, 1]),   # C = 0: the cell's refusal
            (1, 0, [0, 2]),   # n = 65 above the Hermite cap in full mode
            (2, 0, [0, 2]),   # ... computed in formula-only mode
            (3, 0, [0, 1]),   # closed forms overflow at C = 1e200
            (4, 1, [0, 1]),   # the oracle refuses C = 1e6, beta = 1.5, n = 20
            (1, 0, [0, 1]),   # computed, in one oracle batch with the point above
        ]
        C_at, beta_at, slots = (np.array(column) for column in zip(*points))
        *closed, oracle, has_oracle, errors = berry_phase_grid(
            1.0, 1.0, Cs, betas, C_at, beta_at, ns, slots, 1, PhysicalConfig())
        assert [type(e).__name__ for e in errors] == [
            "InvalidRepresentationError", "InvalidParameterError", "NoneType",
            "InvalidParameterError", "ConvergenceError", "NoneType"]
        assert has_oracle.tolist() == [False] * 5 + [True]
        for p, (i, j, slot) in enumerate(points):
            alone = _grid_point(1.0, 1.0, Cs[i], betas[j], [ns[k] for k in slot], 1,
                                PhysicalConfig())
            if errors[p] is None:
                assert [column[p].tolist() for column in closed] == alone[0]
                assert oracle[p].tolist() == alone[1] if has_oracle[p] else alone[1] is None
            else:
                assert type(errors[p]) is type(alone) and str(errors[p]) == str(alone)


# A positive float drawn log-uniform over [5e-324, 1.8e308].
_SCALE = st.floats(math.log(5e-324), math.log(sys.float_info.max)).map(math.exp)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_SCALE, _SCALE, _SCALE,
       st.lists(st.tuples(_SCALE, st.booleans(), st.floats(-1.5707963, 1.5707963)),
                min_size=1, max_size=5),
       st.lists(st.integers(0, 64), min_size=1, max_size=2, unique=True),
       st.sampled_from([1, 2]))
# 2 hbar rho^2 overflows: the Gaussian rate was 0 and H_3 overflowed
@example(1.0, 1.0, 7.065286027335156e+293, [(3.0155703575137995e+29, False, -1.0)],
         [3], 1)
def test_full_mode_grid_gives_a_finite_row_or_a_typed_refusal(M, w, hbar, cells, ns,
                                                              half_periods):
    # C cos beta > 0 at every point, so each runs the oracle: M, w and hbar
    # are shared by the grid's points, |C| and beta drawn for each
    Cs = [-size if negative else size for size, negative, _ in cells]
    betas = [beta + math.pi if negative else beta for _, negative, beta in cells]
    diagonal = np.arange(len(cells))
    slots = np.tile(np.arange(len(ns)), (len(cells), 1))
    *_, oracle, has_oracle, errors = berry_phase_grid(
        M, w, Cs, betas, diagonal, diagonal, ns, slots, half_periods,
        PhysicalConfig(hbar))
    for C, beta, row, computed, error in zip(Cs, betas, oracle, has_oracle.tolist(),
                                             errors):
        if computed:
            assert error is None and np.all(np.isfinite(row))
        elif error is None:   # formula-only where M C w cos beta underflows
            assert not Representation(M, w, C, beta).omega > 0
        else:
            assert isinstance(error, (InvalidParameterError, UndefinedPhaseError,
                                      ConvergenceError)), repr(error)
