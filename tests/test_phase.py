import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shoberry import phase, selfcheck
from shoberry.errors import (ConvergenceError, InvalidParameterError,
                             InvalidRepresentationError, NotCyclicError)
from shoberry.numerics import integrate_1d
from shoberry.phase import (PhaseResult, berry_phase, berry_phase_oracle,
                            berry_phase_oracles, canonical_angle, closed_form_phases,
                            dynamical_phase_closed,
                            dynamical_phase_oracle, equivalence_class_C,
                            ge_child_integral, overall_phase_closed,
                            overall_phase_oracle, phase_result_for_half_periods)
from shoberry.representation import (PhysicalConfig, Representation,
                                     RepresentationArrays)
from shoberry.wavefunction import QuantumState, alpha, alpha_dot, family_overlaps

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
        rep = Representation(1.0, 1.0, 1.0, 0.5 * math.pi - 1e-8)
        with pytest.raises(ConvergenceError):
            overall_phase_oracle(QuantumState(rep, 0), 0.5 * rep.tau0)

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
        finals = family_overlaps(rep, self.NS, 0.0, tau)
        (chis,) = phase._overall_phases(arrays, self.NS, tau, finals[None], errors)
        (deltas,) = phase._dynamical_phases(arrays, self.NS, tau, errors)
        assert errors == [None]
        gammas = berry_phase_oracles(rep, self.NS, tau)
        for n, chi, fidelity, delta, gamma in zip(self.NS, chis, np.abs(finals),
                                                  deltas, gammas):
            state = QuantumState(rep, n)
            chi_one, fidelity_one = overall_phase_oracle(state, tau)
            assert abs(chi - chi_one) < 1e-12
            assert abs(fidelity - fidelity_one) < 1e-12
            assert abs(delta - dynamical_phase_oracle(state, tau)) < 1e-12
            one = berry_phase_oracle(state, tau)
            assert abs(gamma - one) <= 1e-12 * max(1.0, abs(one))

    def test_one_failing_n_fails_the_call(self):
        # n = 0 needs about 4.4e5 tracking samples here, n = 20 over the cap
        rep = Representation(1.0, 1.0, 1.0, math.acos(9e-6))
        assert phase._branch_samples(rep, 0, math.pi) < phase._MAX_SAMPLES
        assert phase._branch_samples(rep, 20, math.pi) > phase._MAX_SAMPLES
        with pytest.raises(ConvergenceError):
            berry_phase_oracles(rep, (0, 20), math.pi)

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
        # half a period: a branch beyond the sample cap and a formula-only cell
        (0.5, [STRETCHED, Representation(1.0, 1.0, 1.0, 0.5 * math.pi - 1e-8),
               Representation(2.0, 1.0, 0.5, -math.pi / 6),
               Representation(1.0, 1.0, -1.0, 0.3), Representation(1.0, 1.0, 64.0, 1.4)],
         ["list", "ConvergenceError", "list", "InvalidRepresentationError", "list"]),
        # 0.3 periods: cyclic only for the stationary cell; a spatial rule
        # that does not converge, and fidelities of their own
        (0.3, [STRETCHED, STATIONARY, Representation(1.0, 1.0, 30.0, 0.5),
               Representation(1.0, 1.0, 1000.0, 0.0)],
         ["NotCyclicError", "list", "ConvergenceError", "NotCyclicError"]),
        # C far beyond the closed forms' range: a Hermite recurrence that is
        # not finite names no point, so the batch reruns its points one by one
        (0.5, [STRETCHED, Representation(1.0, 1.0, 1e200, 0.3),
               Representation(1.0, 1.0, 1e-160, 0.0)],
         ["list", "OverflowError", "ConvergenceError"]),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # C = 1e200 overflows
    def test_failing_points_fail_alone(self, periods, reps, kinds):
        ns = (0, 3, 20)
        tau = periods * reps[0].tau0
        batched = _batch(reps, ns, tau)
        assert [type(result).__name__ for result in batched] == kinds
        for rep, result in zip(reps, batched):
            assert _same_outcome(result, _one_point(rep, ns, tau))

    def test_quantum_number_above_the_cap_refuses_every_point(self):
        results = _batch([STRETCHED, STATIONARY], (0, 65), math.pi)
        assert all(isinstance(r, InvalidParameterError) and "capped at 64" in str(r)
                   for r in results)
