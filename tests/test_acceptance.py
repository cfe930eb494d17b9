"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured worst deviation (run with -s to see them live)."""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from shoberry.driven import (Commensurability, DrivingForce,
                             berry_phase_driven, berry_phase_special_rep,
                             drive_phase_quadrature, particular_solution)
from shoberry.errors import ResonanceError
from shoberry.numerics import GridState, propagate_schrodinger
from shoberry.phase import (berry_phase, dynamical_phase_oracle,
                            equivalence_class_C, ge_child_integral,
                            overall_phase_oracle)
from shoberry.representation import PhysicalConfig, Representation
from shoberry.wavefunction import QuantumState, grid_halfwidth, psi

from _ode import rk_integrate

TWO_PI = 2.0 * math.pi

GRID_C = (0.5, 1.0, 2.0, 4.0)
GRID_BETA = (0.0, math.pi / 6, -math.pi / 6, math.pi / 3, -math.pi / 3)
GRID_N = (0, 1, 2, 3, 4)
GRID_M = (0.5, 1.0, 3.0)
GRID_W = (0.5, 1.0, 2.0)
GRID_HBAR = (0.5, 1.0)


def report(number, name, detail):
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def oracle_cube():
    """gamma over half a period from the oracle pipeline, on the full grid."""
    start = time.perf_counter()
    cube = {}
    for C, beta, n, M, w, hbar in itertools.product(
            GRID_C, GRID_BETA, GRID_N, GRID_M, GRID_W, GRID_HBAR):
        rep = Representation(M, w, C, beta)
        state = QuantumState(rep, n, PhysicalConfig(hbar))
        tau = 0.5 * rep.tau0
        chi, _ = overall_phase_oracle(state, tau)
        delta = dynamical_phase_oracle(state, tau)
        cube[(C, beta, n, M, w, hbar)] = chi - delta
    return cube, time.perf_counter() - start


def test_criterion_01_stationary_zero_phase():
    start = time.perf_counter()
    rep = Representation(1.0, 1.0, 1.0, 0.0)
    worst = 0.0
    for n in range(6):
        for duration in ("half", "full"):
            assert berry_phase(rep, n, duration).gamma == 0.0
        state = QuantumState(rep, n)
        chi, _ = overall_phase_oracle(state, 0.5 * rep.tau0)
        gamma = chi - dynamical_phase_oracle(state, 0.5 * rep.tau0)
        worst = max(worst, abs(gamma))
    elapsed = time.perf_counter() - start
    assert worst < 1e-7
    assert elapsed < 5.0
    report(1, "stationary-zero-phase",
           f"max |gamma_oracle| = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_closed_vs_oracle_grid(oracle_cube):
    cube, build_time = oracle_cube
    start = time.perf_counter()
    worst = 0.0
    for C, beta, n, M, w in itertools.product(GRID_C, GRID_BETA, GRID_N,
                                              GRID_M, GRID_W):
        closed = berry_phase(Representation(M, w, C, beta), n, "half").gamma
        worst = max(worst, abs(closed - cube[(C, beta, n, M, w, 1.0)]))
    elapsed = build_time + time.perf_counter() - start
    assert worst < 1e-7
    assert elapsed < 60.0
    report(2, "closed-vs-oracle-grid",
           f"900 cells, max dev = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_03_mass_frequency_hbar_independence(oracle_cube):
    cube, _ = oracle_cube
    worst = 0.0
    for C, beta, n in itertools.product(GRID_C, GRID_BETA, GRID_N):
        values = [cube[(C, beta, n, M, w, hbar)]
                  for M in GRID_M for w in GRID_W for hbar in GRID_HBAR]
        worst = max(worst, max(values) - min(values))
    assert worst < 1e-7
    report(3, "parameter-independence",
           f"max spread over (M, w, hbar) = {worst:.2e}")


def test_criterion_04_doubling():
    worst = 0.0
    for C, beta, n in ((0.5, 0.0, 0), (2.0, math.pi / 6, 1),
                       (4.0, -math.pi / 3, 4), (1.5, math.pi / 3, 2)):
        rep = Representation(1.0, 1.0, C, beta)
        half = berry_phase(rep, n, "half").gamma
        full = berry_phase(rep, n, "full").gamma
        assert full == 2.0 * half  # exact in closed form
        state = QuantumState(rep, n)
        oracle = {}
        for k, tau in ((1, 0.5 * rep.tau0), (2, rep.tau0)):
            chi, _ = overall_phase_oracle(state, tau)
            oracle[k] = chi - dynamical_phase_oracle(state, tau)
        worst = max(worst, abs(oracle[2] - 2.0 * oracle[1]))
    assert worst < 1e-7
    report(4, "doubling", f"closed exact, oracle dev = {worst:.2e}")


def test_criterion_05_quasiperiodicity():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(10):
        rep = Representation(float(rng.uniform(0.4, 3.0)),
                             float(rng.uniform(0.4, 2.5)),
                             float(rng.uniform(0.3, 4.0)),
                             float(rng.uniform(-1.1, 1.1)))
        n = int(rng.integers(0, 7))
        t = float(rng.uniform(0.0, rep.tau0))
        state = QuantumState(rep, n, PhysicalConfig(float(rng.uniform(0.5, 1.5))))
        half = grid_halfwidth(state)
        xs = np.linspace(-half, half, 701)
        lhs = psi(state, xs, t + 0.5 * rep.tau0)
        rhs = np.exp(-1j * (n + 0.5) * math.pi) * psi(state, xs, t)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-9
    report(5, "quasiperiodicity", f"10 random triples, max dev = {worst:.2e}")


def test_criterion_06_ge_child():
    worst = 0.0
    for C, beta in itertools.product(GRID_C, GRID_BETA):
        rep = Representation(1.0, 1.0, C, beta)
        dev = abs(ge_child_integral(rep) - berry_phase(rep, 0, "full").gamma)
        worst = max(worst, dev)
    assert worst < 1e-8
    report(6, "ge-child-integral", f"20 (C, beta) cells, max dev = {worst:.2e}")


def test_criterion_07_equivalence_classes():
    beta = math.pi / 3  # cos beta = 1/2
    values = equivalence_class_C(beta, 2)
    assert len(values) == 8
    worst = 0.0
    for c in values:
        rep = Representation(1.0, 1.0, c, beta)
        for n in range(5):
            g = berry_phase(rep, n, "half").gamma_canonical
            worst = max(worst, min(g, TWO_PI - g))
    assert worst < 1e-9
    report(7, "equivalence-classes",
           f"8 C values x n<=4, max dist from 0 mod 2pi = {worst:.2e}")


def test_criterion_08_schrodinger_oracle():
    start = time.perf_counter()
    worst_overlap = 1.0
    worst_phase = 0.0
    ratio_range = (math.inf, 0.0)
    for rep in (Representation(1.0, 1.0, 2.0, 0.0),
                Representation(1.0, 1.0, 0.5, math.pi / 6)):
        for n in (0, 1):
            state = QuantumState(rep, n)
            half = grid_halfwidth(state) * 1.1
            xs = np.linspace(-half, half, 1024, endpoint=False)
            initial = GridState(-half, half, 1024, psi(state, xs, 0.0), 0.0)
            exact = GridState(-half, half, 1024, psi(state, xs, rep.tau0),
                              rep.tau0)
            errors = []
            for steps in (1024, 2048, 4096):
                final = propagate_schrodinger(initial, rep.M, rep.w,
                                              rep.tau0, steps)
                errors.append(abs(exact.overlap(final) - 1.0))
            ratios = [errors[i] / errors[i + 1] for i in range(2)]
            ratio_range = (min(ratio_range[0], *ratios),
                           max(ratio_range[1], *ratios))
            worst_overlap = min(worst_overlap, abs(exact.overlap(final)))
            chi_num = np.angle(initial.overlap(final))
            target = -(2 * n + 1) * math.pi
            worst_phase = max(worst_phase, abs(
                (chi_num - target + math.pi) % TWO_PI - math.pi))
    elapsed = time.perf_counter() - start
    assert worst_overlap > 1.0 - 1e-6
    assert worst_phase < 1e-5
    assert 3.5 <= ratio_range[0] and ratio_range[1] <= 4.5
    assert elapsed < 120.0
    report(8, "schrodinger-oracle",
           f"overlap >= {worst_overlap:.9f}, chi dev = {worst_phase:.2e},"
           f" ratios in [{ratio_range[0]:.2f}, {ratio_range[1]:.2f}],"
           f" {elapsed:.1f} s")


def _criterion_forces(w):
    def force_for(p, N):
        omega_f = p * w / N
        single = DrivingForce(omega_f, {1: 0.35, -1: 0.35})
        two_mode = DrivingForce(omega_f, {1: 0.3, -1: 0.3,
                                          3: 0.1j, -3: -0.1j})
        square = DrivingForce(omega_f, {
            n: 2.0 * 0.4 / (1j * math.pi * n)
            for n in range(-25, 26) if n % 2 != 0})
        return [("cosine", single), ("two-mode", two_mode),
                ("square-25", square)]
    return force_for


def test_criterion_09_driven_decomposition():
    rep = Representation(1.3, 1.0, 2.0, math.pi / 6)
    hbar = 0.7
    config = PhysicalConfig(hbar)
    force_for = _criterion_forces(rep.w)
    worst_rel = 0.0
    worst_sep = 0.0
    for p, N in ((1, 2), (2, 3), (3, 4)):
        comm = Commensurability(p, N)
        for label, force in force_for(p, N):
            for D in (0j, 0.3 + 0.1j):
                results = {n: berry_phase_driven(rep, n, force, D, comm, config)
                           for n in (0, 1, 3)}
                res0 = results[0]
                rel = abs(res0.drive_closed - res0.drive_quadrature) \
                    / abs(res0.drive_closed)
                worst_rel = max(worst_rel, rel)
                drive_parts = [
                    results[n].gamma_total
                    - comm.N * berry_phase(rep, n, "full").gamma
                    for n in (0, 1, 3)]
                worst_sep = max(worst_sep,
                                max(drive_parts) - min(drive_parts),
                                abs(drive_parts[0] - res0.drive_quadrature))
    assert worst_rel < 1e-8
    assert worst_sep < 1e-8
    report(9, "driven-decomposition",
           f"closed-vs-quadrature rel = {worst_rel:.2e},"
           f" n-independence dev = {worst_sep:.2e}")


def test_criterion_10_special_representation():
    M, w, hbar = 1.0, 1.0, 1.0
    omega_f = 0.61803398875 * w  # irrational-looking drive frequency
    force = DrivingForce(omega_f, {1: 0.45, -1: 0.45, 2: -0.2j, -2: 0.2j})
    closed = berry_phase_special_rep(force, M, w, hbar)
    rep = Representation(M, w, 1.0, 0.0)
    xp = particular_solution(force, rep, None, 0j)
    quadrature = drive_phase_quadrature(xp, M, hbar, force.tau_f)
    rel = abs(closed - quadrature) / abs(closed)
    assert rel < 1e-8
    report(10, "special-representation",
           f"tau_f evolution, closed vs quadrature rel = {rel:.2e}")


def test_criterion_11_resonance_guard():
    # CLI surface: p = 1 with a nonzero resonant coefficient exits 3
    proc = subprocess.run(
        [sys.executable, "-m", "shoberry", "driven", "--C", "1", "--beta", "0",
         "--omega-f", "0.5", "--force-coeff", "2:0.1:0"],
        capture_output=True, text=True)
    assert proc.returncode == 3
    # library surface: construction refuses rather than returning an
    # unbounded solution, for exact and near resonance alike
    rep = Representation(1.0, 1.0, 2.0, 0.0)
    with pytest.raises(ResonanceError):
        particular_solution(DrivingForce(0.5, {2: 0.1, -2: 0.1}), rep,
                            Commensurability(1, 2))
    with pytest.raises(Exception) as info:
        particular_solution(DrivingForce(1.0 + 1e-13, {1: 0.1, -1: 0.1}),
                            rep, None)
    assert "resonan" in str(info.value).lower()
    report(11, "resonance-guard", "exit code 3 and refusal both observed")


def test_criterion_12_ode_residual():
    rep = Representation(1.3, 1.0, 2.0, math.pi / 6)
    force_for = _criterion_forces(rep.w)
    worst_resid = 0.0
    worst_rk = 0.0
    for p, N in ((1, 2), (2, 3), (3, 4)):
        comm = Commensurability(p, N)
        span = N * rep.tau0
        for label, force in force_for(p, N):
            xp = particular_solution(force, rep, comm, D=0.1 - 0.2j)
            ts = np.linspace(0.0, span, 1200)
            residual = xp.xddot(ts) + rep.w ** 2 * xp.x(ts) \
                - force(ts) / rep.M
            scale = max(float(np.max(np.abs(force(ts) / rep.M))),
                        rep.w ** 2 * float(np.max(np.abs(xp.x(ts)))))
            worst_resid = max(worst_resid,
                              float(np.max(np.abs(residual))) / scale)
            traj = rk_integrate(
                lambda x, t: force(t) / rep.M - rep.w ** 2 * x,
                xp.x(0.0), xp.xdot(0.0), (0.0, span), t_eval=ts)
            worst_rk = max(worst_rk, float(np.max(np.abs(traj.x - xp.x(ts)))))
    assert worst_resid < 1e-9
    assert worst_rk < 1e-8
    report(12, "ode-residual",
           f"max relative residual = {worst_resid:.2e},"
           f" RK-vs-Fourier dev = {worst_rk:.2e}")


def test_criterion_13_sweep_determinism(tmp_path):
    outputs = []
    for name in ("first.csv", "second.csv"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "shoberry", "sweep",
             "--sweep", "C:0.5:4:25", "--sweep", "beta:-1.0:1.0:20",
             "--n", "0", "--format", "csv", "--out", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    rows = outputs[0].decode().count("\n") - 1
    assert rows == 500
    report(13, "sweep-determinism", f"{rows}-row CSV byte-identical twice")
