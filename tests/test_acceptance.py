"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured worst deviation (run with -s to see them live).

A criterion whose invariant validate also checks runs the one function of
its grid in shoberry.selfcheck, on the grid and at the tolerance below:
02 closed_vs_oracle and 03 parameter_independence (both on the one
oracle_cube), 04 doubling, 05 quasiperiodicity, 06 ge_child, 08
propagator_order, 09 drive_closed_vs_quadrature and drive_decomposition, 12
ode_residual. Criteria 01, 07, 10, 11 and 13 have no validate twin.
"""

import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from shoberry import selfcheck
from shoberry.driven import (Commensurability, DrivingForce,
                             berry_phase_special_rep, drive_phase_quadrature,
                             particular_solution)
from shoberry.errors import ResonanceError
from shoberry.phase import berry_phase, equivalence_class_C
from shoberry.representation import PhysicalConfig, Representation
from shoberry.wavefunction import QuantumState

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
    """gamma over half a period from the oracle pipeline, keyed by state, on
    the full grid."""
    start = time.perf_counter()
    cube = {}
    for C, beta, n, M, w, hbar in itertools.product(
            GRID_C, GRID_BETA, GRID_N, GRID_M, GRID_W, GRID_HBAR):
        state = QuantumState(Representation(M, w, C, beta), n, PhysicalConfig(hbar))
        cube[state] = selfcheck.half_period_oracle(state)
    return cube, time.perf_counter() - start


def test_criterion_01_stationary_zero_phase():
    start = time.perf_counter()
    rep = Representation(1.0, 1.0, 1.0, 0.0)
    worst = 0.0
    for n in range(6):
        for duration in ("half", "full"):
            assert berry_phase(rep, n, duration).gamma == 0.0
        worst = max(worst, abs(selfcheck.half_period_oracle(QuantumState(rep, n))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-7
    assert elapsed < 5.0
    report(1, "stationary-zero-phase",
           f"max |gamma_oracle| = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_closed_vs_oracle_grid(oracle_cube):
    cube, build_time = oracle_cube
    start = time.perf_counter()
    worst = selfcheck.closed_vs_oracle(
        [state for state in cube if state.config.hbar == 1.0], cube.__getitem__)
    elapsed = build_time + time.perf_counter() - start
    assert worst < 1e-7
    assert elapsed < 60.0
    report(2, "closed-vs-oracle-grid",
           f"900 cells, max dev = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_03_mass_frequency_hbar_independence(oracle_cube):
    cube, _ = oracle_cube
    worst = selfcheck.parameter_independence(cube, cube.__getitem__)
    assert worst < 1e-7
    report(3, "parameter-independence",
           f"max spread over (M, w, hbar) = {worst:.2e}")


def test_criterion_04_doubling():
    worst, _ = selfcheck.doubling([
        QuantumState(Representation(1.0, 1.0, C, beta), n)
        for C, beta, n in ((0.5, 0.0, 0), (2.0, math.pi / 6, 1),
                           (4.0, -math.pi / 3, 4), (1.5, math.pi / 3, 2))])
    assert worst < 1e-7   # 1 when a closed form fails to double exactly
    report(4, "doubling", f"closed exact, oracle dev = {worst:.2e}")


def test_criterion_05_quasiperiodicity():
    rng = np.random.default_rng(20260810)
    cases = []
    for _ in range(10):
        rep = Representation(float(rng.uniform(0.4, 3.0)),
                             float(rng.uniform(0.4, 2.5)),
                             float(rng.uniform(0.3, 4.0)),
                             float(rng.uniform(-1.1, 1.1)))
        n = int(rng.integers(0, 7))
        t = float(rng.uniform(0.0, rep.tau0))
        state = QuantumState(rep, n, PhysicalConfig(float(rng.uniform(0.5, 1.5))))
        cases.append((state, t))
    worst = selfcheck.quasiperiodicity(cases, 701)
    assert worst < 1e-9
    report(5, "quasiperiodicity", f"10 random triples, max dev = {worst:.2e}")


def test_criterion_06_ge_child():
    worst = selfcheck.ge_child([Representation(1.0, 1.0, C, beta)
                                for C, beta in itertools.product(GRID_C, GRID_BETA)])
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
    states = [QuantumState(rep, n) for rep in (Representation(1.0, 1.0, 2.0, 0.0),
                                               Representation(1.0, 1.0, 0.5, math.pi / 6))
              for n in (0, 1)]
    runs = [selfcheck.propagations(state, (1024, 2048, 4096)) for state in states]
    dev, ratios = selfcheck.propagator_order(runs)
    worst_overlap = 1.0
    worst_phase = 0.0
    for state, (initial, exact, finals) in zip(states, runs):
        worst_overlap = min(worst_overlap, abs(exact.overlap(finals[-1])))
        chi_num = np.angle(initial.overlap(finals[-1]))
        target = -(2 * state.n + 1) * math.pi
        worst_phase = max(worst_phase, abs(
            (chi_num - target + math.pi) % TWO_PI - math.pi))
    elapsed = time.perf_counter() - start
    assert worst_overlap > 1.0 - 1e-6
    assert worst_phase < 1e-5
    assert dev < 0.5, ratios   # 1 unless every ratio is in [3.5, 4.5]
    assert elapsed < 120.0
    report(8, "schrodinger-oracle",
           f"overlap >= {worst_overlap:.9f}, chi dev = {worst_phase:.2e},"
           f" {ratios}, {elapsed:.1f} s")


def _criterion_drives(w, Ds):
    """(force, comm, D): a cosine, a two-mode and a 25-mode square-wave force
    at each p/N of 1/2, 2/3 and 3/4, with each D of Ds."""
    drives = []
    for p, N in ((1, 2), (2, 3), (3, 4)):
        omega_f = p * w / N
        single = DrivingForce(omega_f, {1: 0.35, -1: 0.35})
        two_mode = DrivingForce(omega_f, {1: 0.3, -1: 0.3,
                                          3: 0.1j, -3: -0.1j})
        square = DrivingForce(omega_f, {
            n: 2.0 * 0.4 / (1j * math.pi * n)
            for n in range(-25, 26) if n % 2 != 0})
        drives += [(force, Commensurability(p, N), D)
                   for force in (single, two_mode, square) for D in Ds]
    return drives


def test_criterion_09_driven_decomposition():
    rep = Representation(1.3, 1.0, 2.0, math.pi / 6)
    config = PhysicalConfig(0.7)
    drives = _criterion_drives(rep.w, (0j, 0.3 + 0.1j))
    worst_rel = selfcheck.drive_closed_vs_quadrature(rep, drives, config)
    worst_sep = selfcheck.drive_decomposition([rep], (0, 1, 3), drives, config)
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
    drives = _criterion_drives(rep.w, (0.1 - 0.2j,))
    worst_resid = selfcheck.ode_residual(rep, drives, 1200)
    worst_rk = 0.0
    for force, comm, D in drives:
        xp = particular_solution(force, rep, comm, D)
        span = comm.N * rep.tau0
        ts = np.linspace(0.0, span, 1200)
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
