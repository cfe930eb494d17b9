"""Reports pinned byte for byte.

Each file under ``tests/data`` holds the output of one CLI call, as written
before the reports became column tables; the call must still write exactly
those bytes. ``validate.txt`` is the ``validate`` report, pinned before its
checks became functions shared with the acceptance suite. Together they cover error rows (C = 0, cos beta ~ 0, a resonant
drive), several quantum numbers per point, n above the oracle's cap in a
formula-only cell, mixed full/formula-only cells, the driven special
representation and both output formats.
"""

from pathlib import Path

import pytest

from shoberry.cli import main

DATA = Path(__file__).resolve().parent / "data"

GOLDEN = {
    "sweep_formula.json": [
        "sweep", "--sweep", "C:-2:0:3", "--sweep", "beta:0:1.5707963267948966:3",
        "--n", "0,3,70", "--format", "json"],
    "sweep_formula_n_axis.csv": [
        "sweep", "--C", "-0.75", "--sweep", "beta:-1.2:1.2:4",
        "--sweep", "n:-2:80:5", "--format", "csv"],
    "sweep_mixed.csv": [
        "sweep", "--sweep", "C:-1:1:3", "--sweep", "beta:-0.5:0.5:2",
        "--n", "0,1", "--format", "csv"],
    "sweep_driven.csv": [
        "sweep", "--C", "1.3", "--beta", "0.2", "--n", "0,1",
        "--omega-f", "0.5", "--force-coeff", "1:0.5:0", "--force-coeff", "3:0.1:0.05",
        "--sweep", "omega_f:0.5:1:2", "--sweep", "D_re:-0.2:0.2:2", "--format", "csv"],
    "berry.json": [
        "berry", "--C", "2", "--beta", "pi/6", "--n", "0,1,2", "--duration", "full",
        "--format", "json"],
    "driven_special.json": [
        "driven", "--C", "1", "--beta", "0", "--omega-f", "0.61803398874989484",
        "--force-coeff", "1:0.5:0", "--n", "0,2", "--format", "json"],
    "trajectory.csv": [
        "trajectory", "--C", "-1.7", "--beta", "0.4", "--samples", "33",
        "--format", "csv"],
    "trajectory.json": [
        "trajectory", "--C", "-1.7", "--beta", "0.4", "--samples", "33",
        "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_pinned_bytes(name, tmp_path):
    out = tmp_path / name
    assert main([*GOLDEN[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_validate_report_matches_pinned_bytes(capsys):
    assert main(["validate"]) == 0
    assert capsys.readouterr().out.encode() == (DATA / "validate.txt").read_bytes()
