"""Oracle reports pinned byte for byte.

Each file under ``tests/data`` named here holds the output of one full-mode
``sweep`` as written when the oracle ran one point at a time; the batched
oracle must still write exactly those bytes. Together they cover M, w and
hbar away from 1, several quantum numbers per point, points at |cos beta| =
1e-8 whose |gamma| reaches 6.5e10, where the 1e-7 gate is finer than the
rounding of the phases compared, a full period and an n axis, so the points
of one request carry different quantum numbers.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from shoberry.cli import main

DATA = Path(__file__).resolve().parent / "data"
BETA_EDGE = "1.5707963167948966"   # pi/2 - 1e-8

PINNED = {
    "oracle_sweep_squeezed.csv": [
        "sweep", "--M", "1.3", "--w", "0.9", "--hbar", "0.7",
        "--sweep", "C:0.05:20:9", "--sweep", f"beta:-{BETA_EDGE}:{BETA_EDGE}:7",
        "--n", "0,3,8,20", "--format", "csv"],
    "oracle_sweep_full.csv": [
        "sweep", "--sweep", "C:0.25:4:10", "--sweep", "beta:-1:1:10", "--n", "0",
        "--duration", "full", "--format", "csv"],
    "oracle_sweep_n_axis.csv": [
        "sweep", "--C", "3", "--hbar", "1.9", "--sweep", "beta:-1.2:1.2:5",
        "--sweep", "n:0:20:6", "--format", "csv"],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_oracle_report_matches_pinned_bytes(name, tmp_path):
    out = tmp_path / name
    assert main([*PINNED[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_squeezed_edge_rows_agree_within_rounding():
    # the 18 points at |beta| = pi/2 - 1e-8, four quantum numbers each: the
    # oracle is within 8 ulp of the two phases it compares, and within the
    # 1e-7 gate wherever that rounding bound is finer than the gate
    with open(DATA / "oracle_sweep_squeezed.csv", newline="") as stream:
        rows = [row for row in csv.DictReader(stream)
                if row["beta"].lstrip("-") == BETA_EDGE]
    assert len(rows) == 72 and not any(row["error"] for row in rows)
    for row in rows:
        chi, delta, diff = (float(row[name]) for name in ("chi", "delta", "abs_diff"))
        bound = 8.0 * (np.spacing(abs(chi)) + np.spacing(abs(delta)))
        assert diff <= bound
        if bound < 1e-7:
            assert diff <= 1e-7
