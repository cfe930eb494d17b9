"""Oracle reports pinned byte for byte.

Each file under ``tests/data`` named here holds the output of one full-mode
``sweep`` as written when the oracle ran one point at a time; the batched
oracle must still write exactly those bytes. Together they cover M, w and
hbar away from 1, several quantum numbers per point, points whose branch
needs more samples than the cap (error rows inside a batch), a full period
and an n axis, so the points of one request carry different quantum numbers.
"""

from pathlib import Path

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
