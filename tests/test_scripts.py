"""Smoke tests of the scripts: the timing scripts run one repeat each and
write their JSON to tmp_path."""

import importlib
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(autouse=True)
def one_repeat(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    monkeypatch.setattr(importlib.import_module("_timing"), "REPEATS", 1)


def _run(name, tmp_path, capsys):
    module = importlib.import_module(name)
    out = tmp_path / f"{name}.json"
    assert module.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert json.loads(capsys.readouterr().out) == report
    assert report["repeats"] == 1
    assert list(report["env"]) == ["python", "numpy", "machine", "nproc"]
    return report


def test_oracle_timing(tmp_path, capsys):
    report = _run("oracle_timing", tmp_path, capsys)
    assert list(report) == ["request", "points", "repeats", "sweep_end_to_end_s",
                            "layer_s", "layer_s_per_1k_points", "env"]
    assert report["points"] == 500
    layers = ["overlap", "branch_tracking", "dynamical_quadrature"]
    assert list(report["layer_s"]) == list(report["layer_s_per_1k_points"]) == layers


def test_report_timing(tmp_path, capsys):
    report = _run("report_timing", tmp_path, capsys)
    assert list(report) == ["request", "rows", "repeats", "layer_s",
                            "layer_s_per_1k_rows", "sweep_end_to_end_s",
                            "json_render_peak_mb", "env"]
    assert report["rows"] == 5100
    assert report["json_render_peak_mb"] > 0
    layers = ["grid", "json_render", "csv_render", "trajectory_csv_render"]
    assert list(report["layer_s"]) == list(report["layer_s_per_1k_rows"]) == layers


def test_driven_timing(tmp_path, capsys):
    report = _run("driven_timing", tmp_path, capsys)
    assert list(report) == ["request", "points", "modes", "repeats",
                            "sweep_end_to_end_s", "layer_s",
                            "propagation_ns_per_point_step",
                            "propagation_free_ns_per_point_step", "env"]
    assert (report["points"], report["modes"]) == (16, 36)
    assert list(report["layer_s"]) == [
        "drive_quadrature_per_point", "drive_quadrature_batched",
        "drive_phase_closed", "particular_solution", "propagation",
        "propagation_free"]


def test_oracle_domain_map(capsys):
    # the map over C from 1e-3 to 1e3 and n up to 64 stays whole
    assert importlib.import_module("oracle_domain_map").main([]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("passed 108/108 cells")
