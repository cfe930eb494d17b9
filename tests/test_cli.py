import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from shoberry import cli
from shoberry.cli import main, parse_angle
from shoberry.errors import ConfigError, ConvergenceError
from shoberry.phase import berry_phase_oracles
from shoberry.representation import Representation
from shoberry.schemas import CONFIG_SCHEMA, RESULT_SCHEMA


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseAngle:
    @pytest.mark.parametrize("text,expected", [
        ("pi", math.pi),
        ("pi/3", math.pi / 3),
        ("2pi/3", 2 * math.pi / 3),
        ("-pi/6", -math.pi / 6),
        ("2*pi/3", 2 * math.pi / 3),
        ("0.75", 0.75),
        (1.5, 1.5),
    ])
    def test_forms(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, rel=1e-15)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_angle("three pies")


class TestBerryCommand:
    def test_stationary_rows_are_zero(self, capsys):
        code, out, _ = run_cli(capsys, "berry", "--C", "1", "--beta", "0",
                               "--n", "0,1,2,3")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, RESULT_SCHEMA)
        assert [row["n"] for row in doc["rows"]] == [0, 1, 2, 3]
        for row in doc["rows"]:
            assert row["gamma"] == 0.0
            assert row["abs_diff"] < 1e-7

    def test_stretched_half_period(self, capsys):
        code, out, _ = run_cli(capsys, "berry", "--C", "2", "--beta", "0",
                               "--n", "0", "--duration", "half")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["gamma"] == pytest.approx(math.pi / 8)
        assert row["abs_diff"] < 1e-7

    def test_squeezed_excited_state_has_no_2pi_alias(self, capsys):
        # too few branch-tracking samples once put this row off by exactly 8 pi
        code, out, _ = run_cli(capsys, "berry", "--C", "50", "--beta", "1.2",
                               "--n", "20")
        assert code == 0
        assert json.loads(out)["rows"][0]["abs_diff"] < 1e-7

    def test_narrow_squeezed_ground_state(self, capsys):
        # composite Gauss-Legendre panels missed the peak at t = 0: exit 3
        code, out, err = run_cli(capsys, "berry", "--C", "1000", "--n", "0")
        assert code == 0, err
        assert json.loads(out)["rows"][0]["abs_diff"] < 1e-7

    def test_degenerate_beta_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "berry", "--beta", "pi/2")
        assert code == 2
        assert "cos" in err

    def test_formula_only_rep_gets_null_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "berry", "--C", "-0.382",
                               "--beta", "pi/3", "--n", "0")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["oracle_gamma"] is None and row["abs_diff"] is None
        assert row["gamma"] != 0.0

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "berry", "--C", "2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,chi,delta,gamma,gamma_canonical,oracle_gamma,abs_diff"
        assert len(lines) == 2

    def test_n_periods_duration(self, capsys):
        code, out, _ = run_cli(capsys, "berry", "--C", "2", "--duration", "3")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["gamma"] == pytest.approx(6 * math.pi / 8)


class TestDrivenCommand:
    def test_single_cosine_stationary(self, capsys):
        code, out, _ = run_cli(capsys, "driven", "--C", "1", "--beta", "0",
                               "--omega-f", "0.5", "--force-coeff", "1:0.5:0")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, RESULT_SCHEMA)
        row = doc["rows"][0]
        expected = math.pi * 0.5 / ((0.25 - 1.0) ** 2)
        assert row["drive_part_closed"] == pytest.approx(expected)
        assert row["drive_part_quadrature"] == pytest.approx(expected, rel=1e-8)
        assert (row["p"], row["N"]) == (1, 2)

    def test_resonance_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "driven", "--C", "1", "--beta", "0",
                               "--omega-f", "0.5", "--force-coeff", "2:0.5:0")
        assert code == 3
        assert "vanish" in err or "unbounded" in err

    def test_incommensurate_with_D_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "driven", "--C", "2", "--beta", "0",
                               "--omega-f", "0.61803398874989484",
                               "--force-coeff", "1:0.5:0", "--D", "0.3:0.1")
        assert code == 3
        assert "undefined" in err

    def test_incommensurate_special_representation_fallback(self, capsys):
        code, out, _ = run_cli(capsys, "driven", "--C", "1", "--beta", "0",
                               "--omega-f", "0.61803398874989484",
                               "--force-coeff", "1:0.5:0")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert (row["p"], row["N"]) == (0, 0)
        assert row["gamma_undriven_part"] == 0.0
        assert row["drive_part_closed"] == pytest.approx(
            row["drive_part_quadrature"], rel=1e-8)

    def test_missing_force_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "driven", "--C", "2")
        assert code == 2
        assert "force" in err


class TestSweepCommand:
    def test_gamma_minimized_at_C_equal_one(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--sweep", "C:0.5:4:8",
                               "--beta", "0", "--n", "0")
        assert code == 0
        doc = json.loads(out)
        gammas = [row["gamma"] for row in doc["rows"]]
        cs = [row["C"] for row in doc["rows"]]
        best = int(np.argmin(gammas))
        assert cs[best] == 1.0
        assert gammas[best] == 0.0

    def test_beta_symmetry(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--sweep",
                               "beta:-1.0471975511965976:1.0471975511965976:7",
                               "--C", "1", "--n", "0")
        assert code == 0
        rows = json.loads(out)["rows"]
        gammas = [row["gamma"] for row in rows]
        assert gammas == pytest.approx(gammas[::-1], rel=1e-12, abs=1e-15)

    def test_error_row_isolated(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--sweep", "C:-1:1:3",
                               "--beta", "0", "--n", "0")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 3
        assert rows[0]["error"] is None          # C = -1: formula-only valid
        assert rows[1]["error"] is not None      # C = 0
        assert rows[1]["gamma"] is None
        assert rows[2]["error"] is None          # C = +1

    def test_two_axis_grid_order(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--sweep", "C:1:2:2",
                               "--sweep", "beta:0:0.1:2", "--n", "0",
                               "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("C,beta,n,")
        assert len(lines) == 5
        first = [float(part) for part in lines[1].split(",")[:2]]
        assert first == [1.0, 0.0]

    def test_driven_sweep_over_D(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--sweep", "D_re:0:0.3:2",
                               "--C", "1", "--beta", "0", "--omega-f", "0.5",
                               "--force-coeff", "1:0.5:0", "--n", "0")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[1]["gamma_total"] > rows[0]["gamma_total"]

    def test_refused_points_land_in_error_column(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--omega-f", "0.5",
                               "--force-coeff", "1:0.1:0",
                               "--sweep", "omega_f:-1:1:3")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["omega_f"] for row in rows] == [-1.0, 0.0, 1.0]
        assert all("omega_f must be finite and positive" in row["error"]
                   for row in rows[:2])
        assert rows[2]["error"] is not None    # omega_f = w: resonant mode

    def test_point_with_one_failing_n_gives_one_error_row(self, capsys):
        # n = 0 is trackable at this beta, n = 20 needs more samples than the cap
        beta = repr(math.acos(9e-6))
        code, out, _ = run_cli(capsys, "sweep", "--sweep", f"beta:{beta}:{beta}:1",
                               "--C", "1", "--n", "0,20", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith(f"{float(beta)!r},,") and "cap" in lines[1]
        code, out, _ = run_cli(capsys, "berry", "--C", "1", "--beta", beta,
                               "--n", "0")
        assert code == 0 and json.loads(out)["rows"][0]["abs_diff"] < 1e-7

    def test_failing_point_in_a_batch_fails_alone(self, capsys):
        # three full-mode points share one oracle batch: (C, beta) = (1, lo),
        # (1, ~pi/2 - 1e-8), whose branch needs more samples than the cap,
        # and (-1, hi); the other three cells are formula-only
        mid = 0.5 * math.pi - 1e-8
        code, out, err = run_cli(capsys, "sweep", "--sweep", "C:1:-1:2", "--sweep",
                                 f"beta:{mid - 0.3!r}:{mid + 0.3!r}:3", "--n", "0")
        assert code == 0, err
        rows = json.loads(out)["rows"]
        assert [row["error"] is not None for row in rows] == [False, True] + [False] * 4
        for row in rows:
            rep = Representation(1.0, 1.0, row["C"], row["beta"])
            if rep.omega <= 0:
                assert row["oracle_gamma"] is None
                continue
            try:
                expected = berry_phase_oracles(rep, [0], 0.5 * rep.tau0)[0]
            except ConvergenceError as exc:
                assert row["error"] == str(exc) and "cap" in row["error"]
                assert row["gamma"] is None
            else:
                assert row["oracle_gamma"] == expected

    def test_n_axis_points_carry_their_own_n(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--sweep", "C:0.5:3:3",
                                 "--sweep", "n:0:8:3", "--beta", "0.4")
        assert code == 0, err
        rows = json.loads(out)["rows"]
        assert [row["n"] for row in rows] == [0, 4, 8] * 3
        for row in rows:
            rep = Representation(1.0, 1.0, row["C"], 0.4)
            assert row["error"] is None
            assert row["oracle_gamma"] == berry_phase_oracles(
                rep, [row["n"]], 0.5 * rep.tau0)[0]

    def test_overflowing_closed_form_gets_its_own_error_row(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--sweep", "C:-1e200:-1:2",
                                 "--n", "0,1", "--format", "csv")
        assert code == 0, err
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[1].endswith('"closed-form phases overflow double precision'
                                 ' at C=-1e+200, beta=0.0, n=0"')
        assert lines[2].startswith("-1,0,") and lines[3].startswith("-1,1,")
        assert lines[2].endswith(",") and lines[3].endswith(",")

    def test_signed_zero_axis_value_keeps_its_sign(self, capsys):
        # linspace ends exactly on the stop, so this axis holds 0.0 and -0.0:
        # two axis values that compare equal but print apart
        argv = ["sweep", "--sweep", "beta:0:-0.0:2", "--n", "0,1", "--C", "2"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert [math.copysign(1.0, row["beta"]) for row in json.loads(out)["rows"]] \
            == [1.0, 1.0, -1.0, -1.0]
        assert out.count('"beta": 0.0,') == 2 and out.count('"beta": -0.0,') == 2
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0, err
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["0", "0", "-0", "-0"]
        # a -0.0 start is the axis's first value, sign included
        code, out, err = run_cli(capsys, "sweep", "--sweep", "beta:-0.0:1:3", "--C", "-2",
                                 "--format", "csv")
        assert code == 0, err
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["-0", "0.5", "1"]

    def test_failing_point_in_a_factored_grid_keeps_one_row(self, capsys):
        # C = 0 fails at both beta values, between points of two n each
        code, out, err = run_cli(capsys, "sweep", "--sweep", "C:-1:1:3",
                                 "--sweep", "beta:0:0.5:2", "--n", "0,1")
        assert code == 0, err
        rows = json.loads(out)["rows"]
        assert [(row["C"], row["beta"]) for row in rows] == \
            [(-1.0, 0.0)] * 2 + [(-1.0, 0.5)] * 2 + [(0.0, 0.0), (0.0, 0.5)] + \
            [(1.0, 0.0)] * 2 + [(1.0, 0.5)] * 2
        for row in rows[4:6]:
            assert row["error"] == "C must be nonzero"
            assert set(k for k, v in row.items() if v is not None) == {"C", "beta", "error"}
        for C, beta, point in ((-1, 0, rows[0:2]), (-1, 0.5, rows[2:4]),
                               (1, 0, rows[6:8]), (1, 0.5, rows[8:10])):
            _, berry, _ = run_cli(capsys, "berry", "--C", str(C), "--beta", str(beta),
                                  "--n", "0,1")
            assert [{k: v for k, v in row.items() if k not in ("C", "beta", "error")}
                    for row in point] == json.loads(berry)["rows"]
            assert all(row["error"] is None for row in point)
        assert rows[6]["oracle_gamma"] is not None and rows[0]["oracle_gamma"] is None

    def test_repeated_axis_is_named(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--sweep", "n:0:1:2",
                               "--sweep", "C:1:2:2", "--sweep", "n:3:4:2")
        assert code == 2 and "sweep parameter n" in err

    def test_sweep_without_axes_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--C", "2")
        assert code == 2

    def test_determinism_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(capsys, "sweep", "--sweep", "C:0.5:3:10",
                                 "--sweep", "beta:-0.9:0.9:5", "--n", "1",
                                 "--format", "csv", "--out", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestTrajectoryCommand:
    def test_stationary_rho_constant(self, capsys):
        code, out, _ = run_cli(capsys, "trajectory", "--C", "1", "--beta", "0",
                               "--samples", "64")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, RESULT_SCHEMA)
        assert all(row["rho"] == pytest.approx(1.0) for row in doc["rows"])

    def test_ellipse_and_half_period_rho(self, capsys):
        code, out, _ = run_cli(capsys, "trajectory", "--C", "2", "--beta", "0",
                               "--samples", "201")
        assert code == 0
        rows = json.loads(out)["rows"]
        for row in rows:
            assert row["u"] ** 2 + row["v"] ** 2 / 4.0 == pytest.approx(1.0)
        rhos = [row["rho"] for row in rows]
        assert rhos[:100] == pytest.approx(rhos[100:200], abs=1e-12)

    def test_csv_is_numeric(self, capsys):
        code, out, _ = run_cli(capsys, "trajectory", "--C", "2",
                               "--format", "csv", "--samples", "16")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,u,v,rho"
        values = [float(cell) for cell in lines[1].split(",")]
        assert len(values) == 4


class TestConfigDocument:
    def test_full_config_round_trip(self, tmp_path, capsys):
        config = {
            "representation": {"M": 1.0, "w": 1.0, "C": 2.0, "beta": "pi/6",
                               "hbar": 1.0},
            "n": [0, 1],
            "duration": "full",
            "output": {"format": "json"},
        }
        jsonschema.validate(config, CONFIG_SCHEMA)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "berry", "--config", str(path))
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, RESULT_SCHEMA)
        assert len(doc["rows"]) == 2

    def test_flags_override_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"representation": {"C": 2.0}}))
        code, out, _ = run_cli(capsys, "berry", "--config", str(path),
                               "--C", "1")
        assert code == 0
        assert json.loads(out)["rows"][0]["gamma"] == 0.0

    def test_driven_config_with_force(self, tmp_path, capsys):
        config = {
            "representation": {"C": 1.0, "beta": 0.0},
            "force": {"omega_f": 0.5, "coefficients": [[1, 0.5, 0.0]],
                      "D": [0.0, 0.0]},
        }
        jsonschema.validate(config, CONFIG_SCHEMA)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "driven", "--config", str(path))
        assert code == 0

    def test_bad_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        for text in ("{not json", '{"n": true}',
                     '{"representation": {"C": -1.0}, "duration": true}',
                     '{"output": 5}', '{"sweep": 5}', '{"output": {"path": 5}}',
                     '{"commensurability_tolerance": -1, "force":'
                     ' {"omega_f": 0.5, "coefficients": [[1, 0.5, 0]]}}'):
            path.write_text(text)
            code, _, _ = run_cli(capsys, "berry", "--config", str(path))
            assert code == 2

    @pytest.mark.parametrize("config,key", [
        ({"force": {"omega_f": "x", "coefficients": [[1, 0.5, 0]]}}, "omega_f"),
        ({"representation": {"C": "x"}}, "C"),
        ({"force": {"omega_f": 0.5, "coefficients": [[1.5, 0.5, 0]]}},
         "coefficients"),
        ({"samples": 2.5}, "samples"),
        ({"sweep": {"parameter": "C", "range": [1, 2], "steps": True}}, "steps"),
        ({"representation": {"C": None}}, "C"),
    ])
    def test_non_numeric_value_exits_2(self, config, key, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "driven", "--config", str(path))
        assert code == 2
        assert "Traceback" not in err and key in err


# One run per flag of cli.PARAMETERS, given once by flags and once by config.
_FORCE_FLAGS = ["--omega-f", "0.5", "--force-coeff", "1:0.5:0"]
_FORCE_DOC = {"omega_f": 0.5, "coefficients": [[1, 0.5, 0]]}
FLAG_AND_CONFIG = {
    "M": ("berry", ["--M", "2", "--C", "2"], {"representation": {"M": 2, "C": 2}}),
    "w": ("berry", ["--w", "3", "--C", "2"], {"representation": {"w": 3, "C": 2}}),
    "C": ("berry", ["--C", "2"], {"representation": {"C": 2}}),
    "beta": ("berry", ["--C", "2", "--beta", "pi/6"],
             {"representation": {"C": 2, "beta": "pi/6"}}),
    "hbar": ("berry", ["--hbar", "0.5", "--C", "2"],
             {"representation": {"hbar": 0.5, "C": 2}}),
    "n": ("berry", ["--C", "2", "--n", "0,2"], {"representation": {"C": 2}, "n": [0, 2]}),
    "duration": ("berry", ["--C", "2", "--duration", "3"],
                 {"representation": {"C": 2}, "duration": 3}),
    "D": ("driven", ["--C", "2", *_FORCE_FLAGS, "--D", "0.3:0.1"],
          {"representation": {"C": 2}, "force": {**_FORCE_DOC, "D": [0.3, 0.1]}}),
    "omega_f": ("driven", ["--omega-f", "0.25", "--force-coeff", "1:0.5:0"],
                {"force": {"omega_f": 0.25, "coefficients": [[1, 0.5, 0]]}}),
    "force_coeff": ("driven", ["--omega-f", "0.5", "--force-coeff", "1:0.2:0.1",
                               "--force-coeff", "3:0.1:0"],
                    {"force": {"omega_f": 0.5,
                               "coefficients": [[1, 0.2, 0.1], [3, 0.1, 0]]}}),
    "sweep": ("sweep", ["--sweep", "C:0.5:2:3", "--sweep", "n:0:2:2"],
              {"sweep": [{"parameter": "C", "range": [0.5, 2], "steps": 3},
                         {"parameter": "n", "range": [0, 2], "steps": 2}]}),
    "out": ("berry", ["--out", "out.txt"], {"output": {"path": "out.txt"}}),
    "format": ("berry", ["--format", "csv"], {"output": {"format": "csv"}}),
    "samples": ("trajectory", ["--C", "2", "--samples", "16"],
                {"representation": {"C": 2}, "samples": 16}),
}


def test_every_flag_has_an_equivalence_case():
    assert set(FLAG_AND_CONFIG) == {p.name for p in cli.PARAMETERS if p.help}


@pytest.mark.parametrize("name", list(FLAG_AND_CONFIG))
def test_flag_and_config_give_identical_output(name, tmp_path, monkeypatch, capsys):
    command, flags, config = FLAG_AND_CONFIG[name]
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(config))
    outputs = []
    for argv in ([command, *flags], [command, "--config", "config.json"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        written = Path("out.txt")
        if written.exists():
            out += written.read_text()
            written.unlink()
        outputs.append(out)
    assert outputs[0] and outputs[0] == outputs[1]


@pytest.mark.parametrize("flags,config", [
    (["--duration", "full", *_FORCE_FLAGS], {}),
    (["--duration", "half"], {"force": _FORCE_DOC}),
    (_FORCE_FLAGS, {"duration": "half"}),
    ([], {"force": _FORCE_DOC, "duration": 2}),
], ids=["flag", "flag, force in config", "config, force by flags", "config"])
def test_driven_sweep_refuses_duration(flags, config, tmp_path, capsys):
    # a driven sweep's phases are over N tau0; a duration would be ignored
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sweep", "--sweep", "D_re:0:0.3:2",
                             "--config", str(path), *flags)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "duration" in lines[0]


def test_undriven_sweep_reads_duration(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"duration": "full"}))
    outputs = []
    for argv in (["--duration", "full"], ["--config", str(path)]):
        code, out, err = run_cli(capsys, "sweep", "--sweep", "C:1:2:2", *argv)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert [row["chi"] for row in json.loads(outputs[0])["rows"]] == [-math.pi] * 2


def test_repeated_flags_add_to_the_config_lists(tmp_path, capsys):
    partial = {"force": {"omega_f": 0.5, "coefficients": [[1, 0.2, 0.1]]},
               "sweep": {"parameter": "C", "range": [1, 2], "steps": 2}}
    full = {"force": {"omega_f": 0.5, "coefficients": [[1, 0.2, 0.1], [3, 0.1, 0]]},
            "sweep": [{"parameter": "C", "range": [1, 2], "steps": 2},
                      {"parameter": "n", "range": [0, 2], "steps": 2}]}
    outputs = []
    for config, flags in ((partial, ["--force-coeff", "3:0.1:0", "--sweep", "n:0:2:2"]),
                          (full, [])):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "sweep", "--config", str(path), *flags)
        assert code == 0, err
        outputs.append(out)
    assert len(json.loads(outputs[0])["rows"]) == 4 and outputs[0] == outputs[1]

def test_schema_keys_are_the_parameter_keys():
    def keys(properties, prefix=""):
        for name, node in properties.items():
            if node.get("type") == "object":
                yield from keys(node["properties"], f"{prefix}{name}.")
            else:
                yield prefix + name
    assert sorted(keys(CONFIG_SCHEMA["properties"])) == \
        sorted(p.key for p in cli.PARAMETERS)


def test_readme_config_example(tmp_path, monkeypatch):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```json\n(.*?)```", readme.read_text(), re.S).group(1)
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)
    jsonschema.Draft202012Validator(CONFIG_SCHEMA).validate(json.loads(block))
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(block)
    cfg = cli._load_config(cli._build_parser().parse_args(
        ["sweep", "--config", "config.json"]))
    assert (cfg.format, cfg.out, cfg.n) == ("csv", "out.csv", [0, 1])
    assert [ax.parameter for ax in cfg.sweep] == ["C"] and cfg.force is not None
    assert not Path("out.csv").exists()


class TestValidateCommand:
    def test_default_run_passes_everything(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        assert "FAIL" not in out
        lines = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(lines) == 24

    def test_filtered_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--only", "rationalize",
                               "--only", "quadrature-battery")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_perturbation_canary_fails(self, capsys, monkeypatch):
        # a relative error of 1e-6 in the dynamical-phase oracle must show
        from shoberry import phase
        oracle = phase.dynamical_phase_oracle
        monkeypatch.setattr(phase, "dynamical_phase_oracle",
                            lambda *a: (1.0 + 1e-6) * oracle(*a))
        code, out, _ = run_cli(capsys, "validate",
                               "--only", "dynamical-oracle-agreement")
        assert code == 1
        assert "FAIL phase/dynamical-oracle-agreement" in out

    def test_shared_check_canary_fails_validate_and_criterion(self, capsys, monkeypatch):
        # validate and acceptance criterion 02 run one closed_vs_oracle: a
        # relative error of 1e-6 in the closed-form gamma must fail both
        from types import SimpleNamespace
        from shoberry import phase, selfcheck
        from shoberry.wavefunction import QuantumState
        closed = phase.berry_phase
        monkeypatch.setattr(phase, "berry_phase", lambda *a: SimpleNamespace(
            gamma=(1.0 + 1e-6) * closed(*a).gamma))
        code, out, _ = run_cli(capsys, "validate", "--only", "phase/closed-vs-oracle")
        assert code == 1
        assert "FAIL phase/closed-vs-oracle" in out
        state = QuantumState(Representation(1.0, 1.0, 2.0, 0.0), 1)  # a criterion 02 cell
        assert selfcheck.closed_vs_oracle([state]) > 1e-7

    def test_only_matches_printed_name_prefix(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--only", "numerics")
        assert code == 0
        names = [line.split()[1] for line in out.splitlines()[:-1]]
        assert names == ["numerics/quadrature-battery", "numerics/propagator-order",
                         "numerics/rationalize"]

    def test_only_matches_across_the_slash(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--only", "driven/xp")
        assert code == 0
        assert out.splitlines()[0].split()[:2] == ["PASS", "driven/xp-periodicity"]
        assert out.splitlines()[-1] == "1/1 checks passed"

    def test_only_is_not_matched_backwards(self, capsys):
        # a string that merely contains a check's name selects nothing
        code, out, err = run_cli(capsys, "validate", "--only", "zzrationalizezz")
        assert code == 2
        assert out == "" and "no checks matched" in err

    @pytest.mark.parametrize("argv", [("--C", "0"), ("--config", "x.json"),
                                      ("--perturb-delta",)])
    def test_run_flags_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["validate", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("berry", "--sweep", "C:1:2:3"),
    ("berry", "--omega-f", "0.5", "--force-coeff", "1:0.5:0"),
    ("trajectory", "--n", "5", "--duration", "full"),
    ("driven", "--omega-f", "0.5", "--force-coeff", "1:0.5:0", "--sweep", "C:1:2:3"),
], ids=" ".join)
def test_flag_the_command_does_not_read_exits_2(argv, capsys):
    # each would otherwise print a one-point or undriven answer and exit 0
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: unrecognized arguments: " in err


@pytest.mark.parametrize("argv", [
    ("berry", "--C", "nan"),
    ("berry", "--C", "inf"),
    ("berry", "--beta", "nan"),
    ("berry", "--M", "inf"),
    ("berry", "--hbar", "-1"),
    ("berry", "--n", "65"),
    ("driven", "--omega-f", "inf", "--force-coeff", "1:0.5:0"),
    ("driven", "--omega-f", "0.5", "--force-coeff", "1:nan:0"),
    ("driven", "--omega-f", "0.5", "--force-coeff", "1:0.5:0", "--D", "nan:0"),
    ("driven", "--omega-f", "0.61803398874989484", "--force-coeff", "1:0.5:0",
     "--D", "nan:0"),
    ("sweep", "--sweep", "C:x:1:3"),
    ("sweep", "--sweep", "C:0:1:x"),
    ("sweep", "--sweep", "C:1:2:2.5"),
    ("sweep", "--sweep", "C:1:2:2", "--sweep", "C:3:4:2"),
    ("berry", "--C", "1e200"),
    ("berry", "--C", "5e-324"),
    ("driven", "--C", "1e200", "--omega-f", "0.5", "--force-coeff", "1:0.5:0"),
    # p = 1e300 outgrows the closed drive term's floats; |f|^2 = 1e600 and
    # the square of mode 10^200 overflow
    ("driven", "--omega-f", "1e300", "--force-coeff", "1:0.5:0"),
    ("driven", "--omega-f", "0.5", "--force-coeff", "1:1e300:0"),
    ("driven", "--omega-f", "0.5", "--force-coeff", f"{10 ** 200}:0.5:0"),
], ids=" ".join)
def test_invalid_input_exits_2_without_traceback(argv, capsys):
    code, _, err = run_cli(capsys, *argv)   # an uncaught exception fails here
    assert code == 2, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


_FORCE = ("--omega-f", "0.5", "--force-coeff", "1:0.5:0")


@pytest.mark.parametrize("stiffness", [("--w", "1e160"), ("--M", "1e300", "--w", "1e10")],
                         ids=" ".join)
@pytest.mark.parametrize("argv", [
    ("berry", "--C", "2", "--beta", "0.3"),          # full mode
    ("berry", "--C", "-2", "--beta", "0.3"),         # formula-only
    ("sweep", "--sweep", "C:1:2:2", "--beta", "0.3"),
    ("sweep", "--sweep", "C:-2:-1:2", "--beta", "0.3"),
    ("driven", "--C", "2", *_FORCE),
    ("trajectory", "--C", "2", "--beta", "0.3"),
], ids=" ".join)
def test_stiffness_beyond_double_precision_exits_2(argv, stiffness, capsys):
    # M w^2 overflows: ** raises OverflowError for the first, * gives inf
    # for the second; either is one typed refusal, not a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, *stiffness)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "M w^2" in lines[0]


def test_sweep_reports_an_overflowing_period_ratio_in_its_row(capsys):
    # the one-point refusal names omega_f; a sweep reports it in its row
    code, _, err = run_cli(capsys, "driven", "--omega-f", "1e300",
                           "--force-coeff", "1:0.5:0")
    message = err[len("error: "):-1]
    assert code == 2 and message.startswith("omega_f = 1e+300 ")
    code, out, err = run_cli(capsys, "sweep", "--omega-f", "0.5",
                             "--force-coeff", "1:0.5:0",
                             "--sweep", "omega_f:0.5:1e300:2", "--format", "csv")
    assert code == 0, err
    computed, refused = out.splitlines()[1:]
    assert computed.startswith("0.5,0,") and computed.endswith(",1,2,")
    assert refused == f'1.0000000000000001e+300,,,,,,,,"{message}"'


def test_quantum_number_beyond_double_precision_is_refused(capsys):
    huge = "9" * 400
    code, out, err = run_cli(capsys, "berry", "--n", huge)
    lines = err.splitlines()
    assert code == 2 and out == ""
    assert len(lines) == 1 and lines[0].startswith("error: quantum number of 1329 bits")
    message = lines[0][len("error: "):]
    code, out, err = run_cli(capsys, "sweep", "--n", f"0,{huge}",
                             "--sweep", "C:1:2:2", "--format", "csv")
    assert code == 0, err
    assert out.splitlines()[1:] == [f'{C},,,,,,,,"{message}"' for C in (1, 2)]
    # the driven special representation needs no wavefunction, but checks n too
    code, out, err = run_cli(capsys, "driven", "--omega-f", "0.61803398874989484",
                             "--force-coeff", "1:0.5:0", "--n", huge)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("berry", "--C", "-1e-3"),
    ("berry", "--beta", "-2e-1"),
    ("driven", "--omega-f", "0.5", "--force-coeff", "1:0.5:0", "--D", "-0.3:0.1"),
], ids=" ".join)
def test_negative_exponent_values_read_as_values(argv, capsys):
    joined = (*argv[:-2], f"{argv[-2]}={argv[-1]}")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert (code, out, err) == run_cli(capsys, *joined)


def test_error_row_quoted_in_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--sweep", "C:-1:1:3",
                           "--beta", "0", "--n", "0", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith(",error")
    assert lines[1].endswith(",")            # no error: empty, unquoted
    assert lines[2].endswith('"')            # C = 0 row carries a quoted message
    assert '"C must be nonzero"' in lines[2]


def test_nonconvergence_maps_to_exit_4(monkeypatch, capsys):
    from shoberry import cli
    from shoberry.errors import ConvergenceError

    def failing_grid(*args):
        raise ConvergenceError("synthetic refinement cap")

    monkeypatch.setattr(cli, "_berry_grid", failing_grid)
    code = cli.main(["berry"])
    assert code == 4
    assert "synthetic" in capsys.readouterr().err


@pytest.mark.parametrize("name,flag", [
    ("M", "--M"), ("w", "--w"), ("hbar", "--hbar"), ("omega_f", "--omega-f")])
def test_positive_parameters_refuse_nonpositive_flags(name, flag, capsys):
    assert cli._positive in {p.convert for p in cli.PARAMETERS if p.name == name}
    for value in ("0", "-1", "nan"):
        code, _, err = run_cli(capsys, "driven", flag, value,
                               "--force-coeff", "1:0.5:0",
                               *(() if name == "omega_f" else ("--omega-f", "0.5")))
        assert code == 2 and f"{flag} must be positive" in err


def test_every_exclusive_minimum_is_enforced():
    for p in cli.PARAMETERS:
        if p.schema.get("exclusiveMinimum") == 0:
            for bad in (0, -1.0):
                with pytest.raises(ConfigError, match="positive"):
                    p.convert(bad, p.key)


def test_repeated_main_calls_match_fresh_processes(capsys):
    # the parser is built once per process; repeated flags must not pile up
    calls = [["berry", "--n", "0,1", "--C", "2", "--format", "csv"],
             ["driven", "--omega-f", "0.5", "--force-coeff", "1:0.5:0",
              "--force-coeff", "3:0.25:0", "--format", "csv"],
             ["berry", "--C", "2", "--format", "csv"]]
    in_process = []
    for argv in calls:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        in_process.append(out)
    assert cli._build_parser() is cli._build_parser()
    for argv, out in zip(calls, in_process):
        fresh = subprocess.run([sys.executable, "-m", "shoberry", *argv],
                               capture_output=True, text=True)
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout == out


def test_no_command_prints_help(capsys):
    assert main([]) == 2


def test_cli_import_leaves_scipy_unloaded():
    code = "import shoberry.cli, sys; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# 5,100 formula-only rows: far more text than a pipe buffers
_LONG_SWEEP = ["sweep", "--sweep", "C:-6:-0.2:20", "--sweep", "beta:-1.3:1.3:15",
               "--sweep", "n:0:64:17"]


# a fresh process with a block-buffered stdout, as a shell gives a pipe or file
_BUFFERED = {name: value for name, value in os.environ.items()
             if name != "PYTHONUNBUFFERED"}


def _fresh(argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "shoberry", *argv], env=_BUFFERED,
                          stderr=subprocess.PIPE, text=True, **kwargs)


def _one_error_line(stderr: str, target: str) -> None:
    assert re.fullmatch(f"error: cannot write the report to {re.escape(target)}: .+\n",
                        stderr), stderr


def test_out_that_cannot_be_opened_exits_2(tmp_path):
    out = str(tmp_path / "missing" / "x.json")
    proc = _fresh(["berry", "--C", "2", "--out", out], stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout) == (2, "")
    _one_error_line(proc.stderr, out)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_failed_write_exits_2():
    proc = _fresh([*_LONG_SWEEP, "--out", "/dev/full"], stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout) == (2, "")
    _one_error_line(proc.stderr, "/dev/full")
    short = (["berry", "--C", "2"], ["validate", "--only", "representation/wronskian"])
    for argv in (_LONG_SWEEP, *short):   # a failed write, or a failed flush
        with open("/dev/full", "w") as full:
            proc = _fresh(argv, stdout=full)
        assert proc.returncode == 2
        _one_error_line(proc.stderr, "stdout")


def test_stdout_closed_by_its_reader_ends_quietly():
    proc = subprocess.Popen([sys.executable, "-m", "shoberry", *_LONG_SWEEP], env=_BUFFERED,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert [proc.stdout.readline() for _ in range(2)] == ["{\n", '  "command": "sweep",\n']
    proc.stdout.close()
    assert proc.wait() == 141
    assert proc.stderr.read() == ""
    proc.stderr.close()
    # a reader gone before the first write: a short report fails at its flush
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _fresh(["berry", "--C", "2"], stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")
