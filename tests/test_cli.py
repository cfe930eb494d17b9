import json
import math
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from shoberry.cli import main, parse_angle
from shoberry.errors import ConfigError
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
        for text in ("{not json", '{"n": true}'):
            path.write_text(text)
            code, _, _ = run_cli(capsys, "berry", "--config", str(path))
            assert code == 2


class TestValidateCommand:
    def test_default_run_passes_everything(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        assert "FAIL" not in out
        lines = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(lines) >= 25

    def test_filtered_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--only", "rationalize",
                               "--only", "unwrap")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_perturbation_canary_fails(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--perturb-delta",
                               "--only", "dynamical-oracle-agreement")
        assert code == 1
        assert "FAIL phase/dynamical-oracle-agreement" in out


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
], ids=" ".join)
def test_invalid_input_exits_2_without_traceback(argv, capsys):
    code, _, err = run_cli(capsys, *argv)   # an uncaught exception fails here
    assert code == 2, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


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

    real_build = cli._build_parser

    def build_with_failing_command():
        parser = real_build()
        sub = parser._subparsers._group_actions[0]
        failing = sub.choices["berry"]
        failing.set_defaults(func=lambda args: (_ for _ in ()).throw(
            ConvergenceError("synthetic refinement cap")))
        return parser

    monkeypatch.setattr(cli, "_build_parser", build_with_failing_command)
    code = cli.main(["berry"])
    assert code == 4
    assert "synthetic" in capsys.readouterr().err


def test_no_command_prints_help(capsys):
    assert main([]) == 2


def test_cli_import_leaves_scipy_unloaded():
    code = "import shoberry.cli, sys; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
