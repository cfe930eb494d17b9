"""Checks on the reference pass of a workload, run in the parent process.

The worker dumps the outputs of its reference pass, with a manifest of the
requests, to a directory (see ``Workload.write_reference``).
``check_reference`` re-parses every report, counts its rows, validates JSON
reports against ``shoberry.schemas.RESULT_SCHEMA``, recomputes the closed
forms, and holds every row to the program's existing gate. Malformed or
inconsistent output raises CheckError and fails the run; a gate breach is
counted, not raised.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from jsonschema import Draft202012Validator
from shoberry.schemas import RESULT_SCHEMA
from workloads import CheckError

# Existing gates of the program. None is loosened here.
ORACLE_GATE = 1e-7           # |gamma - oracle_gamma|
DRIVE_GATE = 1e-8            # |closed - quadrature| / |closed|
OVERLAP_GATE = 1.0 - 1e-6    # |<analytic(T)|propagated(T)>|

# Tolerances of the benchmark's own recomputation of closed forms. They allow
# for summation-order changes in the program, not for wrong formulas.
CLOSED_FORM_TOL = 1e-12
TRAJECTORY_TOL = 1e-12


def _num(value):
    """A report cell as float, or None when empty or null."""
    if value is None or value == "":
        return None
    return float(value)


def _parse(req: dict, text: str) -> list[dict]:
    """The report's rows. A point holds ``per_point`` rows, or one row with
    ``error`` set when it raised."""
    fmt = req["argv"][req["argv"].index("--format") + 1]
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text, newline="")))
    else:
        report = json.loads(text)
        errors = list(Draft202012Validator(RESULT_SCHEMA).iter_errors(report))
        if errors:
            raise CheckError(f"report breaks RESULT_SCHEMA: {errors[0].message}")
        rows = report["rows"]
    raised = sum(1 for row in rows if row.get("error"))
    expected = req["points"] * req["per_point"] - raised * (req["per_point"] - 1)
    if len(rows) != expected:
        raise CheckError(f"{len(rows)} rows, expected {expected}:"
                         f" {' '.join(req['argv'])}")
    return rows


def _check_berry_row(row) -> None:
    """The closed-form columns against the benchmark's own formula."""
    C, beta, n = float(row["C"]), float(row["beta"]), int(row["n"])
    chi, delta, gamma = _num(row["chi"]), _num(row["delta"]), _num(row["gamma"])
    expected = (n + 0.5) * math.pi * ((1.0 + C * C) / (2.0 * C * math.cos(beta)) - 1.0)
    scale = abs(chi) + abs(delta)
    if not (abs(chi + (n + 0.5) * math.pi) <= CLOSED_FORM_TOL * scale
            and abs(gamma - (chi - delta)) <= CLOSED_FORM_TOL * scale
            and abs(gamma - expected) <= CLOSED_FORM_TOL * scale
            and 0.0 <= _num(row["gamma_canonical"]) < 2.0 * math.pi):
        raise CheckError(f"closed forms wrong at C={C!r} beta={beta!r} n={n}")


def _oracle_row(req, row) -> bool:
    _check_berry_row(row)
    gamma, oracle, diff = (_num(row[k]) for k in ("gamma", "oracle_gamma", "abs_diff"))
    if oracle is None or diff != abs(gamma - oracle):
        raise CheckError(f"oracle columns inconsistent: {row}")
    return abs(gamma - oracle) <= ORACLE_GATE


def _formula_row(req, row) -> bool:
    _check_berry_row(row)
    if _num(row["oracle_gamma"]) is not None or _num(row["abs_diff"]) is not None:
        raise CheckError("formula-only row carries an oracle value")
    return True


def _trajectory_row(req, row) -> bool:
    argv = req["argv"]
    C = float(argv[argv.index("--C") + 1])
    beta = float(argv[argv.index("--beta") + 1])
    t, u, v, r = (float(row[k]) for k in ("t", "u", "v", "rho"))
    if not (abs(u - math.cos(t)) <= TRAJECTORY_TOL
            and abs(v - C * math.sin(t + beta)) <= TRAJECTORY_TOL * (1 + abs(C))
            and abs(r - math.hypot(u, v)) <= TRAJECTORY_TOL * (1 + abs(C))):
        raise CheckError(f"trajectory sample wrong at t={t!r}")
    return True


def _driven_row(req, row) -> bool:
    closed, quad, undriven, total = (_num(row[k]) for k in (
        "drive_part_closed", "drive_part_quadrature",
        "gamma_undriven_part", "gamma_total"))
    if [int(row["p"]), int(row["N"])] != req["pN"] or \
            abs(total - (undriven + closed)) > CLOSED_FORM_TOL * (abs(undriven) + abs(closed)):
        raise CheckError(f"driven row inconsistent: {row}")
    return abs(closed - quad) <= DRIVE_GATE * abs(closed)


ROW_CHECKS = {"oracle": _oracle_row, "formula": _formula_row,
              "trajectory": _trajectory_row, "driven": _driven_row}


def _propagation_passes(text: str) -> bool:
    fields = dict(line.split(" ", 1) for line in text.splitlines())
    if sorted(fields) != ["fidelity", "state_sha256"]:
        raise CheckError(f"propagation output malformed: {text!r}")
    return float(fields["fidelity"]) >= OVERLAP_GATE


def check_reference(directory: Path) -> tuple[int, int]:
    """Validate a dumped reference pass; return (rows attempted, rows failed).

    A row fails when it raised (its ``error`` is set) or broke its gate. A
    point that raised stands for ``per_point`` rows, all failed, so the number
    of rows attempted is the same for every seed."""
    requests = json.loads((directory / "requests.json").read_text(encoding="utf-8"))
    attempted = failed = 0
    for i, req in enumerate(requests):
        with open(directory / f"{i:03d}.out", encoding="utf-8", newline="") as f:
            text = f.read()
        if req["kind"] == "propagation":
            attempted += 1
            failed += not _propagation_passes(text)
            continue
        for row in _parse(req, text):
            if row.get("error"):
                attempted += req["per_point"]
                failed += req["per_point"]
            else:
                attempted += 1
                failed += not ROW_CHECKS[req["kind"]](req, row)
    return attempted, failed
