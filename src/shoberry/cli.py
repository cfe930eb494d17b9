"""Command-line interface.

Subcommands: berry, driven, sweep, trajectory, validate. Every run parameter
is declared once, in PARAMETERS: its flag, its key in the JSON document given
with --config, its default, the one converter that both forms go through and
its schema fragment (shoberry.schemas.CONFIG_SCHEMA is assembled from the
table). A scalar flag wins over the config value; --force-coeff and --sweep
add to the config's lists. Reports go to stdout or --out as CSV or JSON;
numbers are printed round-trip exact so repeated runs are byte-identical.

Exit codes: 0 success, 2 validation or configuration error, 3 mathematically
undefined phase (resonance, incommensurate periods, non-cyclic evolution),
4 numerical non-convergence; validate exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .driven import (DrivingForce, berry_phase_special_rep, check_amplitude,
                     commensurability, berry_phase_driven,
                     drive_phase_quadrature, particular_solution)
from .errors import (ConfigError, ConvergenceError, IncommensurateError,
                     InvalidParameterError, UndefinedPhaseError)
from .phase import _oracle_batch, closed_form_overflow, closed_form_phases
from .representation import PhysicalConfig, Representation, kinematics, validate
from .selfcheck import run_battery
from .wavefunction import check_quantum_number

_DRIVEN_COLUMNS = ["n", "gamma_undriven_part", "drive_part_closed",
                   "drive_part_quadrature", "gamma_total", "p", "N"]
_FORMATS = ("csv", "json")
# What a sweep point may raise; its row reports the message and the run goes on.
_POINT_ERRORS = (InvalidParameterError, UndefinedPhaseError, ConvergenceError,
                 ArithmeticError)

_ANGLE_RE = re.compile(
    r"^\s*([+-]?)\s*(\d+)?\s*\*?\s*pi\s*(?:/\s*(\d+))?\s*$", re.IGNORECASE)


def parse_angle(value, what: str = "angle") -> float:
    """Radians from a number or a rational multiple of pi like '2pi/3'."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    text = str(value).strip()
    match = _ANGLE_RE.match(text)
    if match:
        sign = -1.0 if match.group(1) == "-" else 1.0
        num = float(match.group(2) or 1)
        den = float(match.group(3) or 1)
        if den == 0:
            raise ConfigError(f"zero denominator in {what} {value!r}")
        return sign * num * math.pi / den
    try:
        return float(text)
    except ValueError:
        raise ConfigError(
            f"cannot parse {what} {value!r}; use radians or forms like 'pi/3'"
        ) from None


@dataclass(frozen=True)
class SweepAxis:
    parameter: str
    start: float
    stop: float
    steps: int

    def values(self) -> list:
        """The axis's points; n's are rounded to integers."""
        values = np.linspace(self.start, self.stop, self.steps).tolist()
        return [int(round(v)) for v in values] if self.parameter == "n" else values


# Converters take a value in config form (a JSON value, or what a flag's text
# splits into) and the name to report, ``--C`` or ``representation.C``; they
# raise ConfigError naming it.

def _number(value, what: str) -> float:
    """A float; a bool, or a value float() refuses, is a ConfigError."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{what} must be a number, got {value!r}")


def _positive(value, what: str) -> float:
    """A number above 0, as the schema's exclusiveMinimum declares."""
    number = _number(value, what)
    if not number > 0:
        raise ConfigError(f"{what} must be positive, got {value!r}")
    return number


def _integer(value, what: str) -> int:
    """An int from an int, an integral float (JSON Schema's integer admits
    3.0) or a string of digits; fractions and bools are refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _items(value, what: str, shape: str, count: int) -> list:
    if not isinstance(value, list) or len(value) != count:
        raise ConfigError(f"{what} must be {shape}, got {value!r}")
    return value


def _quantum_numbers(value, what: str) -> list[int]:
    """Nonnegative integers. Whether the phases of each can be evaluated is
    checked per sweep point, so a sweep reports a refused n in its rows."""
    items = value if isinstance(value, list) else [value]
    if not items:
        raise ConfigError(f"{what} must be an integer or a nonempty list of integers")
    numbers = [_integer(item, what) for item in items]
    for n, item in zip(numbers, items):
        if n < 0:
            raise ConfigError(f"{what} must hold nonnegative integers, got {item!r}")
    return numbers


def _half_periods(value, what: str) -> int:
    """'half', 'full' or a positive whole number of periods, in half periods."""
    if value in ("half", "full"):
        return 1 if value == "half" else 2
    try:
        periods = _integer(value, what)
    except ConfigError:
        periods = 0
    if periods < 1:
        raise ConfigError(f"{what} must be 'half', 'full', or a positive integer"
                          f" number of periods, got {value!r}")
    return 2 * periods


def _complex(value, what: str) -> complex:
    real, imag = _items(value, what, "a [re, im] pair", 2)
    return complex(_number(real, what), _number(imag, what))


def _coefficient(value, what: str) -> tuple[int, complex]:
    n, real, imag = _items(value, what, "an [n, re, im] row", 3)
    return _integer(n, what), complex(_number(real, what), _number(imag, what))


def _axis(value, what: str) -> SweepAxis:
    try:
        parameter, bounds, steps = value["parameter"], value["range"], value["steps"]
    except (KeyError, TypeError):
        raise ConfigError(f"{what} axis needs parameter, range and steps,"
                          f" got {value!r}") from None
    if parameter not in SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter {parameter!r};"
                          f" choose from {', '.join(SWEEPABLE)}")
    start, stop = _items(bounds, f"{what} range", "a [lo, hi] pair", 2)
    axis = SweepAxis(parameter, _number(start, f"{what} range"),
                     _number(stop, f"{what} range"), _integer(steps, f"{what} steps"))
    if axis.steps < 1:
        raise ConfigError("sweep steps must be at least 1")
    return axis


def _split_axis(text: str) -> dict:
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError(f"--sweep must look like PARAM:LO:HI:STEPS, got {text!r}")
    return {"parameter": parts[0], "range": parts[1:3], "steps": parts[3]}


def _path(value, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def _format(value, what: str) -> str:
    if value not in _FORMATS:
        raise ConfigError(f"{what} must be {' or '.join(_FORMATS)}, got {value!r}")
    return value


def _samples(value, what: str) -> int:
    samples = _integer(value, what)
    if samples < 2:
        raise ConfigError("samples must be at least 2")
    return samples


@dataclass(frozen=True)
class Parameter:
    """One run parameter. ``name`` is the argparse dest; the flag is --name
    with ``_`` as ``-``, and there is none when ``help`` is None. ``key`` is
    the dotted config key, ``default`` a config-form value (None: unset), and
    ``convert(value, what)`` turns a config-form value into the run value.
    ``split`` turns a flag's text into config form (default: the text). A
    ``repeats`` flag adds items to the config's list; a ``required`` key must
    be present whenever its config section is; ``axes`` are the sweep
    parameters it provides."""
    name: str
    key: str
    default: object
    convert: Callable
    schema: dict
    help: Optional[str] = None
    split: Optional[Callable] = None
    repeats: bool = False
    required: bool = False
    axes: tuple = ()

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_PAIR = {"type": "array", "prefixItems": [_NUMBER, _NUMBER],
         "minItems": 2, "maxItems": 2}
_QUANTUM_NUMBER = {"type": "integer", "minimum": 0}
_AXIS_REF = {"$ref": "#/$defs/sweep_axis"}

PARAMETERS = (
    Parameter("M", "representation.M", 1.0, _positive, _POSITIVE, "oscillator mass"),
    Parameter("w", "representation.w", 1.0, _positive, _POSITIVE, "angular frequency"),
    Parameter("C", "representation.C", 1.0, _number, _NUMBER,
              "second-solution amplitude", axes=("C",)),
    Parameter("beta", "representation.beta", 0.0, parse_angle,
              {"oneOf": [_NUMBER, {"type": "string"}]},
              "phase angle in radians, or 'pi/3' style", axes=("beta",)),
    Parameter("hbar", "representation.hbar", 1.0, _positive, _POSITIVE,
              "reduced Planck constant"),
    Parameter("n", "n", 0, _quantum_numbers,
              {"oneOf": [_QUANTUM_NUMBER, {"type": "array", "items": _QUANTUM_NUMBER,
                                           "minItems": 1}]},
              "comma-separated quantum numbers, e.g. 0,1,2",
              split=lambda text: [part for part in text.split(",") if part.strip()],
              axes=("n",)),
    Parameter("duration", "duration", "half", _half_periods,
              {"oneOf": [{"enum": ["half", "full"]}, {"type": "integer", "minimum": 1}]},
              "'half', 'full', or an integer number of periods"),
    Parameter("D", "force.D", [0, 0], _complex, _PAIR,
              "free homogeneous amplitude as RE:IM",
              split=lambda text: text.split(":"), axes=("D_re", "D_im")),
    Parameter("omega_f", "force.omega_f", None, _positive, _POSITIVE,
              "base angular frequency of the driving force", required=True,
              axes=("omega_f",)),
    Parameter("force_coeff", "force.coefficients", [], _coefficient,
              {"type": "array",
               "items": {"type": "array",
                         "prefixItems": [{"type": "integer"}, _NUMBER, _NUMBER],
                         "minItems": 3, "maxItems": 3}},
              "Fourier coefficient f_N as N:RE:IM (conjugate mate added"
              " automatically); repeatable",
              split=lambda text: text.split(":"), repeats=True, required=True),
    Parameter("sweep", "sweep", [], _axis,
              {"oneOf": [_AXIS_REF, {"type": "array", "items": _AXIS_REF,
                                     "minItems": 1}]},
              "sweep axis as PARAM:LO:HI:STEPS; repeatable, grid is the product",
              split=_split_axis, repeats=True),
    Parameter("out", "output.path", None, _path, {"type": "string"},
              "output file (default stdout)"),
    Parameter("format", "output.format", "json", _format, {"enum": list(_FORMATS)},
              "output format, csv or json"),
    Parameter("samples", "samples", 256, _samples, {"type": "integer", "minimum": 2},
              "trajectory sample count"),
    Parameter("comm_tol", "commensurability_tolerance", 1e-13, _positive, _POSITIVE),
)

SWEEPABLE = tuple(axis for p in PARAMETERS for axis in p.axes)

AXIS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["parameter", "range", "steps"],
    "properties": {"parameter": {"enum": list(SWEEPABLE)}, "range": _PAIR,
                   "steps": {"type": "integer", "minimum": 1}},
}

_UNSET = object()


def _lookup(doc: dict, p: Parameter):
    """The config value at ``p.key``, or _UNSET."""
    section, _, name = p.key.rpartition(".")
    if section:
        if section not in doc:
            return _UNSET
        doc = doc[section]
        if not isinstance(doc, dict):
            raise ConfigError(f"config section {section} must be an object")
        if p.required and name not in doc:
            raise ConfigError(f"config section {section} needs {name}")
    return doc.get(name, _UNSET)


def _resolve(p: Parameter, args, doc: dict):
    """The flag's value, else the config's, else the default, converted; a
    repeating parameter gives the config's items followed by the flags'."""
    given = getattr(args, p.name, None)
    value = _lookup(doc, p)
    if p.repeats:
        if value is _UNSET:
            value = p.default
        items = value if isinstance(value, list) else [value]
        return [p.convert(item, p.key) for item in items] + \
            [p.convert(p.split(text), p.flag) for text in given or ()]
    if given is not None:
        return p.convert(p.split(given) if p.split else given, p.flag)
    if value is not _UNSET:
        return p.convert(value, p.key)
    return None if p.default is None else p.convert(p.default, p.key)


def _build_force(omega_f: float, entries) -> DrivingForce:
    table: dict[int, complex] = {}
    for n, f in entries:
        if n in table and table[n] != f:
            raise ConfigError(f"conflicting coefficients for mode {n}")
        table[n] = f
    for n, f in list(table.items()):
        table.setdefault(-n, f.conjugate())
    return DrivingForce(omega_f=omega_f, coefficients=table)


def _load_config(args) -> argparse.Namespace:
    """Every parameter of the table by name, plus the objects the commands
    share: ``rep``, ``physical`` and ``force`` (None without one)."""
    doc = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
    cfg = argparse.Namespace(**{p.name: _resolve(p, args, doc) for p in PARAMETERS})
    cfg.rep = Representation(M=cfg.M, w=cfg.w, C=cfg.C, beta=cfg.beta)
    cfg.physical = PhysicalConfig(hbar=cfg.hbar)
    cfg.force = None
    if cfg.force_coeff or cfg.omega_f is not None:
        if cfg.omega_f is None:
            raise ConfigError("force coefficients given without --omega-f")
        cfg.force = _build_force(cfg.omega_f, cfg.force_coeff)
    return cfg


# A report is a column table: column name -> numpy array, or a list where
# cells are None or strings. Its columns are the table's keys, in order.

_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cell(value) -> str:
    """json.dumps's spelling of one cell."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    text = float.__repr__(value)
    return _JSON_NON_FINITE.get(text, text)


def _json_column(values) -> list[str]:
    kind = values.dtype.kind if isinstance(values, np.ndarray) else None
    if kind in ("i", "u"):
        return list(map(int.__repr__, values.tolist()))
    if kind == "f":
        cells = list(map(float.__repr__, values.tolist()))
        if np.isfinite(values).all():
            return cells
        return [_JSON_NON_FINITE.get(cell, cell) for cell in cells]
    return list(map(_json_cell, values.tolist() if kind else values))


def _render_json(command: str, table: dict, extra=None) -> str:
    """Byte for byte what json.dumps(doc, indent=2) prints for the report
    document with one object per row, written column by column."""
    doc = {"command": command, "columns": list(table), **(extra or {}), "rows": []}
    head = json.dumps(doc, indent=2)
    cells = [_json_column(values) for values in table.values()]
    if not cells[0]:
        return head + "\n"
    row = "    {\n" + ",\n".join(
        "      " + encode_basestring_ascii(name).replace("%", "%%") + ": %s"
        for name in table) + "\n    }"
    body = ",\n".join(map(row.__mod__, zip(*cells)))
    return head[:-len("[]\n}")] + "[\n" + body + "\n  ]\n}\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return int.__repr__(value)
    return "%.17g" % value


def _csv_column(name: str, values) -> list[str]:
    if name == "error":
        return ['"%s"' % value.replace('"', '""') if value else ""
                for value in values]
    kind = values.dtype.kind if isinstance(values, np.ndarray) else None
    if kind in ("i", "u"):
        return list(map(int.__repr__, values.tolist()))
    if kind == "f":
        return list(map("%.17g".__mod__, values.tolist()))
    return list(map(_csv_cell, values.tolist() if kind else values))


def _render_csv(table: dict) -> str:
    cells = [_csv_column(name, values) for name, values in table.items()]
    lines = [",".join(table), *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"


def _deliver(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)


def _emit(command: str, table: dict, cfg, extra=None) -> None:
    if cfg.format == "csv":
        text = _render_csv(table)
    else:
        text = _render_json(command, table, extra)
    _deliver(text, cfg.out)


def _point_index(axes) -> np.ndarray:
    """Row i: the index of axis i's value at every point of the product of
    ``axes``, the last axis fastest. This is the one point order of a grid
    and of its report."""
    steps = [ax.steps for ax in axes]
    return np.indices(steps).reshape(len(steps), math.prod(steps))


def _with_nulls(values: np.ndarray, present: np.ndarray):
    """``values``, or a list with None in the rows not ``present``."""
    if present.all():
        return values
    return [value if ok else None
            for value, ok in zip(values.tolist(), present.tolist())]


def _berry_grid(cfg, axes):
    """Berry columns at every point of the product of ``axes`` (C, beta and
    n; none for the berry command), as (columns, present, errors).

    A point has one row per quantum number: its own when n is an axis, else
    every n of cfg.n, fastest. ``columns`` maps each berry column to a
    (points, rows per point) array; ``present`` marks, per point, the oracle
    columns that hold a value; ``errors`` holds each point's exception or
    None. A Representation is built once per (C, beta) cell and each n is
    checked once, so refusals read as they do for the berry command; the
    closed forms of every row are one closed_form_phases expression, and the
    points whose cells have omega > 0 make one batched oracle call per tuple
    of quantum numbers. A point's first error wins: its cell's, then its
    quantum numbers' in order (refused, or closed forms that overflow), then
    the oracle's, which is the message a one-point call raises.
    """
    values = {ax.parameter: ax.values() for ax in axes}
    points = math.prod(ax.steps for ax in axes)
    index = dict(zip(values, _point_index(axes)))
    C_at, beta_at = (index.get(name, np.zeros(points, dtype=int)) for name in ("C", "beta"))
    Cs, betas = values.get("C", [cfg.rep.C]), values.get("beta", [cfg.rep.beta])
    cells = []
    for C in Cs:
        for beta in betas:
            try:
                cells.append(Representation(M=cfg.rep.M, w=cfg.rep.w, C=C, beta=beta))
            except InvalidParameterError as exc:
                cells.append(exc)
    cell = C_at * len(betas) + beta_at
    ns = values.get("n", cfg.n)
    slot = index["n"][:, None] if "n" in index else np.tile(np.arange(len(ns)), (points, 1))
    n_errors, n_values = [], np.zeros(len(ns))
    for i, n in enumerate(ns):
        try:
            n_values[i] = float(check_quantum_number(n))
            n_errors.append(None)
        except InvalidParameterError as exc:
            n_errors.append(exc)
    chi, delta, gamma, canonical = closed_form_phases(
        np.array(Cs)[C_at][:, None],
        np.array([math.cos(beta) for beta in betas])[beta_at][:, None],
        n_values[slot], cfg.duration)
    slot_bad = np.array([e is not None for e in n_errors])[slot] | ~np.isfinite(canonical)
    cell_bad = np.array([isinstance(c, Exception) for c in cells])
    errors = [None] * points
    for p in np.flatnonzero(cell_bad[cell] | slot_bad.any(axis=1)).tolist():
        rep = cells[cell[p]]
        if isinstance(rep, Exception):
            errors[p] = rep
            continue
        k = int(slot[p, np.argmax(slot_bad[p])])
        errors[p] = n_errors[k] or closed_form_overflow(rep.C, rep.beta, ns[k])
    full = np.array([not bad and validate(c, "full").ok
                     for c, bad in zip(cells, cell_bad)])
    oracle = np.zeros(chi.shape)
    has_oracle = np.zeros(points, dtype=bool)
    groups = {}   # the full-mode points of each tuple of quantum numbers
    for p in np.flatnonzero(full[cell]).tolist():
        if errors[p] is None:
            groups.setdefault(tuple(ns[k] for k in slot[p].tolist()), []).append(p)
    for group_ns, group in groups.items():
        reps = [cells[cell[p]] for p in group]
        results = _oracle_batch(reps, group_ns, cfg.duration * 0.5 * reps[0].tau0,
                                cfg.physical)
        for p, result in zip(group, results):
            if isinstance(result, Exception):
                errors[p] = result
            else:
                oracle[p] = result
                has_oracle[p] = True
    columns = {"n": np.array(ns)[slot], "chi": chi, "delta": delta,
               "gamma": gamma, "gamma_canonical": canonical,
               "oracle_gamma": oracle, "abs_diff": np.abs(gamma - oracle)}
    return columns, {"oracle_gamma": has_oracle, "abs_diff": has_oracle}, errors


def _driven_table(rep, physical, ns, force, D, comm_tol) -> dict:
    D = check_amplitude(D)   # before the D == 0 test of the fallback below
    try:
        comm = commensurability(rep.tau0, force.tau_f, comm_tol)
    except IncommensurateError:
        if D == 0 and rep.C == 1.0 and rep.beta == 0.0:
            # Stationary-based special representation: the phase over one
            # force period exists for any periodic drive. p = N = 0 marks
            # the tau_f duration in the report. Each n is still checked, as
            # berry_phase_driven checks it on the other path.
            ns = [check_quantum_number(n) for n in ns]
            gamma = berry_phase_special_rep(force, rep.M, rep.w, physical.hbar)
            xp = particular_solution(force, rep, None, 0j)
            quad = drive_phase_quadrature(xp, rep.M, physical.hbar, force.tau_f)
            k = len(ns)
            return {"n": [int(n) for n in ns], "gamma_undriven_part": [0.0] * k,
                    "drive_part_closed": [gamma] * k,
                    "drive_part_quadrature": [quad] * k, "gamma_total": [gamma] * k,
                    "p": [0] * k, "N": [0] * k}
        raise
    results = [berry_phase_driven(rep, int(n), force, D, comm, physical) for n in ns]
    return {"n": [int(n) for n in ns],
            "gamma_undriven_part": [r.gamma_undriven for r in results],
            "drive_part_closed": [r.drive_closed for r in results],
            "drive_part_quadrature": [r.drive_quadrature for r in results],
            "gamma_total": [r.gamma_total for r in results],
            "p": [int(r.p) for r in results], "N": [int(r.N) for r in results]}


def _driven_grid(cfg, axes):
    """Driven columns at every point of the product of ``axes``, as
    _berry_grid gives berry columns; each point goes through _driven_table."""
    values = [ax.values() for ax in axes]
    per_point = 1 if any(ax.parameter == "n" for ax in axes) else len(cfg.n)
    parts, errors = [], []
    for combo in _point_index(axes).T.tolist():
        point = {ax.parameter: vals[i] for ax, vals, i in zip(axes, values, combo)}
        omega_f = point.get("omega_f", cfg.force.omega_f)
        try:
            rep = Representation(M=cfg.rep.M, w=cfg.rep.w, C=point.get("C", cfg.rep.C),
                                 beta=point.get("beta", cfg.rep.beta))
            force = cfg.force if omega_f == cfg.force.omega_f else \
                DrivingForce(omega_f, cfg.force.coefficients)
            part = _driven_table(
                rep, cfg.physical, [point["n"]] if "n" in point else cfg.n, force,
                complex(point.get("D_re", cfg.D.real), point.get("D_im", cfg.D.imag)),
                cfg.comm_tol)
        except _POINT_ERRORS as exc:
            part = dict.fromkeys(_DRIVEN_COLUMNS, [0] * per_point)
            errors.append(exc)
        else:
            errors.append(None)
        parts.append(part)
    columns = {name: np.array([v for part in parts for v in part[name]]).reshape(
        len(parts), per_point) for name in _DRIVEN_COLUMNS}
    return columns, {}, errors


def _sweep_table(axes, columns: dict, present: dict, errors: list) -> dict:
    """The report of a grid: each axis's value, each column of ``columns``
    that no axis provides, then ``error``. A point with an error keeps one
    row, with null columns and its message."""
    points, per_point = next(iter(columns.values())).shape
    failed = np.array([e is not None for e in errors], dtype=bool)
    keep = np.ones((points, per_point), dtype=bool)
    keep[failed, 1:] = False
    keep = keep.ravel()
    table = {}
    for ax, index in zip(axes, _point_index(axes)):
        table[ax.parameter] = np.repeat(np.array(ax.values())[index], per_point)[keep]
    for name, values in columns.items():
        if name not in table:
            ok = ~failed & present.get(name, True)
            table[name] = _with_nulls(values.ravel()[keep], np.repeat(ok, per_point)[keep])
    table["error"] = []
    for error in errors:
        table["error"] += [None] * per_point if error is None else [str(error)]
    return table


def cmd_berry(args) -> int:
    cfg = _load_config(args)
    columns, present, errors = _berry_grid(cfg, ())
    if errors[0] is not None:
        raise errors[0]
    table = _sweep_table((), columns, present, errors)
    del table["error"]
    _emit("berry", table, cfg, extra={"duration": cfg.duration * 0.5 * cfg.rep.tau0})
    return 0


def cmd_driven(args) -> int:
    cfg = _load_config(args)
    if cfg.force is None:
        raise ConfigError("the driven command needs a force section"
                          " (--omega-f plus --force-coeff, or config JSON)")
    _emit("driven", _driven_table(cfg.rep, cfg.physical, cfg.n, cfg.force, cfg.D,
                                  cfg.comm_tol), cfg)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if not cfg.sweep:
        raise ConfigError("the sweep command needs a sweep section")
    axis_names = [ax.parameter for ax in cfg.sweep]
    for name in axis_names:
        if axis_names.count(name) > 1:
            raise ConfigError(f"sweep parameter {name} is given more than once")
    driven_mode = cfg.force is not None
    force_axes = {name for p in PARAMETERS if p.key.startswith("force.")
                  for name in p.axes}
    unforced = [name for name in axis_names if name in force_axes]
    if unforced and not driven_mode:
        raise ConfigError(f"sweeping {unforced[0]} needs a force section")
    grid = _driven_grid if driven_mode else _berry_grid
    _emit("sweep", _sweep_table(cfg.sweep, *grid(cfg, cfg.sweep)), cfg)
    return 0


def cmd_trajectory(args) -> int:
    cfg = _load_config(args)
    ts = np.linspace(0.0, cfg.rep.tau0, cfg.samples)
    u, v, _, _, r, _ = kinematics(cfg.rep, ts)
    _emit("trajectory", {"t": ts, "u": u, "v": v, "rho": r}, cfg)
    return 0


def cmd_validate(args) -> int:
    scale = 1.0 + 1e-6 if args.perturb_delta else 1.0
    results = run_battery(delta_scale=scale, only=args.only or None)
    if not results:
        print("no checks matched the --only filter", file=sys.stderr)
        return 2
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        line = f"{'PASS' if r.ok else 'FAIL'} {r.name:<{width}}" \
               f"  max_dev={r.max_dev:.3e}  tol={r.tol:.1e}"
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
        failures += 0 if r.ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="shoberry",
        description="Berry phases of the simple harmonic oscillator in"
                    " classical-solution representations")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    for p in PARAMETERS:
        if p.help:
            common.add_argument(p.flag, dest=p.name, help=p.help,
                                action="append" if p.repeats else "store")

    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    specs = (
        ("berry", cmd_berry, "closed-form and oracle Berry phases"),
        ("driven", cmd_driven, "Berry phase of the periodically driven oscillator"),
        ("sweep", cmd_sweep, "tabulate phases over a parameter grid"),
        ("trajectory", cmd_trajectory, "dump the (u, v) representation curve"),
    )
    for name, func, help_text in specs:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
    v = sub.add_parser("validate", parents=[common],
                       help="run the self-validation battery")
    v.add_argument("--only", action="append", metavar="NAME",
                   help="run only checks whose name contains NAME; repeatable")
    v.add_argument("--perturb-delta", action="store_true",
                   help=argparse.SUPPRESS)  # sensitivity canary for tests
    v.set_defaults(func=cmd_validate)
    return parser


# A negative number in exponent form, like -1e-3 or -.5e2, or a value that
# starts with one, like the D pair -0.3:0.1. argparse takes only -1 and -0.5
# for numbers and reads the rest as options; no shoberry flag looks like this.
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argv with every negative value written as --flag=value after its flag."""
    out = []
    for token in argv:
        if (out and _NEGATIVE_VALUE.match(token) and out[-1].startswith("--")
                and "=" not in out[-1]):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(
        sys.argv[1:] if argv is None else list(argv)))
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UndefinedPhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
