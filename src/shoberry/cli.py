"""Command-line interface.

Subcommands: berry, driven, sweep, trajectory, validate. Every run parameter
is declared once, in PARAMETERS: its flag and the commands that take it, its
key in the JSON document given with --config, its default, the one converter
that both forms go through and its schema fragment
(shoberry.schemas.CONFIG_SCHEMA is assembled from the table). A scalar flag
wins over the config value; --force-coeff and --sweep add to the config's
lists. Reports go to stdout or --out as CSV or JSON;
numbers are printed round-trip exact so repeated runs are byte-identical.

Exit codes: 0 success, 2 validation or configuration error or a report that
cannot be written, 3 mathematically undefined phase (resonance,
incommensurate periods, non-cyclic evolution), 4 numerical non-convergence,
141 a stdout closed by its reader (quietly, as SIGPIPE would end a writer);
validate exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .driven import (DrivingForce, berry_phases_driven, check_amplitude,
                     commensurability)
from .errors import (POINT_ERRORS, ConfigError, ConvergenceError, IncommensurateError,
                     InvalidParameterError, OutputError, UndefinedPhaseError)
from .phase import _oracle_batch, closed_form_overflow, closed_form_phases
from .representation import PhysicalConfig, Representation, kinematics
from .wavefunction import check_quantum_number

_FORMATS = ("csv", "json")
_DRIVEN_COLUMNS = {"gamma_undriven_part": "gamma_undriven",
                   "drive_part_closed": "drive_closed",
                   "drive_part_quadrature": "drive_quadrature",
                   "gamma_total": "gamma_total", "p": "p", "N": "N"}

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
        """The axis's points, the given start first (np.linspace would turn
        a -0.0 start into 0.0); n's are rounded to integers."""
        values = np.linspace(self.start, self.stop, self.steps).tolist()
        values[0] = self.start
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


_RUN_COMMANDS = ("berry", "driven", "sweep", "trajectory")


@dataclass(frozen=True)
class Parameter:
    """One run parameter. ``name`` is the argparse dest; the flag is --name
    with ``_`` as ``-``, and there is none when ``help`` is None. ``key`` is
    the dotted config key, ``default`` a config-form value (None: unset), and
    ``convert(value, what)`` turns a config-form value into the run value.
    ``split`` turns a flag's text into config form (default: the text). A
    ``repeats`` flag adds items to the config's list; a ``required`` key must
    be present whenever its config section is; ``axes`` are the sweep
    parameters it provides. Only the ``commands`` that read the parameter
    take its flag; every command reads its config key."""
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
    commands: tuple = _RUN_COMMANDS

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_PAIR = {"type": "array", "prefixItems": [_NUMBER, _NUMBER],
         "minItems": 2, "maxItems": 2}
_QUANTUM_NUMBER = {"type": "integer", "minimum": 0}
_AXIS_REF = {"$ref": "#/$defs/sweep_axis"}
_PHASE_COMMANDS = ("berry", "driven", "sweep")
_FORCE_COMMANDS = ("driven", "sweep")

PARAMETERS = (
    Parameter("M", "representation.M", 1.0, _positive, _POSITIVE, "oscillator mass"),
    Parameter("w", "representation.w", 1.0, _positive, _POSITIVE, "angular frequency"),
    Parameter("C", "representation.C", 1.0, _number, _NUMBER,
              "second-solution amplitude", axes=("C",)),
    Parameter("beta", "representation.beta", 0.0, parse_angle,
              {"oneOf": [_NUMBER, {"type": "string"}]},
              "phase angle in radians, or 'pi/3' style", axes=("beta",)),
    Parameter("hbar", "representation.hbar", 1.0, _positive, _POSITIVE,
              "reduced Planck constant", commands=_PHASE_COMMANDS),
    Parameter("n", "n", 0, _quantum_numbers,
              {"oneOf": [_QUANTUM_NUMBER, {"type": "array", "items": _QUANTUM_NUMBER,
                                           "minItems": 1}]},
              "comma-separated quantum numbers, e.g. 0,1,2",
              split=lambda text: [part for part in text.split(",") if part.strip()],
              axes=("n",), commands=_PHASE_COMMANDS),
    Parameter("duration", "duration", "half", _half_periods,
              {"oneOf": [{"enum": ["half", "full"]}, {"type": "integer", "minimum": 1}]},
              "'half', 'full', or an integer number of periods",
              commands=("berry", "sweep")),
    Parameter("D", "force.D", [0, 0], _complex, _PAIR,
              "free homogeneous amplitude as RE:IM",
              split=lambda text: text.split(":"), axes=("D_re", "D_im"),
              commands=_FORCE_COMMANDS),
    Parameter("omega_f", "force.omega_f", None, _positive, _POSITIVE,
              "base angular frequency of the driving force", required=True,
              axes=("omega_f",), commands=_FORCE_COMMANDS),
    Parameter("force_coeff", "force.coefficients", [], _coefficient,
              {"type": "array",
               "items": {"type": "array",
                         "prefixItems": [{"type": "integer"}, _NUMBER, _NUMBER],
                         "minItems": 3, "maxItems": 3}},
              "Fourier coefficient f_N as N:RE:IM (conjugate mate added"
              " automatically); repeatable",
              split=lambda text: text.split(":"), repeats=True, required=True,
              commands=_FORCE_COMMANDS),
    Parameter("sweep", "sweep", [], _axis,
              {"oneOf": [_AXIS_REF, {"type": "array", "items": _AXIS_REF,
                                     "minItems": 1}]},
              "sweep axis as PARAM:LO:HI:STEPS; repeatable, grid is the product",
              split=_split_axis, repeats=True, commands=("sweep",)),
    Parameter("out", "output.path", None, _path, {"type": "string"},
              "output file (default stdout)"),
    Parameter("format", "output.format", "json", _format, {"enum": list(_FORMATS)},
              "output format, csv or json"),
    Parameter("samples", "samples", 256, _samples, {"type": "integer", "minimum": 2},
              "trajectory sample count", commands=("trajectory",)),
    Parameter("comm_tol", "commensurability_tolerance", 1e-13, _positive, _POSITIVE,
              commands=_FORCE_COMMANDS),
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
    share: ``rep``, ``physical`` and ``force`` (None without one), and
    ``given``, the names of the parameters a flag or the config sets."""
    doc = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
    cfg = argparse.Namespace(**{p.name: _resolve(p, args, doc) for p in PARAMETERS})
    cfg.given = {p.name for p in PARAMETERS
                 if getattr(args, p.name, None) is not None or _lookup(doc, p) is not _UNSET}
    cfg.rep = Representation(M=cfg.M, w=cfg.w, C=cfg.C, beta=cfg.beta)
    cfg.physical = PhysicalConfig(hbar=cfg.hbar)
    cfg.force = None
    if cfg.force_coeff or cfg.omega_f is not None:
        if cfg.omega_f is None:
            raise ConfigError("force coefficients given without --omega-f")
        cfg.force = _build_force(cfg.omega_f, cfg.force_coeff)
    return cfg


# A report is a column table: column name -> numpy array, a list where cells
# are None or strings, or a Factored column. Its columns are the table's keys,
# in order. A renderer fills one row template per report, in which plain
# float and int columns are fields of their own and other columns are
# spelled first, and yields the report in pieces of at most _BLOCK_ROWS rows,
# so the text held at once stays bounded whatever the row count.

_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class Factored:
    """A column whose row i holds ``values[index[i]]``: ``values`` is a numpy
    array or a list of cells, each stored once; ``index`` an int array with
    one entry per row, or per (point, row of the point) in a grid's columns."""
    values: object
    index: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.index.shape

    def __len__(self) -> int:
        return len(self.index)


def _gather(column: Factored, spec: str, field: Callable) -> tuple[str, Callable]:
    """The field of a Factored column: its values spelled once through their
    own ``spec`` and ``field``, and gathered by its index in each block."""
    cells = np.array([spec % (value,) for value in field(slice(None))], dtype=object)
    return "%s", lambda rows: cells[column.index[rows]].tolist()


def _format_rows(template: str, separator: str, fields, rows: int):
    """``template`` filled once per row and joined by ``separator``, yielded
    in pieces of at most _BLOCK_ROWS rows; each of ``fields`` gives one
    column's values in a block (a slice) of rows, in row order."""
    for start in range(0, rows, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        cells = zip(*[field(block) for field in fields])
        yield (separator if start else "") + separator.join(
            [template] * min(_BLOCK_ROWS, rows - start)) % tuple(
            itertools.chain.from_iterable(cells))


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


def _json_field(values) -> tuple[str, Callable]:
    """A column's field in the JSON row template, and the function from a
    block of rows (a slice) to the values the field takes there.
    float.__repr__ (%r) and int.__repr__ (%d) are json.dumps's spellings of
    finite floats and of ints; a Factored column's values are spelled once."""
    if isinstance(values, Factored):
        return _gather(values, *_json_field(values.values))
    kind = values.dtype.kind if isinstance(values, np.ndarray) else None
    if kind in ("i", "u"):
        return "%d", lambda rows: values[rows].tolist()
    if kind == "f":
        if np.isfinite(values).all():
            return "%r", lambda rows: values[rows].tolist()
        return "%s", lambda rows: [_JSON_NON_FINITE.get(cell, cell) for cell in
                                   map(float.__repr__, values[rows].tolist())]
    return "%s", lambda rows: list(map(
        _json_cell, values[rows].tolist() if kind else values[rows]))


def _render_json(command: str, table: dict, extra=None):
    """Byte for byte what json.dumps(doc, indent=2) prints for the report
    document with one object per row, in pieces."""
    doc = {"command": command, "columns": list(table), **(extra or {}), "rows": []}
    head = json.dumps(doc, indent=2)
    rows = len(next(iter(table.values())))
    if not rows:
        yield head + "\n"
        return
    specs, fields = zip(*map(_json_field, table.values()))
    row = "    {\n" + ",\n".join(
        "      " + encode_basestring_ascii(name).replace("%", "%%") + ": " + spec
        for name, spec in zip(table, specs)) + "\n    }"
    yield head[:-len("[]\n}")] + "[\n"
    yield from _format_rows(row, ",\n", fields, rows)
    yield "\n  ]\n}\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return int.__repr__(value)
    return "%.17g" % value


def _csv_field(name: str, values) -> tuple[str, Callable]:
    """A column's field in the CSV row template, and the function from a
    block of rows (a slice) to the values the field takes there; a Factored
    column's values are spelled once."""
    if isinstance(values, Factored):
        return _gather(values, *_csv_field(name, values.values))
    if name == "error":
        return "%s", lambda rows: ['"%s"' % value.replace('"', '""') if value else ""
                                   for value in values[rows]]
    kind = values.dtype.kind if isinstance(values, np.ndarray) else None
    if kind in ("i", "u"):
        return "%d", lambda rows: values[rows].tolist()
    if kind == "f":
        return "%.17g", lambda rows: values[rows].tolist()
    return "%s", lambda rows: list(map(
        _csv_cell, values[rows].tolist() if kind else values[rows]))


def _render_csv(table: dict):
    """The CSV report, in pieces: the header line, then blocks of rows."""
    specs, fields = zip(*map(_csv_field, table, table.values()))
    yield ",".join(table) + "\n"
    yield from _format_rows(",".join(specs) + "\n", "", fields,
                            len(next(iter(table.values()))))


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the flush at
    exit does not fail again on what a failed write left in its buffer."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _deliver(pieces, out: Optional[str]) -> None:
    """Write each piece of a report to ``out``, or to stdout, as it is made.
    A stdout closed by its reader raises BrokenPipeError; any other failed
    open or write is an OutputError."""
    try:
        if out:
            with open(out, "w", encoding="utf-8", newline="") as stream:
                stream.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
    except OSError as exc:
        if not out:
            if isinstance(exc, BrokenPipeError):
                raise
            _discard_stdout()
        raise OutputError(f"cannot write the report to {out or 'stdout'}:"
                          f" {exc.strerror or exc}") from None


def _emit(command: str, table: dict, cfg, extra=None) -> None:
    if cfg.format == "csv":
        pieces = _render_csv(table)
    else:
        pieces = _render_json(command, table, extra)
    _deliver(pieces, cfg.out)


def _point_index(axes) -> np.ndarray:
    """Row i: the index of axis i's value at every point of the product of
    ``axes``, the last axis fastest. This is the one point order of a grid
    and of its report."""
    steps = [ax.steps for ax in axes]
    return np.indices(steps).reshape(len(steps), math.prod(steps))


def _constant(value, rows: int) -> Factored:
    """A column of ``rows`` rows that all hold ``value``: one stored cell and
    a zero-stride index, so no array grows with the rows."""
    return Factored([value], np.broadcast_to(0, (rows,)))


def _with_nulls(values, present: np.ndarray):
    """``values``, with None in the rows not ``present``: one more value of
    a Factored column, else a list. Some row must be present."""
    if present.all():
        return values
    if isinstance(values, Factored):
        cells = values.values
        cells = cells.tolist() if isinstance(cells, np.ndarray) else list(cells)
        return Factored(cells + [None], np.where(present, values.index, len(cells)))
    return [value if ok else None
            for value, ok in zip(values.tolist(), present.tolist())]


def _berry_grid(cfg, axes):
    """Berry columns at every point of the product of ``axes`` (C, beta and
    n; none for the berry command), as (point index, columns, present,
    errors), the point index being _point_index(axes).

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
    point_index = _point_index(axes)
    index = dict(zip(values, point_index))
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
    full = np.array([not bad and c.omega > 0 for c, bad in zip(cells, cell_bad)])
    has_oracle = np.zeros(points, dtype=bool)
    groups = {}   # the full-mode points of each tuple of quantum numbers
    for p in np.flatnonzero(full[cell]).tolist():
        if errors[p] is None:
            groups.setdefault(tuple(ns[k] for k in slot[p].tolist()), []).append(p)
    # without an oracle row both oracle columns are null: no array is made
    oracle = np.zeros(chi.shape) if groups else np.broadcast_to(0.0, chi.shape)
    for group_ns, group in groups.items():
        reps = [cells[cell[p]] for p in group]
        gammas, oracle_errors = _oracle_batch(
            reps, group_ns, cfg.duration * 0.5 * reps[0].tau0, cfg.physical)
        for p, row, error in zip(group, gammas, oracle_errors):
            if error is None:
                oracle[p], has_oracle[p] = row, True
            else:
                errors[p] = error
    chi_of_slot = np.empty(len(ns))
    chi_of_slot[slot] = chi   # chi depends on n alone
    columns = {"n": Factored(np.array(ns), slot), "chi": Factored(chi_of_slot, slot),
               "delta": delta,
               "gamma": gamma, "gamma_canonical": canonical,
               "oracle_gamma": oracle,
               "abs_diff": np.abs(gamma - oracle) if groups else oracle}
    return point_index, columns, {"oracle_gamma": has_oracle, "abs_diff": has_oracle}, errors


def _driven_grid(cfg, axes):
    """Driven columns at every point of the product of ``axes`` (C, beta, n,
    omega_f, D_re and D_im; none for the driven command), as _berry_grid
    gives berry columns.

    The points of one (C, beta, omega_f) share a representation, a force and
    its periods, and make one driven.berry_phases_driven call over their D
    values and quantum numbers, which integrates each D once. A point's first
    error wins: its cell's, its force's, its D's, its periods', then those of
    its quantum numbers in order, each as berry_phases_driven gives it. An
    incommensurate point of the special representation (C = 1, beta = 0,
    D = 0) gets the phase over one force period instead, with p = N = 0.
    """
    values = {ax.parameter: ax.values() for ax in axes}
    points = math.prod(ax.steps for ax in axes)
    point_index = _point_index(axes)
    index = dict(zip(values, point_index))

    def at(name, default) -> list:
        """The value of parameter ``name`` at every point."""
        if name not in index:
            return [default] * points
        return [values[name][i] for i in index[name].tolist()]

    ns = values.get("n", cfg.n)
    slots = index["n"][:, None] if "n" in index else np.tile(np.arange(len(ns)), (points, 1))
    force0 = cfg.force
    groups = {}   # (C, beta, omega_f) -> {D: its points}
    for p, (C, beta, omega_f, D_re, D_im) in enumerate(zip(
            at("C", cfg.rep.C), at("beta", cfg.rep.beta), at("omega_f", force0.omega_f),
            at("D_re", cfg.D.real), at("D_im", cfg.D.imag))):
        groups.setdefault((C, beta, omega_f), {}).setdefault(
            complex(D_re, D_im), []).append(p)
    errors, results = [None] * points, [None] * points

    def fail(group, exc):
        for p in group:
            errors[p] = exc

    for (C, beta, omega_f), by_D in groups.items():
        try:
            rep = Representation(M=cfg.rep.M, w=cfg.rep.w, C=C, beta=beta)
            force = force0 if omega_f == force0.omega_f else \
                DrivingForce(omega_f, force0.coefficients)
        except POINT_ERRORS as exc:
            fail([p for group in by_D.values() for p in group], exc)
            continue
        Ds = {}
        for D, group in by_D.items():
            try:
                Ds[check_amplitude(D)] = group
            except InvalidParameterError as exc:
                fail(group, exc)
        try:
            comm = commensurability(rep.tau0, force.tau_f, cfg.comm_tol)
        except IncommensurateError as exc:
            comm = None
            for D in [D for D in Ds if D != 0 or not (rep.C == 1.0 and rep.beta == 0.0)]:
                fail(Ds.pop(D), exc)
        if not Ds:
            continue
        table = berry_phases_driven(rep, ns, force, list(Ds), comm, cfg.physical)
        for entries, group in zip(table, Ds.values()):
            for p in group:
                results[p] = [entries[k] for k in slots[p].tolist()]
                errors[p] = next((e for e in results[p] if isinstance(e, Exception)), None)
    columns = {"n": Factored(np.array(ns), slots)}
    for name, field in _DRIVEN_COLUMNS.items():
        columns[name] = np.array([[getattr(r, field) for r in row] if error is None
                                  else [0] * slots.shape[1]
                                  for row, error in zip(results, errors)])
    return point_index, columns, {}, errors


def _sweep_table(axes, point_index: np.ndarray, columns: dict, present: dict,
                 errors: list) -> dict:
    """The report of a grid: each axis's value at each point of
    ``point_index``, each column of ``columns`` that no axis provides, then
    ``error``. A point with an error keeps one
    row, with null columns and its message. Axis columns and the error column
    are Factored: each axis value and each message is stored once."""
    points, per_point = next(iter(columns.values())).shape
    failed = np.array([e is not None for e in errors], dtype=bool)
    keep = slice(None)   # every row: the columns are sliced as views, not copied
    if per_point > 1 and failed.any():
        keep = np.ones((points, per_point), dtype=bool)
        keep[failed, 1:] = False
        keep = keep.ravel()
    point_of_row = slice(None) if per_point == 1 else \
        np.repeat(np.arange(points), per_point)[keep]
    table = {}
    for ax, index in zip(axes, point_index):
        table[ax.parameter] = Factored(np.array(ax.values()), index[point_of_row])
    for name, values in columns.items():
        if name in table:
            continue
        ok = (~failed & present.get(name, True))[point_of_row]
        if not ok.any():
            table[name] = _constant(None, len(ok))
            continue
        if isinstance(values, Factored):
            values = Factored(values.values, values.index.ravel()[keep])
        else:
            values = values.ravel()[keep]
        table[name] = _with_nulls(values, ok)
    failures = np.flatnonzero(failed)
    if not failures.size:
        table["error"] = _constant(None, points * per_point)
        return table
    message = np.zeros(points, dtype=int)
    message[failures] = np.arange(1, len(failures) + 1)
    table["error"] = Factored([None, *(str(errors[p]) for p in failures.tolist())],
                              message[point_of_row])
    return table


def _point_table(cfg, grid) -> dict:
    """The report of the one point a berry or driven command asks for; its
    error, if it has one, is raised."""
    point_index, columns, present, errors = grid(cfg, ())
    if errors[0] is not None:
        raise errors[0]
    table = _sweep_table((), point_index, columns, present, errors)
    del table["error"]
    return table


def cmd_berry(args) -> int:
    cfg = _load_config(args)
    _emit("berry", _point_table(cfg, _berry_grid), cfg,
          extra={"duration": cfg.duration * 0.5 * cfg.rep.tau0})
    return 0


def cmd_driven(args) -> int:
    cfg = _load_config(args)
    if cfg.force is None:
        raise ConfigError("the driven command needs a force section"
                          " (--omega-f plus --force-coeff, or config JSON)")
    _emit("driven", _point_table(cfg, _driven_grid), cfg)
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
    if driven_mode and "duration" in cfg.given:
        raise ConfigError("a driven sweep takes no duration: its phases are over"
                          " the common period N tau0 of the force and the oscillator")
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
    from .selfcheck import run_battery   # only validate pays for the battery's import
    results = run_battery(args.only)
    if not results:
        print("no checks matched the --only filter", file=sys.stderr)
        return 2
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        line = f"{'PASS' if r.ok else 'FAIL'} {r.name:<{width}}" \
               f"  max_dev={r.max_dev:.3e}  tol={r.tol:.1e}"
        if r.detail:
            line += f"  ({r.detail})"
        lines.append(line + "\n")
    failures = sum(not r.ok for r in results)
    lines.append(f"{len(results) - failures}/{len(results)} checks passed\n")
    _deliver(lines, None)
    return 0 if failures == 0 else 1


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="shoberry",
        description="Berry phases of the simple harmonic oscillator in"
                    " classical-solution representations")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    specs = (
        ("berry", cmd_berry, "closed-form and oracle Berry phases"),
        ("driven", cmd_driven, "Berry phase of the periodically driven oscillator"),
        ("sweep", cmd_sweep, "tabulate phases over a parameter grid"),
        ("trajectory", cmd_trajectory, "dump the (u, v) representation curve"),
    )
    for name, func, help_text in specs:
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", metavar="PATH", help="JSON run configuration")
        for p in PARAMETERS:
            if p.help and name in p.commands:
                command.add_argument(p.flag, dest=p.name, help=p.help,
                                     action="append" if p.repeats else "store")
        command.set_defaults(func=func)
    v = sub.add_parser("validate", help="run the self-validation battery")
    v.add_argument("--only", action="append", metavar="NAME",
                   help="run only checks whose name contains NAME; repeatable")
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
    except BrokenPipeError:   # stdout's reader has gone: end quietly
        _discard_stdout()
        return 141
    except (ConfigError, InvalidParameterError, OutputError) as exc:
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
