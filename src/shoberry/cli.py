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
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .driven import (DrivingForce, berry_phase_special_rep, check_amplitude,
                     commensurability, berry_phase_driven,
                     drive_phase_quadrature, particular_solution)
from .errors import (ConfigError, ConvergenceError, IncommensurateError,
                     InvalidParameterError, UndefinedPhaseError)
from .phase import berry_phase_oracles, phase_result_for_half_periods
from .representation import (PhysicalConfig, Representation, rho, trajectory,
                             validate)
from .selfcheck import run_battery
from .wavefunction import check_quantum_number

_BERRY_COLUMNS = ["n", "chi", "delta", "gamma", "gamma_canonical",
                  "oracle_gamma", "abs_diff"]
_DRIVEN_COLUMNS = ["n", "gamma_undriven_part", "drive_part_closed",
                   "drive_part_quadrature", "gamma_total", "p", "N"]
_TRAJECTORY_COLUMNS = ["t", "u", "v", "rho"]
_FORMATS = ("csv", "json")

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

    def values(self) -> list[float]:
        return [float(v) for v in np.linspace(self.start, self.stop, self.steps)]


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
    items = value if isinstance(value, list) else [value]
    if not items:
        raise ConfigError(f"{what} must be an integer or a nonempty list of integers")
    return [check_quantum_number(_integer(item, what)) for item in items]


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


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return format(float(value), ".17g")


def _render_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col)
            if col == "error":
                cells.append('"%s"' % str(value).replace('"', '""') if value else "")
            else:
                cells.append(_format_cell(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _render_json(command, columns, rows, extra=None) -> str:
    clean_rows = []
    for row in rows:
        clean = {}
        for col in columns:
            value = row.get(col)
            if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
                clean[col] = int(value)
            elif value is None or isinstance(value, str):
                clean[col] = value
            else:
                clean[col] = float(value)
        clean_rows.append(clean)
    doc = {"command": command, "columns": list(columns)}
    if extra:
        doc.update(extra)
    doc["rows"] = clean_rows
    return json.dumps(doc, indent=2) + "\n"


def _deliver(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)


def _emit(command, columns, rows, cfg, extra=None) -> None:
    if cfg.format == "csv":
        text = _render_csv(columns, rows)
    else:
        text = _render_json(command, columns, rows, extra)
    _deliver(text, cfg.out)


def _berry_rows(rep, physical, ns, half_periods):
    rows = []
    for n in ns:
        res = phase_result_for_half_periods(rep, n, half_periods)
        rows.append({"n": int(n), "chi": res.chi, "delta": res.delta,
                     "gamma": res.gamma, "gamma_canonical": res.gamma_canonical,
                     "oracle_gamma": None, "abs_diff": None})
    if validate(rep, "full").ok:
        oracles = berry_phase_oracles(rep, ns, half_periods * 0.5 * rep.tau0,
                                      physical)
        for row, oracle in zip(rows, oracles):
            row["oracle_gamma"] = oracle
            row["abs_diff"] = abs(row["gamma"] - oracle)
    return rows


def _driven_rows(rep, physical, ns, force, D, comm_tol):
    D = check_amplitude(D)   # before the D == 0 test of the fallback below
    try:
        comm = commensurability(rep.tau0, force.tau_f, comm_tol)
    except IncommensurateError:
        if D == 0 and rep.C == 1.0 and rep.beta == 0.0:
            # Stationary-based special representation: the phase over one
            # force period exists for any periodic drive. p = N = 0 marks
            # the tau_f duration in the report.
            gamma = berry_phase_special_rep(force, rep.M, rep.w, physical.hbar)
            xp = particular_solution(force, rep, None, 0j)
            quad = drive_phase_quadrature(xp, rep.M, physical.hbar, force.tau_f)
            return [{"n": int(n), "gamma_undriven_part": 0.0,
                     "drive_part_closed": gamma, "drive_part_quadrature": quad,
                     "gamma_total": gamma, "p": 0, "N": 0} for n in ns]
        raise
    rows = []
    for n in ns:
        res = berry_phase_driven(rep, int(n), force, D, comm, physical)
        rows.append({"n": int(n), "gamma_undriven_part": res.gamma_undriven,
                     "drive_part_closed": res.drive_closed,
                     "drive_part_quadrature": res.drive_quadrature,
                     "gamma_total": res.gamma_total, "p": res.p, "N": res.N})
    return rows


def cmd_berry(args) -> int:
    cfg = _load_config(args)
    rows = _berry_rows(cfg.rep, cfg.physical, cfg.n, cfg.duration)
    _emit("berry", _BERRY_COLUMNS, rows, cfg,
          extra={"duration": cfg.duration * 0.5 * cfg.rep.tau0})
    return 0


def cmd_driven(args) -> int:
    cfg = _load_config(args)
    if cfg.force is None:
        raise ConfigError("the driven command needs a force section"
                          " (--omega-f plus --force-coeff, or config JSON)")
    rows = _driven_rows(cfg.rep, cfg.physical, cfg.n, cfg.force, cfg.D,
                        cfg.comm_tol)
    _emit("driven", _DRIVEN_COLUMNS, rows, cfg)
    return 0


def _rows_for_point(cfg, overrides: dict, driven_mode: bool):
    rep = Representation(M=cfg.rep.M, w=cfg.rep.w,
                         C=overrides.get("C", cfg.rep.C),
                         beta=overrides.get("beta", cfg.rep.beta))
    ns = [int(round(overrides["n"]))] if "n" in overrides else cfg.n
    if driven_mode:
        D = complex(overrides.get("D_re", cfg.D.real),
                    overrides.get("D_im", cfg.D.imag))
        omega_f = overrides.get("omega_f", cfg.force.omega_f)
        force = cfg.force if omega_f == cfg.force.omega_f else \
            DrivingForce(omega_f, cfg.force.coefficients)
        return _driven_rows(rep, cfg.physical, ns, force, D, cfg.comm_tol)
    return _berry_rows(rep, cfg.physical, ns, cfg.duration)


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if not cfg.sweep:
        raise ConfigError("the sweep command needs a sweep section")
    driven_mode = cfg.force is not None
    axis_names = [ax.parameter for ax in cfg.sweep]
    force_axes = {name for p in PARAMETERS if p.key.startswith("force.")
                  for name in p.axes}
    unforced = [name for name in axis_names if name in force_axes]
    if unforced and not driven_mode:
        raise ConfigError(f"sweeping {unforced[0]} needs a force section")
    base_columns = _DRIVEN_COLUMNS if driven_mode else _BERRY_COLUMNS
    columns = axis_names + [c for c in base_columns if c not in axis_names] \
        + ["error"]
    rows = []
    for combo in itertools.product(*(ax.values() for ax in cfg.sweep)):
        overrides = dict(zip(axis_names, combo))
        point = {name: (int(round(v)) if name == "n" else v)
                 for name, v in overrides.items()}
        try:
            for sub in _rows_for_point(cfg, overrides, driven_mode):
                row = dict(point)
                row.update({k: v for k, v in sub.items() if k not in point})
                row["error"] = None
                rows.append(row)
        except (InvalidParameterError, UndefinedPhaseError,
                ConvergenceError, ArithmeticError) as exc:
            row = dict(point)
            row.update({c: None for c in base_columns if c not in point})
            row["error"] = str(exc)
            rows.append(row)
    _emit("sweep", columns, rows, cfg)
    return 0


def cmd_trajectory(args) -> int:
    cfg = _load_config(args)
    points = trajectory(cfg.rep, cfg.samples)
    ts = np.linspace(0.0, cfg.rep.tau0, cfg.samples)
    radii = rho(cfg.rep, ts)
    rows = [{"t": float(t), "u": float(u), "v": float(v), "rho": float(r)}
            for t, (u, v), r in zip(ts, points, radii)]
    _emit("trajectory", _TRAJECTORY_COLUMNS, rows, cfg)
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
