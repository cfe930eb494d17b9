"""Command-line interface.

Subcommands: berry, driven, sweep, trajectory, validate. Configuration comes
from a single JSON document (--config) and/or flags, flags winning. Reports go
to stdout or --out as CSV or JSON; numbers are printed round-trip exact so
repeated runs are byte-identical.

Exit codes: 0 success, 2 validation or configuration error, 3 mathematically
undefined phase (resonance, incommensurate periods, non-cyclic evolution),
4 numerical non-convergence; validate exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .driven import (DrivingForce, berry_phase_special_rep, check_amplitude,
                     commensurability, berry_phase_driven,
                     drive_phase_quadrature, particular_solution)
from .errors import (ConfigError, ConvergenceError, IncommensurateError,
                     InvalidParameterError, UndefinedPhaseError)
from .phase import (dynamical_phase_oracle, overall_phase_oracle,
                    phase_result_for_half_periods)
from .representation import (PhysicalConfig, Representation, rho, trajectory,
                             validate)
from .selfcheck import run_battery
from .wavefunction import QuantumState, check_quantum_number

_BERRY_COLUMNS = ["n", "chi", "delta", "gamma", "gamma_canonical",
                  "oracle_gamma", "abs_diff"]
_DRIVEN_COLUMNS = ["n", "gamma_undriven_part", "drive_part_closed",
                   "drive_part_quadrature", "gamma_total", "p", "N"]
_TRAJECTORY_COLUMNS = ["t", "u", "v", "rho"]
_SWEEP_PARAMETERS = ("C", "beta", "n", "D_re", "D_im", "omega_f")

_ANGLE_RE = re.compile(
    r"^\s*([+-]?)\s*(\d+)?\s*\*?\s*pi\s*(?:/\s*(\d+))?\s*$", re.IGNORECASE)


def parse_angle(value) -> float:
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
            raise ConfigError(f"zero denominator in angle {value!r}")
        return sign * num * math.pi / den
    try:
        return float(text)
    except ValueError:
        raise ConfigError(
            f"cannot parse angle {value!r}; use radians or forms like 'pi/3'"
        ) from None


@dataclass(frozen=True)
class SweepAxis:
    parameter: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.parameter not in _SWEEP_PARAMETERS:
            raise ConfigError(
                f"unknown sweep parameter {self.parameter!r};"
                f" choose from {', '.join(_SWEEP_PARAMETERS)}")
        if self.steps < 1:
            raise ConfigError("sweep steps must be at least 1")

    def values(self) -> list[float]:
        return [float(v) for v in np.linspace(self.start, self.stop, self.steps)]


@dataclass
class RunConfig:
    rep: Representation
    physical: PhysicalConfig
    ns: list[int]
    duration: object  # "half" | "full" | int full periods
    force: Optional[DrivingForce]
    D: complex
    sweep_axes: list[SweepAxis] = field(default_factory=list)
    out: Optional[str] = None
    fmt: str = "json"
    samples: int = 256
    comm_tol: float = 1e-13


def _duration_half_periods(duration) -> int:
    if duration == "half":
        return 1
    if duration == "full":
        return 2
    if isinstance(duration, (int, np.integer)) and not isinstance(duration, bool) \
            and duration >= 1:
        return 2 * int(duration)
    raise ConfigError(
        f"duration must be 'half', 'full', or a positive integer number of"
        f" periods, not {duration!r}")


def _config_number(value, key: str, kind=float):
    """A config value as ``kind`` (float or int); a bool, or a value ``kind``
    cannot convert, is a ConfigError that names the key."""
    if not isinstance(value, bool):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"config value {key} must be a number, got {value!r}")


def _parse_ns(value) -> list[int]:
    if value is None:
        return [0]
    if isinstance(value, (int, np.integer)):
        value = [value]
    elif isinstance(value, str):
        try:
            value = [int(part) for part in value.split(",") if part.strip()]
        except ValueError:
            raise ConfigError(f"cannot parse quantum numbers {value!r}") from None
    if not isinstance(value, list) or not value:
        raise ConfigError("n must be an integer or a nonempty list of integers")
    return [check_quantum_number(item) for item in value]


def _parse_complex_pair(value, what: str) -> complex:
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) != 2:
            raise ConfigError(f"{what} must look like RE:IM, got {value!r}")
        try:
            return complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise ConfigError(f"cannot parse {what} {value!r}") from None
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_config_number(value[0], what),
                       _config_number(value[1], what))
    raise ConfigError(f"{what} must be a [re, im] pair, got {value!r}")


def _parse_force_entry(text: str) -> tuple[int, complex]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"force coefficient must look like N:RE:IM, got {text!r}")
    try:
        return int(parts[0]), complex(float(parts[1]), float(parts[2]))
    except ValueError:
        raise ConfigError(f"cannot parse force coefficient {text!r}") from None


def _build_force(omega_f: float, entries) -> DrivingForce:
    table: dict[int, complex] = {}
    for n, f in entries:
        n = int(n)
        if n in table and table[n] != f:
            raise ConfigError(f"conflicting coefficients for mode {n}")
        table[n] = complex(f)
    for n, f in list(table.items()):
        table.setdefault(-n, f.conjugate())
    return DrivingForce(omega_f=float(omega_f), coefficients=table)


def _load_config(args) -> RunConfig:
    doc = {}
    if getattr(args, "config", None):
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")

    rep_doc = doc.get("representation", {})
    if not isinstance(rep_doc, dict):
        raise ConfigError("representation section must be an object")

    def scalar(flag_name, key, default):
        flag = getattr(args, flag_name, None)
        if flag is not None:
            return float(flag)
        return _config_number(rep_doc.get(key, default), f"representation.{key}")

    beta_raw = args.beta if getattr(args, "beta", None) is not None \
        else rep_doc.get("beta", 0.0)
    rep = Representation(M=scalar("M", "M", 1.0), w=scalar("w", "w", 1.0),
                         C=scalar("C", "C", 1.0), beta=parse_angle(beta_raw))
    physical = PhysicalConfig(hbar=scalar("hbar", "hbar", 1.0))

    ns = _parse_ns(args.n if getattr(args, "n", None) is not None else doc.get("n"))

    duration_raw = args.duration if getattr(args, "duration", None) is not None \
        else doc.get("duration", "half")
    if isinstance(duration_raw, str) and duration_raw not in ("half", "full"):
        try:
            duration_raw = int(duration_raw)
        except ValueError:
            raise ConfigError(f"cannot parse duration {duration_raw!r}") from None
    _duration_half_periods(duration_raw)  # fail fast on bad values

    force_doc = doc.get("force")
    force = None
    D = 0j
    entries: list[tuple[int, complex]] = []
    omega_f = getattr(args, "omega_f", None)
    if force_doc is not None:
        if not isinstance(force_doc, dict) or "omega_f" not in force_doc \
                or "coefficients" not in force_doc:
            raise ConfigError("force section needs omega_f and coefficients")
        if omega_f is None:
            omega_f = _config_number(force_doc["omega_f"], "force.omega_f")
        rows = force_doc["coefficients"]
        if not isinstance(rows, list) or not all(
                isinstance(row, list) and len(row) == 3 for row in rows):
            raise ConfigError("force.coefficients must be a list of [n, re, im]")
        key = "force.coefficients"
        entries.extend((_config_number(n, key, int),
                        complex(_config_number(real, key), _config_number(imag, key)))
                       for n, real, imag in rows)
        if "D" in force_doc:
            D = _parse_complex_pair(force_doc["D"], "D")
    if getattr(args, "force_coeff", None):
        entries.extend(_parse_force_entry(text) for text in args.force_coeff)
    if getattr(args, "D", None) is not None:
        D = _parse_complex_pair(args.D, "D")
    if entries or omega_f is not None:
        if omega_f is None:
            raise ConfigError("force coefficients given without --omega-f")
        if not entries:
            entries = []
        force = _build_force(omega_f, entries)

    sweep_axes: list[SweepAxis] = []
    sweep_doc = doc.get("sweep")
    if sweep_doc is not None:
        if isinstance(sweep_doc, dict):
            sweep_doc = [sweep_doc]
        for one in sweep_doc:
            try:
                sweep_axes.append(SweepAxis(parameter=str(one["parameter"]),
                                            start=float(one["range"][0]),
                                            stop=float(one["range"][1]),
                                            steps=int(one["steps"])))
            except (KeyError, TypeError, IndexError, ValueError) as exc:
                raise ConfigError(f"bad sweep axis {one!r}: {exc}") from None
    for text in getattr(args, "sweep", None) or []:
        parts = text.split(":")
        if len(parts) != 4:
            raise ConfigError(f"sweep must look like PARAM:LO:HI:STEPS, got {text!r}")
        sweep_axes.append(SweepAxis(parameter=parts[0], start=float(parts[1]),
                                    stop=float(parts[2]), steps=int(parts[3])))

    output_doc = doc.get("output", {})
    fmt = getattr(args, "format", None) or output_doc.get("format") or "json"
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r}")
    out = getattr(args, "out", None) or output_doc.get("path")

    samples = getattr(args, "samples", None)
    if samples is None:
        samples = _config_number(doc.get("samples", 256), "samples", int)
    if samples < 2:
        raise ConfigError("samples must be at least 2")

    comm_tol = _config_number(doc.get("commensurability_tolerance", 1e-13),
                              "commensurability_tolerance")

    return RunConfig(rep=rep, physical=physical, ns=ns, duration=duration_raw,
                     force=force, D=D, sweep_axes=sweep_axes, out=out, fmt=fmt,
                     samples=samples, comm_tol=comm_tol)


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


def _emit(command, columns, rows, cfg: RunConfig, extra=None) -> None:
    if cfg.fmt == "csv":
        text = _render_csv(columns, rows)
    else:
        text = _render_json(command, columns, rows, extra)
    _deliver(text, cfg.out)


def _berry_rows(rep, physical, ns, half_periods):
    full_ok = validate(rep, "full").ok
    rows = []
    for n in ns:
        res = phase_result_for_half_periods(rep, n, half_periods)
        row = {"n": int(n), "chi": res.chi, "delta": res.delta,
               "gamma": res.gamma, "gamma_canonical": res.gamma_canonical}
        if full_ok:
            state = QuantumState(rep, int(n), physical)
            tau = half_periods * 0.5 * rep.tau0
            chi_o, _ = overall_phase_oracle(state, tau)
            oracle = chi_o - dynamical_phase_oracle(state, tau)
            row["oracle_gamma"] = oracle
            row["abs_diff"] = abs(res.gamma - oracle)
        else:
            row["oracle_gamma"] = None
            row["abs_diff"] = None
        rows.append(row)
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
    half_periods = _duration_half_periods(cfg.duration)
    rows = _berry_rows(cfg.rep, cfg.physical, cfg.ns, half_periods)
    _emit("berry", _BERRY_COLUMNS, rows, cfg,
          extra={"duration": half_periods * 0.5 * cfg.rep.tau0})
    return 0


def cmd_driven(args) -> int:
    cfg = _load_config(args)
    if cfg.force is None:
        raise ConfigError("the driven command needs a force section"
                          " (--omega-f plus --force-coeff, or config JSON)")
    rows = _driven_rows(cfg.rep, cfg.physical, cfg.ns, cfg.force, cfg.D,
                        cfg.comm_tol)
    _emit("driven", _DRIVEN_COLUMNS, rows, cfg)
    return 0


def _rows_for_point(cfg: RunConfig, overrides: dict, driven_mode: bool):
    rep = Representation(M=cfg.rep.M, w=cfg.rep.w,
                         C=overrides.get("C", cfg.rep.C),
                         beta=overrides.get("beta", cfg.rep.beta))
    ns = [int(round(overrides["n"]))] if "n" in overrides else cfg.ns
    if driven_mode:
        D = complex(overrides.get("D_re", cfg.D.real),
                    overrides.get("D_im", cfg.D.imag))
        omega_f = overrides.get("omega_f", cfg.force.omega_f)
        force = cfg.force if omega_f == cfg.force.omega_f else \
            DrivingForce(omega_f, cfg.force.coefficients)
        return _driven_rows(rep, cfg.physical, ns, force, D, cfg.comm_tol)
    return _berry_rows(rep, cfg.physical, ns,
                       _duration_half_periods(cfg.duration))


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if not cfg.sweep_axes:
        raise ConfigError("the sweep command needs a sweep section")
    driven_mode = cfg.force is not None
    needs_force = {"D_re", "D_im", "omega_f"}
    if not driven_mode and any(ax.parameter in needs_force for ax in cfg.sweep_axes):
        raise ConfigError("sweeping D_re, D_im, or omega_f needs a force section")
    axis_names = [ax.parameter for ax in cfg.sweep_axes]
    base_columns = _DRIVEN_COLUMNS if driven_mode else _BERRY_COLUMNS
    columns = axis_names + [c for c in base_columns if c not in axis_names] \
        + ["error"]
    rows = []
    for combo in itertools.product(*(ax.values() for ax in cfg.sweep_axes)):
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shoberry",
        description="Berry phases of the simple harmonic oscillator in"
                    " classical-solution representations")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--M", type=float, help="oscillator mass")
    common.add_argument("--w", type=float, help="angular frequency")
    common.add_argument("--C", type=float, help="second-solution amplitude")
    common.add_argument("--beta", help="phase angle in radians, or 'pi/3' style")
    common.add_argument("--hbar", type=float, help="reduced Planck constant")
    common.add_argument("--n", help="comma-separated quantum numbers, e.g. 0,1,2")
    common.add_argument("--duration",
                        help="'half', 'full', or an integer number of periods")
    common.add_argument("--omega-f", dest="omega_f", type=float,
                        help="base angular frequency of the driving force")
    common.add_argument("--force-coeff", dest="force_coeff", action="append",
                        metavar="N:RE:IM", help="Fourier coefficient f_N"
                        " (conjugate mate added automatically); repeatable")
    common.add_argument("--D", help="free homogeneous amplitude as RE:IM")
    common.add_argument("--sweep", action="append", metavar="PARAM:LO:HI:STEPS",
                        help="sweep axis; repeatable, grid is the product")
    common.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), help="output format")
    common.add_argument("--samples", type=int, help="trajectory sample count")

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
