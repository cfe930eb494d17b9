"""In-memory span recorder for the traced run, and the per-layer metrics.

``SpanRecorder.install`` rebinds the public functions of each layer listed in
``TRACED`` with a wrapper that records a span: name, start, end, parent and
row id, plus one integer ``meta`` (points evaluated, point-steps, nodes).
Names brought in with ``from .x import y`` are rebound in every ``shoberry``
module that holds them, so calls across layers are seen; ``uninstall``
restores every binding. Untraced runs never call ``install``.

Row ids: every request of a pass opens a root span and a new row. Inside a
CLI call, each point of a sweep starts a new row at the formula-only
``require_valid`` it begins with, and each further quantum number of the
point starts one at its closed form, so the spans of one report row share an
id.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ROOT = "bench.request"
CLI_MAIN = "cli.main"
ROW_MARKER = "representation.require_valid"
PER_N = ("phase.phase_result_for_half_periods", "driven.berry_phase_driven")


def _points(x, t) -> int:
    """Points a wavefunction call evaluates; 0 marks a scalar call."""
    if np.ndim(x) == 0 and np.ndim(t) == 0:
        return 0
    return int(np.broadcast(np.asarray(x), np.asarray(t)).size)


def _force_points(args, kwargs):
    t = args[1] if len(args) > 1 else kwargs["t"]
    return 0 if np.ndim(t) == 0 else int(np.size(t))


# layer -> {function or "Class.method": meta(args, kwargs) or None}. Inner
# helpers such as ``wavefunction.hermite`` stay unwrapped: their time is part
# of the caller's self time, and a span per call would swamp the oracle.
TRACED = {
    "cli": {"main": None},
    "representation": {
        # meta 1: the formula-only check a CLI point starts with (a row marker)
        "require_valid": lambda a, k: int(
            (a[1] if len(a) > 1 else k.get("mode", "full")) == "formula-only"),
        **dict.fromkeys(("validate", "classical_pair", "rho", "rho_dot",
                         "rho_ddot", "omega_invariant", "winding_phase",
                         "trajectory")),
    },
    "wavefunction": {
        "psi": lambda a, k: _points(a[1], a[2]),
        "psi_dx": lambda a, k: _points(a[1], a[2]),
        **dict.fromkeys(("overlap", "energy_expectation", "grid_halfwidth",
                         "alpha", "alpha_dot", "norm_quadrature",
                         "energy_expectation_quadrature")),
    },
    "phase": dict.fromkeys((
        "berry_phase", "phase_result_for_half_periods", "overall_phase_closed",
        "dynamical_phase_closed", "canonical_angle", "overall_phase_oracle",
        "dynamical_phase_oracle", "berry_phase_oracle")),
    "numerics": {
        "integrate_1d": None,
        "propagate_schrodinger": lambda a, k: a[0].points * int(
            a[4] if len(a) > 4 else k["steps"]),
        "rationalize": None,
    },
    "driven": {
        "DrivingForce.__call__": _force_points,
        "ParticularSolution.x": None,
        "ParticularSolution.xdot": None,
        "ParticularSolution.xddot": None,
        "psi_driven": lambda a, k: _points(a[2], a[3]),
        **dict.fromkeys((
            "fourier_decompose", "commensurability", "particular_solution",
            "action_phase", "velocity_squared_integral", "drive_phase_closed",
            "drive_phase_quadrature", "berry_phase_driven",
            "berry_phase_special_rep")),
    },
}

# Counted, not spanned: quadrature nodes are added to the enclosing span's meta.
NODE_COUNTER = ("numerics", "composite_gauss_nodes")


class SpanRecorder:
    """Spans of the current pass in parallel lists; ``take`` hands them over."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._row = 0
        self._point_rows = 0   # rows the current sweep point has begun
        self._clear()

    def _clear(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rows: list[int] = []
        self.meta: list[int] = []

    def _open(self, name: str, meta: int) -> int:
        index = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._row += 1
        elif self.names[parent] == CLI_MAIN:
            if name == ROW_MARKER and meta == 1:
                self._row += 1
                self._point_rows = 0
            elif name in PER_N:
                if self._point_rows:
                    self._row += 1
                self._point_rows += 1
        self.names.append(name)
        self.parents.append(parent)
        self.rows.append(self._row)
        self.meta.append(meta)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self):
        index = self._open(ROOT, 0)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, fn, meta):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            index = open_(name, meta(args, kwargs) if meta else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        traced.__wrapped__ = fn
        return traced

    def _count_nodes(self, fn):
        recorder = self

        def counted(a, b, panels, order=16):
            if recorder._stack:
                recorder.meta[recorder._stack[-1]] += panels * order
            return fn(a, b, panels, order)

        return counted

    def _rebind(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "shoberry" and not mod_name.startswith("shoberry."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder already installed")
        for layer, functions in TRACED.items():
            module = importlib.import_module(f"shoberry.{layer}")
            for qualname, meta in functions.items():
                label = f"{layer}.{qualname}"
                if "." in qualname:
                    cls_name, method = qualname.split(".")
                    cls = getattr(module, cls_name)
                    original = vars(cls)[method]
                    self._saved.append((cls, method, original))
                    setattr(cls, method, self._wrap(label, original, meta))
                else:
                    original = getattr(module, qualname)
                    self._rebind(original, self._wrap(label, original, meta))
        layer, name = NODE_COUNTER
        original = getattr(importlib.import_module(f"shoberry.{layer}"), name)
        self._rebind(original, self._count_nodes(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> dict:
        """The spans recorded since the last call, as arrays."""
        spans = {
            "name": np.array(self.names, dtype=object),
            "start": np.array(self.starts),
            "end": np.array(self.ends),
            "parent": np.array(self.parents, dtype=np.int64),
            "row": np.array(self.rows, dtype=np.int64),
            "meta": np.array(self.meta, dtype=np.int64),
        }
        self._clear()
        return spans


def layer_metrics(spans: dict) -> dict:
    """Per-layer counts and times of one pass. ``.s`` is inclusive time,
    ``.self_s`` is duration minus the time the span's children cover."""
    names, parent, meta = spans["name"], spans["parent"], spans["meta"]
    dur = spans["end"] - spans["start"]
    child = np.zeros(len(dur))
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_time = dur - child
    parent_name = np.where(nested, names[np.maximum(parent, 0)], "")

    def mask(*labels):
        return np.isin(names, labels)

    def calls(label):
        return int(np.count_nonzero(names == label))

    def incl(m):
        return float(np.sum(dur[m]))

    def own(label):
        return float(np.sum(self_time[names == label]))

    def per_call_us(label):
        n = calls(label)
        return incl(names == label) / n * 1e6 if n else 0.0

    psi = mask("wavefunction.psi")
    force = mask("driven.DrivingForce.__call__")
    oracle = mask("phase.overall_phase_oracle")
    propagate = mask("numerics.propagate_schrodinger")
    point_steps = int(np.sum(meta[propagate]))
    from_phase = mask("wavefunction.psi", "wavefunction.psi_dx") & np.isin(
        parent_name, [f"phase.{name}" for name in TRACED["phase"]])
    return {
        "cli.self_s": own("cli.main"),
        "representation.require_valid.calls": calls("representation.require_valid"),
        "representation.classical_pair.calls": calls("representation.classical_pair"),
        "representation.classical_pair.self_s": own("representation.classical_pair"),
        "representation.winding_phase.self_s": own("representation.winding_phase"),
        "phase.closed_form.calls": calls("phase.phase_result_for_half_periods"),
        "phase.closed_form.us_per_call": per_call_us("phase.phase_result_for_half_periods"),
        "phase.overall_oracle.s": incl(oracle),
        "phase.branch_track.s": incl(oracle) - incl(
            mask("wavefunction.overlap") & (parent_name == "phase.overall_phase_oracle")),
        "phase.branch_samples": int(np.sum(np.maximum(meta[from_phase], 1))),
        "phase.dynamical_oracle.s": incl(mask("phase.dynamical_phase_oracle")),
        "wavefunction.psi.calls": int(np.count_nonzero(psi)),
        "wavefunction.psi.scalar_calls": int(np.count_nonzero(psi & (meta == 0))),
        "wavefunction.psi.self_s": own("wavefunction.psi"),
        "wavefunction.overlap.calls": calls("wavefunction.overlap"),
        "wavefunction.overlap.s": incl(mask("wavefunction.overlap")),
        "numerics.integrate_1d.calls": calls("numerics.integrate_1d"),
        "numerics.integrate_1d.nodes": int(np.sum(meta[mask("numerics.integrate_1d")])),
        "numerics.integrate_1d.self_s": own("numerics.integrate_1d"),
        "numerics.propagate.point_steps": point_steps,
        "numerics.propagate.s": incl(propagate),
        "numerics.propagate.ns_per_point_step":
            own("numerics.propagate_schrodinger") / point_steps * 1e9 if point_steps else 0.0,
        "numerics.propagate.force_s": incl(
            force & (parent_name == "numerics.propagate_schrodinger")),
        "driven.force.calls": int(np.count_nonzero(force)),
        "driven.force.scalar_calls": int(np.count_nonzero(force & (meta == 0))),
        "driven.force.s": incl(force),
        "driven.xp_eval.s": incl(mask("driven.ParticularSolution.x",
                                      "driven.ParticularSolution.xdot",
                                      "driven.ParticularSolution.xddot")),
        "driven.action_phase.s": incl(mask("driven.action_phase")),
        "driven.drive_quadrature.s": incl(mask("driven.drive_phase_quadrature")),
        "driven.drive_closed.us_per_call": per_call_us("driven.drive_phase_closed"),
    }


def write_spans(path, spans: dict) -> None:
    """One CSV line per span, in opening order; times relative to the first."""
    base = spans["start"][0] if len(spans["start"]) else 0.0
    with open(path, "w", encoding="utf-8") as out:
        out.write("id,name,start_s,end_s,parent,row,meta\n")
        for i, (name, start, end, parent, row, meta) in enumerate(zip(
                spans["name"], spans["start"] - base, spans["end"] - base,
                spans["parent"], spans["row"], spans["meta"])):
            out.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{row},{meta}\n")
