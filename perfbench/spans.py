"""Span recorder for the traced pass.

Every layer is timed from outside the program: a wrapper replaces a public
helike name at the place its caller looks it up (a module attribute, or a
method on its class), records one span per call and calls the original.
`install` puts the wrappers in place and `restore` takes them all out again.
A name that no longer exists is reported as absent with the reason; the
run goes on without that layer.

Spans are kept in memory.  A span's self time is its duration minus the
durations of its direct children; calls are single-threaded and strictly
nested, so the children of a span never overlap.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field

MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index into Recorder.spans, -1 for a root span
    op: str | None = None     # the workload op the call served
    info: dict = field(default_factory=dict)


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _points(args, kwargs, result):
    return {"points": int(result.shape[0])}


def _block(args, kwargs, result):
    table, k, la, lc = (*args, *kwargs.values())[:4]
    knots = table.basis.knots.points
    key = (float(table.orbitals.Z), knots.tobytes(), int(k), int(la), int(lc))
    return {"key": key, "bytes": int(result.nbytes)}


def _matrix(args, kwargs, result):
    n = int(_first(args, kwargs).shape[0])
    return {"dim": n, "bytes": n * n * 8}


def _file(args, kwargs, result):
    return {"bytes": os.path.getsize(_first(args, kwargs))}


# (span name, module, class or None, attribute, info extractor)
TARGETS = [
    ("bspline.eval_matrix", "helike.bspline", "BSplineBasis", "eval_matrix",
     _points),
    ("bspline.deriv_matrix", "helike.bspline", "BSplineBasis", "deriv_matrix",
     _points),
    ("orbitals.values_at", "helike.orbitals", "RadialOrbitalSet", "values_at",
     None),
    ("slater.rank_block", "helike.slater", "SlaterIntegralTable", "rank_block",
     _block),
    ("pipeline.build_orbital_set", "helike.pipeline", None,
     "build_orbital_set", None),
    ("pipeline.assemble_hamiltonian", "helike.pipeline", None,
     "assemble_hamiltonian", None),
    ("pipeline.diagonalize", "helike.pipeline", None, "diagonalize", _matrix),
    ("pipeline.state_spectrum", "helike.pipeline", None, "state_spectrum",
     None),
    ("pipeline.build_context", "helike.pipeline", None, "build_context", None),
    ("ci.coupling_coefficient", "helike.ci", None, "coupling_coefficient",
     None),
    ("formats.write_csv", "helike.formats", None, "write_csv", _file),
    ("formats.write_json", "helike.formats", None, "write_json", _file),
    ("formats.write_scan_svg", "helike.formats", None, "write_scan_svg",
     _file),
]


class Recorder:
    """Collects spans; `op` labels the work the current calls serve."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: str | None = None
        self.harness_op: str | None = None
        self.absent: dict[str, str] = {}      # span name -> reason
        self.note_errors: dict[str, str] = {}  # span name -> reason
        self._patched: list[tuple[object, str, object]] = []

    def mark(self, op: str | None) -> None:
        """Label the following calls with the op the workload is running."""
        self.harness_op = self.op = op

    def _call(self, name, fn, note, args, kwargs):
        if name == "pipeline.build_context" and self.harness_op is None:
            # run_zscan builds one context per (Z, state) row; label the
            # row's spans with it, as the harness cannot see inside the scan
            config = _first(args, kwargs)
            self.op = f"Z={config.z:g} {config.state}"
        span = Span(name=name, start=0.0,
                    parent=self._stack[-1] if self._stack else -1, op=self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if note is not None:
            try:
                span.info = note(args, kwargs, result)
            except Exception as exc:  # a changed signature must not stop the run
                self.note_errors[name] = f"cannot read {name} sizes: {exc!r}"
        return result

    def _wrapper(self, name, fn, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, note, args, kwargs)
        return wrapper

    def install(self) -> None:
        for name, module_name, class_name, attr, note in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError as exc:
                self.absent[name] = f"cannot import {module_name}: {exc}"
                continue
            if class_name is not None:
                owner = getattr(owner, class_name, None)
                if owner is None:
                    self.absent[name] = f"{module_name} has no {class_name}"
                    continue
                original = vars(owner).get(attr)
            else:
                original = getattr(owner, attr, None)
            if original is None:
                where = (f"{module_name}.{class_name}" if class_name
                         else module_name)
                self.absent[name] = f"{where} has no attribute {attr!r}"
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original, note))

    def restore(self) -> list[str]:
        """Put every original back; return the names that did not restore."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig
                in self._patched if getattr(o, a) is not orig]
        self._patched.clear()
        return left

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def nesting_errors(self) -> list[str]:
        errors = []
        for i, s in enumerate(self.spans):
            if s.end < s.start:
                errors.append(f"span {i} ({s.name}) ends before it starts")
            if s.parent >= 0:
                p = self.spans[s.parent]
                if s.start < p.start or s.end > p.end:
                    errors.append(f"span {i} ({s.name}) leaves its parent "
                                  f"{s.parent} ({p.name})")
        return errors

    def to_json(self, origin: float) -> list[dict]:
        """Spans with times in seconds from `origin`; info keys made JSON-safe."""
        out = []
        for s in self.spans:
            info = {k: v for k, v in s.info.items() if k != "key"}
            out.append({"name": s.name, "start": s.start - origin,
                        "end": s.end - origin, "parent": s.parent,
                        "op": s.op, **info})
        return out


EVAL = ["bspline.eval_matrix", "bspline.deriv_matrix"]
WRITE = ["formats.write_csv", "formats.write_json", "formats.write_scan_svg"]

# metric -> (unit, span names it is built from, whether it reads call sizes)
LAYER_METRICS = {
    "bspline.eval_s": ("s", EVAL, False),
    "bspline.points": ("count", EVAL, True),
    "orbitals.solve_s": ("s", ["pipeline.build_orbital_set"], False),
    "orbitals.sample_s": ("s", ["orbitals.values_at"], False),
    "slater.rank_block_s": ("s", ["slater.rank_block"], False),
    "slater.rank_block_calls": ("count", ["slater.rank_block"], False),
    "slater.rank_block_useful": ("ratio", ["slater.rank_block"], True),
    "slater.block_mib": ("MiB", ["slater.rank_block"], True),
    "angular.coupling_s": ("s", ["ci.coupling_coefficient"], False),
    "ci.assemble_s": ("s", ["pipeline.assemble_hamiltonian"], False),
    "ci.h_mib": ("MiB", ["pipeline.diagonalize"], True),
    "ci.diag_s": ("s", ["pipeline.diagonalize"], False),
    "ci.diag_calls": ("count", ["pipeline.diagonalize"], False),
    "ci.diag_dim_max": ("count", ["pipeline.diagonalize"], True),
    "entanglement.rdm_s": ("s", ["pipeline.state_spectrum"], False),
    "pipeline.context_s": ("s", ["pipeline.build_context"], False),
    "pipeline.context_calls": ("count", ["pipeline.build_context"], False),
    "pipeline.self_s": ("s", [], False),
    "formats.write_s": ("s", WRITE, False),
    "formats.bytes": ("bytes", WRITE, True),
    "trace.overhead_frac": ("ratio", [], False),
}


def layer_metrics(rec: Recorder, traced_wall: float,
                  untraced_wall: float) -> dict[str, dict]:
    """Per-layer metrics of one traced pass, in the result-line format.

    A metric whose spans are missing from the program, were never called on
    this workload, or whose call sizes could not be read, is reported with
    value None and the reason.
    """
    selfs = rec.self_times()

    def calls(names):
        return [i for i, s in enumerate(rec.spans) if s.name in names]

    def self_s(names):
        return sum(selfs[i] for i in calls(names))

    def info(names, key):
        return [rec.spans[i].info[key] for i in calls(names)]

    compute = {
        "bspline.eval_s": lambda: self_s(EVAL),
        "bspline.points": lambda: sum(info(EVAL, "points")),
        "slater.rank_block_useful": lambda: (
            len(set(info(["slater.rank_block"], "key")))
            / len(calls(["slater.rank_block"]))),
        "slater.block_mib": lambda: (
            sum(info(["slater.rank_block"], "bytes")) / MIB),
        "ci.h_mib": lambda: sum(info(["pipeline.diagonalize"], "bytes")) / MIB,
        "ci.diag_dim_max": lambda: max(info(["pipeline.diagonalize"], "dim")),
        "pipeline.self_s": lambda: traced_wall - sum(selfs),
        "formats.bytes": lambda: sum(info(WRITE, "bytes")),
        "trace.overhead_frac": lambda: (
            (traced_wall - untraced_wall) / untraced_wall),
    }
    out = {}
    for metric, (unit, names, sized) in LAYER_METRICS.items():
        reasons = [rec.absent[n] for n in names if n in rec.absent]
        if sized:
            reasons += [rec.note_errors[n] for n in names
                        if n in rec.note_errors]
        if not reasons and names and not calls(names):
            reasons.append(f"no call to {' or '.join(names)} on this workload")
        if reasons:
            out[metric] = {"value": None, "unit": unit,
                           "absent": "; ".join(reasons)}
        elif metric in compute:
            out[metric] = {"value": compute[metric](), "unit": unit}
        elif unit == "s":
            out[metric] = {"value": self_s(names), "unit": unit}
        else:
            out[metric] = {"value": len(calls(names)), "unit": unit}
    return out
