"""Span tracer that times greenpot's layers from outside the package.

`Tracer.install` wraps every public function defined in the traced modules
and rebinds the wrapper at every `greenpot.*` module attribute that refers to
the function, and in `geometry.GENERATORS`. Wrappers keep the signature
(`functools.wraps` sets `__wrapped__`, which `inspect.signature` follows), so
`cli._build_part` still binds generator parameters. Spans are kept in memory
as (name, parent, start, end, info) and reduced to per-layer metrics by
`layer_metrics`.

Bookkeeping inside the wrappers (input digests, file sizes) runs on a paused
clock, so it is charged to no span; its cost shows only in the traced pass's
wall time, which is what `trace.overhead_frac` compares.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "greenpot"
MODULES = ("geometry", "riesz", "solvers", "balayage", "green", "gauss",
           "reports", "cli")
# csv_cell formats one table cell; a span per cell would time the tracer.
SKIP = frozenset({"reports.csv_cell"})
SOLVERS = ("solvers.simplex_qp", "solvers.nonneg_qp")

CALL_LAYERS = (
    "riesz.make_kernel", "balayage.sweep", "balayage.dirac_sweep_matrix",
    "green.build_green", "green.green_sweep", "green.green_equilibrium",
    "gauss.external_field", "gauss.solve_gauss", "gauss.explicit_solution",
    "gauss.dual_check",
)
SELF_LAYERS = CALL_LAYERS + ("riesz.assemble_riesz", "riesz.capacity")
# The functions the per-layer metrics name; any not found at install time is
# reported as absent and its metrics read 0.
EXPECTED = SOLVERS + SELF_LAYERS + ("cli.main",)
MODULE_LAYERS = ("reports", "cli", "geometry")


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float
    info: dict = field(default_factory=dict)


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        if a is None:
            h.update(b"none")
            continue
        a = np.ascontiguousarray(a, dtype=float)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a)
    return h.hexdigest()


def _solver_probe(fn):
    sig = inspect.signature(fn)
    operands = list(sig.parameters)[:2]

    def probe(args, kwargs, result) -> dict:
        bound = sig.bind(*args, **kwargs)
        return {"digest": _digest(*(bound.arguments.get(k) for k in operands)),
                "iterations": int(result[1].iterations)}
    return probe


def _kernel_info(args, kwargs, result) -> dict:
    m = int(result.size)
    return {"entries": m * m, "cholesky_gflop": m ** 3 / 3e9}


def _sweep_matrix_info(args, kwargs, result) -> dict:
    return {"columns": int(np.shape(result)[1])}


def _file_info(args, kwargs, result) -> dict:
    path = args[0] if args else None
    if isinstance(path, (str, os.PathLike)) and os.path.isfile(path):
        return {"files": 1, "bytes": os.path.getsize(path)}
    return {}


def _points_info(args, kwargs, result) -> dict:
    try:
        return {"points": len(result)}
    except TypeError:
        return {}


def _info_probe(name: str, fn):
    if name in SOLVERS:
        return _solver_probe(fn)
    if name == "riesz.make_kernel":
        return _kernel_info
    if name == "balayage.dirac_sweep_matrix":
        return _sweep_matrix_info
    if name.startswith("reports."):
        return _file_info
    if name.startswith("geometry."):
        return _points_info
    return None


class Tracer:
    """Collects spans around greenpot's public functions while installed."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._paused = 0.0
        self._stack: list[int] = []
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._patches: list[tuple] = []

    def now(self) -> float:
        """Clock reading with the tracer's own bookkeeping taken out."""
        return self._clock() - self._paused

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, fn, name: str):
        probe = _info_probe(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else -1, self.now(), 0.0)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.now()
                self._stack.pop()
            if probe is not None:
                t0 = self._clock()
                try:
                    span.info = probe(args, kwargs, result)
                except Exception:
                    # a counter that no longer fits the program's API must
                    # not change what the program does
                    span.info = {"probe_failed": 1}
                self._paused += self._clock() - t0
            return result

        return traced

    def install(self) -> None:
        targets = {}
        for mod_name in MODULES:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                continue
            for attr, obj in vars(mod).items():
                name = f"{mod_name}.{attr}"
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__ and name not in SKIP):
                    targets[id(obj)] = (obj, self.wrap(obj, name), name)
        found = {name for _, _, name in targets.values()}
        self.absent = [n for n in EXPECTED if n not in found]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, targets[id(obj)][1])
        geometry = sys.modules.get(f"{PACKAGE}.geometry")
        generators = getattr(geometry, "GENERATORS", {})
        for key, obj in list(generators.items()):
            if id(obj) in targets and targets[id(obj)][0] is obj:
                self._patches.append((generators, key, obj))
                generators[key] = targets[id(obj)][1]

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches = []


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = _union_length((max(spans[c].start, s.start),
                                 min(spans[c].end, s.end)) for c in children[i])
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(spans: list[Span], pass_time: float) -> dict:
    """Per-layer counts and self times of one traced pass."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    module_self = defaultdict(float)
    iterations = defaultdict(int)
    fast = defaultdict(int)
    digests = defaultdict(set)
    totals = defaultdict(float)
    fallback = 0
    for s, st in zip(spans, selfs):
        calls[s.name] += 1
        self_s[s.name] += st
        module_self[s.name.split(".")[0]] += st
        if s.name in SOLVERS and "digest" in s.info:
            iterations[s.name] += s.info["iterations"]
            fast[s.name] += s.info["iterations"] == 1
            digests[s.name].add(s.info["digest"])
        if (s.name == "solvers.nonneg_qp" and s.parent >= 0
                and spans[s.parent].name == "balayage.dirac_sweep_matrix"):
            fallback += 1
        outer_geometry = s.name.startswith("geometry.") and not (
            s.parent >= 0 and spans[s.parent].name.startswith("geometry."))
        for key, value in s.info.items():
            if key == "points" and not outer_geometry:
                continue
            if key not in ("digest", "iterations"):
                totals[key] += value

    m = {}
    for name in SOLVERS:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.iterations"] = iterations[name]
        m[f"{name}.fast_path_calls"] = fast[name]
        m[f"{name}.unique_inputs"] = len(digests[name])
    for name in CALL_LAYERS:
        m[f"{name}.calls"] = calls[name]
    for name in SELF_LAYERS:
        m[f"{name}.self_s"] = self_s[name]
    m["riesz.make_kernel.entries"] = int(totals["entries"])
    m["riesz.make_kernel.cholesky_gflop"] = totals["cholesky_gflop"]
    m["balayage.dirac_sweep_matrix.columns"] = int(totals["columns"])
    m["balayage.dirac_sweep_matrix.fallback_columns"] = fallback
    for mod in MODULE_LAYERS:
        m[f"{mod}.self_s"] = module_self[mod]
    m["reports.files"] = int(totals["files"])
    m["reports.bytes"] = int(totals["bytes"])
    m["geometry.points"] = int(totals["points"])
    roots = [(s.start, s.end) for s in spans if s.parent < 0]
    m["trace.coverage"] = _union_length(roots) / pass_time if pass_time > 0 else 0.0
    return m
