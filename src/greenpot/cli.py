"""Config-driven scenario runner.

A single JSON config names a task, a point-cloud geometry, region
assignments, and an optional external charge; the runner executes the task
and writes report.json, tables/*.csv (17 significant digits), and optional
plots/*.svg into the output directory. Files are staged in a hidden
subdirectory of it and moved in only once report.json is written; a run that
stops with an error (a config, validation or solver error, or a raised
invariant error) leaves the directory as it found it.

Exit codes: 0 success, 2 config parse failure, 3 validation failure,
4 solver failure, 5 invariant failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import shutil
import sys
import tempfile

import numpy as np

from . import geometry, verify
from .balayage import sweep
from .core import (DiscreteMeasure, DomainConfig, InvariantError, PointSet,
                   SolverError, ValidationError, nearest_neighbor_distances)
from .gauss import (dual_check, exhaustion_mass_probe, explicit_solution,
                    external_field, solve_gauss, support_descriptor,
                    truncation_sweep)
from .green import build_green, frostman_excess, green_equilibrium
from .reports import (SCHEMA_VERSION, line_plot, scatter_plot, write_csv,
                      write_json)
from .riesz import (assemble_riesz, capacity, equilibrium_measure, potential,
                    save_kernel_csv, weight_norm)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4
EXIT_INVARIANT = 5

TASKS = ("kernel", "capacity", "equilibrium", "sweep", "green", "gauss",
         "truncation", "exhaustion", "support", "verify-all")

_TOP_KEYS_REQ = ("task",)
_TOP_KEYS_OPT = ("alpha", "sigma", "dim", "geometry", "regions", "theta",
                 "family", "window", "target", "tolerances", "output_dir",
                 "seed", "criteria", "plots")


class ConfigError(Exception):
    """Structural problem in the config file."""


def _check_keys(obj, ctx: str, required=(), optional=()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: expected an object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(f"{ctx}: missing required field(s) {missing}")
    unknown = sorted(k for k in obj if k not in required and k not in optional)
    if unknown:
        raise ConfigError(f"{ctx}: unknown field(s) {unknown}")


def _number(obj, ctx: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{ctx}: expected a number")
    return float(obj)


def _vector(obj, ctx: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{ctx}: expected a nonempty array of numbers")
    return np.array([_number(v, ctx) for v in obj])


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}")
    _check_keys(raw, "config", _TOP_KEYS_REQ, _TOP_KEYS_OPT)
    task = raw.get("task")
    if task not in TASKS:
        raise ConfigError(f"config.task: expected one of {list(TASKS)}, got {task!r}")
    return raw


# ---------------------------------------------------------------------------
# geometry and regions


def _build_part(spec, ctx: str) -> np.ndarray:
    _check_keys(spec, ctx, ("generator",), ("params", "offset", "scale"))
    name = spec["generator"]
    if name not in geometry.GENERATORS:
        raise ConfigError(
            f"{ctx}: unknown generator {name!r}; available: "
            f"{sorted(geometry.GENERATORS)}")
    fn = geometry.GENERATORS[name]
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{ctx}.params: expected an object")
    try:
        inspect.signature(fn).bind(**params)
    except TypeError as exc:
        raise ConfigError(f"{ctx}.params: {exc}")
    pts = np.asarray(fn(**params), dtype=float)
    if pts.ndim != 2 or not len(pts):
        raise ConfigError(f"{ctx}: generator produced no points")
    if "scale" in spec:
        pts = pts * _number(spec["scale"], f"{ctx}.scale")
    if "offset" in spec:
        off = _vector(spec["offset"], f"{ctx}.offset")
        if off.size != pts.shape[1]:
            raise ConfigError(f"{ctx}.offset: dimension mismatch")
        pts = pts + off
    return pts


def _build_cloud(cfg: dict, base_dir: str):
    """Return (points, part_ids, radii-or-None) for the geometry block."""
    geom = cfg.get("geometry")
    if geom is None:
        raise ConfigError("config.geometry is required for this task")
    _check_keys(geom, "config.geometry", (), ("parts", "csv"))
    has_parts = "parts" in geom
    has_csv = "csv" in geom
    if has_parts == has_csv:
        raise ConfigError("config.geometry: give exactly one of 'parts' or 'csv'")
    if has_csv:
        path = geom["csv"]
        if not isinstance(path, str):
            raise ConfigError("config.geometry.csv: expected a path string")
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            ps = geometry.load_csv(path)
        except OSError as exc:
            raise ConfigError(f"config.geometry.csv: {exc}")
        return ps.points, np.zeros(len(ps), dtype=int), ps.cell_radius
    parts = geom["parts"]
    if not isinstance(parts, list) or not parts:
        raise ConfigError("config.geometry.parts: expected a nonempty array")
    chunks, ids = [], []
    for k, spec in enumerate(parts):
        pts = _build_part(spec, f"config.geometry.parts[{k}]")
        chunks.append(pts)
        ids.append(np.full(len(pts), k, dtype=int))
    dims = {c.shape[1] for c in chunks}
    if len(dims) > 1:
        raise ConfigError("config.geometry.parts: parts have mixed dimensions")
    return np.vstack(chunks), np.concatenate(ids), None


_PRED_KEYS = {
    "all": (),
    "indices": ("values",),
    "parts": ("values",),
    "radius_band": ("lo", "hi", "center"),
    "half_space": ("normal", "offset"),
}


def _predicate_mask(pred, ctx: str, points: np.ndarray,
                    part_ids: np.ndarray) -> np.ndarray:
    _check_keys(pred, ctx, ("kind",),
                tuple({k for keys in _PRED_KEYS.values() for k in keys}))
    kind = pred["kind"]
    if kind not in _PRED_KEYS:
        raise ConfigError(f"{ctx}.kind: expected one of {sorted(_PRED_KEYS)}")
    stray = sorted(k for k in pred if k != "kind" and k not in _PRED_KEYS[kind])
    if stray:
        raise ConfigError(f"{ctx}: field(s) {stray} do not apply to kind {kind!r}")
    n = len(points)
    if kind == "all":
        return np.ones(n, dtype=bool)
    if kind == "indices":
        vals = pred.get("values")
        if not isinstance(vals, list):
            raise ConfigError(f"{ctx}.values: expected an array of indices")
        mask = np.zeros(n, dtype=bool)
        for v in vals:
            if not isinstance(v, int) or not (0 <= v < n):
                raise ConfigError(f"{ctx}.values: index {v!r} out of range 0..{n - 1}")
            mask[v] = True
        return mask
    if kind == "parts":
        vals = pred.get("values")
        if not isinstance(vals, list) or not all(isinstance(v, int) for v in vals):
            raise ConfigError(f"{ctx}.values: expected an array of part numbers")
        return np.isin(part_ids, vals)
    if kind == "radius_band":
        lo = _number(pred.get("lo", 0.0), f"{ctx}.lo")
        if "hi" not in pred:
            raise ConfigError(f"{ctx}: radius_band requires 'hi'")
        hi = _number(pred["hi"], f"{ctx}.hi")
        center = np.zeros(points.shape[1])
        if "center" in pred:
            center = _vector(pred["center"], f"{ctx}.center")
            if center.size != points.shape[1]:
                raise ConfigError(f"{ctx}.center: dimension mismatch")
        r = np.linalg.norm(points - center, axis=1)
        return (r >= lo) & (r <= hi)
    normal = _vector(pred.get("normal", []), f"{ctx}.normal") if "normal" in pred \
        else None
    if normal is None or "offset" not in pred:
        raise ConfigError(f"{ctx}: half_space requires 'normal' and 'offset'")
    if normal.size != points.shape[1]:
        raise ConfigError(f"{ctx}.normal: dimension mismatch")
    return points @ normal >= _number(pred["offset"], f"{ctx}.offset")


class Scenario:
    """Everything a task runner needs, built from a parsed config."""

    def __init__(self, cfg: dict, base_dir: str, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.alpha = None
        if "alpha" in cfg:
            self.alpha = _number(cfg["alpha"], "config.alpha")
        self.sigma = _number(cfg.get("sigma", 1.0), "config.sigma")
        tol = cfg.get("tolerances", {})
        _check_keys(tol, "config.tolerances", (), ("residual", "adjacency_factor"))
        self.residual_tol = _number(tol.get("residual", 1e-8),
                                    "config.tolerances.residual")
        self.adjacency_factor = _number(tol.get("adjacency_factor", 1.5),
                                        "config.tolerances.adjacency_factor")

        geo_points, self.part_ids, radii = _build_cloud(cfg, base_dir)
        self.n_geometry = len(geo_points)

        theta_spec = cfg.get("theta")
        theta_rows = np.empty((0, geo_points.shape[1]))
        theta_entries: dict[int, float] = {}
        if theta_spec is not None:
            _check_keys(theta_spec, "config.theta", ("weights",),
                        ("points", "indices"))
            weights = _vector(theta_spec["weights"], "config.theta.weights")
            if "points" in theta_spec:
                if "indices" in theta_spec:
                    raise ConfigError(
                        "config.theta: give 'points' or 'indices', not both")
                rows = theta_spec["points"]
                if not isinstance(rows, list) or len(rows) != weights.size:
                    raise ConfigError(
                        "config.theta.points: expected one row per weight")
                theta_rows = np.array(
                    [_vector(r, "config.theta.points") for r in rows])
                if theta_rows.shape[1] != geo_points.shape[1]:
                    raise ConfigError("config.theta.points: dimension mismatch")
                for k, w in enumerate(weights):
                    theta_entries[self.n_geometry + k] = float(w)
            elif "indices" in theta_spec:
                idx = theta_spec["indices"]
                if (not isinstance(idx, list) or len(idx) != weights.size
                        or not all(isinstance(v, int) for v in idx)):
                    raise ConfigError(
                        "config.theta.indices: expected one index per weight")
                for v, w in zip(idx, weights):
                    if not (0 <= v < self.n_geometry):
                        raise ConfigError(
                            f"config.theta.indices: index {v} out of range")
                    theta_entries[v] = theta_entries.get(v, 0.0) + float(w)
            else:
                raise ConfigError("config.theta: 'points' or 'indices' required")

        points = np.vstack([geo_points, theta_rows]) if len(theta_rows) \
            else geo_points
        if "dim" in cfg:
            want = int(_number(cfg["dim"], "config.dim"))
            if want != points.shape[1]:
                raise ValidationError(
                    f"config.dim = {want} but the cloud is {points.shape[1]}-dimensional")
        if radii is not None and len(theta_rows):
            extra = np.empty(len(theta_rows))
            for k, row in enumerate(theta_rows):
                d = np.linalg.norm(points - row, axis=1)
                d[self.n_geometry + k] = np.inf
                extra[k] = 0.5 * float(d.min())
            radii = np.concatenate([radii, extra])
        self.point_set = (PointSet(points, radii) if radii is not None
                          else PointSet.from_points(points))
        self.theta_entries = theta_entries
        self.theta_row_count = len(theta_rows)

    # -- region helpers -----------------------------------------------------

    def _mask(self, pred, ctx: str) -> np.ndarray:
        pts = self.point_set.points[:self.n_geometry]
        return _predicate_mask(pred, ctx, pts, self.part_ids)

    def region_indices(self, pred, ctx: str) -> np.ndarray:
        return np.where(self._mask(pred, ctx))[0]

    def theta_measure(self) -> DiscreteMeasure:
        if not self.theta_entries:
            raise ConfigError("config.theta is required for this task")
        return DiscreteMeasure.from_dict(len(self.point_set), self.theta_entries)

    def domain(self) -> DomainConfig:
        if self.alpha is None:
            raise ConfigError("config.alpha is required for this task")
        regions = self.cfg.get("regions")
        if regions is None:
            raise ConfigError("config.regions is required for this task")
        _check_keys(regions, "config.regions", ("f",), ("y", "d"))
        f_mask = self._mask(regions["f"], "config.regions.f")
        y_mask = (self._mask(regions["y"], "config.regions.y")
                  if "y" in regions else np.zeros(self.n_geometry, dtype=bool))
        if "d" in regions:
            d_mask = self._mask(regions["d"], "config.regions.d")
        else:
            d_mask = ~y_mask
        n_total = len(self.point_set)
        d_idx = np.concatenate([np.where(d_mask)[0],
                                np.arange(self.n_geometry, n_total)])
        return DomainConfig(self.point_set, d_idx, np.where(y_mask)[0],
                            np.where(f_mask)[0], self.alpha)

    def target_indices(self, default_all: bool = True) -> np.ndarray:
        if "target" in self.cfg:
            return self.region_indices(self.cfg["target"], "config.target")
        regions = self.cfg.get("regions")
        if regions is not None and "f" in regions:
            return np.where(self._mask(regions["f"], "config.regions.f"))[0]
        if default_all:
            return np.arange(self.n_geometry)
        raise ConfigError("config.target is required for this task")

    def family_indices(self) -> list[np.ndarray]:
        fam = self.cfg.get("family")
        if not isinstance(fam, list) or not fam:
            raise ConfigError("config.family: expected a nonempty array of predicates")
        return [self.region_indices(p, f"config.family[{k}]")
                for k, p in enumerate(fam)]

    def kernel(self):
        if self.alpha is None:
            raise ConfigError("config.alpha is required for this task")
        return assemble_riesz(self.point_set, self.alpha, self.sigma)


def _move_into(src: str, dest: str) -> None:
    """Move every entry of directory src into directory dest, merging
    directories that exist in both and replacing files."""
    for entry in os.scandir(src):
        target = os.path.join(dest, entry.name)
        if entry.is_dir() and os.path.isdir(target):
            _move_into(entry.path, target)
            os.rmdir(entry.path)
        else:
            os.replace(entry.path, target)


class Artifacts:
    """Collects output files in a staging directory inside out_dir.

    The staging directory is a hidden subdirectory of out_dir, made on first
    use together with out_dir itself. commit() moves the staged files into
    out_dir once the run is complete and discard() removes what is left, and
    out_dir too if this run made it and committed nothing, so a run that
    stops with an error leaves out_dir as it found it.
    """

    def __init__(self, out_dir: str, want_plots: bool):
        self.out_dir = out_dir
        self.want_plots = want_plots
        self.tables: list[str] = []
        self.plots: list[str] = []
        self._stage: str | None = None
        self._made_out_dir = False

    @property
    def stage(self) -> str:
        if self._stage is None:
            self._made_out_dir = not os.path.isdir(self.out_dir)
            if self._made_out_dir:
                os.makedirs(self.out_dir)
            self._stage = tempfile.mkdtemp(prefix=".greenpot-stage-",
                                           dir=self.out_dir)
        return self._stage

    def _dir(self, sub: str) -> str:
        path = os.path.join(self.stage, sub)
        os.makedirs(path, exist_ok=True)
        return path

    def commit(self) -> None:
        """Move the staged files into out_dir, replacing files of the same name.

        Files already in out_dir under other names stay. A staged directory
        that out_dir lacks moves in whole, in one rename.
        """
        _move_into(self.stage, self.out_dir)
        os.rmdir(self._stage)
        self._stage = None

    def discard(self) -> None:
        """Remove an uncommitted stage, and out_dir if this run made it."""
        if self._stage is None:
            return
        shutil.rmtree(self._stage, ignore_errors=True)
        self._stage = None
        if self._made_out_dir:
            try:
                os.rmdir(self.out_dir)
            except OSError:
                pass

    def table(self, name: str, header, rows) -> str:
        path = os.path.join(self._dir("tables"), name)
        write_csv(path, header, rows)
        self.tables.append(os.path.join("tables", name))
        return path

    def table_path(self, name: str) -> str:
        self.tables.append(os.path.join("tables", name))
        return os.path.join(self._dir("tables"), name)

    def line(self, name: str, series, title, xlabel, ylabel, logy=False) -> None:
        if not self.want_plots:
            return
        path = os.path.join(self._dir("plots"), name)
        line_plot(path, series, title, xlabel, ylabel, logy=logy)
        self.plots.append(os.path.join("plots", name))

    def scatter(self, name: str, xy, values, title) -> None:
        if not self.want_plots:
            return
        path = os.path.join(self._dir("plots"), name)
        scatter_plot(path, xy, values, title)
        self.plots.append(os.path.join("plots", name))


def _measure_rows(ps: PointSet, indices: np.ndarray, weights: np.ndarray):
    """Float rows (index, coordinates, weight) for write_csv's array path,
    which prints the integral index column as integers."""
    return np.column_stack((indices, ps.points[indices], weights[indices]))


def _coord_header(dim: int) -> list:
    return ["index", *[f"x{k}" for k in range(dim)], "weight"]


# ---------------------------------------------------------------------------
# task runners: each returns (report-body dict, exit code)


def _at_most(name: str, value, tolerance) -> dict:
    """Invariant record that passes when the reported value is within tolerance."""
    return {"name": name, "value": value, "tolerance": tolerance,
            "passed": value <= tolerance}


# make_kernel raises SolverError on a failed Cholesky before any report exists,
# and a Green matrix it did not check is a principal block of one it did
_POSITIVE_DEFINITE = {"name": "positive_definite", "value": True,
                      "tolerance": None, "passed": True}


def _run_kernel(sc: Scenario, art: Artifacts) -> dict:
    K = sc.kernel()
    save_kernel_csv(K, art.table_path("kernel.csv"))
    diag = np.diag(K.entries)
    off = K.entries[~np.eye(K.size, dtype=bool)] if K.size > 1 else np.array([0.0])
    nn = nearest_neighbor_distances(sc.point_set.points) if K.size > 1 else None
    return {
        "results": {
            "size": K.size, "alpha": K.alpha, "dim": K.dim, "sigma": sc.sigma,
            "diagonal_min": float(diag.min()), "diagonal_max": float(diag.max()),
            "off_diagonal_max": float(off.max()),
            "cell_radius_min": float(np.min(sc.point_set.cell_radius)),
            "cell_radius_max": float(np.max(sc.point_set.cell_radius)),
            "nearest_neighbor_min": float(nn.min()) if nn is not None else None,
        },
        "invariants": [
            _at_most("symmetric",
                     float(np.abs(K.entries - K.entries.T).max(initial=0.0)), 0.0),
            _POSITIVE_DEFINITE,
        ],
        "hypotheses": [
            {"name": "alpha_admissible", "status": "checked",
             "value": f"0 < {K.alpha} <= 2, alpha < {K.dim}"},
        ],
    }


def _run_capacity(sc: Scenario, art: Artifacts) -> dict:
    K = sc.kernel()
    target = sc.target_indices()
    cap, mu = capacity(K, target)
    u = potential(K, mu)
    supp = mu.support
    art.table("minimizer.csv", _coord_header(sc.point_set.dim),
              _measure_rows(sc.point_set, target, mu.weights))
    art.scatter("support.svg", sc.point_set.points[supp][:, :2],
                mu.weights[supp], "capacity minimizer support")
    energy = 1.0 / cap
    return {
        "results": {
            "capacity": cap, "energy": energy, "mass": mu.total_mass,
            "target_size": int(target.size), "support_size": int(supp.size),
            "potential_min_on_target": float(u[target].min()),
            "potential_max_on_support": float(u[supp].max()),
        },
        "invariants": [
            _at_most("unit_mass", abs(mu.total_mass - 1.0), 1e-12),
            _at_most("potential_at_least_energy_on_target",
                     float(energy - u[target].min()), sc.residual_tol * energy),
        ],
        "hypotheses": [],
    }


def _run_equilibrium(sc: Scenario, art: Artifacts) -> dict:
    K = sc.kernel()
    target = sc.target_indices()
    gamma = equilibrium_measure(K, target)
    u = potential(K, gamma)
    supp = gamma.support
    art.table("equilibrium.csv", _coord_header(sc.point_set.dim),
              _measure_rows(sc.point_set, target, gamma.weights))
    art.scatter("support.svg", sc.point_set.points[supp][:, :2],
                gamma.weights[supp], "equilibrium measure support")
    dev = float(np.max(np.abs(u[supp] - 1.0)))
    return {
        "results": {
            "capacity": gamma.total_mass, "target_size": int(target.size),
            "support_size": int(supp.size),
            "potential_on_support_max_deviation": dev,
            "potential_min_on_target": float(u[target].min()),
        },
        "invariants": [
            _at_most("unit_potential_on_support", dev, sc.residual_tol),
            _at_most("potential_at_least_one_on_target",
                     float(1.0 - u[target].min()), sc.residual_tol),
        ],
        "hypotheses": [],
    }


def _run_sweep(sc: Scenario, art: Artifacts) -> dict:
    K = sc.kernel()
    theta = sc.theta_measure()
    target = sc.target_indices(default_all=False)
    res = sweep(K, theta, target)
    art.table("swept.csv", _coord_header(sc.point_set.dim),
              _measure_rows(sc.point_set, target, res.swept.weights))
    supp = res.swept.support
    if supp.size:
        art.scatter("support.svg", sc.point_set.points[supp][:, :2],
                    res.swept.weights[supp], "swept measure support")
    body = res.to_json_dict()
    kk = res.kkt_residuals
    worst = max(kk.equality_on_support, kk.inequality_on_target)
    return {
        "results": body,
        "invariants": [
            _at_most("projection_first_order_conditions", worst, sc.residual_tol),
            _at_most("mass_not_increased", float(res.mass_out - res.mass_in), 1e-10),
        ],
        "hypotheses": [
            {"name": "domination_outside_target", "status": "checked",
             "value": kk.domination_off_target},
        ],
    }


def _green_report(gs) -> dict:
    G = gs.green.entries
    return {
        "f_size": int(gs.cfg.f_indices.size),
        "y_size": int(gs.cfg.y_indices.size),
        "d_size": int(gs.cfg.d_indices.size),
        "alpha": gs.cfg.alpha,
        "asymmetry_residual": gs.asymmetry_residual,
        "entry_min": float(G.min()),
        "diagonal_min": float(np.diag(G).min()),
    }


def _run_green(sc: Scenario, art: Artifacts) -> dict:
    cfg = sc.domain()
    gs = build_green(cfg, sc.sigma)
    n_d = cfg.d_indices.size
    art.table("green_matrix.csv", [f"d{k}" for k in range(n_d)],
              gs.green.entries)
    if cfg.y_indices.size:
        art.table("dirac_sweep_to_y.csv", [f"source{k}" for k in range(n_d)],
                  gs.dirac_sweep_to_y[cfg.y_indices])
    body = _green_report(gs)
    return {
        "results": body,
        "invariants": [
            _at_most("symmetrization_residual", gs.asymmetry_residual,
                     sc.residual_tol),
            {"name": "entries_between_zero_and_riesz", "value": body["entry_min"],
             "tolerance": 1e-10, "passed": body["entry_min"] >= -1e-10},
            _POSITIVE_DEFINITE,
        ],
        "hypotheses": [
            {"name": "y_closed_and_separated", "status": "checked",
             "value": "build rejects overlapping regions"},
        ],
    }


def _run_gauss(sc: Scenario, art: Artifacts) -> dict:
    cfg = sc.domain()
    gs = build_green(cfg, sc.sigma)
    fld = external_field(gs, sc.theta_measure())
    sol = solve_gauss(gs, fld, check_uniqueness=True)
    lam = sol.minimizer
    supp = lam.support
    art.table("minimizer.csv", _coord_header(sc.point_set.dim),
              _measure_rows(sc.point_set, cfg.f_indices, lam.weights))
    art.scatter("support.svg", sc.point_set.points[supp][:, :2],
                lam.weights[supp], "weighted minimizer support")
    m_swept = fld.theta_swept.total_mass
    rep: dict = {"applicable": bool(m_swept <= 1.0 + 1e-12)}
    if rep["applicable"]:
        exp = explicit_solution(gs, fld)
        c_g = exp.diagnostics["green_capacity_of_f"]
        gamma = exp.diagnostics["green_equilibrium_of_f"]
        diff = gs.measure_on_d(lam) - gs.measure_on_d(exp.minimizer)
        rep["lambda_gap_norm"] = weight_norm(gs.green, diff)
        rep["c_gap"] = abs(sol.c_constant - exp.c_constant)
        dual = dual_check(gs, fld, sol=sol)
        rep["dual_w_gap"] = dual["w_gap"]
        rep["dual_c_gap"] = dual["c_gap"]
    else:
        c_g, gamma = green_equilibrium(gs, cfg.f_indices)
    kkt = sol.kkt
    return {
        "results": {
            "w_value": sol.w_value, "c_constant": sol.c_constant,
            "support_size": int(supp.size),
            "theta_mass": fld.theta.total_mass,
            "theta_swept_mass": m_swept,
            "separation_rho": fld.rho,
            "mass_bound": fld.mass_bound,
            "kkt": {
                "support_residual": kkt.support_residual,
                "off_support_slack": kkt.off_support_slack,
                "mass_error": kkt.mass_error,
                "min_weight": kkt.min_weight,
                "iterations": kkt.iterations,
                "tolerance": kkt.tolerance,
            },
            "diagnostics": {**sol.diagnostics, "green_capacity_of_f": c_g,
                            "frostman_excess": frostman_excess(gs, gamma)},
            "representation": rep,
        },
        "invariants": [
            _at_most("unit_mass", kkt.mass_error, 1e-12),
            _at_most("stationarity_on_support", kkt.support_residual,
                     sc.residual_tol),
            _at_most("no_descent_off_support", kkt.off_support_slack,
                     sc.residual_tol),
        ],
        "hypotheses": [
            {"name": "charge_separated_from_f", "status": "checked",
             "value": fld.rho},
            {"name": "swept_mass_at_most_one", "status": "checked",
             "value": m_swept},
        ],
    }


def _run_truncation(sc: Scenario, art: Artifacts) -> dict:
    cfg = sc.domain()
    gs = build_green(cfg, sc.sigma)
    fld = external_field(gs, sc.theta_measure())
    family = sc.family_indices()
    rep = truncation_sweep(gs, fld, family)
    rows = list(zip(rep.sizes, rep.w_values, rep.c_values, rep.swept_masses,
                    rep.cauchy_norms))
    art.table("truncation.csv",
              ["f_size", "w", "c", "swept_mass", "cauchy_to_final"], rows)
    art.line("w_curve.svg",
             [("w", [float(s) for s in rep.sizes], rep.w_values),
              ("c", [float(s) for s in rep.sizes], rep.c_values)],
             "values along nested truncations", "truncation size", "value")
    excess = max((p["lhs"] - p["rhs"] for p in rep.parallelogram), default=0.0)
    # w may only fall along a growing family and only rise along a shrinking one
    sign = 1.0 if rep.direction == "increasing" else -1.0
    w_against = max((sign * (b - a) for a, b in zip(rep.w_values, rep.w_values[1:])),
                    default=0.0)
    return {
        "results": {
            "direction": rep.direction, "sizes": [int(s) for s in rep.sizes],
            "w_values": rep.w_values, "c_values": rep.c_values,
            "swept_masses": rep.swept_masses,
            "cauchy_norms": rep.cauchy_norms,
            "parallelogram_max_excess": excess,
        },
        "invariants": [
            _at_most("w_monotone", w_against, 1e-10),
            _at_most("parallelogram_bound", excess, 1e-9),
        ],
        "hypotheses": [
            {"name": "swept_mass_at_most_one", "status": "checked",
             "value": max(rep.swept_masses)},
        ],
    }


def _run_exhaustion(sc: Scenario, art: Artifacts) -> dict:
    cfg = sc.domain()
    gs = build_green(cfg, sc.sigma)
    fld = external_field(gs, sc.theta_measure())
    family = sc.family_indices()
    window = None
    if "window" in sc.cfg:
        window = sc.region_indices(sc.cfg["window"], "config.window")
    probe = exhaustion_mass_probe(gs, fld, family, window=window)
    rows = [(r["size"], r["w"], r["c"], r["swept_mass"], r["window_mass"],
             r["support_radius"], r["dist_to_swept"], r["extremal_energy"])
            for r in probe["stages"]]
    art.table("exhaustion.csv",
              ["f_size", "w", "c", "swept_mass", "window_mass",
               "support_radius", "dist_to_swept", "extremal_energy"], rows)
    art.line("window_mass.svg",
             [("window mass", [float(r["size"]) for r in probe["stages"]],
               [r["window_mass"] for r in probe["stages"]])],
             "mass kept inside the fixed window", "truncation size", "mass")
    return {
        "results": probe,
        "invariants": [],
        "hypotheses": [
            {"name": "total_charge", "status": "checked",
             "value": fld.theta.total_mass},
        ],
    }


def _run_support(sc: Scenario, art: Artifacts) -> dict:
    cfg = sc.domain()
    gs = build_green(cfg, sc.sigma)
    fld = external_field(gs, sc.theta_measure())
    sol = solve_gauss(gs, fld)
    desc = support_descriptor(sol, cfg, adjacency_factor=sc.adjacency_factor)
    lam = sol.minimizer
    art.table("minimizer.csv", _coord_header(sc.point_set.dim),
              _measure_rows(sc.point_set, cfg.f_indices, lam.weights))
    supp = lam.support
    art.scatter("support.svg", sc.point_set.points[supp][:, :2],
                lam.weights[supp], "minimizer support")
    return {
        "results": {
            "w_value": sol.w_value, "c_constant": sol.c_constant,
            "boundary_count": desc["boundary_count"],
            "boundary_mass_fraction": desc["boundary_mass_fraction"],
            "interior_mass_fraction": desc["interior_mass_fraction"],
            "support_radius": desc["support_radius"],
            "adjacency_factor": desc["adjacency_factor"],
        },
        "invariants": [],
        "hypotheses": [
            {"name": "omega_connected", "status": "checked",
             "value": desc["omega_connected"]},
            {"name": "omega_components", "status": "checked",
             "value": desc["omega_components"]},
        ],
    }


_RUNNERS = {
    "kernel": _run_kernel,
    "capacity": _run_capacity,
    "equilibrium": _run_equilibrium,
    "sweep": _run_sweep,
    "green": _run_green,
    "gauss": _run_gauss,
    "truncation": _run_truncation,
    "exhaustion": _run_exhaustion,
    "support": _run_support,
}


def _run_verify_all(cfg: dict, art: Artifacts, seed: int,
                    filters: list[str] | None) -> tuple[dict, int]:
    which = filters
    if which is None and "criteria" in cfg:
        crit = cfg["criteria"]
        if not isinstance(crit, list) or not crit:
            raise ConfigError("config.criteria: expected a nonempty array of ids")
        which = [str(c) for c in crit]
    try:
        results = verify.run_all(seed=seed, which=which)
    except ValueError as exc:
        raise ConfigError(str(exc))
    names = verify.write_tables(results, art.stage)
    art.tables.extend(os.path.join("tables", n) for n in names)
    _verify_plots(results, art)
    body = {
        "criteria": [
            {"id": r.cid, "title": r.title, "passed": r.passed,
             "threshold": verify.THRESHOLDS[r.cid], "measured": r.measured}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    # wall-clock times differ run to run, so they stay out of report.json
    write_json(os.path.join(art.stage, "timing.json"),
               {"criteria": [{"id": r.cid, "runtime_s": r.runtime_s}
                             for r in results]})
    code = EXIT_OK if body["all_passed"] else EXIT_INVARIANT
    return body, code


def _verify_plots(results, art: Artifacts) -> None:
    for r in results:
        if r.cid == "5":
            pts = [(float(row[1]), float(row[3])) for row in r.table_rows
                   if row[0] == "half_space_kernel"]
            if pts:
                art.line("half_space_error.svg",
                         [("max relative error", [p[0] for p in pts],
                           [p[1] for p in pts])],
                         "half-space kernel error under densification",
                         "reflecting cloud size", "relative error", logy=True)
        if r.cid == "7":
            pts = [(float(row[1]), float(row[3])) for row in r.table_rows
                   if row[0] == "charge_0.5"]
            if pts:
                art.line("window_mass.svg",
                         [("window mass", [p[0] for p in pts],
                           [p[1] for p in pts])],
                         "mass left in the first window, charge 0.5",
                         "stage", "mass")
        if r.cid == "6":
            pts = [(float(row[1]), float(row[2]), float(row[3]))
                   for row in r.table_rows if row[0] == "grow"]
            if pts:
                art.line("truncation_values.svg",
                         [("w", [p[0] for p in pts], [p[1] for p in pts]),
                          ("c", [p[0] for p in pts], [p[2] for p in pts])],
                         "values along growing truncations", "size", "value")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="greenpot",
        description="potential-theory scenario runner on finite point clouds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("run", "execute the task named in the config"),
                       ("verify-all", "run the standard verification suite")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("config", help="path to a JSON scenario config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--filter", action="append", default=None,
                       metavar="CRITERION",
                       help="criterion id to run (repeatable, verify-all only)")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    task = cfg["task"]
    if args.command == "verify-all":
        task = "verify-all"
    seed = args.seed
    if seed is None:
        seed = int(cfg.get("seed", 0)) if not isinstance(cfg.get("seed", 0), bool) \
            else 0
    out_dir = args.out or cfg.get("output_dir") or "out"
    want_plots = bool(cfg.get("plots", True))
    art = Artifacts(out_dir, want_plots)
    base_dir = os.path.dirname(os.path.abspath(args.config))

    report = {
        "schema_version": SCHEMA_VERSION,
        "task": task,
        "seed": seed,
    }
    try:
        if task == "verify-all":
            body, code = _run_verify_all(cfg, art, seed, args.filter)
        else:
            if args.filter:
                print("config error: --filter applies to verify-all only",
                      file=sys.stderr)
                return EXIT_CONFIG
            sc = Scenario(cfg, base_dir, seed)
            body = _RUNNERS[task](sc, art)
            report["alpha"] = sc.alpha
            report["sigma"] = sc.sigma
            code = EXIT_OK
            for inv in body.get("invariants", []):
                if not inv["passed"]:
                    code = EXIT_INVARIANT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except InvariantError as exc:
        print(f"invariant error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    else:
        report.update(body)
        report["artifacts"] = {"tables": sorted(art.tables),
                               "plots": sorted(art.plots)}
        write_json(os.path.join(art.stage, "report.json"), report)
        art.commit()
        return code
    finally:
        # nothing staged reaches out_dir unless the report was committed
        art.discard()


if __name__ == "__main__":
    sys.exit(main())
