"""Config-driven scenario runner: `greenpot run CONFIG [--out DIR]`.

A single JSON config names a task and exactly the inputs that task reads
(`_TASK_KEYS`): a point-cloud geometry, region assignments, an external
charge and so on. The runner executes the task and writes report.json and
tables/*.csv (17 significant digits) into the output directory (default
`out`); verify-all also writes the wall times of its checks to timing.json
beside them. Files are staged in a hidden
subdirectory of it and moved in only once report.json is written; a run that
stops with an error (a config, validation or solver error, or a raised
invariant error) leaves the directory as it found it.

Exit codes: 0 success, 2 config parse failure or usage error (such as an
--out that is, or lies under, a file), 3 validation failure, 4 solver
failure, 5 invariant failure.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .gauss import (PARALLELOGRAM_TOL, closed_form_applies, dual_check,
                    explicit_solution, external_field, family_sweep,
                    solve_gauss, support_descriptor)
from .green import (_build as _build_green, build_green, frostman_excess,
                    green_equilibrium)
from .reports import SCHEMA_VERSION, write_csv, write_json
from .riesz import assemble_riesz, capacity, potential

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4
EXIT_INVARIANT = 5

# Tolerance of the reported first-order, potential and symmetrization
# invariants.
RESIDUAL_TOL = 1e-8

_CHARGED = ("alpha", "geometry", "regions", "theta")

# The keys each task reads, (required, optional); every config also requires
# "task". A key outside its task's row is a config error.
_TASK_KEYS = {
    "kernel": (("alpha", "geometry"), ("sigma",)),
    "capacity": (("alpha", "geometry"), ("sigma", "target")),
    "sweep": (("alpha", "geometry", "theta", "target"), ("sigma",)),
    "green": (("alpha", "geometry", "regions"), ("sigma",)),
    "gauss": (_CHARGED, ("sigma",)),
    "family": ((*_CHARGED, "family"), ("sigma", "window")),
    "verify-all": ((), ("seed", "criteria")),
}
TASKS = tuple(_TASK_KEYS)


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


def _is_int(obj) -> bool:
    """True for a JSON integer; true and false are not integers here."""
    return isinstance(obj, int) and not isinstance(obj, bool)


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
    if not isinstance(raw, dict):
        raise ConfigError("config: expected an object")
    task = raw.get("task")
    if task not in TASKS:
        raise ConfigError(f"config.task: expected one of {list(TASKS)}, got {task!r}")
    required, optional = _TASK_KEYS[task]
    _check_keys(raw, "config", ("task", *required), optional)
    seed = raw.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ConfigError(
            f"config.seed: expected a non-negative integer, got {seed!r}")
    return raw


# ---------------------------------------------------------------------------
# geometry and regions


def _build_part(spec, ctx: str) -> np.ndarray:
    _check_keys(spec, ctx, ("generator",), ("params", "offset", "scale"))
    name = spec["generator"]
    if not isinstance(name, str) or name not in geometry.GENERATORS:
        raise ConfigError(
            f"{ctx}.generator: unknown generator {name!r}; available: "
            f"{sorted(geometry.GENERATORS)}")
    fn = geometry.GENERATORS[name]
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{ctx}.params: expected an object")
    try:
        pts = np.asarray(fn(**params), dtype=float)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{ctx}.params: {exc}")
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
    """Return (points, part_ids, radii-or-None) for the geometry block: a
    CSV's radius column, if it has one, states its own rows' radii."""
    geom = cfg["geometry"]
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
            points, radii = geometry._read_csv(path)
        except OSError as exc:
            raise ConfigError(f"config.geometry.csv: {exc}")
        return points, np.zeros(len(points), dtype=int), radii
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
    total = sum(len(c) for c in chunks)
    if total > geometry.MAX_POINTS:
        # each part is within the cap; their stack must be too
        raise ValidationError(f"config.geometry.parts: the parts make {total} "
                              f"points; a cloud has 1 to {geometry.MAX_POINTS}")
    return np.vstack(chunks), np.concatenate(ids), None


# The keys each predicate kind reads besides "kind", (required, optional).
_PRED_KEYS = {
    "all": ((), ()),
    "indices": (("values",), ()),
    "parts": (("values",), ()),
    "radius_band": (("hi",), ("lo", "center")),
    "half_space": (("normal", "offset"), ()),
}


def _predicate_mask(pred, ctx: str, points: np.ndarray,
                    part_ids: np.ndarray) -> np.ndarray:
    kind = pred.get("kind") if isinstance(pred, dict) else None
    if not isinstance(kind, str) or kind not in _PRED_KEYS:
        raise ConfigError(f"{ctx}.kind: expected one of {sorted(_PRED_KEYS)}")
    required, optional = _PRED_KEYS[kind]
    _check_keys(pred, ctx, ("kind", *required), optional)
    n = len(points)
    if kind == "all":
        return np.ones(n, dtype=bool)
    if kind == "indices":
        vals = pred["values"]
        if not isinstance(vals, list):
            raise ConfigError(f"{ctx}.values: expected an array of indices")
        mask = np.zeros(n, dtype=bool)
        for v in vals:
            if not _is_int(v) or not (0 <= v < n):
                raise ConfigError(
                    f"{ctx}.values: expected an index in 0..{n - 1}, got {v!r}")
            mask[v] = True
        return mask
    if kind == "parts":
        vals = pred["values"]
        if not isinstance(vals, list):
            raise ConfigError(f"{ctx}.values: expected an array of part numbers")
        # part_ids numbers the parts 0, 1, ... in order; a CSV cloud is part 0
        last = int(part_ids[-1])
        for v in vals:
            if not _is_int(v) or not (0 <= v <= last):
                raise ConfigError(
                    f"{ctx}.values: expected a part number in 0..{last}, got {v!r}")
        return np.isin(part_ids, vals)
    if kind == "radius_band":
        lo = _number(pred.get("lo", 0.0), f"{ctx}.lo")
        hi = _number(pred["hi"], f"{ctx}.hi")
        center = np.zeros(points.shape[1])
        if "center" in pred:
            center = _vector(pred["center"], f"{ctx}.center")
            if center.size != points.shape[1]:
                raise ConfigError(f"{ctx}.center: dimension mismatch")
        r = np.linalg.norm(points - center, axis=1)
        return (r >= lo) & (r <= hi)
    normal = _vector(pred["normal"], f"{ctx}.normal")
    if normal.size != points.shape[1]:
        raise ConfigError(f"{ctx}.normal: dimension mismatch")
    return points @ normal >= _number(pred["offset"], f"{ctx}.offset")


class Scenario:
    """Everything a task runner needs, built from a parsed config."""

    def __init__(self, cfg: dict, base_dir: str):
        self.cfg = cfg
        self.alpha = _number(cfg["alpha"], "config.alpha")
        self.sigma = _number(cfg.get("sigma", 1.0), "config.sigma")

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
                rows = [_vector(r, "config.theta.points") for r in rows]
                if any(r.size != geo_points.shape[1] for r in rows):
                    raise ConfigError("config.theta.points: dimension mismatch")
                theta_rows = np.array(rows)
                for k, w in enumerate(weights):
                    theta_entries[self.n_geometry + k] = float(w)
            elif "indices" in theta_spec:
                idx = theta_spec["indices"]
                if (not isinstance(idx, list) or len(idx) != weights.size
                        or not all(_is_int(v) for v in idx)):
                    raise ConfigError(
                        "config.theta.indices: expected one index per weight")
                for v, w in zip(idx, weights):
                    if not (0 <= v < self.n_geometry):
                        raise ConfigError(
                            f"config.theta.indices: index {v} out of range")
                    theta_entries[v] = theta_entries.get(v, 0.0) + float(w)
            else:
                raise ConfigError("config.theta: 'points' or 'indices' required")

        total = self.n_geometry + len(theta_rows)
        if total > geometry.MAX_POINTS:
            # the charge's points join the cloud, so the cap counts them
            raise ValidationError(
                f"config.theta.points: the cloud and the charge make {total} "
                f"points; a cloud has 1 to {geometry.MAX_POINTS}")
        points = np.vstack([geo_points, theta_rows]) if len(theta_rows) \
            else geo_points
        nn = None
        if radii is not None and len(theta_rows):
            nn = nearest_neighbor_distances(points)
            radii = np.concatenate([radii, nn[self.n_geometry:] / 2])
        self.point_set = (PointSet(points, radii, nn) if radii is not None
                          else PointSet.from_points(points))
        self.theta_entries = theta_entries

    # -- region helpers -----------------------------------------------------

    def _mask(self, pred, ctx: str) -> np.ndarray:
        pts = self.point_set.points[:self.n_geometry]
        return _predicate_mask(pred, ctx, pts, self.part_ids)

    def region_indices(self, pred, ctx: str) -> np.ndarray:
        return np.where(self._mask(pred, ctx))[0]

    def theta_measure(self) -> DiscreteMeasure:
        return DiscreteMeasure.from_dict(len(self.point_set), self.theta_entries)

    def domain(self) -> DomainConfig:
        regions = self.cfg["regions"]
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

    def target_indices(self) -> np.ndarray:
        """The target predicate's points, or every geometry point without one."""
        if "target" in self.cfg:
            return self.region_indices(self.cfg["target"], "config.target")
        return np.arange(self.n_geometry)

    def family_indices(self) -> list[np.ndarray]:
        fam = self.cfg["family"]
        if not isinstance(fam, list) or not fam:
            raise ConfigError("config.family: expected a nonempty array of predicates")
        return [self.region_indices(p, f"config.family[{k}]")
                for k, p in enumerate(fam)]

    def kernel(self):
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

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.tables: list[str] = []
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

    def table(self, name: str, header, rows) -> None:
        """Stage tables/name, which is added to the tables listing."""
        os.makedirs(os.path.join(self.stage, "tables"), exist_ok=True)
        self.tables.append(os.path.join("tables", name))
        write_csv(os.path.join(self.stage, "tables", name), header, rows)


def _write_measure(art: Artifacts, ps: PointSet, name: str, indices: np.ndarray,
                   mu: DiscreteMeasure) -> None:
    """Table of mu on indices: index, coordinates, weight.

    The rows are floats for write_csv's array path, which prints the integral
    index column as integers.
    """
    art.table(name, ["index", *[f"x{k}" for k in range(ps.dim)], "weight"],
              np.column_stack((indices, ps.points[indices], mu.weights[indices])))


def _field_system(sc: Scenario):
    """External field of a scenario with a charge, on its Green system."""
    return external_field(build_green(sc.domain(), sc.sigma), sc.theta_measure())


# ---------------------------------------------------------------------------
# task runners: each returns the report's results and, unless there are
# none, its invariants


def _at_most(name: str, value, tolerance) -> dict:
    """Invariant record that passes when the reported value is within tolerance."""
    return {"name": name, "value": value, "tolerance": tolerance,
            "passed": value <= tolerance}


def _off_diagonal_max(a: np.ndarray) -> float:
    """Largest entry of the square matrix a off its diagonal (0.0 when there
    is none). Past the first, the m * m - 1 C-ordered entries of a form
    m - 1 rows of m + 1 whose last entry is on the diagonal, so a strided
    view without that column holds the rest: no mask or copy."""
    m = a.shape[0]
    if m < 2:
        return 0.0
    return float(a.ravel()[1:].reshape(m - 1, m + 1)[:, :-1].max())


def _run_kernel(sc: Scenario, art: Artifacts) -> dict:
    K = sc.kernel()
    art.table("kernel.csv", [f"k{j}" for j in range(K.size)], K.entries)
    diag = np.diag(K.entries)
    return {
        "results": {
            "size": K.size, "dim": sc.point_set.dim,
            "diagonal_min": float(diag.min()), "diagonal_max": float(diag.max()),
            "off_diagonal_max": _off_diagonal_max(K.entries),
            "cell_radius_min": float(np.min(sc.point_set.cell_radius)),
            "cell_radius_max": float(np.max(sc.point_set.cell_radius)),
            # PointSet keeps the distances it checked the radii against
            "nearest_neighbor_min": (float(sc.point_set._nn.min()) if K.size > 1
                                     else None),
        },
    }


def _run_capacity(sc: Scenario, art: Artifacts) -> dict:
    K = sc.kernel()
    target = sc.target_indices()
    cap, mu = capacity(K, target)
    u = potential(K, mu)
    supp = mu.support
    _write_measure(art, sc.point_set, "minimizer.csv", target, mu)
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
            _at_most("potential_equals_energy_on_support",
                     float(np.max(np.abs(u[supp] - energy))),
                     RESIDUAL_TOL * energy),
            _at_most("potential_at_least_energy_on_target",
                     float(energy - u[target].min()), RESIDUAL_TOL * energy),
        ],
    }


def _run_sweep(sc: Scenario, art: Artifacts) -> dict:
    K = sc.kernel()
    theta = sc.theta_measure()
    target = sc.target_indices()
    res = sweep(K, theta, target)
    _write_measure(art, sc.point_set, "swept.csv", target, res.swept)
    body = res.to_json_dict()
    kk = res.kkt_residuals
    worst = max(kk.equality_on_support, kk.inequality_on_target)
    return {
        "results": body,
        "invariants": [
            _at_most("projection_first_order_conditions", worst, RESIDUAL_TOL),
            _at_most("mass_not_increased", float(res.mass_out - res.mass_in), 1e-10),
        ],
    }


def _run_green(sc: Scenario, art: Artifacts) -> dict:
    cfg = sc.domain()
    gs, W, asym = _build_green(cfg, sc.sigma)
    n_d = cfg.d_indices.size
    art.table("green_matrix.csv", [f"d{k}" for k in range(n_d)],
              gs.green.entries)
    if cfg.y_indices.size:
        art.table("dirac_sweep_to_y.csv", [f"source{k}" for k in range(n_d)],
                  W)
    G = gs.green.entries
    return {
        "results": {
            "f_size": int(cfg.f_indices.size), "y_size": int(cfg.y_indices.size),
            "d_size": int(n_d),
            "asymmetry_residual": asym,
            "entry_min": float(G.min()), "diagonal_min": float(np.diag(G).min()),
        },
        "invariants": [
            _at_most("symmetrization_residual", asym, RESIDUAL_TOL),
        ],
    }


def _run_gauss(sc: Scenario, art: Artifacts) -> dict:
    fld = _field_system(sc)
    gs, cfg = fld.system, fld.system.cfg
    sol = solve_gauss(fld)
    lam = sol.minimizer
    supp = lam.support
    _write_measure(art, sc.point_set, "minimizer.csv", cfg.f_indices, lam)
    m_swept = fld.theta_swept.total_mass
    rep: dict = {"applicable": closed_form_applies(m_swept)}
    if rep["applicable"]:
        dual = dual_check(fld, sol=sol)
        exp = explicit_solution(fld)
        c_g = exp.diagnostics["green_capacity_of_f"]
        gamma = exp.diagnostics["green_equilibrium_of_f"]
        rep["lambda_gap_norm"] = gs.distance(lam, exp.minimizer)
        rep["c_gap"] = abs(sol.c_constant - exp.c_constant)
        rep["dual_w_gap"] = dual["w_gap"]
        rep["dual_iterations"] = dual["dual"].kkt.iterations
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
            # the record's multiplier is c_constant
            "kkt": {k: v for k, v in dataclasses.asdict(kkt).items()
                    if k != "multiplier"},
            "diagnostics": {**sol.diagnostics, "green_capacity_of_f": c_g,
                            "frostman_excess": frostman_excess(gs, gamma)},
            "representation": rep,
            "support": support_descriptor(sol, cfg),
        },
        "invariants": [
            _at_most("stationarity_on_support", kkt.support_residual,
                     RESIDUAL_TOL),
            _at_most("no_descent_off_support", kkt.off_support_slack,
                     RESIDUAL_TOL),
        ],
    }


def _run_family(sc: Scenario, art: Artifacts) -> dict:
    fld = _field_system(sc)
    window = None
    if "window" in sc.cfg:
        window = sc.region_indices(sc.cfg["window"], "config.window")
    rep = family_sweep(fld, sc.family_indices(), window=window)
    columns = {"f_size": rep.sizes, "w": rep.w_values, "c": rep.c_values,
               "swept_mass": rep.swept_masses, "cauchy_to_final": rep.cauchy_norms,
               "window_mass": rep.window_masses,
               "support_radius": rep.support_radii,
               "dist_to_swept": rep.dist_to_swept,
               "extremal_energy": rep.extremal_energies}
    art.table("family.csv", list(columns), list(zip(*columns.values())))
    return {
        "results": {
            "direction": rep.direction, "window_size": rep.window_size,
            "parallelogram_max_excess": rep.max_excess,
            "theta_mass": fld.theta.total_mass,
        },
        "invariants": [
            _at_most("parallelogram_bound", rep.max_excess, PARALLELOGRAM_TOL),
        ],
    }


_RUNNERS = {
    "kernel": _run_kernel,
    "capacity": _run_capacity,
    "sweep": _run_sweep,
    "green": _run_green,
    "gauss": _run_gauss,
    "family": _run_family,
}


def _run_verify_all(cfg: dict, art: Artifacts) -> tuple[dict, int]:
    seed, which = cfg.get("seed", 0), cfg.get("criteria")
    if which is not None and (not isinstance(which, list) or not which):
        raise ConfigError("config.criteria: expected a nonempty array of ids")
    try:
        results = verify.run_all(seed=seed, which=which)
    except ValueError as exc:
        raise ConfigError(str(exc))
    for name, header, rows in verify.tables(results):
        art.table(name, header, rows)
    body = {
        "seed": seed,
        "criteria": [
            {"id": r.cid, "title": r.title, "passed": r.passed,
             "threshold": verify.THRESHOLDS[r.cid], "measured": r.measured}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    # wall-clock times differ run to run, so they stay out of report.json
    timing = []
    for r in results:
        timing.append({"id": r.cid, "runtime_s": r.runtime_s})
        if r.family_build_s is not None:
            timing[-1]["family_build_s"] = r.family_build_s
    write_json(os.path.join(art.stage, "timing.json"), {"criteria": timing})
    code = EXIT_OK if body["all_passed"] else EXIT_INVARIANT
    return body, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="greenpot",
        description="potential-theory scenario runner on finite point clouds")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="execute the task named in the config")
    p.add_argument("config", help="path to a JSON scenario config")
    p.add_argument("--out", default="out", help="output directory (default: out)")
    args = parser.parse_args(argv)
    if not args.out:
        p.error("--out: expected a nonempty path")
    # the nearest existing path must be a directory, or the output directory
    # could not be made once the task has run
    there = os.path.abspath(args.out)
    while not os.path.lexists(there):
        there = os.path.dirname(there)
    if not os.path.isdir(there):
        p.error(f"--out: {there} is not a directory")

    try:
        cfg = _load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    task = cfg["task"]
    art = Artifacts(args.out)
    report = {"schema_version": SCHEMA_VERSION, "task": task}
    try:
        if task == "verify-all":
            body, code = _run_verify_all(cfg, art)
        else:
            sc = Scenario(cfg, os.path.dirname(os.path.abspath(args.config)))
            body = {"invariants": [], **_RUNNERS[task](sc, art)}
            report["alpha"] = sc.alpha
            report["sigma"] = sc.sigma
            code = (EXIT_OK if all(inv["passed"] for inv in body["invariants"])
                    else EXIT_INVARIANT)
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
        report["artifacts"] = {"tables": sorted(art.tables)}
        write_json(os.path.join(art.stage, "report.json"), report)
        art.commit()
        return code
    finally:
        # nothing staged reaches out_dir unless the report was committed
        art.discard()


if __name__ == "__main__":
    sys.exit(main())
