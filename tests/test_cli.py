import json
import os
import re
import resource
import shlex
import shutil
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenpot.green
import greenpot.riesz
import greenpot.solvers
from greenpot import cli, geometry
from greenpot.core import InvariantError, SolverError
from greenpot.gauss import solve_gauss
from greenpot.green import build_green, green_equilibrium


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def hand_cloud(tmp_path, name="cloud.csv"):
    """Two points at distance 1 with cell radius 0.25: kernel [[4,1],[1,4]]."""
    path = tmp_path / name
    path.write_text("x0,x1,x2,cell_radius\n0,0,0,0.25\n1,0,0,0.25\n")
    return name


def gauss_config(tmp_path, extra=None):
    """Charge 1.75 at (-2.5,0,0) against F = two unit-spaced points."""
    (tmp_path / "pair.csv").write_text(
        "x0,x1,x2,cell_radius\n0,0,0,0.5\n1,0,0,0.5\n")
    cfg = {
        "task": "gauss",
        "alpha": 2.0,
        "geometry": {"csv": "pair.csv"},
        "regions": {"f": {"kind": "all"}},
        "theta": {"points": [[-2.5, 0.0, 0.0]], "weights": [1.75]},
    }
    if extra:
        cfg.update(extra)
    return write_config(tmp_path, cfg)


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def read_columns(out_dir, name):
    """A numeric table's columns by header name, as lists of floats."""
    with open(os.path.join(out_dir, "tables", name)) as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    return {h: [float(row[k]) for row in rows] for k, h in enumerate(header)}


class TestKernelTask:
    def test_hand_matrix_written(self, tmp_path):
        cloud = hand_cloud(tmp_path)
        cfg = write_config(tmp_path, {
            "task": "kernel", "alpha": 2.0, "geometry": {"csv": cloud}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        rep = read_report(out)
        assert rep["schema_version"] == 5
        assert rep["task"] == "kernel"
        assert rep["results"]["diagonal_min"] == 4.0
        assert rep["results"]["off_diagonal_max"] == 1.0
        lines = (tmp_path / "out" / "tables" / "kernel.csv").read_text().splitlines()
        assert lines == ["k0,k1", "4,1", "1,4"]
        assert rep["artifacts"]["tables"] == ["tables/kernel.csv"]

    @pytest.mark.parametrize("m", [0, 1, 2, greenpot.solvers._TILE,
                                   greenpot.solvers._TILE + 1,
                                   2 * greenpot.solvers._TILE + 3])
    def test_off_diagonal_max_matches_the_masked_copy(self, m):
        # a diagonal above every other entry must not count
        a = np.random.default_rng(m).uniform(-1.0, 1.0, size=(m, m))
        np.fill_diagonal(a, 10.0)
        expected = float(a[~np.eye(m, dtype=bool)].max()) if m > 1 else 0.0
        assert cli._off_diagonal_max(a) == expected

    def test_console_script_entry_point(self, tmp_path):
        exe = shutil.which("greenpot")
        assert exe is not None
        cloud = hand_cloud(tmp_path)
        cfg = write_config(tmp_path, {
            "task": "kernel", "alpha": 2.0, "geometry": {"csv": cloud}})
        out = str(tmp_path / "out")
        proc = subprocess.run([exe, "run", cfg, "--out", out],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert os.path.exists(os.path.join(out, "report.json"))


class TestCapacityAndEquilibrium:
    def test_capacity_hand_value(self, tmp_path):
        cloud = hand_cloud(tmp_path)
        cfg = write_config(tmp_path, {
            "task": "capacity", "alpha": 2.0, "geometry": {"csv": cloud}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        rep = read_report(out)
        assert rep["results"]["capacity"] == pytest.approx(0.4, rel=1e-13)
        assert rep["results"]["mass"] == pytest.approx(1.0, abs=1e-13)
        assert all(inv["passed"] for inv in rep["invariants"])

    def test_equilibrium_hand_value(self, tmp_path):
        # the equilibrium measure is the minimizer scaled by the capacity
        cloud = hand_cloud(tmp_path)
        cfg = write_config(tmp_path, {
            "task": "capacity", "alpha": 2.0, "geometry": {"csv": cloud}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        rep = read_report(out)
        cap = rep["results"]["capacity"]
        on_support = {r["name"]: r for r in rep["invariants"]}[
            "potential_equals_energy_on_support"]
        assert on_support["value"] <= 1e-12 * rep["results"]["energy"]
        rows = (tmp_path / "out" / "tables" / "minimizer.csv").read_text().splitlines()
        weights = sorted(cap * float(r.split(",")[-1]) for r in rows[1:])
        assert weights == pytest.approx([0.2, 0.2], abs=1e-13)


class TestSweepTask:
    def test_hand_projection(self, tmp_path):
        (tmp_path / "pair.csv").write_text(
            "x0,x1,x2,cell_radius\n0,0,0,0.5\n1,0,0,0.5\n")
        cfg = write_config(tmp_path, {
            "task": "sweep", "alpha": 2.0,
            "geometry": {"csv": "pair.csv"},
            "theta": {"points": [[-2.5, 0.0, 0.0]], "weights": [1.75]},
            "target": {"kind": "indices", "values": [0, 1]},
        })
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        rep = read_report(out)
        assert rep["results"]["mass_in"] == pytest.approx(1.75)
        assert rep["results"]["mass_out"] == pytest.approx(0.4, abs=1e-13)
        assert rep["results"]["weights"]["0"] == pytest.approx(0.3, abs=1e-13)
        assert rep["results"]["weights"]["1"] == pytest.approx(0.1, abs=1e-13)

    def test_projection_overshoot_fails_invariant(self, tmp_path):
        # a Dirac inside a coarsely sampled enclosing shell sweeps to mass
        # above one, so the mass invariant must fail and still be reported
        cfg = write_config(tmp_path, {
            "task": "sweep", "alpha": 2.0,
            "geometry": {"parts": [
                {"generator": "sphere_shell",
                 "params": {"count": 60, "radius": 2.0}}]},
            "theta": {"points": [[0.0, 0.0, 0.0]], "weights": [1.0]},
            "target": {"kind": "all"},
        })
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_INVARIANT
        rep = read_report(out)
        inv = {r["name"]: r for r in rep["invariants"]}
        assert not inv["mass_not_increased"]["passed"]
        assert rep["results"]["mass_out"] > 1.0


class TestGreenTask:
    def test_hand_green_matrix(self, tmp_path):
        (tmp_path / "line.csv").write_text(
            "x0,x1,x2,cell_radius\n0,0,0,0.5\n1,0,0,0.5\n3,0,0,1.0\n")
        cfg = write_config(tmp_path, {
            "task": "green", "alpha": 2.0,
            "geometry": {"csv": "line.csv"},
            "regions": {"f": {"kind": "indices", "values": [0]},
                        "y": {"kind": "indices", "values": [2]}},
        })
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        rep = read_report(out)
        assert rep["results"]["f_size"] == 1
        assert rep["results"]["y_size"] == 1
        assert rep["results"]["d_size"] == 2
        assert rep["results"]["asymmetry_residual"] == 0.0
        rows = (tmp_path / "out" / "tables" / "green_matrix.csv").read_text().splitlines()
        top = [float(v) for v in rows[1].split(",")]
        assert top == pytest.approx([2.0 - 1.0 / 9.0, 1.0 - 1.0 / 6.0],
                                    rel=1e-14)
        assert "tables/dirac_sweep_to_y.csv" in rep["artifacts"]["tables"]


class TestGaussTask:
    def test_hand_solution_and_representation(self, tmp_path):
        cfg = gauss_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        rep = read_report(out)
        res = rep["results"]
        assert res["w_value"] == pytest.approx(0.28, abs=1e-12)
        assert res["c_constant"] == pytest.approx(0.9, abs=1e-12)
        assert res["theta_swept_mass"] == pytest.approx(0.4, abs=1e-12)
        assert res["separation_rho"] == pytest.approx(2.5)
        assert res["representation"]["applicable"]
        assert res["representation"]["lambda_gap_norm"] <= 1e-10
        assert res["representation"]["c_gap"] <= 1e-12
        assert res["representation"]["dual_w_gap"] <= 1e-12
        assert all(inv["passed"] for inv in rep["invariants"])
        assert rep["alpha"] == 2.0
        rows = (tmp_path / "out" / "tables" / "minimizer.csv").read_text().splitlines()
        weights = [float(r.split(",")[-1]) for r in rows[1:]]
        assert weights == pytest.approx([0.6, 0.4], abs=1e-12)

    def test_one_green_equilibrium_solve(self, tmp_path, monkeypatch):
        # the closed form already holds the Green capacity of F, so the run
        # solves the equilibrium problem once
        calls = []
        inner = greenpot.riesz._simplex_minimum

        def counting(K, a, *args):
            calls.append(a.size)
            return inner(K, a, *args)

        for module in (greenpot.riesz, greenpot.green):
            monkeypatch.setattr(module, "_simplex_minimum", counting)
        out = str(tmp_path / "out")
        assert cli.main(["run", gauss_config(tmp_path), "--out", out]) == 0
        assert calls == [2]
        rep = read_report(out)
        assert rep["results"]["diagnostics"]["green_capacity_of_f"] == \
            pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_f_block_factored_once(self, tmp_path, monkeypatch):
        # F is a 60-point sphere around a 10-point inner shell, with a far
        # complement shell. The field's sweep solves the whole 70x70 Green
        # block on the guide, and no solve ends on it, so it is never
        # factored. Every minimizer leaves the inner shell, and the sweep
        # already does, so the Gauss solve starting from the sweep's support
        # and the dual starting from the primal's each solve one free set,
        # the one the sweep factored, and factor nothing.
        path = write_config(tmp_path, {
            "task": "gauss", "alpha": 2.0,
            "geometry": {"parts": [
                {"generator": "sphere_shell",
                 "params": {"count": 60, "radius": 1.0}},
                {"generator": "sphere_shell",
                 "params": {"count": 10, "radius": 0.3}},
                {"generator": "sphere_shell",
                 "params": {"count": 30, "radius": 1.0},
                 "offset": [5.0, 0.0, 0.0]}]},
            "regions": {"f": {"kind": "parts", "values": [0, 1]},
                        "y": {"kind": "parts", "values": [2]}},
            "theta": {"points": [[2.5, 0.0, 0.0]], "weights": [0.8]}})
        sizes, qp_blocks = [], []
        real_cholesky = greenpot.solvers._cholesky
        real_qp = greenpot.solvers.simplex_qp

        def cholesky(block, *args, **kwargs):
            sizes.append(block.shape[0])
            return real_cholesky(block, *args, **kwargs)

        def qp(*args, **kwargs):
            before = len(sizes)
            out = real_qp(*args, **kwargs)
            qp_blocks.append(sizes[before:])
            return out

        for name, mod in list(sys.modules.items()):
            if name == "greenpot" or name.startswith("greenpot."):
                if getattr(mod, "_cholesky", None) is real_cholesky:
                    monkeypatch.setattr(mod, "_cholesky", cholesky)
                if getattr(mod, "simplex_qp", None) is real_qp:
                    monkeypatch.setattr(mod, "simplex_qp", qp)
        out = str(tmp_path / "out")
        assert cli.main(["run", path, "--out", out]) == 0
        res = read_report(out)["results"]
        assert res["representation"]["applicable"]
        assert res["support_size"] == 60
        # K_YY, the certificate on D (F and the charge), the sweep's last
        # free set
        assert sizes == [30, 71, 60]
        # Gauss solve, dual problem, Green equilibrium
        primal, dual, _ = qp_blocks
        assert primal == [] and res["kkt"]["iterations"] == 1
        assert dual == [] and res["representation"]["dual_iterations"] == 1

    def test_no_block_factored_twice(self, tmp_path, monkeypatch):
        # check 8's ball and collar at half the layer counts: the sweep, the
        # Gauss solve, the Green equilibrium and the dual each pivot near one
        # support of about 700 of the 796 ball points
        counts = [round(c / 2) for c in (750, 330, 230, 160, 90, 30)]
        path = write_config(tmp_path, {
            "task": "gauss", "alpha": 2.0,
            "geometry": {"parts": [
                {"generator": "layered_ball",
                 "params": {"radii": [0.985, 0.925, 0.84, 0.725, 0.555, 0.325],
                            "counts": counts}},
                {"generator": "sphere_shell",
                 "params": {"count": counts[0], "radius": 1.053}}]},
            "regions": {"f": {"kind": "parts", "values": [0]}},
            "theta": {"points": [[0.0, 0.0, 1.8]], "weights": [0.5]}})
        blocks = []
        real = greenpot.solvers._cholesky

        def cholesky(block, *args, **kwargs):
            blocks.append(block.tobytes())
            return real(block, *args, **kwargs)

        monkeypatch.setattr(greenpot.solvers, "_cholesky", cholesky)
        out = str(tmp_path / "out")
        assert cli.main(["run", path, "--out", out]) == 0
        assert read_report(out)["results"]["representation"]["applicable"]
        # the certificate and the final free sets of the sweep, the Gauss
        # solve and the dual; the Green equilibrium ends on the dual's
        assert len(blocks) == 4
        assert len(set(blocks)) == len(blocks)

    def test_gap_bound_replaces_reversed_resolve(self, tmp_path):
        out = str(tmp_path / "out")
        assert cli.main(["run", gauss_config(tmp_path), "--out", out]) == 0
        res = read_report(out)["results"]
        assert res["kkt"]["gap_bound"] >= 0.0
        assert "uniqueness_gap" not in res["diagnostics"]

    def test_frostman_excess_reported(self, tmp_path):
        # both routes to the Green equilibrium of F: the closed form's and,
        # when the swept charge exceeds 1, the runner's own solve
        for weight, applicable in ((1.75, True), (5.0, False)):
            path = gauss_config(tmp_path, {
                "theta": {"points": [[-2.5, 0.0, 0.0]], "weights": [weight]}})
            out = str(tmp_path / f"out{weight}")
            assert cli.main(["run", path, "--out", out]) == 0
            res = read_report(out)["results"]
            assert res["representation"]["applicable"] is applicable
            # the two-point equilibrium potential is 1 on F and below 1 at
            # the charge
            assert res["diagnostics"]["frostman_excess"] == 0.0

    def test_failed_run_writes_no_outputs(self, tmp_path, monkeypatch):
        # the minimizer table is written before dual_check runs
        def failing(*args, **kwargs):
            raise InvariantError("dual check failed")

        def staged():
            where = [tmp_path] + ([out] if out.exists() else [])
            return [p for d in where for p in os.listdir(d)
                    if p.startswith(".greenpot")]

        cfg, out = gauss_config(tmp_path), tmp_path / "out"
        monkeypatch.setattr(cli, "dual_check", failing)
        assert cli.main(["run", cfg, "--out", str(out)]) == 5
        assert not (out / "tables").exists() and not out.exists()
        assert not staged()

        # a new output directory, then a rerun into it that keeps other files
        monkeypatch.undo()
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        (out / "notes.txt").write_text("kept")
        (out / "tables" / "minimizer.csv").write_text("stale")
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        assert (out / "notes.txt").read_text() == "kept"
        assert (out / "tables" / "minimizer.csv").read_text().startswith("index,")
        assert read_report(out)["artifacts"]["tables"] == ["tables/minimizer.csv"]

        # a failed rerun leaves the earlier complete run as it was
        before = {p: (out / p).read_bytes()
                  for p in ("report.json", "tables/minimizer.csv")}
        monkeypatch.setattr(cli, "dual_check", failing)
        assert cli.main(["run", cfg, "--out", str(out)]) == 5
        assert {p: (out / p).read_bytes() for p in before} == before
        assert not staged()

    def test_stages_inside_out_dir(self, tmp_path, monkeypatch):
        # an existing out_dir under a read-only parent; the mkdir spy refuses
        # the parent even where permissions do not bind (running as root)
        parent = tmp_path / "ro"
        out = parent / "out"
        out.mkdir(parents=True)
        cfg = gauss_config(tmp_path)
        real_mkdir = os.mkdir

        def mkdir(path, *args, **kwargs):
            if os.path.dirname(os.path.abspath(path)) == str(parent):
                raise PermissionError(13, "read-only", path)
            return real_mkdir(path, *args, **kwargs)

        monkeypatch.setattr(os, "mkdir", mkdir)
        parent.chmod(0o555)
        try:
            assert cli.main(["run", cfg, "--out", str(out)]) == 0
            assert os.listdir(parent) == ["out"]
        finally:
            parent.chmod(0o755)
        assert sorted(os.listdir(out)) == ["report.json", "tables"]
        assert read_report(out)["artifacts"]["tables"] == ["tables/minimizer.csv"]

    def test_capacity_reported_without_closed_form(self, tmp_path):
        path = gauss_config(tmp_path, {
            "theta": {"points": [[-2.5, 0.0, 0.0]], "weights": [5.0]}})
        out = str(tmp_path / "out")
        assert cli.main(["run", path, "--out", out]) == 0
        rep = read_report(out)
        assert rep["results"]["theta_swept_mass"] > 1.0
        assert not rep["results"]["representation"]["applicable"]
        with open(path) as fh:
            sc = cli.Scenario(json.load(fh), str(tmp_path))
        cfg = sc.domain()
        c_g, _ = green_equilibrium(build_green(cfg, sc.sigma), cfg.f_indices)
        assert rep["results"]["diagnostics"]["green_capacity_of_f"] == c_g

    def test_report_bytes_deterministic(self, tmp_path):
        cfg = gauss_config(tmp_path)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["run", cfg, "--out", out1]) == 0
        assert cli.main(["run", cfg, "--out", out2]) == 0
        for name in ("report.json", os.path.join("tables", "minimizer.csv")):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2

    def test_parts_geometry_with_region_predicates(self, tmp_path):
        cfg = write_config(tmp_path, {
            "task": "gauss", "alpha": 2.0,
            "geometry": {"parts": [
                {"generator": "sphere_shell",
                 "params": {"count": 40, "radius": 1.0}},
                {"generator": "sphere_shell",
                 "params": {"count": 20, "radius": 1.0},
                 "offset": [4.0, 0.0, 0.0]}]},
            "regions": {"f": {"kind": "parts", "values": [0]},
                        "y": {"kind": "parts", "values": [1]}},
            "theta": {"points": [[2.2, 0.0, 0.0]], "weights": [0.5]},
        })
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        rep = read_report(out)
        assert rep["results"]["support_size"] > 0
        assert all(inv["passed"] for inv in rep["invariants"])


class TestFamilyTasks:
    def family_config(self, tmp_path, task="family"):
        (tmp_path / "pair.csv").write_text(
            "x0,x1,x2,cell_radius\n0,0,0,0.5\n1,0,0,0.5\n")
        return write_config(tmp_path, {
            "task": task, "alpha": 2.0,
            "geometry": {"csv": "pair.csv"},
            "regions": {"f": {"kind": "all"}},
            "theta": {"points": [[-2.5, 0.0, 0.0]], "weights": [1.75]},
            "family": [{"kind": "indices", "values": [0]}, {"kind": "all"}],
        })

    def test_truncation_hand_values(self, tmp_path):
        cfg = self.family_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        res = read_report(out)["results"]
        assert res["direction"] == "increasing"
        table = read_columns(out, "family.csv")
        assert table["w"] == pytest.approx([0.6, 0.28], abs=1e-12)
        assert table["c"] == pytest.approx([1.3, 0.9], abs=1e-12)
        assert table["swept_mass"] == pytest.approx([0.35, 0.4], abs=1e-12)
        assert res["parallelogram_max_excess"] <= 1e-9
        assert list(table) == [
            "f_size", "w", "c", "swept_mass", "cauchy_to_final",
            "window_mass", "support_radius", "dist_to_swept",
            "extremal_energy"]

    def test_exhaustion_window_masses(self, tmp_path):
        cfg = self.family_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        res = read_report(out)["results"]
        assert res["window_size"] == 1
        table = read_columns(out, "family.csv")
        assert table["window_mass"] == pytest.approx([1.0, 0.6], abs=1e-12)
        assert table["extremal_energy"] == pytest.approx(table["c"], abs=1e-12)

    @pytest.mark.parametrize("task", ["truncation", "exhaustion", "equilibrium",
                                      "support"])
    def test_replaced_tasks_are_config_errors(self, tmp_path, capsys, task):
        cfg = self.family_config(tmp_path, task)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"got {task!r}" in capsys.readouterr().err
        assert not out.exists()


class TestSupportTask:
    """The gauss report's support block."""

    def test_far_charge_reads_interior(self, tmp_path):
        out = str(tmp_path / "out")
        assert cli.main(["run", gauss_config(tmp_path), "--out", out]) == 0
        support = read_report(out)["results"]["support"]
        assert support["boundary_count"] == 0
        assert support["interior_mass_fraction"] == pytest.approx(1.0)
        assert support["support_fraction"] == 1.0
        assert support["omega_connected"] is True
        assert "adjacency_factor" not in support


# The invariant rows of each run task. Every other property a run relies on
# (kernel symmetry and definiteness, Green entry bounds, the minimizer's unit
# mass, monotone values along a family) ends it with exit 3, 4 or 5 before
# any report is written.
INVARIANTS = {
    "kernel": [],
    "capacity": ["unit_mass", "potential_equals_energy_on_support",
                 "potential_at_least_energy_on_target"],
    "sweep": ["projection_first_order_conditions", "mass_not_increased"],
    "green": ["symmetrization_residual"],
    "gauss": ["stationarity_on_support", "no_descent_off_support"],
    "family": ["parallelogram_bound"],
}


def task_configs(tmp_path) -> dict:
    """One config per run task, on the hand instances of the tests above."""
    cloud = hand_cloud(tmp_path)
    (tmp_path / "pair.csv").write_text(
        "x0,x1,x2,cell_radius\n0,0,0,0.5\n1,0,0,0.5\n")
    (tmp_path / "line.csv").write_text(
        "x0,x1,x2,cell_radius\n0,0,0,0.5\n1,0,0,0.5\n3,0,0,1.0\n")
    bare = {"alpha": 2.0, "geometry": {"csv": cloud}}
    charged = {"alpha": 2.0, "geometry": {"csv": "pair.csv"},
               "theta": {"points": [[-2.5, 0.0, 0.0]], "weights": [1.75]}}
    on_f = {**charged, "regions": {"f": {"kind": "all"}}}
    family = {**on_f, "family": [{"kind": "indices", "values": [0]},
                                 {"kind": "all"}]}
    bodies = {
        "kernel": bare, "capacity": bare,
        "sweep": {**charged, "target": {"kind": "indices", "values": [0, 1]}},
        "green": {"alpha": 2.0, "geometry": {"csv": "line.csv"},
                  "regions": {"f": {"kind": "indices", "values": [0]},
                              "y": {"kind": "indices", "values": [2]}}},
        "gauss": on_f,
        "family": family,
    }
    return {task: {"task": task, **body} for task, body in bodies.items()}


def hand_configs(tmp_path) -> dict:
    """task_configs, and two capacity configs whose clouds and targets go
    through the generators and the radius_band and half_space predicates."""
    return {**task_configs(tmp_path),
            "parts": {"task": "capacity", "alpha": 2.0,
                      "geometry": {"parts": [
                          {"generator": "sphere_shell",
                           "params": {"count": 8, "radius": 1.0}}]},
                      "target": {"kind": "radius_band", "lo": 0.5, "hi": 1.5,
                                 "center": [0.0, 0.0, 0.0]}},
            "parts_2d": {"task": "capacity", "alpha": 1.0,
                         "geometry": {"parts": [
                             {"generator": "circle_ring",
                              "params": {"count": 4, "radius": 0.5},
                              "scale": 1.0, "offset": [0.0, 0.0]}]},
                         "target": {"kind": "half_space", "normal": [1.0, 0.0],
                                    "offset": 0.0}}}


def leaf_paths(obj, path=()):
    """Key paths of every scalar in a parsed JSON value."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [path]
    return [p for k, v in items for p in leaf_paths(v, (*path, k))]


NON_NUMERIC = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.one_of(st.none(), st.integers(-2, 3), st.text(max_size=2)),
             max_size=3),
    st.dictionaries(st.sampled_from(["kind", "values", "count", "x"]),
                    st.one_of(st.none(), st.integers(-2, 3)), max_size=2))


class TestMalformedValues:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_non_numeric_leaf_gets_a_documented_exit_code(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            configs = hand_configs(Path(tmp))
            cfg = configs[data.draw(st.sampled_from(sorted(configs)))]
            path = data.draw(st.sampled_from(leaf_paths(cfg)))
            node = cfg
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = data.draw(NON_NUMERIC)
            out = Path(tmp) / "out"
            code = cli.main(["run", write_config(Path(tmp), cfg), "--out",
                             str(out)])
            assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_VALIDATION,
                            cli.EXIT_SOLVER, cli.EXIT_INVARIANT)
            assert out.exists() == (code in (cli.EXIT_OK, cli.EXIT_INVARIANT))


class TestReportContract:
    def configs(self, tmp_path) -> dict:
        return {task: write_config(tmp_path, cfg, f"{task}.json")
                for task, cfg in task_configs(tmp_path).items()}

    def reports(self, tmp_path) -> dict:
        """The report of each run task's config."""
        configs = self.configs(tmp_path)
        assert sorted(configs) == sorted(cli._RUNNERS)
        reports = {}
        for task, path in configs.items():
            out = str(tmp_path / f"out_{task}")
            assert cli.main(["run", path, "--out", out]) == 0, task
            reports[task] = read_report(out)
        return reports

    def test_every_invariant_compares_a_measured_value(self, tmp_path):
        # a row that restates a check the library raises on can only pass
        for task, rep in self.reports(tmp_path).items():
            assert [r["name"] for r in rep["invariants"]] == INVARIANTS[task], task
            for r in rep["invariants"]:
                for key in ("value", "tolerance"):
                    assert (isinstance(r[key], (int, float))
                            and not isinstance(r[key], bool)), (task, r)
                assert r["passed"] == (r["value"] <= r["tolerance"]), (task, r)

    def test_outputs_are_the_report_and_its_tables(self, tmp_path, capsys):
        # verify-all alone writes timing.json beside them; no task takes a
        # plots key or writes plots
        configs = {**task_configs(tmp_path),
                   "verify-all": {"task": "verify-all", "criteria": ["1"]}}
        for task, cfg in configs.items():
            out = tmp_path / f"out_{task}"
            assert cli.main(["run", write_config(tmp_path, cfg), "--out",
                             str(out)]) == 0, task
            extra = ["timing.json"] if task == "verify-all" else []
            assert sorted(os.listdir(out)) == ["report.json", "tables",
                                               *extra], task
            tables = sorted(f"tables/{n}" for n in os.listdir(out / "tables"))
            assert read_report(out)["artifacts"] == {"tables": tables}, task
            bad = tmp_path / f"bad_{task}"
            path = write_config(tmp_path, {**cfg, "plots": False})
            assert cli.main(["run", path, "--out", str(bad)]) == cli.EXIT_CONFIG
            assert "unknown field(s) ['plots']" in capsys.readouterr().err
            assert not bad.exists()

    def test_each_value_is_stated_once(self, tmp_path):
        reports = self.reports(tmp_path)
        for task, rep in reports.items():
            assert sorted(rep) == ["alpha", "artifacts", "invariants", "results",
                                   "schema_version", "sigma", "task"], task
            assert rep["schema_version"] == 5
        # alpha and sigma live at the top level only
        assert not {"alpha", "sigma"} & set(reports["kernel"]["results"])
        assert "alpha" not in reports["green"]["results"]
        # the paper's hypotheses are measured values in results
        assert reports["family"]["results"]["theta_mass"] == 1.75
        # the family's per-member values live in family.csv alone
        assert sorted(reports["family"]["results"]) == [
            "direction", "parallelogram_max_excess", "theta_mass",
            "window_size"]
        res = reports["gauss"]["results"]
        assert res["support"]["omega_connected"] is True
        assert res["support"]["omega_components"] == 1
        assert "theta_swept_mass" not in res["diagnostics"]
        assert res["theta_swept_mass"] == pytest.approx(0.4, abs=1e-12)
        # the kkt block is the solver's record; its multiplier is c_constant
        with open(tmp_path / "gauss.json") as fh:
            sc = cli.Scenario(json.load(fh), str(tmp_path))
        kkt = asdict(solve_gauss(cli._field_system(sc)).kkt)
        assert res["c_constant"] == kkt.pop("multiplier")
        assert res["kkt"] == kkt
        assert sorted(kkt) == ["gap_bound", "iterations", "mass_error",
                               "off_support_slack", "support_residual",
                               "tolerance"]


# One key outside each task's row of cli._TASK_KEYS. A theta on a capacity
# task used to add a point to the cloud and move the reported capacity.
FOREIGN_KEYS = {
    "kernel": ("plots", False),
    "capacity": ("theta", {"points": [[-2.5, 0.0, 0.0]], "weights": [1.0]}),
    "sweep": ("regions", {"f": {"kind": "all"}}),
    "green": ("theta", {"points": [[-2.5, 0.0, 0.0]], "weights": [1.0]}),
    "gauss": ("seed", 0),
    "family": ("criteria", ["1"]),
    "verify-all": ("alpha", 2.0),
}


class TestConfigKeys:
    def test_tables_cover_every_task(self):
        assert set(FOREIGN_KEYS) == set(cli._TASK_KEYS) == set(cli.TASKS)
        assert set(cli._RUNNERS) == set(cli.TASKS) - {"verify-all"}

    @pytest.mark.parametrize("task", sorted(FOREIGN_KEYS))
    def test_key_outside_the_task_row(self, tmp_path, capsys, task):
        key, value = FOREIGN_KEYS[task]
        cfg = task_configs(tmp_path).get(task, {"task": task})
        assert key not in cfg
        path = write_config(tmp_path, {**cfg, key: value})
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"unknown field(s) {[key]}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_key(self, tmp_path, capsys):
        configs = task_configs(tmp_path)
        out = tmp_path / "out"
        for task, (required, _) in cli._TASK_KEYS.items():
            for key in required:
                cfg = {k: v for k, v in configs[task].items() if k != key}
                path = write_config(tmp_path, cfg)
                assert cli.main(["run", path, "--out", str(out)]) == \
                    cli.EXIT_CONFIG, (task, key)
                assert f"missing required field(s) {[key]}" in \
                    capsys.readouterr().err, (task, key)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["verify-all", "v.json"], ["run", "v.json", "--seed", "0"],
        ["run", "v.json", "--filter", "1"], ["run", "v.json", "--out", ""]],
        ids=["verify-all", "seed", "filter", "empty-out"])
    def test_only_run_config_out_parses(self, argv):
        # run CONFIG [--out DIR] is the whole command line; verify-all,
        # --seed and --filter are gone, and --out names a directory
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_readme_commands_parse(self, tmp_path, monkeypatch):
        # every greenpot line of the README's sh blocks names a config that
        # is not there, so it gets past argparse and stops on the missing file
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"),
                            re.S)
        lines = [line for block in blocks for line in block.splitlines()
                 if line.startswith("greenpot ")]
        assert lines
        monkeypatch.chdir(tmp_path)
        for line in lines:
            assert cli.main(shlex.split(line)[1:]) == cli.EXIT_CONFIG, line
        assert os.listdir(tmp_path) == []


class TestVerifyAllCommand:
    def test_single_criterion_filter(self, tmp_path):
        cfg = write_config(tmp_path, {"task": "verify-all", "criteria": ["1"],
                                      "seed": 4})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        rep = read_report(out)
        assert rep["schema_version"] == 5 and rep["seed"] == 4
        assert rep["all_passed"]
        assert len(rep["criteria"]) == 1
        row = rep["criteria"][0]
        assert row["id"] == "1"
        assert row["passed"]
        assert isinstance(row["threshold"], str)
        assert os.path.exists(os.path.join(out, "tables", "criterion_01.csv"))
        assert os.path.exists(os.path.join(out, "tables", "summary.csv"))

    def test_report_bytes_deterministic_with_timing_beside(self, tmp_path):
        # wall times go to timing.json, so report and tables repeat byte for byte
        cfg = write_config(tmp_path, {"task": "verify-all", "criteria": ["1"]})
        outs = [str(tmp_path / name) for name in ("a", "b")]
        for out in outs:
            assert cli.main(["run", cfg, "--out", out]) == 0
        names = ["report.json"] + [os.path.join("tables", t) for t in
                                   sorted(os.listdir(os.path.join(outs[0], "tables")))]
        assert len(names) == 3
        for name in names:
            b1, b2 = (open(os.path.join(out, name), "rb").read() for out in outs)
            assert b1 == b2, name
        assert "runtime_s" not in read_report(outs[0])["criteria"][0]
        with open(os.path.join(outs[0], "timing.json"), encoding="utf-8") as fh:
            timing = json.load(fh)
        [row] = timing["criteria"]
        assert row["id"] == "1" and row["runtime_s"] >= 0.0
        assert "family_build_s" not in row
        assert not any(n.startswith(".greenpot-stage-") for n in os.listdir(outs[0]))

    def test_family_build_time_beside_its_check(self, tmp_path, monkeypatch):
        # the first of checks 2-4 to run carries the shared family's build
        # time, which runtime_s includes; report.json carries no time
        records = [
            cli.verify.CriterionResult("2", cli.verify.TITLES["2"], True, {},
                                       0.5, family_build_s=0.4),
            cli.verify.CriterionResult("3", cli.verify.TITLES["3"], True, {},
                                       0.1)]
        monkeypatch.setattr(cli.verify, "run_all", lambda seed, which: records)
        cfg = write_config(tmp_path, {"task": "verify-all"})
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        timing = json.loads((out / "timing.json").read_text())
        assert timing["criteria"] == [
            {"id": "2", "runtime_s": 0.5, "family_build_s": 0.4},
            {"id": "3", "runtime_s": 0.1}]
        report = (out / "report.json").read_text()
        assert "runtime_s" not in report and "family_build_s" not in report

    def test_criteria_listed_in_config(self, tmp_path):
        cfg = write_config(tmp_path, {"task": "verify-all", "criteria": ["1"]})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        rep = read_report(out)
        assert [r["id"] for r in rep["criteria"]] == ["1"]

    def test_unknown_criterion_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"task": "verify-all", "criteria": ["99"]})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_CONFIG
        assert not os.path.exists(out)


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = cli.main(["run", str(tmp_path / "nope.json"), "--out", out])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"task": "kernel",\n  oops\n}')
        out = str(tmp_path / "out")
        assert cli.main(["run", str(path), "--out", out]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line 2" in err
        assert not os.path.exists(out)

    def test_unknown_top_level_field(self, tmp_path):
        cfg = write_config(tmp_path, {"task": "kernel", "alpha": 2.0,
                                      "geometry": {"parts": []},
                                      "typo_field": 1})
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG

    def test_unknown_task(self, tmp_path):
        cfg = write_config(tmp_path, {"task": "minimize"})
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("seed", ["abc", [1], None, 1.7, True])
    def test_non_integer_seed(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, {"task": "verify-all", "criteria": ["1"],
                                      "seed": seed})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_CONFIG
        assert "config.seed" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("seed", [-20, -8])
    def test_negative_seed(self, tmp_path, capsys, seed):
        # the suite's generators cannot use a negative seed: a config error,
        # not a failed check
        cfg = write_config(tmp_path, {"task": "verify-all", "criteria": ["2"],
                                      "seed": seed})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_CONFIG
        assert "non-negative" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("kind,values", [
        ("indices", [True]), ("indices", [False]), ("parts", [True])])
    def test_boolean_region_values(self, tmp_path, capsys, kind, values):
        # JSON true is not the index 1; it used to select every point
        cfg = write_config(tmp_path, {
            "task": "capacity", "alpha": 2.0,
            "geometry": {"parts": [{"generator": "sphere_shell",
                                    "params": {"count": 40}}]},
            "target": {"kind": kind, "values": values}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_CONFIG
        assert "config.target.values" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_boolean_theta_index(self, tmp_path, capsys):
        cloud = hand_cloud(tmp_path)
        cfg = write_config(tmp_path, {
            "task": "sweep", "alpha": 2.0, "geometry": {"csv": cloud},
            "theta": {"indices": [True], "weights": [1.0]},
            "target": {"kind": "indices", "values": [0]}})
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
        assert "config.theta.indices" in capsys.readouterr().err

    def test_unknown_generator(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "task": "kernel", "alpha": 2.0,
            "geometry": {"parts": [{"generator": "moebius_strip"}]}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_CONFIG
        assert "moebius_strip" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_bad_generator_params(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "task": "kernel", "alpha": 2.0,
            "geometry": {"parts": [{"generator": "sphere_shell",
                                    "params": {"count": 10, "wobble": 3}}]}})
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
        assert "wobble" in capsys.readouterr().err

    def test_generator_param_of_wrong_type(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "task": "kernel", "alpha": 2.0,
            "geometry": {"parts": [{"generator": "sphere_shell",
                                    "params": {"count": "a"}}]}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_CONFIG
        assert "config.geometry.parts[0].params" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_generator_validation_error_keeps_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "task": "kernel", "alpha": 2.0,
            "geometry": {"parts": [{"generator": "box_grid",
                                    "params": {"lo": [1, 0, 0], "hi": [0, 1, 1],
                                               "spacing": 0.5}}]}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_VALIDATION
        assert "lo < hi" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_charge_points_nearest_each_other_take_half_their_distance(
            self, tmp_path):
        # a CSV cloud with a radius column: each charge point's cell radius
        # is half its nearest-neighbour distance, here to the other charge
        cfg = write_config(tmp_path, {
            "task": "gauss", "alpha": 2.0,
            "geometry": {"csv": hand_cloud(tmp_path)},
            "regions": {"f": {"kind": "all"}},
            "theta": {"points": [[-2.5, 0.0, 0.0], [-2.75, 0.0, 0.0]],
                      "weights": [0.5, 0.5]}})
        with open(cfg, encoding="utf-8") as fh:
            sc = cli.Scenario(json.load(fh), str(tmp_path))
        assert sc.point_set.cell_radius.tolist() == [0.25, 0.25, 0.125, 0.125]

    def test_coincident_charge_points_named(self, tmp_path, capsys):
        # from_points turns the duplicate into a zero cell radius, which used
        # to be reported in its place
        cfg = write_config(tmp_path, {
            "task": "gauss", "alpha": 2.0,
            "geometry": {"parts": [{"generator": "sphere_shell",
                                    "params": {"count": 30, "radius": 1.0}}]},
            "regions": {"f": {"kind": "all"}},
            "theta": {"points": [[3, 0, 0], [3, 0, 0]], "weights": [0.5, 0.5]}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_VALIDATION
        assert "rows 30 and 31 coincide" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_box_grid_nan_spacing_keeps_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "task": "kernel", "alpha": 2.0,
            "geometry": {"parts": [{"generator": "box_grid",
                                    "params": {"lo": [0, 0, 0], "hi": [1, 1, 1],
                                               "spacing": float("nan")}}]}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_VALIDATION
        assert "spacing" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_plane_rings_from_zero_keeps_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "task": "capacity", "alpha": 2.0,
            "geometry": {"parts": [{"generator": "plane_rings",
                                    "params": {"ring_start": 0.0, "ring_max": 2.0,
                                               "ratio": 1.5}}]}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_VALIDATION
        assert "ring_start" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("part", [
        {"generator": "box_grid",
         "params": {"lo": [0, 0, 0], "hi": [1, 1, 1], "spacing": 1e-9}},
        {"generator": "plane_rings",
         "params": {"ring_start": 0.1, "ring_max": 2.0,
                    "ratio": 1.000000000001}}],
        ids=["box_grid", "plane_rings"])
    def test_point_count_above_the_cap_exits_3_before_allocating(self, tmp_path,
                                                                 part):
        # a 7.45 GiB axis and a 6.3e12-point ring: run in a child whose address
        # space is capped at 1.5 GB, since an allocation attempt must not
        # happen in this process
        cfg = write_config(tmp_path, {"task": "capacity", "alpha": 2.0,
                                      "geometry": {"parts": [part]}})
        out = tmp_path / "out"
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

        proc = subprocess.run(
            [sys.executable, "-m", "greenpot.cli", "run", cfg, "--out", str(out)],
            capture_output=True, text=True, timeout=30, preexec_fn=limit,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == cli.EXIT_VALIDATION, proc.stderr
        assert f"makes 1 to {geometry.MAX_POINTS}" in proc.stderr
        assert not out.exists()

    def test_csv_cloud_above_the_cap_exits_3(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setattr(geometry, "MAX_POINTS", 5)
        (tmp_path / "ten.csv").write_text(
            "".join(f"{k},0,0\n" for k in range(10)))
        cfg = write_config(tmp_path, {"task": "capacity", "alpha": 2.0,
                                      "geometry": {"csv": "ten.csv"}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_VALIDATION
        assert "more than 5 points; a cloud has 1 to 5" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_parts_above_the_cap_together_exit_3(self, tmp_path, monkeypatch,
                                                 capsys):
        # each part is within the cap, their stack is not
        monkeypatch.setattr(geometry, "MAX_POINTS", 5)
        part = {"generator": "sphere_shell", "params": {"count": 4}}
        cfg = write_config(tmp_path, {"task": "capacity", "alpha": 2.0,
                                      "geometry": {"parts": [part, part]}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_VALIDATION
        assert "the parts make 8 points; a cloud has 1 to 5" in (
            capsys.readouterr().err)
        assert not os.path.exists(out)

    @pytest.mark.parametrize("count, code", [(5, cli.EXIT_VALIDATION), (4, 0)],
                             ids=["over", "at_cap"])
    def test_theta_points_count_toward_the_cap(self, tmp_path, monkeypatch,
                                               capsys, count, code):
        monkeypatch.setattr(geometry, "MAX_POINTS", 5)
        cfg = write_config(tmp_path, {
            "task": "sweep", "alpha": 2.0,
            "geometry": {"parts": [{"generator": "sphere_shell",
                                    "params": {"count": count}}]},
            "theta": {"points": [[3.0, 0.0, 0.0]], "weights": [0.5]},
            "target": {"kind": "indices", "values": [0, 1, 2, 3]}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == code
        if code:
            assert "make 6 points; a cloud has 1 to 5" in (
                capsys.readouterr().err)
        assert os.path.exists(out) == (code == 0)

    def test_non_integer_count_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "task": "kernel", "alpha": 2.0,
            "geometry": {"parts": [{"generator": "sphere_shell",
                                    "params": {"count": 4.5}}]}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_CONFIG
        assert "count must be an integer" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("part", [
        {"scale": float("nan")},
        {"offset": [float("inf"), 0.0, 0.0]},
        {"params": {"count": 10, "radius": float("nan")}}],
        ids=["scale", "offset", "params"])
    def test_non_finite_part_is_validation_error(self, tmp_path, capsys, part):
        # Python's json reads NaN and Infinity
        spec = {"generator": "sphere_shell", "params": {"count": 10}, **part}
        cfg = write_config(tmp_path, {"task": "kernel", "alpha": 2.0,
                                      "geometry": {"parts": [spec]}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("text", [
        "0,0,0\n1,nan,0\n",
        "x0,x1,x2,cell_radius\n0,0,0,0.25\n1,nan,0,0.25\n"],
        ids=["coordinates", "with_radii"])
    def test_non_finite_csv_is_validation_error(self, tmp_path, capsys, text):
        (tmp_path / "cloud.csv").write_text(text)
        cfg = write_config(tmp_path, {"task": "kernel", "alpha": 2.0,
                                      "geometry": {"csv": "cloud.csv"}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("task, part, extra, key", [
        ("capacity", {}, {"target": {"kind": ["all"]}}, "config.target.kind"),
        ("capacity", {}, {"target": {"kind": {"all": 1}}}, "config.target.kind"),
        ("kernel", {"generator": ["sphere_shell"]}, {},
         "config.geometry.parts[0].generator"),
        ("gauss", {}, {"regions": {"f": {"kind": "all"}},
                       "theta": {"points": [[3, 0, 0], [3, 0]],
                                 "weights": [0.5, 0.5]}},
         "config.theta.points: dimension mismatch"),
        ("kernel", {"params": {"count": 10, "radius": [1, 2]}}, {},
         "config.geometry.parts[0].params"),
        ("kernel", {"params": {"count": 10, "center": [0, 0]}}, {},
         "config.geometry.parts[0].params")],
        ids=["kind_array", "kind_object", "generator_array", "ragged_theta",
             "radius_array", "short_center"])
    def test_malformed_value_is_a_config_error(self, tmp_path, capsys, task,
                                               part, extra, key):
        # each used to escape as a TypeError or a numpy ValueError
        spec = {"generator": "sphere_shell", "params": {"count": 10}, **part}
        cfg = {"task": task, "alpha": 2.0, "geometry": {"parts": [spec]}, **extra}
        out = tmp_path / "out"
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_predicate_stray_field(self, tmp_path):
        cfg = write_config(tmp_path, {
            "task": "capacity", "alpha": 2.0,
            "geometry": {"parts": [{"generator": "sphere_shell",
                                    "params": {"count": 10}}]},
            "target": {"kind": "radius_band", "hi": 1.5,
                       "normal": [0, 0, 1]}})
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG

    def test_geometry_needs_exactly_one_source(self, tmp_path):
        cloud = hand_cloud(tmp_path)
        cfg = write_config(tmp_path, {
            "task": "kernel", "alpha": 2.0,
            "geometry": {"csv": cloud,
                         "parts": [{"generator": "sphere_shell",
                                    "params": {"count": 4}}]}})
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG

    def test_theta_index_out_of_range(self, tmp_path):
        cloud = hand_cloud(tmp_path)
        cfg = write_config(tmp_path, {
            "task": "sweep", "alpha": 2.0,
            "geometry": {"csv": cloud},
            "theta": {"indices": [5], "weights": [1.0]},
            "target": {"kind": "all"}})
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG

    def test_tolerances_block_is_unknown(self, tmp_path, capsys):
        # the residual tolerance and adjacency factor are fixed constants
        cfg = gauss_config(tmp_path, {"tolerances": {"residual": 1e-8}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_CONFIG
        assert "tolerances" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_charge_on_target_is_validation_error(self, tmp_path):
        cfg = gauss_config(tmp_path)
        raw = json.loads(open(cfg).read())
        raw["theta"] = {"indices": [0], "weights": [1.0]}
        cfg2 = write_config(tmp_path, raw, name="bad_theta.json")
        assert cli.main(["run", cfg2]) == cli.EXIT_VALIDATION

    def test_solver_error_maps_to_exit_4(self, tmp_path, monkeypatch):
        cloud = hand_cloud(tmp_path)
        cfg = write_config(tmp_path, {
            "task": "kernel", "alpha": 2.0, "geometry": {"csv": cloud}})

        def boom(sc, art):
            raise SolverError("factorization failed")

        monkeypatch.setitem(cli._RUNNERS, "kernel", boom)
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_SOLVER
        assert not os.path.exists(os.path.join(out, "report.json"))

    def test_invariant_error_maps_to_exit_5(self, tmp_path, monkeypatch):
        cloud = hand_cloud(tmp_path)
        cfg = write_config(tmp_path, {
            "task": "kernel", "alpha": 2.0, "geometry": {"csv": cloud}})

        def boom(sc, art):
            raise InvariantError("bound crossed")

        monkeypatch.setitem(cli._RUNNERS, "kernel", boom)
        assert cli.main(["run", cfg]) == cli.EXIT_INVARIANT
