import json
import os
import shutil
import subprocess

import numpy as np
import pytest

import greenpot.riesz
from greenpot import cli
from greenpot.core import InvariantError, SolverError
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


class TestKernelTask:
    def test_hand_matrix_written(self, tmp_path):
        cloud = hand_cloud(tmp_path)
        cfg = write_config(tmp_path, {
            "task": "kernel", "alpha": 2.0, "geometry": {"csv": cloud}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        rep = read_report(out)
        assert rep["schema_version"] == 1
        assert rep["task"] == "kernel"
        assert rep["results"]["diagonal_min"] == 4.0
        assert rep["results"]["off_diagonal_max"] == 1.0
        lines = (tmp_path / "out" / "tables" / "kernel.csv").read_text().splitlines()
        assert lines == ["k0,k1", "4,1", "1,4"]
        assert rep["artifacts"]["tables"] == ["tables/kernel.csv"]

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
        cloud = hand_cloud(tmp_path)
        cfg = write_config(tmp_path, {
            "task": "equilibrium", "alpha": 2.0, "geometry": {"csv": cloud}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        rep = read_report(out)
        assert rep["results"]["capacity"] == pytest.approx(0.4, rel=1e-13)
        assert rep["results"]["potential_on_support_max_deviation"] <= 1e-12
        rows = (tmp_path / "out" / "tables" / "equilibrium.csv").read_text().splitlines()
        weights = sorted(float(r.split(",")[-1]) for r in rows[1:])
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

        def counting(K, a):
            calls.append(a.size)
            return inner(K, a)

        monkeypatch.setattr(greenpot.riesz, "_simplex_minimum", counting)
        out = str(tmp_path / "out")
        assert cli.main(["run", gauss_config(tmp_path), "--out", out]) == 0
        assert calls == [2]
        rep = read_report(out)
        assert rep["results"]["diagnostics"]["green_capacity_of_f"] == \
            pytest.approx(2.0 / 3.0, rel=1e-13)

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
        assert sorted(os.listdir(out)) == ["plots", "report.json", "tables"]
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
            sc = cli.Scenario(json.load(fh), str(tmp_path), 0)
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

    def test_plots_disabled(self, tmp_path):
        cfg = gauss_config(tmp_path, {"plots": False})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        rep = read_report(out)
        assert rep["artifacts"]["plots"] == []
        assert not os.path.exists(os.path.join(out, "plots"))

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
    def family_config(self, tmp_path, task):
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
        cfg = self.family_config(tmp_path, "truncation")
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        rep = read_report(out)
        assert rep["results"]["direction"] == "increasing"
        assert rep["results"]["w_values"] == pytest.approx([0.6, 0.28],
                                                           abs=1e-12)
        assert rep["results"]["c_values"] == pytest.approx([1.3, 0.9],
                                                           abs=1e-12)
        assert rep["results"]["parallelogram_max_excess"] <= 1e-9
        assert os.path.exists(os.path.join(out, "tables", "truncation.csv"))
        assert os.path.exists(os.path.join(out, "plots", "w_curve.svg"))

    def test_truncation_reports_measured_w_step(self, tmp_path):
        cfg = self.family_config(tmp_path, "truncation")
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        inv = {i["name"]: i for i in read_report(out)["invariants"]}
        # the largest rise of w along the growing family; here w falls 0.6 -> 0.28
        assert inv["w_monotone"]["value"] == pytest.approx(0.28 - 0.6, abs=1e-12)
        assert inv["w_monotone"]["passed"]

    def test_exhaustion_window_masses(self, tmp_path):
        cfg = self.family_config(tmp_path, "exhaustion")
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        rep = read_report(out)
        stages = rep["results"]["stages"]
        assert [s["window_mass"] for s in stages] == pytest.approx(
            [1.0, 0.6], abs=1e-12)
        for s in stages:
            assert s["extremal_energy"] == pytest.approx(s["c"], abs=1e-12)


class TestSupportTask:
    def test_far_charge_reads_interior(self, tmp_path):
        (tmp_path / "pair.csv").write_text(
            "x0,x1,x2,cell_radius\n0,0,0,0.5\n1,0,0,0.5\n")
        cfg = write_config(tmp_path, {
            "task": "support", "alpha": 2.0,
            "geometry": {"csv": "pair.csv"},
            "regions": {"f": {"kind": "all"}},
            "theta": {"points": [[-2.5, 0.0, 0.0]], "weights": [1.75]},
        })
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        rep = read_report(out)
        assert rep["results"]["boundary_count"] == 0
        assert rep["results"]["interior_mass_fraction"] == pytest.approx(1.0)
        hyp = {h["name"]: h["value"] for h in rep["hypotheses"]}
        assert hyp["omega_connected"] is True


class TestVerifyAllCommand:
    def test_single_criterion_filter(self, tmp_path):
        cfg = write_config(tmp_path, {"task": "verify-all"})
        out = str(tmp_path / "out")
        code = cli.main(["verify-all", cfg, "--out", out, "--filter", "1"])
        assert code == 0
        rep = read_report(out)
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
        cfg = write_config(tmp_path, {"task": "verify-all"})
        outs = [str(tmp_path / name) for name in ("a", "b")]
        for out in outs:
            assert cli.main(["verify-all", cfg, "--out", out, "--filter", "1"]) == 0
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
        assert not any(n.startswith(".greenpot-stage-") for n in os.listdir(outs[0]))

    def test_criteria_listed_in_config(self, tmp_path):
        cfg = write_config(tmp_path, {"task": "verify-all", "criteria": ["1"]})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == 0
        rep = read_report(out)
        assert [r["id"] for r in rep["criteria"]] == ["1"]

    def test_unknown_criterion_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"task": "verify-all"})
        out = str(tmp_path / "out")
        code = cli.main(["verify-all", cfg, "--out", out, "--filter", "99"])
        assert code == cli.EXIT_CONFIG


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

    def test_dim_mismatch_is_validation_error(self, tmp_path):
        cloud = hand_cloud(tmp_path)
        cfg = write_config(tmp_path, {
            "task": "kernel", "alpha": 2.0, "dim": 2,
            "geometry": {"csv": cloud}})
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--out", out]) == cli.EXIT_VALIDATION
        assert not os.path.exists(out)

    def test_charge_on_target_is_validation_error(self, tmp_path):
        cfg = gauss_config(tmp_path)
        raw = json.loads(open(cfg).read())
        raw["theta"] = {"indices": [0], "weights": [1.0]}
        cfg2 = write_config(tmp_path, raw, name="bad_theta.json")
        assert cli.main(["run", cfg2]) == cli.EXIT_VALIDATION

    def test_filter_rejected_outside_verify_all(self, tmp_path):
        cloud = hand_cloud(tmp_path)
        cfg = write_config(tmp_path, {
            "task": "kernel", "alpha": 2.0, "geometry": {"csv": cloud}})
        assert cli.main(["run", cfg, "--filter", "1"]) == cli.EXIT_CONFIG

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
