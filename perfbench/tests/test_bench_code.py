"""Tests of the benchmark's own code: span arithmetic, wrapping, inputs.

    python3 -m pytest perfbench/tests
"""

import json

import numpy as np
import pytest

import checks
from tracer import Span, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, make_tasks


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_call():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def work(seconds):
        clock.t += seconds

    def leaf():
        work(1.0)

    def inner():
        work(2.0)
        traced_leaf()
        work(0.5)

    def outer():
        work(3.0)
        traced_inner()
        traced_inner()
        work(4.0)

    traced_leaf = tr.wrap(leaf, "m.leaf")
    traced_inner = tr.wrap(inner, "m.inner")
    tr.wrap(outer, "m.outer")()

    names = [s.name for s in tr.spans]
    assert names == ["m.outer", "m.inner", "m.leaf", "m.inner", "m.leaf"]
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 0, 3]
    assert self_times(tr.spans) == pytest.approx([7.0, 2.5, 1.0, 2.5, 1.0])
    assert tr.spans[0].end - tr.spans[0].start == pytest.approx(14.0)


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", -1, 0.0, 10.0), Span("a", 0, 1.0, 4.0),
             Span("b", 0, 3.0, 6.0), Span("c", 0, 8.0, 12.0)]
    # children cover [1, 6] and [8, 10] inside the parent: 7 s of 10
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_fallback_columns_are_nonneg_spans_under_the_sweep_matrix():
    spans = [Span("balayage.dirac_sweep_matrix", -1, 0.0, 4.0, {"columns": 3}),
             Span("solvers.nonneg_qp", 0, 1.0, 2.0, {"digest": "a", "iterations": 5}),
             Span("solvers.nonneg_qp", -1, 5.0, 6.0, {"digest": "a", "iterations": 1})]
    m = layer_metrics(spans, 6.0)
    assert m["balayage.dirac_sweep_matrix.fallback_columns"] == 1
    assert m["balayage.dirac_sweep_matrix.columns"] == 3
    assert m["solvers.nonneg_qp.calls"] == 2
    assert m["solvers.nonneg_qp.unique_inputs"] == 1
    assert m["solvers.nonneg_qp.iterations"] == 6
    assert m["solvers.nonneg_qp.fast_path_calls"] == 1
    assert m["trace.coverage"] == pytest.approx(5.0 / 6.0)


def test_wrapped_generators_still_pass_build_part():
    from greenpot import cli, geometry

    original = geometry.GENERATORS["sphere_shell"]
    tr = Tracer()
    tr.install()
    try:
        wrapped = geometry.GENERATORS["sphere_shell"]
        assert wrapped is not original and wrapped.__wrapped__ is original
        pts = cli._build_part({"generator": "sphere_shell",
                               "params": {"count": 12, "radius": 2.0}}, "ctx")
        with pytest.raises(cli.ConfigError):
            cli._build_part({"generator": "sphere_shell",
                             "params": {"points": 12}}, "ctx")
    finally:
        tr.uninstall()
    assert pts.shape == (12, 3)
    assert [s.name for s in tr.spans] == ["geometry.sphere_shell"]
    assert layer_metrics(tr.spans, 1.0)["geometry.points"] == 12
    assert geometry.GENERATORS["sphere_shell"] is original
    assert geometry.sphere_shell is original


def test_solver_counters_and_repeated_inputs():
    from greenpot import solvers

    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = np.array([1.0, 1.0])
    tr = Tracer()
    tr.install()
    try:
        solvers.nonneg_qp(A, b)
        solvers.nonneg_qp(A.copy(), b.copy())
        solvers.nonneg_qp(A, np.array([1.0, -1.0]))
    finally:
        tr.uninstall()
    m = layer_metrics(tr.spans, 1.0)
    assert m["solvers.nonneg_qp.calls"] == 3
    assert m["solvers.nonneg_qp.unique_inputs"] == 2
    assert m["solvers.nonneg_qp.fast_path_calls"] == 2


def test_missing_function_is_reported_absent(monkeypatch):
    from greenpot import riesz

    monkeypatch.delattr(riesz, "capacity")
    tr = Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == ["riesz.capacity"]
    assert layer_metrics([], 1.0)["riesz.capacity.self_s"] == 0.0


def _serialized(tasks):
    return json.dumps([(t.name, t.config, t.files, t.expect) for t in tasks],
                      sort_keys=True)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    first = _serialized(make_tasks(workload, 5))
    assert _serialized(make_tasks(workload, 5)) == first
    assert _serialized(make_tasks(workload, 6)) != first


def test_series_must_fall_with_size():
    tasks = [t for t in make_tasks("dense_scale", 0) if t.kind == "capacity"]
    facts = [{"error": 0.02}, {"error": 0.01}, {"error": 0.01}]
    assert list(checks.check_series(tasks, facts)) == [2]
    assert checks.check_series(tasks, facts[:2] + [{"error": 0.005}]) == {}


def test_metric_names_and_units_match_benchmark_json():
    import os

    import run

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    layers = dict(layer_metrics([], 1.0), **{"trace.overhead_frac": 0.0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: run.unit(k) for k in layers}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


def _gauss_outputs(tmp_path, representation):
    report = {"invariants": [{"name": "kkt", "passed": True}],
              "results": {"representation": representation}}
    (tmp_path / "report.json").write_text(json.dumps(report))
    return str(tmp_path)


@pytest.mark.parametrize("representation, flagged", [
    ({"dual_w_gap": 1e-12, "dual_c_gap": 0.0}, None),
    ({"dual_w_gap": 1e-3, "dual_c_gap": 0.0}, "dual_w_gap 0.001 above"),
    ({"dual_w_gap": 0.0}, "dual_c_gap missing"),
    ({"dual_w_gap": float("nan"), "dual_c_gap": 0.0}, "dual_w_gap nan above"),
])
def test_dual_gap_check_flags_large_missing_and_nan(tmp_path, representation,
                                                   flagged):
    task = make_tasks("gauss_ball", 0)[0]
    problems, _ = checks.check_task(task, 0, _gauss_outputs(tmp_path, representation))
    if flagged is None:
        assert problems == []
    else:
        assert len(problems) == 1 and problems[0].startswith(flagged)


def test_nan_error_breaks_the_capacity_bound(tmp_path):
    task = [t for t in make_tasks("dense_scale", 0) if t.kind == "capacity"][0]
    report = {"invariants": [], "results": {"capacity": float("nan")}}
    (tmp_path / "report.json").write_text(json.dumps(report))
    problems, _ = checks.check_task(task, 0, str(tmp_path))
    assert problems and problems[0].startswith("error nan above")
