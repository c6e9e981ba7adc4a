"""Output checks. A task fails when any of these holds:

- its exit code is not 0, or it raised;
- an invariant in its report.json has `passed: false`;
- on a gauss task, a check-4 dual gap (`dual_w_gap` or `dual_c_gap`) is
  missing, NaN or above DUAL_GAP_MAX;
- on a dense_scale task, a check-5 bound is broken: capacity error above 5 %,
  half-space kernel error above 2 %, or an error that does not fall as the
  size grows within its series (a NaN error breaks every bound);
- the digest of its report.json and tables/*.csv differs from the digest of
  the same task in the run's first pass.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import os

import numpy as np

DUAL_GAP_MAX = 1e-8
MIN_PROBE_PAIRS = 50


def output_digest(out_dir: str) -> str:
    h = hashlib.sha256()
    files = [os.path.join(out_dir, "report.json")]
    files += sorted(glob.glob(os.path.join(out_dir, "tables", "*.csv")))
    for path in files:
        h.update(os.path.relpath(path, out_dir).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _half_space_error(out_dir: str, probes) -> tuple[float, int]:
    """Worst relative error of the Green table against the closed form
    1/|x - y| - 1/|x - y*| over probe pairs at distance 0.4 to 1.6."""
    with open(os.path.join(out_dir, "tables", "green_matrix.csv"), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    green = np.array(rows, dtype=float)
    p = np.asarray(probes, dtype=float)
    mirror = p * np.array([1.0, 1.0, -1.0])
    gap = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=2)
    far = np.linalg.norm(p[:, None, :] - mirror[None, :, :], axis=2)
    np.fill_diagonal(gap, 1.0)
    exact = 1.0 / gap - 1.0 / far
    mask = np.triu(np.ones_like(gap, dtype=bool), 1) & (gap > 0.4) & (gap < 1.6)
    rel = np.abs(green - exact)[mask] / exact[mask]
    return float(np.max(rel)), int(mask.sum())


def check_task(task, rc, out_dir: str) -> tuple[list[str], dict]:
    """Problems found in one task's outputs, and the measured check values."""
    if rc != 0:
        return [f"exit code {rc}"], {}
    try:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable report.json: {exc}"], {}
    problems = [f"invariant {inv['name']} failed"
                for inv in report.get("invariants", []) if not inv["passed"]]
    facts: dict = {}
    if task.kind == "gauss":
        # theta's mass is below 1 on every workload, so the closed-form dual
        # applies and both gaps must be in the report.
        rep = report["results"]["representation"]
        for key in ("dual_w_gap", "dual_c_gap"):
            if key not in rep:
                problems.append(f"{key} missing from the report")
                continue
            facts[key] = rep[key]
            if not rep[key] <= DUAL_GAP_MAX:
                problems.append(f"{key} {rep[key]:.3g} above {DUAL_GAP_MAX:g}")
    elif task.kind == "capacity":
        facts["error"] = abs(report["results"]["capacity"] - task.expect["exact"])
    elif task.kind == "green":
        facts["error"], pairs = _half_space_error(out_dir, task.expect["probes"])
        if pairs < MIN_PROBE_PAIRS:
            problems.append(f"only {pairs} probe pairs in range")
    if "max_error" in task.expect and not facts["error"] <= task.expect["max_error"]:
        problems.append(f"error {facts['error']:.3g} above {task.expect['max_error']:g}")
    return problems, facts


def check_series(tasks, facts: list[dict]) -> dict[int, str]:
    """Within each series, the error must fall as the size grows; returns the
    positions of tasks whose error did not fall, with the reason."""
    series: dict = {}
    for pos, (task, f) in enumerate(zip(tasks, facts)):
        if "series" in task.expect and "error" in f:
            series.setdefault(task.expect["series"], []).append(
                (task.expect["size"], f["error"], pos))
    bad = {}
    for name, items in series.items():
        items.sort()
        for (size_a, err_a, _), (size_b, err_b, pos) in zip(items, items[1:]):
            if not err_b < err_a:
                bad[pos] = (f"{name} error {err_b:.3g} at size {size_b} did not "
                            f"fall below {err_a:.3g} at size {size_a}")
    return bad
