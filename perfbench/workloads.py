"""Seeded inputs for the three benchmark workloads.

Every workload is a list of greenpot CLI tasks, each a JSON config plus any
input files it reads, made only from the seed. The seed changes coordinates
and orientations but not the amount of work, so runs at different seeds time
the same computation on different numbers:

- gauss_ball: the check-8 ball-and-collar cloud through the `gauss` task,
  with every layer count scaled by GAUSS_BALL_SCALE so that several passes
  fit in one run. The seed turns each layer and the collar about the z axis
  independently, by up to BALL_TURN from check 8's angles, so the Green
  matrix and the active-set path change with the seed while the amount of
  solver work stays close to check 8's.
- small_family: 24 small `gauss` tasks of the check-2 design. Shell and
  complement sizes are a seeded permutation of fixed grids, so a pass always
  holds the same sizes; the charge's offsets are capped (see `_jitter`).
- dense_scale: `capacity` on sphere shells of 1000, 2000 and 4000 points, and
  `green` on 60 seeded half-space probes over the three check-5 plane_rings
  complement sizes (built by `geometry.plane_rings`), read from CSV.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from greenpot import geometry

BALL_RADII = (0.985, 0.925, 0.84, 0.725, 0.555, 0.325)
BALL_COUNTS = (750, 330, 230, 160, 90, 30)
COLLAR_RADIUS = 1.053
# At full size one task takes about 50 s on one core, too long for several
# passes in a run; at half size it takes about 5 s and the two QP solvers
# still take over 90 % of it.
GAUSS_BALL_SCALE = 0.5
# Largest seeded turn (radians) of a ball layer or the collar. Over a few
# seeds, free turns gave 1860 to 3290 active-set iterations per task (3.9 to
# 13 s) and once a dual gap above the check-4 bound; turns of up to 0.1 rad
# gave 1870 to 2740; turns of up to 0.02 rad gave 2003 to 2014, against 2008
# at check 8's own angles.
BALL_TURN = 0.02

FAMILY_SIZE = 24
# Charge offsets in small_family: normal with this sigma, length capped.
JITTER_SIGMA = 0.15
JITTER_CAP = 0.3
CAPACITY_SIZES = (1000, 2000, 4000)
PLANE_RINGS = ((0.30, 25.0, 1.30), (0.20, 40.0, 1.20), (0.14, 60.0, 1.13))
PROBE_COUNT = 60


@dataclass
class Task:
    """One CLI run: the config, extra input files, and what the checks need."""

    name: str
    config: dict
    files: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.config["task"]


def _floats(a) -> list:
    return [float(v) for v in np.asarray(a, dtype=float).ravel()]


def _jitter(rng) -> np.ndarray:
    """Normal offset of a charge point, its length capped at two sigma.

    Check 4's dual-gap bound assumes, as check 2 asserts, that the charge's
    sweep covers all of F. An uncapped offset once (1 of 2400 instances)
    moved a charge point 0.48 towards a large ball grid; the sweep then
    missed one F point and the primal and dual problems differed by 3e-7,
    as they should on such an instance.
    """
    v = rng.normal(0.0, JITTER_SIGMA, 3)
    length = float(np.linalg.norm(v))
    return v if length <= JITTER_CAP else v * (JITTER_CAP / length)


def gauss_ball(seed: int) -> list[Task]:
    rng = np.random.default_rng(seed)
    turns = rng.uniform(-BALL_TURN, BALL_TURN, len(BALL_COUNTS) + 1)
    counts = [max(1, round(c * GAUSS_BALL_SCALE)) for c in BALL_COUNTS]
    cfg = {
        "task": "gauss",
        "alpha": 2.0,
        "geometry": {"parts": [
            {"generator": "layered_ball",
             "params": {"radii": list(BALL_RADII), "counts": counts,
                        "rotations": [0.61 * k + float(t)
                                      for k, t in enumerate(turns[:-1])]}},
            {"generator": "sphere_shell",
             "params": {"count": counts[0], "radius": COLLAR_RADIUS,
                        "rotate": float(turns[-1])}},
        ]},
        "regions": {"f": {"kind": "parts", "values": [0]}},
        "theta": {"points": [[0.0, 0.0, 1.8]], "weights": [0.5]},
    }
    return [Task("ball", cfg)]


def small_family(seed: int) -> list[Task]:
    rng = np.random.default_rng(seed)
    half = FAMILY_SIZE // 2
    f_sizes = rng.permutation(np.linspace(120, 259, half).round().astype(int))
    y_sizes = rng.permutation(np.linspace(60, 129, half).round().astype(int))
    tasks = []
    for inst in range(FAMILY_SIZE):
        c_y = rng.normal(0.0, 1.0, 3)
        c_y *= 4.5 / np.linalg.norm(c_y)
        if inst % 2 == 0:
            alpha = 2.0
            f_part = {"generator": "sphere_shell",
                      "params": {"count": int(f_sizes[inst // 2]),
                                 "radius": float(rng.uniform(0.7, 1.3)),
                                 "rotate": float(rng.uniform(0, 6))},
                      "offset": _floats(rng.uniform(-0.2, 0.2, 3))}
            y_part = {"generator": "sphere_shell",
                      "params": {"count": int(y_sizes[inst // 2]),
                                 "radius": float(rng.uniform(0.6, 1.1)),
                                 "rotate": float(rng.uniform(0, 6))},
                      "offset": _floats(c_y)}
        else:
            alpha = 1.0
            f_part = {"generator": "ball_grid", "params": {"spacing": 0.24},
                      "scale": float(rng.uniform(0.8, 1.2))}
            y_part = {"generator": "ball_grid",
                      "params": {"spacing": 0.4, "radius": 0.8},
                      "scale": 0.8, "offset": _floats(c_y)}
        t_dir = c_y / 4.5
        th_pts = [_floats(t_dir * 2.2 + _jitter(rng)),
                  _floats(t_dir * 2.6 + _jitter(rng))]
        th_w = rng.uniform(0.2, 0.5, 2)
        th_w *= 0.8 / th_w.sum()
        cfg = {
            "task": "gauss",
            "alpha": alpha,
            "geometry": {"parts": [f_part, y_part]},
            "regions": {"f": {"kind": "parts", "values": [0]},
                        "y": {"kind": "parts", "values": [1]}},
            "theta": {"points": th_pts, "weights": _floats(th_w)},
        }
        tasks.append(Task(f"inst{inst:02d}", cfg))
    return tasks


def dense_scale(seed: int) -> list[Task]:
    rng = np.random.default_rng(seed)
    tasks = []
    for count in CAPACITY_SIZES:
        cfg = {
            "task": "capacity",
            "alpha": 2.0,
            "geometry": {"parts": [
                {"generator": "sphere_shell",
                 "params": {"count": count, "radius": 1.0,
                            "rotate": float(rng.uniform(0.0, 2.0 * np.pi))},
                 "offset": _floats(rng.uniform(-1.0, 1.0, 3))}]},
        }
        tasks.append(Task(f"capacity_{count}", cfg,
                          expect={"series": "capacity", "size": count,
                                  "exact": 1.0, "max_error": 0.05}))

    probes = rng.uniform(-1.2, 1.2, size=(PROBE_COUNT, 3))
    probes[:, 2] = rng.uniform(0.8, 2.0, size=PROBE_COUNT)
    for r0, rmax, ratio in PLANE_RINGS:
        y_pts = geometry.plane_rings(r0, rmax, ratio)
        pts = np.vstack([probes, y_pts])
        name = f"cloud_{len(y_pts)}.csv"
        lines = ["x0,x1,x2"] + [",".join(f"{v:.17g}" for v in row) for row in pts]
        cfg = {
            "task": "green",
            "alpha": 2.0,
            "sigma": 0.5,
            "geometry": {"csv": name},
            "regions": {"f": {"kind": "indices", "values": [0]},
                        "y": {"kind": "half_space", "normal": [0.0, 0.0, -1.0],
                              "offset": 0.0}},
        }
        tasks.append(Task(f"green_{len(y_pts)}", cfg,
                          files={name: "\n".join(lines) + "\n"},
                          expect={"series": "half_space", "size": len(y_pts),
                                  "probes": probes.tolist(), "max_error": 0.02}))
    return tasks


WORKLOADS = {
    "gauss_ball": gauss_ball,
    "small_family": small_family,
    "dense_scale": dense_scale,
}


def make_tasks(workload: str, seed: int) -> list[Task]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"available: {sorted(WORKLOADS)}")
    return WORKLOADS[workload](seed)


def write_inputs(tasks: list[Task], directory: str) -> list[str]:
    """Write each task's config and files; return the config paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for task in tasks:
        for name, text in task.files.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        path = os.path.join(directory, f"{task.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(task.config, fh, sort_keys=True, indent=1)
        paths.append(path)
    return paths
