"""Runs one workload inside this process and writes its pass records as JSON.

A pass runs every task of the workload once through `greenpot.cli.main`, in
process; the benchmark times the pass, then checks its outputs untimed. Modes:

- plain: untraced passes until the time budget is spent, with SETUP_REPEATS
  timed imports of greenpot in fresh processes spread between them, so that
  the set-up samples see the same machine state as the passes;
- trace: untraced and traced passes in turn, so that both see the same
  machine state and their difference is the tracing overhead;
- probe: a single traced pass.

The parent process sets the BLAS thread variables before this one starts,
because OpenBLAS reads them once, when numpy is imported.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode plain|trace|probe --work DIR --result FILE
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import make_tasks, write_inputs  # noqa: E402

SETUP_REPEATS = 20
IMPORT_CODE = ("import time; t = time.perf_counter(); import greenpot; "
               "print(time.perf_counter() - t)")


def time_import() -> float:
    """Seconds to import greenpot in a fresh process (this one's environment)."""
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _blas_version(module) -> str | None:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return None


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_blas": _blas_version(np),
            "scipy_blas": _blas_version(scipy)}


def run_pass(cli, tasks, cfgs, out_root, tracer) -> dict:
    """Run every task once; returns times, exit codes and, if traced, layers."""
    if tracer is not None:
        tracer.reset()
        tracer.install()
    task_s, codes, errors = [], [], {}
    start = time.perf_counter()
    traced_start = tracer.now() if tracer is not None else 0.0
    try:
        for pos, (task, cfg) in enumerate(zip(tasks, cfgs)):
            t0 = time.perf_counter()
            try:
                rc = cli.main(["run", cfg, "--out", os.path.join(out_root, task.name)])
            except Exception:
                rc = None
                errors[pos] = traceback.format_exc(limit=4)
            task_s.append(time.perf_counter() - t0)
            codes.append(rc)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {"traced": tracer is not None, "wall_s": wall, "task_s": task_s,
              "codes": codes, "errors": errors}
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer.spans,
                                                 tracer.now() - traced_start)
    return record


def check_pass(tasks, record, out_root, first_digests) -> list[dict]:
    """Untimed output checks; returns one {problems, facts, digest} per task."""
    found = []
    for task, rc in zip(tasks, record["codes"]):
        out = os.path.join(out_root, task.name)
        problems, facts = checks.check_task(task, rc, out)
        digest = checks.output_digest(out) if rc == 0 and not problems else None
        found.append({"problems": problems, "facts": facts, "digest": digest})
    for pos, reason in checks.check_series(tasks, [f["facts"] for f in found]).items():
        found[pos]["problems"].append(reason)
    for pos, f in enumerate(found):
        if first_digests is not None and f["digest"] != first_digests[pos]:
            f["problems"].append("outputs differ from the first pass")
    return found


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("plain", "trace", "probe"), required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    tasks = make_tasks(args.workload, args.seed)
    cfgs = write_inputs(tasks, os.path.join(args.work, "inputs"))
    input_s = time.perf_counter() - t0
    from greenpot import cli

    tracer = tracing.Tracer() if args.mode != "plain" else None
    passes = []
    setup: list[float] = []
    if args.mode == "plain":
        time_import()  # writes the bytecode cache; not counted
    first_digests = None
    start = time.perf_counter()
    while True:
        traced = args.mode == "probe" or (args.mode == "trace" and len(passes) % 2 == 1)
        out_root = os.path.join(args.work, "out")
        record = run_pass(cli, tasks, cfgs, out_root, tracer if traced else None)
        found = check_pass(tasks, record, out_root, first_digests)
        shutil.rmtree(out_root, ignore_errors=True)
        if first_digests is None:
            first_digests = [f["digest"] for f in found]
        record["checks"] = found
        passes.append(record)
        if args.mode == "probe":
            break
        if args.mode == "plain":
            due = math.ceil(SETUP_REPEATS * (time.perf_counter() - start) / args.seconds)
            while len(setup) < min(due, SETUP_REPEATS):
                setup.append(time_import())
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in passes)
        if len(passes) >= 2 and elapsed + typical > args.seconds:
            break
    while args.mode == "plain" and len(setup) < SETUP_REPEATS:
        setup.append(time_import())

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "tasks": [t.name for t in tasks],
        "input_s": input_s,
        "measure_s": time.perf_counter() - start,
        "passes": passes,
        "setup_s": setup,
        "absent_layers": tracer.absent if tracer is not None else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": versions(),
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
