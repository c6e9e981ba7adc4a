"""greenpot benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gauss_ball|small_family|dense_scale|all \
        --seed N --seconds S --trace 0|1

Run from the repository root. The workload runs in a fresh worker process
with BLAS pinned to one thread (on a 2-core box one thread was both faster
and steadier than the default). With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it reports the per-layer metrics of the
traced passes, plus one report-only traced pass at the machine's default BLAS
threading. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A full record, with the
environment, goes to .bench_runs/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".bench_runs")
WORKLOADS = ("gauss_ball", "small_family", "dense_scale")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
P90_MIN_TASKS = 100
WORKER_GRACE_S = 120

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "task_p50_s": "s",
                    "peak_rss_mb": "MB"}
LAYER_UNITS = {"self_s": "s", "cholesky_gflop": "Gflop", "bytes": "B",
               "coverage": "fraction", "overhead_frac": "fraction"}
# Layer metrics compared between one pinned thread and the default threading.
PROBE_LAYERS = ("solvers.simplex_qp.self_s", "solvers.nonneg_qp.self_s",
                "riesz.make_kernel.self_s", "riesz.assemble_riesz.self_s",
                "balayage.dirac_sweep_matrix.self_s")


def child_env(pinned: bool) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.pop(var, None)
        if pinned:
            env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, mode: str, pinned: bool, work: str) -> dict:
    result_path = os.path.join(work, f"{mode}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--work", os.path.join(work, mode), "--result", result_path]
    subprocess.run(cmd, env=child_env(pinned), cwd=ROOT, stdout=sys.stderr,
                   timeout=args.seconds + WORKER_GRACE_S, check=True)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def machine() -> dict:
    """Host facts for the record; any that cannot be read are None."""
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = (_read(os.path.join(base, index, "level")) or "").strip()
        kind = (_read(os.path.join(base, index, "type")) or "").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = (_read(os.path.join(base, index, "size")) or "").strip()
    try:
        mem = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):
        mem = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "l2": caches.get("L2"),
            "l3": caches.get("L3"),
            "memory_gb": round(mem / 2 ** 30, 2) if mem else None}


def source_identity() -> dict:
    """The git commit when the checkout has one, and a digest of the sources."""
    commit = None
    head = (_read(os.path.join(ROOT, ".git", "HEAD")) or "").strip()
    if head.startswith("ref: "):
        commit = (_read(os.path.join(ROOT, ".git", head[5:])) or "").strip() or None
    elif head:
        commit = head
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "greenpot")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"git_commit": commit, "source_sha256": h.hexdigest()}


def tally(result: dict) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems = []
    for n, rec in enumerate(result["passes"]):
        for name, found in zip(result["tasks"], rec["checks"]):
            attempted += 1
            if found["problems"]:
                failed += 1
                problems.append(f"pass {n} {name}: " + "; ".join(found["problems"]))
        for pos, trace in rec["errors"].items():
            problems.append(f"pass {n} {result['tasks'][int(pos)]} raised:\n{trace}")
    return attempted, failed, problems


def end_to_end(result: dict) -> tuple[dict, dict]:
    plain = [r for r in result["passes"] if not r["traced"]]
    tasks = sorted(t for r in plain for t in r["task_s"])
    values = {
        "setup_s": statistics.median(result["setup_s"]),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "task_p50_s": statistics.median(tasks),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    extra = {"task_p90_s": (statistics.quantiles(tasks, n=10)[-1]
                            if len(tasks) >= P90_MIN_TASKS else None),
             "task_samples": len(tasks), "passes": len(plain)}
    return values, extra


def per_layer(result: dict) -> tuple[dict, list[str]]:
    """Counts of the traced passes (which must agree) and median times."""
    traced = [r["layers"] for r in result["passes"] if r["traced"]]
    plain = [r["wall_s"] for r in result["passes"] if not r["traced"]]
    problems = []
    values = {}
    for key in traced[0]:
        samples = [layers[key] for layers in traced]
        if isinstance(samples[0], int):
            if len(set(samples)) > 1:
                problems.append(f"{key} differs between traced passes: {samples}")
            values[key] = samples[0]
        else:
            values[key] = statistics.median(samples)
    traced_wall = statistics.median(r["wall_s"] for r in result["passes"] if r["traced"])
    values["trace.overhead_frac"] = traced_wall / statistics.median(plain) - 1.0
    return values, problems


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="greenpot benchmark, one run")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="'all' runs the three workloads one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "greenpot", "cli.py")):
        print("benchmark: no greenpot sources under src/greenpot; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args)
    codes = [run_one(argparse.Namespace(**{**vars(args), "workload": w}))
             for w in WORKLOADS]
    return max(codes)


def run_one(args) -> int:
    os.makedirs(RUNS, exist_ok=True)
    work = os.path.join(RUNS, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    started = time.perf_counter()
    try:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "machine": machine(), **source_identity(),
                  "blas_threads": {v: "1" for v in THREAD_VARS}}
        if args.trace:
            result = run_worker(args, "trace", True, work)
            metrics, problems = per_layer(result)
            probe = run_worker(args, "probe", False, work)
            probe_layers = probe["passes"][0]["layers"]
            record["thread_comparison"] = {
                "inherited": {v: os.environ.get(v) for v in THREAD_VARS},
                "pinned_wall_s": statistics.median(
                    r["wall_s"] for r in result["passes"] if r["traced"]),
                "default_wall_s": probe["passes"][0]["wall_s"],
                "layers": {k: {"pinned": metrics[k], "default": probe_layers[k]}
                           for k in PROBE_LAYERS},
            }
            runs = [result, probe]
        else:
            result = run_worker(args, "plain", True, work)
            metrics, extra = end_to_end(result)
            problems = []
            record["report_only"] = extra
            runs = [result]
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark: run failed: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    for r in runs:
        a, f, found = tally(r)
        attempted += a
        failed += f
        problems += found
    record.update(versions=result["versions"], absent_layers=result["absent_layers"],
                  runs=runs, problems=problems, total_s=time.perf_counter() - started)
    record["failed_frac"] = failed / attempted
    out = {"correct": failed == 0 and not problems, "attempted": attempted,
           "failed": failed,
           "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}
    record["result"] = out
    path = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {attempted} tasks, {failed} failed, "
          f"BLAS threads pinned to 1; record in {os.path.relpath(path, ROOT)}")
    for name, m in out["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        p90 = record["report_only"]["task_p90_s"]
        print(f"  {'task_p90_s':<48} {p90:>14.6g} s" if p90 is not None else
              f"  {'task_p90_s':<48} {'n/a':>14} (fewer than {P90_MIN_TASKS} tasks)")
        print(f"  {'failed_frac':<48} {record['failed_frac']:>14.6g} fraction")
    else:
        tc = record["thread_comparison"]
        print(f"  report only: pass wall {tc['pinned_wall_s']:.4g} s at 1 BLAS thread, "
              f"{tc['default_wall_s']:.4g} s at the default threading")
    if record["absent_layers"]:
        print("  absent layers: " + ", ".join(record["absent_layers"]))
    for line in problems[:20]:
        print(f"  problem: {line}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
