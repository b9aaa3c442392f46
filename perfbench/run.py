#!/usr/bin/env python3
"""Benchmark of the selection_games package.

    python3 perfbench/run.py --workload reproduce|montecarlo|atoms --seed N
                             --seconds S --trace 0|1 [--tiny] [--wrong-reference]

Run from the root of a source checkout; the package is imported from src/.
Each repetition runs the workload's whole job list in a fresh worker process
(so the grid-table cache starts cold), one worker at a time, with BLAS and
OpenMP pools capped at one thread.  Repetitions run while the next one is
expected to end within S seconds (at least three with --trace 0).

--trace 0 reports the end-to-end metrics as medians over the repetitions.
--trace 1 runs one traced repetition (spans around every public function),
one with tracemalloc on, and untraced ones for the remaining time, and reports
the per-layer metrics; tracing overhead is traced wall_s minus the median
untraced wall_s.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Failed operations are listed by name above it.  An
operation fails if it raises, a CLI call exits non-zero, or its output misses
its reference check.  `correct` is false when an operation fails that is not
a known defect of the program (see workloads.ATOM_DEFECT); known defects
still count in `failed` and in ok_frac.  A detail file with the machine, the
thread caps and every repetition is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOADS = ("reproduce", "montecarlo", "atoms")
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
MIN_REPS = 3
#: no repetition starts after this many seconds, so a run ends well within 180 s
START_LIMIT_S = 120.0
WORKER_TIMEOUT_S = 170.0


class WorkerError(RuntimeError):
    pass


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "thread_caps": THREAD_CAPS,
    }


def run_worker(args, mode: str, grid_err: bool = False) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
    ]
    cmd += ["--tiny"] * args.tiny + ["--grid-err"] * grid_err + ["--wrong-reference"] * args.wrong_reference
    env = dict(os.environ, **THREAD_CAPS)
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repetitions(args, mode: str, started: float, minimum: int, first_grid_err: bool = False) -> list[dict]:
    """Run repetitions until the next one would end after --seconds (counted
    from ``started``), but at least ``minimum`` of them."""
    reps: list[dict] = []
    begin = time.monotonic()
    while True:
        now = time.monotonic()
        per_rep = (now - begin) / len(reps) if reps else 0.0
        if len(reps) >= minimum and (now - started + per_rep > args.seconds or now - started > START_LIMIT_S):
            return reps
        reps.append(run_worker(args, mode, grid_err=first_grid_err and not reps))


def tally(reps: list[dict]) -> tuple[int, dict[str, dict]]:
    attempted = 0
    failures: dict[str, dict] = {}
    for rep in reps:
        for op in rep["ops"]:
            attempted += 1
            if op["error"]:
                entry = failures.setdefault(op["name"], {"count": 0, "error": op["error"], "known_defect": op["known_defect"]})
                entry["count"] += 1
    return attempted, failures


def end_to_end(reps: list[dict]) -> dict[str, dict]:
    attempted, failures = tally(reps)
    failed = sum(f["count"] for f in failures.values())
    med = lambda key: statistics.median(r[key] for r in reps)  # noqa: E731
    rates = [r["games"] / r["play_s"] for r in reps if r["play_s"] > 0]
    return {
        "setup_s": {"value": med("setup_s"), "unit": "s"},
        "wall_s": {"value": med("wall_s"), "unit": "s"},
        "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
        "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        "mc_games_per_s": {"value": statistics.median(rates) if rates else 0.0, "unit": "1/s"},
        "grid_err": {"value": reps[0]["grid_err"], "unit": "payoff"},
    }


def per_layer(traced: dict, alloc: dict, plain: list[dict]) -> dict[str, dict]:
    out = dict(traced["layers"])
    out.update((k, v) for k, v in alloc["layers"].items() if k.endswith(".alloc_peak_mb"))
    untraced = statistics.median(r["wall_s"] for r in plain)
    out["trace.traced_wall_s"] = {"value": traced["wall_s"], "unit": "s"}
    out["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced["wall_s"] - untraced, "unit": "s"}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the harness self-test")
    ap.add_argument("--wrong-reference", action="store_true", help="shift one reference per repetition")
    args = ap.parse_args()
    if not (ROOT / "src" / "selection_games" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    info = machine()
    try:
        if args.trace == 0:
            reps = repetitions(args, "plain", started, MIN_REPS, first_grid_err=True)
            metrics = end_to_end(reps)
        else:
            traced = run_worker(args, "trace")
            alloc = run_worker(args, "alloc")
            plain = repetitions(args, "plain", started, 1)
            reps = [traced, alloc] + plain
            metrics = per_layer(traced, alloc, plain)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    info["numpy"] = reps[0]["numpy"]
    attempted, failures = tally(reps)
    failed = sum(f["count"] for f in failures.values())
    correct = all(f["known_defect"] for f in failures.values())
    print(f"machine: {info['cpu']}, nproc {info['nproc']}, python {info['python']}, numpy {info['numpy']}, "
          f"threads capped at 1 ({', '.join(THREAD_CAPS)})")
    print(f"workload {args.workload}, seed {args.seed}, {len(reps)} repetitions, "
          f"{attempted} operations, {failed} failed (fail_frac {failed / attempted:.6g})")
    for name, f in sorted(failures.items()):
        tag = "known defect" if f["known_defect"] else "FAILED"
        print(f"  {tag}: {name} x{f['count']}: {f['error']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = {"args": vars(args), "machine": info, "metrics": metrics, "failures": failures,
              "repetitions": [{k: v for k, v in r.items() if k != "layers"} for r in reps]}
    with open(OUT_DIR / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
