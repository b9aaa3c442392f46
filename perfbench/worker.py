"""One repetition of a workload, in a fresh process with a cold table cache.

Usage (normally started by run.py):

    python3 perfbench/worker.py --workload NAME --seed N --t-spawn T
        [--mode plain|trace|alloc] [--tiny] [--grid-err] [--wrong-reference]

``--t-spawn`` is the CLOCK_MONOTONIC reading taken by the parent just before
it started this process; set-up time runs from there until the package is
imported and the workload's inputs are built.  The timed window then runs the
job list; references are computed and checked after it, with any tracing
switched off.  The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def time_play(simulate, replace_everywhere, arg) -> dict:
    """Accumulate the games played and the seconds spent in ``simulate.play``."""
    totals = {"games": 0, "seconds": 0.0}
    original = simulate.play

    @functools.wraps(original)
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            totals["seconds"] += time.perf_counter() - start
            totals["games"] += arg(args, kwargs, 5, "runs")

    replace_everywhere(original, timed)
    return totals


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--mode", choices=("plain", "trace", "alloc"), default="plain")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--grid-err", action="store_true")
    ap.add_argument("--wrong-reference", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import tracing
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    setup_s = monotonic() - args.t_spawn

    from selection_games import simulate

    play = time_play(simulate, tracing.replace_everywhere, tracing.arg)
    rec = None
    if args.mode != "plain":
        rec = tracing.Recorder(alloc=args.mode == "alloc")
        tracing.install(rec)
        rec.enabled = True

    results = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # an operation that raises is counted as failed
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        results.append((op, out, error, time.perf_counter() - t0))
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        rec.enabled = False

    inject = [1.0] if args.wrong_reference else []
    report = []
    for op, out, error, seconds in results:
        if error is None:
            ck = workloads.Checker(inject)
            try:
                op.check(out, ck)
            except Exception as exc:  # a malformed output fails its check
                ck.problems.append(f"check raised {type(exc).__name__}: {exc}")
            error = "; ".join(ck.problems) or None
        report.append({"name": op.name, "seconds": seconds, "error": error, "known_defect": op.known_defect})

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "play_s": play["seconds"],
        "games": play["games"],
        "ops": report,
        "numpy": np.__version__,
    }
    if args.grid_err:
        result["grid_err"] = workloads.grid_err()
    if rec is not None:
        result["layers"] = rec.metrics()
        if not rec.alloc:
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            rec.write_spans(OUT_DIR / f"{args.workload}.spans.json")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
