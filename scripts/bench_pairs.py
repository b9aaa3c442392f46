#!/usr/bin/env python3
"""Benchmark a change against its parent commit in alternating pairs of runs.

Usage (before committing the change):
    python scripts/bench_pairs.py --out BENCH_14.json --change "what changed" \\
        [--claim reproduce:peak_rss_mb]

Both sides run from the same kind of directory, side by side in one temporary
directory: the parent is a ``git archive`` of HEAD, the change a copy of the
working tree's files that git tracks or would track.  Each side runs its own
unchanged ``perfbench/run.py`` on every workload of ``BENCHMARK.json``, for
that file's ``run_seconds``, in ten pairs.  Pair i runs both sides with the
same seed, 100 n + i for the record ``BENCH_<n>.json``; the side that runs
first alternates, the parent first on odd pairs.  Each run's metric is its
median over repetitions, as run.py prints it; the medians and quartiles in the
record are over the runs.  With ``--claim``, one traced run per side
(``--trace 1``) of the claimed workload adds the per-layer metrics.

The record is written as JSON in the layout of the ``BENCH_*.json`` files at
the repository root.  If ``--out`` already holds a record, that batch is not
dropped: its medians move to the new record's ``earlier_batches``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PAIRS = 10
TRACE_SEED = 23
END_TO_END_COMMAND = "python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds} --trace 0"
TRACE_COMMAND = "python3 perfbench/run.py --workload {workload} --seed {seed} --seconds {seconds} --trace 1"
PROTOCOL = (
    "the parent is a git archive of the parent commit and the change a copy of the working tree, each run "
    "from its own directory in one temporary directory; the same seed for both sides of a pair; the side "
    "that runs first alternates (parent first on odd pairs); each run's metric is its median over "
    "repetitions, and median/q1/q3 here are over the runs"
)
#: per-layer metrics quoted by name, next to the full list
NAMED_LAYERS = (
    "distributions.sample.busy_s",
    "distributions.sample.self_s",
    "simulate.play.busy_s",
    "simulate.play.self_s",
    "simulate.best_response_gap.busy_s",
    "simulate.best_response_gap.self_s",
    "simulate.best_response_gap.alloc_peak_mb",
    "simulate.best_response_gap.max_gap",
    "full_recall.expect_over_arrival.atomless.busy_s",
    "full_recall.expect_over_arrival.atomless.calls",
    "full_recall.expect_over_arrival.cells",
    "full_recall.grid_tables.alloc_peak_mb",
    "trace.traced_wall_s",
    "trace.untraced_wall_s",
)


def parse_run(stdout: str) -> tuple[str, dict[str, float]]:
    """The machine line (without its ``machine: `` prefix) and the metric
    values of one run.py run, from its stdout."""
    lines = stdout.strip().splitlines()
    machine = next(line[len("machine: "):] for line in lines if line.startswith("machine: "))
    result = json.loads(lines[-1])
    return machine, {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def better(metric: str, change: float, parent: float, directions: dict[str, str]) -> bool:
    return change < parent if directions[metric] == "lower" else change > parent


def compare(parent: list[float], change: list[float], metric: str, directions: dict[str, str]) -> dict:
    """Both sides' runs of one metric, paired in order."""
    p, c = quartiles(parent), quartiles(change)
    wins = sum(better(metric, cv, pv, directions) for pv, cv in zip(parent, change))
    frac = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    return {
        "parent": p,
        "change": c,
        "change_better_pairs": f"{wins}/{len(parent)}",
        "median_change_frac": round(frac, 4),
    }


def assemble(
    change: str,
    parent_commit: str,
    machine: str,
    seconds: int,
    pairs: dict[str, list[dict]],
    directions: dict[str, str],
    claim: tuple[str, str] | None = None,
    traced: dict | None = None,
    earlier: dict | None = None,
) -> dict:
    """The benchmark record.  ``pairs[workload]`` lists one dict per pair,
    ``{"seed": s, "parent": metrics, "change": metrics}``; ``traced`` is
    ``{"seed": s, "parent": metrics, "change": metrics}`` of the traced runs;
    ``earlier`` is a record made before this one for the same file."""
    record = {
        "change": change,
        "parent_commit": parent_commit,
        "machine": machine,
        "end_to_end_command": END_TO_END_COMMAND.format(seconds=seconds),
        "protocol": PROTOCOL,
        "end_to_end": {},
    }
    for workload, runs in pairs.items():
        entry = {"seeds": [r["seed"] for r in runs]}
        for metric in runs[0]["parent"]:
            entry[metric] = compare(
                [r["parent"][metric] for r in runs], [r["change"][metric] for r in runs], metric, directions
            )
        record["end_to_end"][workload] = entry
    if claim is not None:
        workload, metric = claim
        side = record["end_to_end"][workload][metric]
        p, c = side["parent"], side["change"]
        sign = 1.0 if directions[metric] == "lower" else -1.0
        difference = sign * (p["median"] - c["median"])
        iqr = p["q3"] - p["q1"]
        wins, total = (int(x) for x in side["change_better_pairs"].split("/"))
        record["claim"] = {
            "workload": workload,
            "metric": metric,
            "pairs": total,
            "change_better_pairs": side["change_better_pairs"],
            "parent_median": p["median"],
            "change_median": c["median"],
            "median_difference": difference,
            "parent_iqr": iqr,
            "met": wins >= 0.9 * total and difference > iqr,
        }
    if traced is not None:
        record["per_layer"] = {
            "command": TRACE_COMMAND.format(workload=claim[0], seed=traced["seed"], seconds=seconds),
            "note": "one traced repetition per side; counts repeat exactly, times are single readings",
            "named": {
                name: {"parent": traced["parent"][name], "change": traced["change"][name]}
                for name in NAMED_LAYERS
                if name in traced["parent"]
            },
            "all": {name: [traced["parent"][name], traced["change"].get(name)] for name in traced["parent"]},
        }
    if earlier is not None:
        record["earlier_batches"] = earlier.get("earlier_batches", []) + [summarize(earlier)]
    return record


def summarize(record: dict) -> dict:
    """A record's batch in short: its seeds and, per metric, both medians and
    the pairs won, in the layout of ``earlier_batch`` in ``BENCH_13.json``."""
    batch = {key: record[key] for key in ("change", "parent_commit", "protocol", "note") if key in record}
    batch["end_to_end"] = {
        workload: {
            metric: (
                entry
                if metric == "seeds"
                else {
                    "parent_median": entry["parent"]["median"],
                    "change_median": entry["change"]["median"],
                    "change_better_pairs": entry["change_better_pairs"],
                }
            )
            for metric, entry in metrics.items()
        }
        for workload, metrics in record["end_to_end"].items()
    }
    return batch


def first_seed(out: pathlib.Path) -> int:
    """The seed of the first pair, 100 n + 1 for ``BENCH_<n>.json``: each
    record draws its own seeds."""
    number = re.fullmatch(r"BENCH_(\d+)\.json", out.name)
    if number is None:
        raise ValueError(f"{out.name}: the record must be named BENCH_<n>.json")
    return 100 * int(number.group(1)) + 1


def run_side(tree: pathlib.Path, workload: str, seed: int, seconds: int, trace: int) -> tuple[str, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return parse_run(done.stdout)


def extract_trees(tmp: pathlib.Path) -> dict[str, pathlib.Path]:
    """The parent (HEAD) and the change (the working tree), side by side."""
    archive = tmp / "parent.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), "HEAD"], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(tmp / "parent", filter="data")
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, text=True, check=True).stdout
    for name in filter(None, listed.split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is left out
            dst = tmp / "change" / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    return {"parent": tmp / "parent", "change": tmp / "change"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=pathlib.Path, help="record to write, BENCH_<n>.json")
    ap.add_argument("--change", required=True, help="one line saying what the change does")
    ap.add_argument("--claim", help="workload:metric of the claimed gain; adds the traced per-layer runs")
    args = ap.parse_args()

    try:
        seed0 = first_seed(args.out)
    except ValueError as exc:
        ap.error(str(exc))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    claim = tuple(args.claim.split(":")) if args.claim else None
    earlier = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else None

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = extract_trees(pathlib.Path(tmp))
        machine = ""
        pairs: dict[str, list[dict]] = {}
        for workload in (w["name"] for w in spec["workloads"]):
            pairs[workload] = []
            for i in range(PAIRS):
                seed = seed0 + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed}
                for side in order:
                    machine, pair[side] = run_side(trees[side], workload, seed, seconds, 0)
                    print(f"{workload} pair {i + 1} seed {seed} {side}: "
                          + ", ".join(f"{k} {v:.6g}" for k, v in pair[side].items()), flush=True)
                pairs[workload].append(pair)
        traced = None
        if claim is not None:
            traced = {"seed": TRACE_SEED}
            for side in ("parent", "change"):
                _, traced[side] = run_side(trees[side], claim[0], TRACE_SEED, seconds, 1)

    record = assemble(args.change, commit, machine, seconds, pairs, directions, claim, traced, earlier)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if claim is not None:
        print("claim met" if record["claim"]["met"] else "claim NOT met", json.dumps(record["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
