#!/usr/bin/env python3
"""Self-test of the benchmark harness, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For every workload it checks that

* a run with --trace 0 prints every end-to-end metric of BENCHMARK.json, and
  one with --trace 1 every per-layer metric, each with its unit;
* a run fed one deliberately wrong reference per repetition counts exactly one
  more failed operation per repetition, reports correct = false, and still
  exits 0;

and that the benchmark exits non-zero without a result in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def bench(*flags: str, cwd: pathlib.Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", "--tiny", *flags],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result(workload: str, *flags: str) -> tuple[dict, int]:
    code, lines = bench("--workload", workload, *flags)
    if code != 0:
        raise AssertionError(f"{workload} {flags}: exit {code}")
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, sorted(out)
    assert out["attempted"] >= 1
    trace = flags[flags.index("--trace") + 1]
    with open(OUT_DIR / f"{workload}-trace{trace}.json", encoding="utf-8") as fh:
        reps = len(json.load(fh)["repetitions"])
    return out, reps


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            out, _ = result(name, "--trace", trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            assert got == want, f"{name} trace {trace}: {sorted(set(got) ^ set(want))} or units differ"
        base, base_reps = result(name, "--trace", "0")
        wrong, wrong_reps = result(name, "--trace", "0", "--wrong-reference")
        assert not wrong["correct"], f"{name}: a wrong reference left correct = true"
        assert wrong["failed"] / wrong_reps == base["failed"] / base_reps + 1, (name, base, wrong)
        print(f"ok {name}: metrics and units match; a wrong reference adds one failure per repetition")

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = bench("--workload", spec["workloads"][0]["name"], "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    print("ok: without the package source the benchmark exits", code, "and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
