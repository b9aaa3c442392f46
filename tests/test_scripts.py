"""The command-line scripts under scripts/, run as a user runs them."""

import csv
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_bound_sweep_csv_reads_back(tmp_path):
    target = tmp_path / "sweep.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bound_sweep.py"), "--csv", str(target)],
        check=True, env=env, capture_output=True,
    )
    with open(target, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["law", "pos2", "poa2"]
    spec = importlib.util.spec_from_file_location("bound_sweep", ROOT / "scripts" / "bound_sweep.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    names = [name for name, _ in script.sweep()]
    assert len(rows) == len(names) == 210
    # law names such as beta(1,2) hold commas: each row must still have three fields
    assert all(None not in row and len(row) == 3 for row in rows)
    assert [row["law"] for row in rows] == names
    assert all(float(row["pos2"]) <= 4 / 3 + 1e-9 for row in rows)


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MACHINE = "Example CPU, nproc 2, python 3.11.7, numpy 2.4.6, threads capped at 1 (OMP_NUM_THREADS)"


def _run_stdout(wall_s, peak_rss_mb, seed):
    """What perfbench/run.py prints for one run, cut to three metrics."""
    metrics = {
        "wall_s": {"value": wall_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "ok_frac": {"value": 1.0, "unit": "ratio"},
    }
    return "\n".join([
        f"machine: {MACHINE}",
        f"workload reproduce, seed {seed}, 9 repetitions, 270 operations, 0 failed (fail_frac 0)",
        f"  wall_s = {wall_s:.6g} s",
        json.dumps({"correct": True, "attempted": 270, "failed": 0, "metrics": metrics}),
    ])


def test_bench_pairs_assembles_record_from_run_lines():
    script = _script("bench_pairs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    parent = [(3.0, 224.4), (3.4, 224.5), (3.2, 224.3), (3.6, 224.4), (3.1, 224.4)]
    change = [(2.4, 171.0), (2.2, 171.5), (3.3, 171.2), (2.5, 171.4), (2.3, 171.3)]
    pairs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        machine, p_metrics = script.parse_run(_run_stdout(*p, seed=601 + i))
        _, c_metrics = script.parse_run(_run_stdout(*c, seed=601 + i))
        pairs.append({"seed": 601 + i, "parent": p_metrics, "change": c_metrics})
    assert machine == MACHINE
    layers = {"simulate.best_response_gap.alloc_peak_mb": 92.5, "full_recall.expect_over_arrival.cells": 42072028}
    traced = {"seed": 23, "parent": layers, "change": dict(layers, **{"full_recall.expect_over_arrival.cells": 9})}
    record = script.assemble(
        "a change", "abc123", machine, 36, {"reproduce": pairs}, directions, ("reproduce", "peak_rss_mb"), traced
    )

    # the layout of the committed records
    committed = json.loads((ROOT / "BENCH_13.json").read_text(encoding="utf-8"))
    assert set(record) == set(committed) - {"earlier_batch"}
    assert record["end_to_end_command"] == committed["end_to_end_command"]
    want = committed["end_to_end"]["reproduce"]
    got = record["end_to_end"]["reproduce"]
    assert set(got) == {"seeds", "wall_s", "peak_rss_mb", "ok_frac"}
    for metric in ("wall_s", "peak_rss_mb", "ok_frac"):
        assert set(got[metric]) == set(want[metric])
        assert set(got[metric]["parent"]) == set(want[metric]["parent"])
    assert set(record["claim"]) == set(committed["claim"])
    assert set(record["per_layer"]) == set(committed["per_layer"])

    assert got["seeds"] == [601, 602, 603, 604, 605]
    wall = got["wall_s"]
    assert wall["parent"]["runs"] == [p[0] for p in parent]
    assert wall["parent"]["median"] == 3.2
    # quartiles by linear interpolation between the sorted runs
    assert wall["parent"]["q1"] == pytest.approx(3.1) and wall["parent"]["q3"] == pytest.approx(3.4)
    assert wall["change_better_pairs"] == "4/5"
    assert wall["median_change_frac"] == round((2.4 - 3.2) / 3.2, 4)
    assert got["ok_frac"]["change_better_pairs"] == "0/5"  # a tie is no win
    claim = record["claim"]
    assert claim["change_better_pairs"] == "5/5" and claim["pairs"] == 5
    assert claim["median_difference"] == pytest.approx(224.4 - 171.3)
    assert claim["parent_iqr"] == pytest.approx(0.0) and claim["met"]
    assert record["per_layer"]["named"]["simulate.best_response_gap.alloc_peak_mb"] == {"parent": 92.5, "change": 92.5}
    assert record["per_layer"]["all"]["full_recall.expect_over_arrival.cells"] == [42072028, 9]

    # a claim on wall_s wins 4 of 5 pairs, under nine in ten: not met; the
    # batch it replaces is kept in short, after the batches kept before it
    first = dict(record, note="a first batch")
    first["earlier_batches"] = [{"note": "an older batch"}]
    record = script.assemble(
        "a change", "abc123", machine, 36, {"reproduce": pairs}, directions, ("reproduce", "wall_s"), earlier=first
    )
    assert record["claim"]["median_difference"] == pytest.approx(0.8) and not record["claim"]["met"]
    assert "per_layer" not in record
    older, kept = record["earlier_batches"]
    assert older == {"note": "an older batch"}
    assert kept["note"] == "a first batch" and kept["parent_commit"] == "abc123"
    want = committed["earlier_batch"]["end_to_end"]["reproduce"]["peak_rss_mb"]
    assert set(kept["end_to_end"]["reproduce"]["peak_rss_mb"]) == set(want)
    assert kept["end_to_end"]["reproduce"]["seeds"] == [601, 602, 603, 604, 605]
    assert kept["end_to_end"]["reproduce"]["wall_s"] == {
        "parent_median": 3.2, "change_median": 2.4, "change_better_pairs": "4/5"
    }


def test_bench_pairs_seeds_follow_the_record_number():
    script = _script("bench_pairs")
    assert script.first_seed(pathlib.Path("BENCH_14.json")) == 1401
    assert script.first_seed(pathlib.Path("out/BENCH_7.json")) == 701
    with pytest.raises(ValueError):
        script.first_seed(pathlib.Path("bench.json"))
