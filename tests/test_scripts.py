"""The command-line scripts under scripts/, run as a user runs them."""

import csv
import importlib.util
import os
import pathlib
import subprocess
import sys

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
