import hashlib
import json

import pytest

from selection_games.cli import run


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_norecall_header_and_determinism(capsys):
    code, out1 = _capture(capsys, ["norecall", "--dist", "uniform", "--n", "3"])
    assert code == 0
    assert out1.splitlines()[0] == "n,alpha_prime,alpha,beta"
    _, out2 = _capture(capsys, ["norecall", "--dist", "uniform", "--n", "3"])
    assert out1 == out2
    assert out1.endswith("\n")
    assert "\r" not in out1


def test_fullrecall_header(capsys):
    code, out = _capture(capsys, ["fullrecall", "--n", "2", "--grid", "301"])
    assert code == 0
    assert out.splitlines()[0] == "n,l,h"


def test_efficiency_header(capsys):
    code, out = _capture(capsys, ["efficiency", "--variant", "norecall", "--n", "3"])
    assert code == 0
    assert out.splitlines()[0] == "n,poa,pos,pr"


def test_prophet_values(capsys):
    code, out = _capture(capsys, ["prophet", "--n", "3"])
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n,c,s"
    last = rows[-1].split(",")
    assert float(last[1]) == pytest.approx(89 / 128)
    assert float(last[2]) == pytest.approx(1.1953125)


def test_oracle_json_output(tmp_path, capsys):
    spec = tmp_path / "twopoint.json"
    spec.write_text(
        json.dumps(
            {
                "type": "discrete",
                "atoms": [{"x": "1/3", "p": "1/2"}, {"x": "2/3", "p": "1/2"}],
            }
        )
    )
    code, out = _capture(
        capsys, ["oracle", "--dist", str(spec), "--n", "2", "--variant", "norecall"]
    )
    assert code == 0
    payload = json.loads(out)
    got = {
        (p["p1"]["num"], p["p1"]["den"], p["p2"]["num"], p["p2"]["den"])
        for p in payload["payoffs"]
    }
    assert got == {(11, 24, 13, 24), (13, 24, 11, 24), (23, 48, 23, 48)}
    assert payload["summaries"]["best_single"] == {"num": 13, "den": 24}


def test_oracle_accepts_float_atoms_by_snapping(capsys):
    inline = json.dumps(
        {"type": "discrete", "atoms": [{"x": 1 / 3, "p": 0.5}, {"x": 2 / 3, "p": 0.5}]}
    )
    code, out = _capture(capsys, ["oracle", "--dist", inline, "--n", "2", "--variant", "fullrecall"])
    assert code == 0
    payload = json.loads(out)
    assert payload["payoffs"][0]["p1"] == {"num": 1, "den": 2}


def test_oracle_string_and_float_atoms_agree(capsys):
    def oracle_json(third):
        atoms = [{"x": third, "p": "1/2"}, {"x": "2/3", "p": "1/2"}]
        inline = json.dumps({"type": "discrete", "atoms": atoms})
        code, out = _capture(capsys, ["oracle", "--dist", inline, "--n", "3", "--variant", "norecall"])
        assert code == 0
        return out

    assert oracle_json("1/3") == oracle_json(0.3333333333333333)


def test_oracle_rejects_non_numeric_atom(capsys):
    inline = json.dumps({"type": "discrete", "atoms": [{"x": "a third", "p": 1}]})
    assert run(["oracle", "--dist", inline, "--n", "2", "--variant", "norecall"]) == 2


def test_norecall_matches_table3(capsys):
    _, norecall = _capture(capsys, ["norecall", "--n", "10"])
    _, table3 = _capture(capsys, ["tables", "--which", "table3", "--n", "10"])
    assert norecall == table3


def test_tables_and_figures(capsys):
    code, out = _capture(capsys, ["tables", "--which", "fig2", "--n", "6"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,two_beta,two_alpha"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert all(r[1] >= r[2] - 1e-12 for r in rows)  # best sum >= worst sum
    assert all(b[1] >= a[1] and b[2] >= a[2] for a, b in zip(rows, rows[1:]))
    code, out = _capture(capsys, ["tables", "--which", "table4", "--n", "2", "--grid", "301"])
    assert code == 0
    assert out.splitlines()[0] == "n,l,h,alpha,beta"


def test_figure_series_peaks(capsys):
    _, poa_out = _capture(capsys, ["tables", "--which", "fig3a", "--n", "10"])
    _, pr_out = _capture(capsys, ["tables", "--which", "fig3c", "--n", "10"])

    def peak(out):
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        return max(rows, key=lambda r: float(r[1]))[0]

    assert peak(poa_out) == "2"
    assert peak(pr_out) == "5"


def test_simulate_json_deterministic(capsys):
    argv = [
        "simulate", "--variant", "norecall", "--n", "2", "--strategy", "worst",
        "--runs", "2000", "--seed", "7",
    ]
    code, out1 = _capture(capsys, argv)
    assert code == 0
    _, out2 = _capture(capsys, argv)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["runs"] == 2000 and payload["seed"] == 7


DIST_ARGS = {"uniform": "uniform", "beta22": '{"type":"piecewise_poly","pieces":[{"lo":0,"hi":1,"coeffs":[0,6,-6]}]}'}


#: sha256 of the simulate JSON below, recorded from the sampler before its
#: guide table and one-piece path: a faster sampler keeps every bit of a report
@pytest.mark.parametrize(
    "dist, variant, digest",
    [
        ("uniform", "fullrecall", "ccfc8db8cee936a2b9d2a202d312a87bb7a5af9930549ac228173cbff0ce665e"),
        ("uniform", "norecall", "b84ec730097ace4d6ff06e4bbab7676ae62ac504e009e9c664a4c54c165b19d8"),
        ("beta22", "fullrecall", "352c922a86d300e48c70ecad298789a668494e7b36e8eaafc2a80b06e37b5227"),
        ("beta22", "norecall", "9f2938823bf8e72f448d8e1c3a9c0ff304f4f01b6c511df6099d740fed3e7a59"),
    ],
)
def test_simulate_json_pinned(capsys, dist, variant, digest):
    argv = [
        "simulate", "--dist", DIST_ARGS[dist], "--variant", variant, "--n", "3", "--runs", "20000",
        "--seed", "5", "--grid", "201", "--format", "json",
    ]
    code, out = _capture(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_validation_error_exit_code(capsys):
    code = run(["norecall", "--dist", '{"type":"discrete"}', "--n", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "atoms" in err


GOOD_ATOM = {"x": 0.5, "p": 1}
MALFORMED_SPECS = {
    "atom_x_word": {"type": "discrete", "atoms": [{"x": "abc", "p": 1}]},
    "atom_p_zero_denominator": {"type": "discrete", "atoms": [{"x": 0.5, "p": "1/0"}]},
    "atom_not_object": {"type": "discrete", "atoms": [1]},
    "atoms_string": {"type": "discrete", "atoms": "xy"},
    "discrete_not_object": {"type": "mixture", "eta": 0.5, "discrete": [1]},
    "eta_word": {"type": "mixture", "eta": "a", "discrete": {"atoms": [GOOD_ATOM]}},
    "general_atoms_number": {"type": "mixture_general", "atoms": 5, "pieces": []},
    "coeffs_string": {"type": "piecewise_poly", "pieces": [{"lo": 0, "hi": 1, "coeffs": "1"}]},
}
MALFORMED_STRATEGIES = {
    "list": [0.5, 0.5],
    "threshold_word": {"thresholds": {"1": "high"}},
    "stage_word": {"thresholds": {"one": 0.5}},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SPECS) + sorted(MALFORMED_STRATEGIES))
def test_malformed_input_exits_2(case, tmp_path, capsys):
    if case in MALFORMED_SPECS:
        argv = ["prophet", "--n", "2", "--dist", json.dumps(MALFORMED_SPECS[case])]
    else:
        path = tmp_path / "strategy.json"
        path.write_text(json.dumps(MALFORMED_STRATEGIES[case]))
        argv = ["simulate", "--variant", "fullrecall", "--n", "2", "--runs", "10", "--strategy", str(path)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_fraction_strings_give_the_floats_of_numbers(tmp_path, capsys):
    # "1/3" reads as the float 1/3 wherever a spec or a strategy file takes a number
    piece = {"lo": "0", "hi": "1/2", "coeffs": ["1"]}
    spec = {"type": "mixture_general", "atoms": [{"x": "3/4", "p": "1/2"}], "pieces": [piece]}
    floats = {"type": "mixture_general", "atoms": [{"x": 0.75, "p": 0.5}],
              "pieces": [{"lo": 0, "hi": 0.5, "coeffs": [1.0]}]}
    outs = [_capture(capsys, ["prophet", "--n", "3", "--dist", json.dumps(law)]) for law in (spec, floats)]
    assert outs[0] == outs[1] and outs[0][0] == 0
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps({"thresholds": {"1": "1/2"}}))
    code, out = _capture(capsys, ["simulate", "--variant", "norecall", "--n", "2", "--runs", "100", "--strategy", str(path)])
    assert code == 0 and json.loads(out)["strategy"] == ["strategy.json", "strategy.json"]


def test_unsupported_distribution_exit_code(capsys):
    inline = json.dumps(
        {"type": "discrete", "atoms": [{"x": 0.3, "p": 0.5}, {"x": 0.6, "p": 0.5}]}
    )
    code = run(["norecall", "--dist", inline, "--n", "3"])
    assert code == 2


def test_resource_guard_exit_code(capsys):
    atoms = [{"x": f"{k}/10", "p": "1/5"} for k in range(1, 6)]
    inline = json.dumps({"type": "discrete", "atoms": atoms})
    code = run(["oracle", "--dist", inline, "--n", "2", "--variant", "norecall"])
    assert code == 3


def test_resource_guard_exit_code_on_atom_steps(capsys):
    # four atoms at n = 5: an atom step of the enumeration exceeds the budget
    atoms = [{"x": x, "p": "1/4"} for x in ("1/10", "2/5", "3/5", "9/10")]
    inline = json.dumps({"type": "discrete", "atoms": atoms})
    code = run(["oracle", "--dist", inline, "--n", "5", "--variant", "norecall"])
    assert code == 3


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code = run(["prophet", "--n", "2", "--out", str(target)])
    assert code == 0
    assert target.read_text().splitlines()[0] == "n,c,s"
