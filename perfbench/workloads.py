"""Job lists of the benchmark workloads and the reference checks of their outputs.

Each workload is a list of :class:`Op`.  ``run`` is the timed call into the
package's public functions; ``check`` runs after the timed window and compares
the output with the repository's own references (``testkit`` rows at their
fixture tolerances, the exact two-point ``Fraction`` sets, closed forms, the
acceptance-criterion bounds).  Everything is called through module attributes
at call time, so wrappers installed after the ops are built are seen.

The workload seed feeds every Monte-Carlo seed; all other inputs are fixed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from selection_games import cli
from selection_games import distributions as D
from selection_games import efficiency as E
from selection_games import full_recall as FR
from selection_games import no_recall as NR
from selection_games import oracle as O
from selection_games import simulate as S
from selection_games import testkit as TK

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Monte-Carlo means must lie within this many standard errors of their
#: reference; at 6 sigma a correct program fails one check in ~5e8.
MC_SIGMAS = 6.0
#: acceptance criterion 8: best-response gap of every constructed profile
SPE_GAP_TOL = 2e-3
#: exact recursions and closed forms agree to rounding (criterion 2 uses 1e-8)
CLOSED_TOL = 1e-8
EXACT_FLOAT_TOL = 1e-9

ATOM_DEFECT = (
    "known defect: TriangleContext.expect_over_arrival counts atoms at or below b "
    "twice (in F(b) T(a, b) and again in the atom loop)"
)

TWO_POINT_ATOMS = [("1/3", "1/2"), ("2/3", "1/2")]
FOUR_ATOMS = [("1/10", "1/4"), ("2/5", "1/4"), ("3/5", "1/4"), ("9/10", "1/4")]
#: exact no-recall payoff set of FOUR_ATOMS at n = 4 as enumerated at the
#: commit that introduced the benchmark: point count, oracle_summaries, and a
#: digest of the sorted set (the oracle is exact, so any change is a change of
#: the set)
FOUR_ATOMS_NR4 = {
    "points": 5075,
    "summaries": ("419/320", "2612501/2027520", "817/1280", "859/1280"),
    "digest": "b275da733eeaddbf",
}

# the job list of scripts/make_tables.py at its default flags
MAKE_TABLES_JOBS = [
    ["tables", "--which", "table3", "--n", "4"],
    ["tables", "--which", "table4", "--n", "5"],
    ["tables", "--which", "table5", "--n", "5"],
    ["tables", "--which", "fig2", "--n", "10"],
    ["tables", "--which", "fig3a", "--n", "10"],
    ["tables", "--which", "fig3b", "--n", "10"],
    ["tables", "--which", "fig3c", "--n", "10"],
]


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, "Checker"], None]
    known_defect: str | None = None


class Checker:
    """Collects the reference mismatches of one operation.

    ``inject`` is shared by all checkers of a run; when it holds a value, the
    next reference compared by :meth:`close` is shifted by it once (the
    harness self-test feeds a deliberately wrong reference this way).
    """

    def __init__(self, inject: list[float]):
        self.inject = inject
        self.problems: list[str] = []

    def close(self, label: str, got: float, want: float, tol: float) -> None:
        if self.inject:
            want = want + self.inject.pop()
        if not abs(float(got) - float(want)) <= tol:
            self.problems.append(f"{label}: got {float(got)!r}, want {float(want)!r} +- {tol:g}")

    def require(self, label: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.problems.append(f"{label}: {detail}" if detail else label)

    def mc(self, label: str, mean: float, stderr: float, want: float) -> None:
        self.close(label, mean, want, MC_SIGMAS * stderr)


def mc_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


# -- references -------------------------------------------------------------------


def _fixture(name: str) -> TK.ReferenceFixture:
    return next(f for f in TK.fixtures() if f.name == name)


def _expect(ck: Checker, fixture: TK.ReferenceFixture, key: str, got: float) -> None:
    ev = fixture.lookup(key)
    ck.close(f"{fixture.name} {key}", got, float(ev.value), ev.tol)


def uniform_prophet(n: int) -> list[float]:
    """c_1..c_n of the uniform law (closed recursion c_{k+1} = (1 + c_k^2) / 2)."""
    return list(NR.uniform_no_recall_closed(n).prophet.values)


def uniform_two_pick(n: int) -> list[Fraction]:
    """s_1..s_n of the uniform law, exactly, from the recursion in prophet.py:
    s_k = int_t^1 (x + c_{k-1}) dx + s_{k-1} t with t = s_{k-1} - c_{k-1}."""
    c = [Fraction(1, 2)]
    while len(c) < n:
        c.append((1 + c[-1] ** 2) / 2)
    s = [Fraction(1, 2), Fraction(1)]
    for k in range(3, n + 1):
        ck = c[k - 2]
        t = min(max(s[-1] - ck, Fraction(0)), Fraction(1))
        s.append((1 - t * t) / 2 + ck * (1 - t) + s[-1] * t)
    return s[:n]


def uniform_top_two(n: int) -> Fraction:
    """E(max + second max) of n uniform samples."""
    return Fraction(2 * n - 1, n + 1)


def _ratio_tol(ratio: float, half_sum: float) -> float:
    # CLOSED_TOL on the half-sum, carried through ratio = numerator / (2 half_sum)
    return abs(ratio) * CLOSED_TOL / half_sum


# -- output parsing -------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def _csv(out, ck: Checker) -> dict[int, list[float]]:
    code, text = out
    ck.require("exit code", code == 0, f"cli exited {code}")
    lines = text.strip().splitlines()[1:]
    return {int(r.split(",")[0]): [float(v) for v in r.split(",")[1:]] for r in lines}


def _json(out, ck: Checker) -> dict:
    code, text = out
    ck.require("exit code", code == 0, f"cli exited {code}")
    return json.loads(text)


# -- reproduce ------------------------------------------------------------------------


def _check_prophet(out, ck):
    rows = _csv(out, ck)
    c, s = uniform_prophet(len(rows)), uniform_two_pick(len(rows))
    ck.require("rows", sorted(rows) == list(range(1, 6)), str(sorted(rows)))
    for n, (cn, sn) in rows.items():
        ck.close(f"c[{n}]", cn, c[n - 1], EXACT_FLOAT_TOL)
        ck.close(f"s[{n}]", sn, float(s[n - 1]), EXACT_FLOAT_TOL)


def _check_band_rows(rows, ck, n_max):
    fx = _fixture("uniform-band-and-no-recall")
    ck.require("rows", sorted(rows) == list(range(1, n_max + 1)), str(sorted(rows)))
    for n, vals in rows.items():
        _expect(ck, fx, f"low[{n}]", vals[0])
        _expect(ck, fx, f"high[{n}]", vals[1])
        ck.require(f"low<=high[{n}]", vals[0] <= vals[1] + EXACT_FLOAT_TOL)


def _check_nr_rows(rows, ck):
    fx = _fixture("uniform-no-recall-scalars")
    for n, vals in rows.items():
        closed = NR.uniform_no_recall_closed(n)
        for col, got in zip(("alpha_prime", "alpha", "beta"), vals):
            ck.close(f"{col}[{n}] closed form", got, getattr(closed, col), CLOSED_TOL)
            if n in TK.UNIFORM_NO_RECALL_ROWS:
                _expect(ck, fx, f"{col}[{n}]", got)


def _check_efficiency(variant):
    suffix = {"fullrecall": "fr", "norecall": "nr"}[variant]

    def check(out, ck):
        rows = _csv(out, ck)
        fx = _fixture("uniform-efficiency-ratios")
        ck.require("rows", sorted(rows) == [2, 3, 4, 5], str(sorted(rows)))
        for n, (poa, pos, pr) in rows.items():
            for key, got in (("poa", poa), ("pos", pos), ("pr", pr)):
                _expect(ck, fx, f"{key}_{suffix}[{n}]", got)
            if variant == "norecall":
                _check_nr_ratios(ck, n, poa, pos, pr)

    return check


def _check_nr_ratios(ck, n, poa=None, pos=None, pr=None):
    closed = NR.uniform_no_recall_closed(n)
    s_n = float(uniform_two_pick(n)[-1])
    top2 = float(uniform_top_two(n))
    for key, got, want, half in (
        ("poa", poa, s_n / (2 * closed.alpha), closed.alpha),
        ("pos", pos, s_n / (2 * closed.beta), closed.beta),
        ("pr", pr, top2 / (2 * closed.beta), closed.beta),
    ):
        if got is not None:
            ck.close(f"{key}_nr[{n}] closed form", got, want, _ratio_tol(want, half))


def _check_simulate_fr(out, ck):
    payload = _json(out, ck)
    h5 = FR.band(D.uniform(), 5).high
    for i in range(2):
        ck.mc(f"player{i + 1} mean vs band high[5]", payload["mean"][i], payload["stderr"][i], h5)


def _check_simulate_nr(out, ck):
    payload = _json(out, ck)
    meta = payload["meta"]
    ck.close("half_sum vs closed beta[5]", meta["half_sum"], NR.uniform_no_recall_closed(5).beta, CLOSED_TOL)
    for i, key in enumerate(("player1_value", "player2_value")):
        ck.mc(f"player{i + 1} mean vs {key}", payload["mean"][i], payload["stderr"][i], meta[key])


def _check_table(which):
    def check(out, ck):
        rows = _csv(out, ck)
        if which == "table3":
            ck.require("rows", sorted(rows) == [1, 2, 3, 4], str(sorted(rows)))
            _check_nr_rows(rows, ck)
        elif which == "table4":
            _check_band_rows(rows, ck, 5)
            fx = _fixture("uniform-band-and-no-recall")
            for n, (_, _, alpha, beta) in rows.items():
                _expect(ck, fx, f"alpha[{n}]", alpha)
                _expect(ck, fx, f"beta[{n}]", beta)
        elif which == "table5":
            fx = _fixture("uniform-efficiency-ratios")
            keys = ("poa_fr", "poa_nr", "pos_fr", "pos_nr", "pr_fr", "pr_nr")
            ck.require("rows", sorted(rows) == [2, 3, 4, 5], str(sorted(rows)))
            for n, vals in rows.items():
                for key, got in zip(keys, vals):
                    _expect(ck, fx, f"{key}[{n}]", got)
        elif which == "fig2":
            ck.require("rows", sorted(rows) == list(range(1, 11)), str(sorted(rows)))
            for n, (two_beta, two_alpha) in rows.items():
                closed = NR.uniform_no_recall_closed(n)
                ck.close(f"two_beta[{n}]", two_beta, 2 * closed.beta, 2 * CLOSED_TOL)
                ck.close(f"two_alpha[{n}]", two_alpha, 2 * closed.alpha, 2 * CLOSED_TOL)
        else:
            key = {"fig3a": "poa", "fig3b": "pos", "fig3c": "pr"}[which]
            ck.require("rows", sorted(rows) == list(range(2, 11)), str(sorted(rows)))
            for n, (got,) in rows.items():
                _check_nr_ratios(ck, n, **{key: got})
            # acceptance criterion 9: where each ratio series peaks
            peak = {"poa": 2, "pos": 2, "pr": 5}[key]
            top = max(rows, key=lambda n: rows[n][0])
            ck.require(f"{key} series peak", top == peak, f"peaks at n={top}, want {peak}")

    return check


def _check_gap(out, ck):
    ck.require("spe_gap <= 2e-3", out <= SPE_GAP_TOL, f"gap {out!r}")


def reproduce(seed: int, tiny: bool) -> list[Op]:
    """Atomless laws: every CLI subcommand that takes an atomless law at its
    default flags, the make_tables.py job list, and the best-response gaps of
    acceptance criterion 8."""
    extra = ["--grid", "101"] if tiny else []
    sim_extra = extra + ["--seed", str(mc_seed(seed, 0))] + (["--runs", "2000"] if tiny else [])

    def cli_op(name, argv, check):
        return Op(f"cli.{name}", lambda: run_cli(argv), check)

    ops = [
        cli_op("prophet", ["prophet"], _check_prophet),
        cli_op("fullrecall", ["fullrecall"] + extra, lambda out, ck: _check_band_rows(_csv(out, ck), ck, 5)),
        cli_op("norecall", ["norecall"], lambda out, ck: _check_nr_rows(_csv(out, ck), ck)),
        cli_op("efficiency.norecall", ["efficiency", "--variant", "norecall"], _check_efficiency("norecall")),
        cli_op(
            "efficiency.fullrecall",
            ["efficiency", "--variant", "fullrecall"] + extra,
            _check_efficiency("fullrecall"),
        ),
        cli_op("simulate.fullrecall", ["simulate", "--variant", "fullrecall"] + sim_extra, _check_simulate_fr),
        cli_op("simulate.norecall", ["simulate", "--variant", "norecall"] + sim_extra, _check_simulate_nr),
    ]
    for argv in MAKE_TABLES_JOBS:
        ops.append(cli_op(f"tables.{argv[2]}", argv + extra, _check_table(argv[2])))

    uniform = D.uniform()
    gap_grid, table_grid = (401, FR.GridConfig(101)) if tiny else (2001, FR.GridConfig(1001))
    for variant in ("full_recall", "no_recall"):
        for which in ("best", "worst"):
            for n in (1, 2) if tiny else (1, 2, 3, 4):
                ops.append(Op(
                    f"spe_gap.{variant}.{which}[n={n}]",
                    lambda v=variant, w=which, n=n: S.spe_gap(uniform, n, v, w, grid_size=gap_grid, grid=table_grid),
                    _check_gap,
                ))
    return ops


# -- montecarlo ------------------------------------------------------------------------


def _mc_op(name, law, n, variant, which, runs, seed, check):
    def run():
        profile = S.spe_strategy(law, n, variant, which)
        report = S.play(law, n, variant, profile.player1, profile.player2, runs, seed=seed)
        return profile.meta, report

    return Op(name, run, check)


def _check_symmetric(reference: Callable[[], float]):
    def check(out, ck):
        _, rep = out
        want = reference()
        for i in range(2):
            ck.mc(f"player{i + 1} mean", rep.mean[i], rep.stderr[i], want)

    return check


def _check_nr_best(half_sum: Callable[[], float]):
    def check(out, ck):
        meta, rep = out
        beta = half_sum()
        ck.close("meta half_sum", meta["half_sum"], beta, CLOSED_TOL)
        ck.mc("payoff sum", rep.mean_sum, rep.stderr_sum, 2 * beta)
        ck.mc("bidder mean", rep.mean[0], rep.stderr[0], meta["player1_value"])
        ck.mc("waiting player mean", rep.mean[1], rep.stderr[1], meta["player2_value"])

    return check


def _check_nr_worst(out, ck):
    meta, rep = out
    value = meta["player_value"]
    closed = NR.uniform_no_recall_closed(3)
    # the stationary worst profile pays between the worst and best symmetric values
    ck.require(
        "alpha <= value <= beta",
        closed.alpha - EXACT_FLOAT_TOL <= value <= closed.beta + EXACT_FLOAT_TOL,
        f"{value!r} outside [{closed.alpha!r}, {closed.beta!r}]",
    )
    for i in range(2):
        ck.mc(f"player{i + 1} mean", rep.mean[i], rep.stderr[i], value)


def montecarlo(seed: int, tiny: bool) -> list[Op]:
    """Monte-Carlo play of equilibrium profiles on atomless laws; no grid table
    is built (the uniform full-recall best profile at n = 3 uses closed forms)."""
    runs = 2000 if tiny else 200_000
    uniform, beta22 = D.uniform(), TK.beta_distribution(2, 2)
    low3 = float(_fixture("uniform-band-and-no-recall").lookup("low_exact[3]").value)
    return [
        _mc_op("play.uniform.full_recall.worst[n=3]", uniform, 3, "full_recall", "worst", runs,
               mc_seed(seed, 1), _check_symmetric(lambda: low3)),
        _mc_op("play.uniform.full_recall.best[n=3]", uniform, 3, "full_recall", "best", runs,
               mc_seed(seed, 2), _check_symmetric(lambda: FR.uniform_closed_forms(3, 0.0, 0.0)[1])),
        _mc_op("play.uniform.no_recall.best[n=4]", uniform, 4, "no_recall", "best", runs,
               mc_seed(seed, 3), _check_nr_best(lambda: NR.uniform_no_recall_closed(4).beta)),
        _mc_op("play.uniform.no_recall.worst[n=3]", uniform, 3, "no_recall", "worst", runs,
               mc_seed(seed, 4), _check_nr_worst),
        _mc_op("play.beta22.full_recall.worst[n=3]", beta22, 3, "full_recall", "worst", runs,
               mc_seed(seed, 5), _check_symmetric(lambda: FR.band(beta22, 3).low)),
        _mc_op("play.beta22.no_recall.best[n=3]", beta22, 3, "no_recall", "best", runs,
               mc_seed(seed, 6), _check_nr_best(lambda: NR.no_recall_sequence(beta22, 3)[-1].beta)),
    ]


# -- atoms -------------------------------------------------------------------------------


def _set_digest(payoffs) -> str:
    text = ";".join(f"{x},{y}" for x, y in sorted(payoffs))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check_four_atoms_nr(out, ck):
    payoffs = set(out.payoffs)
    ck.require("swap symmetric", all((y, x) in payoffs for x, y in payoffs))
    ck.require("points", len(payoffs) == FOUR_ATOMS_NR4["points"], f"{len(payoffs)} points")
    got = tuple(str(v) for v in O.oracle_summaries(out))
    ck.require("summaries", got == FOUR_ATOMS_NR4["summaries"], str(got))
    digest = _set_digest(payoffs)
    ck.require("set digest", digest == FOUR_ATOMS_NR4["digest"], digest)


def _check_four_atoms_fr(out, ck):
    # cross-check against the exact finite-support recursion of full_recall
    law = D.discrete([(float(Fraction(x)), float(Fraction(p))) for x, p in FOUR_ATOMS])
    b = FR.band(law, 4)
    values = [float(x) for x, _ in out.payoffs]
    ck.close("min payoff vs band low", min(values), b.low, EXACT_FLOAT_TOL)
    ck.close("max payoff vs band high", max(values), b.high, EXACT_FLOAT_TOL)


def _require_two_point_set(ck, variant, n, payoffs):
    if variant == "no_recall":
        want = TK.two_point_no_recall_set(n)
    else:
        want = {(TK.two_point_best_value(n),) * 2}
    ck.require("exact payoff set", set(payoffs) == want, f"{sorted(payoffs)} != {sorted(want)}")


def _check_two_point_set(variant, n):
    return lambda out, ck: _require_two_point_set(ck, variant, n, out.payoffs)


def _check_cli_oracle(variant):
    def check(out, ck):
        payoffs = [
            (Fraction(p["p1"]["num"], p["p1"]["den"]), Fraction(p["p2"]["num"], p["p2"]["den"]))
            for p in _json(out, ck)["payoffs"]
        ]
        _require_two_point_set(ck, variant, 5, payoffs)

    return check


def _check_two_point_band(n):
    def check(out, ck):
        want = float(TK.two_point_best_value(n))
        ck.close("low", out.low, want, EXACT_FLOAT_TOL)
        ck.close("high", out.high, want, EXACT_FLOAT_TOL)

    return check


def _check_two_point_play(rep, ck):
    want = float(TK.two_point_best_value(5))
    for i in range(2):
        ck.mc(f"player{i + 1} mean", rep.mean[i], rep.stderr[i], want)


def _check_sweep(out, ck):
    bound = 4.0 / 3.0 + 1e-9  # acceptance criterion 5
    ck.require("laws", len(out) >= 200, f"{len(out)} laws")
    for name, (pos2, poa2) in out:
        ck.require(f"{name} within 4/3", pos2 <= bound and poa2 <= bound, f"pos={pos2!r} poa={poa2!r}")
    tight = dict(out)["tight(eps=0.01,eta=0.001)"][0]
    ck.require("tight law near 4/3", tight >= 4.0 / 3.0 - 0.02, f"pos={tight!r}")


def _check_mix_band(law, n):
    def check(out, ck):
        low, high = out
        ck.require("low <= high", low <= high, f"low={low!r} high={high!r}")
        top2 = law.top_two_expectation(n)
        ck.require("2 high <= top_two", 2 * high <= top2 + EXACT_FLOAT_TOL, f"2 high={2 * high!r} top2={top2!r}")

    return check


def _sweep_laws() -> list:
    """The 210 laws of scripts/bound_sweep.py."""
    spec = importlib.util.spec_from_file_location("bound_sweep", ROOT / "scripts" / "bound_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.sweep()


def atoms(seed: int, tiny: bool) -> list[Op]:
    """Laws with atoms: exact recursions and oracle sets on discrete laws, the
    two-arrival sweep, grid bands and ratios on a near-two-point mixture, a
    two-point play that reads atom-grid tables, and the atom-path probes."""
    grid = FR.GridConfig(101) if tiny else FR.GridConfig()
    two_point = D.two_point()
    low_high = D.discrete([(0.1, 0.5), (0.5, 0.5)])
    mix = E.tightness_family(0.1, 0.05)
    sweep = _sweep_laws()
    runs = 2000 if tiny else 200_000

    def mixture_band(n):
        b = FR.band(mix, n, grid=grid)
        return b.low, b.high

    def two_point_play():
        profile = S.spe_strategy(two_point, 5, "full_recall", "best", grid=grid)
        return S.play(two_point, 5, "full_recall", profile.player1, profile.player2, runs, seed=mc_seed(seed, 1))

    ops = [Op(f"band.two_point[n={n}]", lambda n=n: FR.band(two_point, n), _check_two_point_band(n)) for n in range(2, 7)]
    ops.append(Op("band.low_high[n=2]", lambda: FR.band(low_high, 2),
                  lambda out, ck: ck.close("high", out.high, 0.3, EXACT_FLOAT_TOL)))
    ops.append(Op("oracle.four_atoms.no_recall[n=4]", lambda: O.oracle_spep(FOUR_ATOMS, 4, "no_recall"),
                  _check_four_atoms_nr))
    ops.append(Op("oracle.four_atoms.full_recall[n=4]", lambda: O.oracle_spep(FOUR_ATOMS, 4, "full_recall"),
                  _check_four_atoms_fr))
    for n in range(2, 7):
        for variant in ("no_recall", "full_recall"):
            ops.append(Op(f"oracle.two_point.{variant}[n={n}]",
                          lambda n=n, v=variant: O.oracle_spep(TWO_POINT_ATOMS, n, v),
                          _check_two_point_set(variant, n)))
    spec = json.dumps(TK.TWO_POINT_SPEC)
    for variant, flag in (("no_recall", "norecall"), ("full_recall", "fullrecall")):
        ops.append(Op(f"cli.oracle.{flag}", lambda f=flag: run_cli(["oracle", "--dist", spec, "--variant", f]),
                      _check_cli_oracle(variant)))
    ops.append(Op("two_arrival.sweep", lambda: [(name, E.two_arrival_closed_forms(law)) for name, law in sweep],
                  _check_sweep))
    # the mixture band and ratios at n >= 3 go through the atom path of
    # expect_over_arrival and fail their checks at this commit
    for n in range(2, 6):
        ops.append(Op(f"band.mixture[n={n}]", lambda n=n: mixture_band(n), _check_mix_band(mix, n),
                      ATOM_DEFECT if n >= 3 else None))
    for n in range(2, 6):
        ops.append(Op(f"ratios.mixture.full_recall[n={n}]", lambda n=n: E.ratios(mix, n, "full_recall", grid=grid),
                      lambda out, ck: ck.require("ratios >= 1", min(out.poa, out.pos, out.pr) >= 1.0 - 1e-9),
                      ATOM_DEFECT if n >= 3 else None))
    ops.append(Op("play.two_point.full_recall.best[n=5]", two_point_play, _check_two_point_play))
    # the grid engine on a purely discrete law, against exact values
    ops.append(Op("grid.two_point.unit_mass[G=101]",
                  lambda: FR.TriangleContext(two_point, FR.GridConfig(101)).expect_over_arrival(np.ones((101, 101))),
                  lambda out, ck: ck.close("max |E[1] - 1|", np.max(np.abs(out - 1.0)), 0.0, 1e-12),
                  ATOM_DEFECT))
    ops.append(Op(f"grid.two_point.high[n=3,G={grid.size}]",
                  lambda: float(FR.grid_tables(two_point, 3, grid)[1][3].high[0, 0]),
                  lambda out, ck: ck.close("h3", out, float(TK.two_point_best_value(3)), TK.GRID_BAND_TOL),
                  ATOM_DEFECT))
    return ops


WORKLOADS = {"reproduce": reproduce, "montecarlo": montecarlo, "atoms": atoms}


def grid_err() -> float:
    """max |band(uniform, n, default grid) - uniform_closed_forms(n, 0, 0)| over n = 1..3."""
    uniform = D.uniform()
    err = 0.0
    for n in (1, 2, 3):
        b = FR.band(uniform, n)
        low, high = FR.uniform_closed_forms(n, 0.0, 0.0)
        err = max(err, abs(b.low - low), abs(b.high - high))
    return err
