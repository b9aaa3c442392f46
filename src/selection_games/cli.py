"""Command-line front end.

Subcommands::

    prophet     one-player benchmark sequences (c_k and the two-pick s_k)
    fullrecall  band endpoints (n, l, h) per horizon
    norecall    (n, alpha_prime, alpha, beta) per horizon
    oracle      exact rational payoff sets for finite-support laws
    efficiency  (n, poa, pos, pr) per horizon for one variant
    simulate    Monte-Carlo play of a strategy profile
    tables      reference-table and figure-series reproductions

Every subcommand takes ``--dist``, ``--n`` and ``--out``.  Distributions
are given with ``--dist`` as the literal word ``uniform``, an inline JSON
spec, or a path to a JSON spec file.  ``--n`` is the horizon, at least 1;
the ratio tables (efficiency, table5, fig3a-c) start at n = 2.  Only the
subcommands that read a flag take it: ``--grid`` goes to fullrecall,
efficiency, simulate and tables; ``--format csv|json`` to every subcommand
but oracle and simulate, which always print JSON; ``--seed`` to simulate.
A strategy file for simulate names stages in 1..n.  Exit codes: 0 on
success, 2 on validation errors, 3 when an enumeration guard or the grid
memory guard trips.
Output is deterministic for fixed flags (and seed): CSV uses '.' decimals,
LF line endings, UTF-8.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import efficiency as eff
from . import oracle as orc
from . import simulate as sim
from .distributions import ValueDistribution, parse_number, parse_spec
from .errors import ResourceBudgetError, SelectionGamesError, SpecValidationError
from .full_recall import GridConfig, band
from .no_recall import no_recall_sequence
from .prophet import max_feasible_sum, prophet_values

_VARIANTS = {"fullrecall": "full_recall", "norecall": "no_recall"}


def _load_spec(arg: str):
    if arg == "uniform":
        return {"type": "uniform"}
    text = arg
    if not arg.lstrip().startswith("{"):
        if not os.path.exists(arg):
            raise SpecValidationError(
                f"--dist value {arg!r} is neither 'uniform', inline JSON, nor a file"
            )
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


def _dist(args) -> ValueDistribution:
    return parse_spec(_load_spec(args.dist))


def _emit(args, payload) -> None:
    """Write a (header, rows) table as CSV, or as a list of objects under
    ``--format json``; oracle and simulate pass one JSON object."""
    if isinstance(payload, dict):
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "json":
        header, rows = payload
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    else:
        header, rows = payload
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _band_rows(d: ValueDistribution, n: int, grid: GridConfig) -> list[list]:
    """Rows (k, l, h) for k = 1..n, which ``fullrecall`` prints and
    ``tables --which table4`` widens."""
    return [[b.n, b.low, b.high] for b in (band(d, k, grid=grid) for k in range(1, n + 1))]


def _ratio_rows(d: ValueDistribution, n: int, grid: GridConfig, *variants: str) -> list[list]:
    """Rows [k, one RatioReport per variant] for k = 2..n, the horizons with
    a second arrival, which ``efficiency``, table5 and fig3a-c print: one
    :func:`efficiency.ratio_rows` per variant, taken horizon by horizon in
    the variants' order."""
    return [list(row) for row in zip(range(2, n + 1), *(eff.ratio_rows(d, n, v, grid) for v in variants))]


def _norecall_table(d: ValueDistribution, n: int) -> tuple[list[str], list[list]]:
    """Header and rows of ``norecall``, which ``tables --which table3`` also
    prints."""
    rows = [[s.n, s.alpha_prime, s.alpha, s.beta] for s in no_recall_sequence(d, n)]
    return ["n", "alpha_prime", "alpha", "beta"], rows


# -- subcommand handlers -------------------------------------------------------


def _cmd_prophet(args) -> None:
    d = _dist(args)
    c = prophet_values(d, args.n)
    s = max_feasible_sum(d, args.n)
    rows = [[k, float(c[k]), float(s[k])] for k in range(1, args.n + 1)]
    _emit(args, (["n", "c", "s"], rows))


def _cmd_fullrecall(args) -> None:
    _emit(args, (["n", "l", "h"], _band_rows(_dist(args), args.n, GridConfig(args.grid))))


def _cmd_norecall(args) -> None:
    _emit(args, _norecall_table(_dist(args), args.n))


def _frac_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _cmd_oracle(args) -> None:
    spec = _load_spec(args.dist)
    parse_spec(spec)  # refuses a malformed spec before its fields are snapped
    if spec["type"] != "discrete":
        raise SpecValidationError("oracle needs a discrete distribution spec")
    atoms = [(orc.snap(atom["x"]), orc.snap(atom["p"])) for atom in spec["atoms"]]
    variant = _VARIANTS[args.variant]
    spep = orc.oracle_spep(atoms, args.n, variant)
    best_sum, worst_sum, worst_single, best_single = orc.oracle_summaries(spep)
    _emit(args, {
        "variant": variant,
        "n": args.n,
        "endpoints_only": spep.endpoints_only,
        "payoffs": [
            {"p1": _frac_json(x), "p2": _frac_json(y)} for x, y in spep.payoffs
        ],
        "summaries": {
            "best_sum": _frac_json(best_sum),
            "worst_sum": _frac_json(worst_sum),
            "worst_single": _frac_json(worst_single),
            "best_single": _frac_json(best_single),
        },
    })


def _cmd_efficiency(args) -> None:
    rows = _ratio_rows(_dist(args), args.n, GridConfig(args.grid), _VARIANTS[args.variant])
    _emit(args, (["n", "poa", "pos", "pr"], [[k, r.poa, r.pos, r.pr] for k, r in rows]))


def _thresholds(spec, n: int) -> dict[int, float]:
    """The per-stage thresholds of a strategy file, {"thresholds": {"1": 0.5}},
    whose stages must lie in 1..n."""
    thresholds = spec.get("thresholds", {}) if isinstance(spec, dict) else None
    if not isinstance(thresholds, dict) or not all(t.strip().isdecimal() for t in thresholds):
        raise SpecValidationError("a strategy file must be an object whose 'thresholds' maps stages to numbers")
    outside = sorted({int(t) for t in thresholds if not 1 <= int(t) <= n})
    if outside:
        raise SpecValidationError(f"strategy file names stages outside 1..{n}: {', '.join(map(str, outside))}")
    return {int(t): parse_number(v, f"threshold of stage {t}") for t, v in thresholds.items()}


def _cmd_simulate(args) -> None:
    d = _dist(args)
    variant = _VARIANTS[args.variant]
    if args.strategy in ("best", "worst"):
        profile = sim.spe_strategy(d, args.n, variant, args.strategy, grid=GridConfig(args.grid))
    else:
        with open(args.strategy, "r", encoding="utf-8") as fh:
            s = sim.threshold_strategy(_thresholds(json.load(fh), args.n), name=os.path.basename(args.strategy))
        profile = sim.StrategyProfile(s, s)
    report = sim.play(
        d, args.n, variant, profile.player1, profile.player2, runs=args.runs, seed=args.seed
    )
    _emit(args, {
        "variant": variant,
        "n": args.n,
        "strategy": [profile.player1.name, profile.player2.name],
        "runs": report.runs,
        "seed": report.seed,
        "mean": list(report.mean),
        "stderr": list(report.stderr),
        "meta": {k: float(v) for k, v in profile.meta.items()},
    })


def _cmd_tables(args) -> None:
    """Reference tables 3-5 and the series behind the figures: fig2 the
    best/worst no-recall payoff sums per horizon, fig3a/b/c the no-recall
    anarchy/stability/prophet ratio per horizon, for horizons up to 20."""
    d = _dist(args)
    grid = GridConfig(args.grid)
    if args.which.startswith("fig") and args.n > 20:
        raise SpecValidationError("figure series support n_max <= 20")
    if args.which == "table3":
        table = _norecall_table(d, args.n)
    elif args.which == "table4":
        seq = no_recall_sequence(d, args.n)
        rows = [row + [s.alpha, s.beta] for row, s in zip(_band_rows(d, args.n, grid), seq)]
        table = ["n", "l", "h", "alpha", "beta"], rows
    elif args.which == "table5":
        rows = _ratio_rows(d, args.n, grid, "full_recall", "no_recall")
        table = ["n", "poa_fr", "poa_nr", "pos_fr", "pos_nr", "pr_fr", "pr_nr"], [
            [k, fr.poa, nr.poa, fr.pos, nr.pos, fr.pr, nr.pr] for k, fr, nr in rows
        ]
    elif args.which == "fig2":
        table = ["n", "two_beta", "two_alpha"], [
            [s.n, 2.0 * s.beta, 2.0 * s.alpha] for s in no_recall_sequence(d, args.n)
        ]
    else:
        key = {"fig3a": "poa", "fig3b": "pos", "fig3c": "pr"}[args.which]
        table = ["n", key], [[k, getattr(r, key)] for k, r in _ratio_rows(d, args.n, grid, "no_recall")]
    _emit(args, table)


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selection-games",
        description="Equilibrium payoffs and efficiency ratios for two-player "
        "competitive selection games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=True, grid=False, seed=False):
        p.add_argument("--dist", default="uniform", help="'uniform', inline JSON, or a spec file")
        p.add_argument("--n", type=int, default=5, help="horizon (number of arrivals), at least 1")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if grid:
            p.add_argument(
                "--grid", type=int, default=1001, help="triangle grid resolution (laws with no density do not read it)"
            )
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("prophet", help="one-player benchmark sequences")
    common(p)
    p.set_defaults(func=_cmd_prophet)

    p = sub.add_parser("fullrecall", help="band endpoints with recall")
    common(p, grid=True)
    p.set_defaults(func=_cmd_fullrecall)

    p = sub.add_parser("norecall", help="no-recall equilibrium bounds")
    common(p)
    p.set_defaults(func=_cmd_norecall)

    p = sub.add_parser("oracle", help="exact payoff sets for finite-support laws")
    common(p, fmt=False)
    p.add_argument("--variant", choices=tuple(_VARIANTS), required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("efficiency", help="anarchy/stability/prophet ratios")
    common(p, grid=True)
    p.add_argument("--variant", choices=tuple(_VARIANTS), required=True)
    p.set_defaults(func=_cmd_efficiency)

    p = sub.add_parser("simulate", help="Monte-Carlo play")
    common(p, fmt=False, grid=True, seed=True)
    p.add_argument("--variant", choices=tuple(_VARIANTS), required=True)
    p.add_argument(
        "--strategy",
        default="best",
        help="'best', 'worst', or a JSON file with per-stage thresholds",
    )
    p.add_argument("--runs", type=int, default=100000)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("tables", help="reference table / figure reproductions")
    common(p, grid=True)
    p.add_argument(
        "--which",
        choices=("table3", "table4", "table5", "fig2", "fig3a", "fig3b", "fig3c"),
        required=True,
    )
    p.set_defaults(func=_cmd_tables)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it as it was."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.n < 1:
            raise SpecValidationError(f"--n must be at least 1, got {args.n}")
        if args.command == "simulate":  # before the profile builds any table
            sim.check_runs_and_seed(args.runs, args.seed)
        args.func(args)
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SelectionGamesError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())
