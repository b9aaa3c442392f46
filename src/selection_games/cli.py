"""Command-line front end.

Subcommands::

    prophet     one-player benchmark sequences (c_k and the two-pick s_k)
    fullrecall  band endpoints (n, l, h) per horizon
    norecall    (n, alpha_prime, alpha, beta) per horizon
    oracle      exact rational payoff sets for finite-support laws
    efficiency  (n, poa, pos, pr) per horizon for one variant
    simulate    Monte-Carlo play of a strategy profile
    tables      reference-table and figure-series reproductions

Distributions are given with ``--dist`` as the literal word ``uniform``,
an inline JSON spec, or a path to a JSON spec file.  Exit codes: 0 on
success, 2 on validation errors, 3 when an enumeration guard or the grid
memory guard trips.
Output is deterministic for fixed flags (and seed): CSV uses '.' decimals,
LF line endings, UTF-8.
"""

from __future__ import annotations

import argparse
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


def _emit(args, header: list[str], rows: list[list], json_payload=None) -> None:
    if args.format == "json":
        payload = json_payload
        if payload is None:
            payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid(args) -> GridConfig:
    return GridConfig(size=args.grid)


# -- subcommand handlers -------------------------------------------------------


def _cmd_prophet(args) -> None:
    d = _dist(args)
    c = prophet_values(d, args.n)
    s = max_feasible_sum(d, args.n)
    rows = [[k, float(c[k]), float(s[k])] for k in range(1, args.n + 1)]
    _emit(args, ["n", "c", "s"], rows)


def _cmd_fullrecall(args) -> None:
    d = _dist(args)
    grid = _grid(args)
    rows = []
    for k in range(1, args.n + 1):
        b = band(d, k, grid=grid)
        rows.append([k, b.low, b.high])
    _emit(args, ["n", "l", "h"], rows)


def _norecall_table(d: ValueDistribution, n: int) -> tuple[list[str], list[list]]:
    """Header and rows of ``norecall``, which ``tables --which table3`` also
    prints."""
    rows = [[s.n, s.alpha_prime, s.alpha, s.beta] for s in no_recall_sequence(d, n)]
    return ["n", "alpha_prime", "alpha", "beta"], rows


def _cmd_norecall(args) -> None:
    _emit(args, *_norecall_table(_dist(args), args.n))


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
    payload = {
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
    }
    args.format = "json"
    _emit(args, [], [], json_payload=payload)


def _cmd_efficiency(args) -> None:
    d = _dist(args)
    variant = _VARIANTS[args.variant]
    grid = _grid(args)
    rows = []
    for k in range(2, args.n + 1):
        r = eff.ratios(d, k, variant, grid=grid)
        rows.append([k, r.poa, r.pos, r.pr])
    _emit(args, ["n", "poa", "pos", "pr"], rows)


def _thresholds(spec) -> dict[int, float]:
    """The per-stage thresholds of a strategy file, {"thresholds": {"1": 0.5}}."""
    thresholds = spec.get("thresholds", {}) if isinstance(spec, dict) else None
    if not isinstance(thresholds, dict) or not all(t.strip().isdecimal() for t in thresholds):
        raise SpecValidationError("a strategy file must be an object whose 'thresholds' maps stages to numbers")
    return {int(t): parse_number(v, f"threshold of stage {t}") for t, v in thresholds.items()}


def _cmd_simulate(args) -> None:
    d = _dist(args)
    variant = _VARIANTS[args.variant]
    if args.strategy in ("best", "worst"):
        profile = sim.spe_strategy(d, args.n, variant, args.strategy, grid=_grid(args))
    else:
        with open(args.strategy, "r", encoding="utf-8") as fh:
            s = sim.threshold_strategy(_thresholds(json.load(fh)), name=os.path.basename(args.strategy))
        profile = sim.StrategyProfile(s, s)
    report = sim.play(
        d, args.n, variant, profile.player1, profile.player2, runs=args.runs, seed=args.seed
    )
    payload = {
        "variant": variant,
        "n": args.n,
        "strategy": [profile.player1.name, profile.player2.name],
        "runs": report.runs,
        "seed": report.seed,
        "mean": list(report.mean),
        "stderr": list(report.stderr),
        "meta": {k: float(v) for k, v in profile.meta.items()},
    }
    args.format = "json"
    _emit(args, [], [], json_payload=payload)


def emit_figure_data(which: str, d: ValueDistribution, n_max: int):
    """Columnar data series behind the reference figures.

    fig2: best/worst no-recall payoff sums per horizon.
    fig3a/b/c: no-recall anarchy/stability/prophet ratio per horizon.
    """
    if n_max > 20:
        raise SpecValidationError("figure series support n_max <= 20")
    if which == "fig2":
        seq = no_recall_sequence(d, n_max)
        return ["n", "two_beta", "two_alpha"], [
            [s.n, 2.0 * s.beta, 2.0 * s.alpha] for s in seq
        ]
    if which in ("fig3a", "fig3b", "fig3c"):
        key = {"fig3a": "poa", "fig3b": "pos", "fig3c": "pr"}[which]
        rows = []
        for k in range(2, n_max + 1):
            r = eff.ratios(d, k, "no_recall")
            rows.append([k, getattr(r, key)])
        return ["n", key], rows
    raise SpecValidationError(f"unknown figure series {which!r}")


def _cmd_tables(args) -> None:
    d = _dist(args)
    grid = _grid(args)
    if args.which == "table3":
        _emit(args, *_norecall_table(d, args.n))
        return
    if args.which == "table4":
        seq = no_recall_sequence(d, args.n)
        rows = []
        for k in range(1, args.n + 1):
            b = band(d, k, grid=grid)
            s = seq[k - 1]
            rows.append([k, b.low, b.high, s.alpha, s.beta])
        _emit(args, ["n", "l", "h", "alpha", "beta"], rows)
        return
    if args.which == "table5":
        rows = []
        for k in range(2, args.n + 1):
            fr = eff.ratios(d, k, "full_recall", grid=grid)
            nr = eff.ratios(d, k, "no_recall")
            rows.append([k, fr.poa, nr.poa, fr.pos, nr.pos, fr.pr, nr.pr])
        _emit(args, ["n", "poa_fr", "poa_nr", "pos_fr", "pos_nr", "pr_fr", "pr_nr"], rows)
        return
    header, rows = emit_figure_data(args.which, d, args.n)
    _emit(args, header, rows)


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selection-games",
        description="Equilibrium payoffs and efficiency ratios for two-player "
        "competitive selection games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_seed=False):
        p.add_argument("--dist", default="uniform", help="'uniform', inline JSON, or a spec file")
        p.add_argument("--n", type=int, default=5, help="horizon (number of arrivals)")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument(
            "--grid", type=int, default=1001, help="triangle grid resolution (laws with no density do not read it)"
        )
        if needs_seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("prophet", help="one-player benchmark sequences")
    common(p)
    p.set_defaults(func=_cmd_prophet)

    p = sub.add_parser("fullrecall", help="band endpoints with recall")
    common(p)
    p.set_defaults(func=_cmd_fullrecall)

    p = sub.add_parser("norecall", help="no-recall equilibrium bounds")
    common(p)
    p.set_defaults(func=_cmd_norecall)

    p = sub.add_parser("oracle", help="exact payoff sets for finite-support laws")
    common(p)
    p.add_argument("--variant", choices=tuple(_VARIANTS), required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("efficiency", help="anarchy/stability/prophet ratios")
    common(p)
    p.add_argument("--variant", choices=tuple(_VARIANTS), required=True)
    p.set_defaults(func=_cmd_efficiency)

    p = sub.add_parser("simulate", help="Monte-Carlo play")
    common(p, needs_seed=True)
    p.add_argument("--variant", choices=tuple(_VARIANTS), required=True)
    p.add_argument(
        "--strategy",
        default="best",
        help="'best', 'worst', or a JSON file with per-stage thresholds",
    )
    p.add_argument("--runs", type=int, default=100000)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("tables", help="reference table / figure reproductions")
    common(p)
    p.add_argument(
        "--which",
        choices=("table3", "table4", "table5", "fig2", "fig3a", "fig3b", "fig3c"),
        required=True,
    )
    p.set_defaults(func=_cmd_tables)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
