"""Exact brute-force equilibrium payoff sets for finite-support laws.

Backward induction in exact rational arithmetic.  With k arrivals left,
the payoff set of the continuation game (with recall, of each state of
:func:`full_recall.atom_lattice`, from the last level up) is the set of
expectations of all per-atom selections from the next level's sets; each
continuation pair is then pushed through the one-stage solver, and every
Nash payoff found enters the level-k set.  The expectations are summed one
atom at a time, merging equal partial sums after each atom, on integers
scaled by the lcm of the weighted options' denominators.  Small-support,
small-horizon inputs only: every atom step is bounded by a size budget.

Payoffs are ``fractions.Fraction`` pairs at every stage solver and in the
result; floats appear only at the reporting boundary.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .distributions import ValueDistribution
from .errors import InconsistencyError, ResourceBudgetError, SpecValidationError
from .full_recall import atom_lattice
from .stage_games import (
    StageGameFR,
    StageGameNR,
    payoff_matrix_fr,
    payoff_matrix_nr,
    solve_fr_stage,
    solve_nr_stage,
    verify_outcome,
)

MAX_SUPPORT = 4
MAX_HORIZON = 6
DEFAULT_BUDGET = 10**6

Pair = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class DiscreteSPEPSet:
    """Exact equilibrium payoff set of a finite-support game.

    ``payoffs`` lists the distinct payoff pairs in sorted order.
    ``endpoints_only`` is set when some stage game along the recursion
    admitted a payoff continuum; in that event the set lists the continuum
    endpoints only (sums and extremes are still exact).
    """

    variant: str
    n: int
    payoffs: tuple[Pair, ...]
    endpoints_only: bool = False


def exact_atoms(atoms: Iterable[tuple[object, object]]) -> tuple[tuple[Fraction, Fraction], ...]:
    """Coerce atom pairs to exact fractions.

    ints, strings like "1/3" and Fractions convert exactly; floats convert
    to their exact binary value (pass strings when the decimal literal is
    meant exactly).
    """
    out = []
    for x, m in atoms:
        out.append((Fraction(x), Fraction(m)))
    out.sort()
    if sum(m for _, m in out) != 1:
        raise SpecValidationError("atom masses must sum to exactly 1")
    if any(not (0 <= x <= 1) or m <= 0 for x, m in out):
        raise SpecValidationError("atoms must lie in [0, 1] with positive mass")
    if len({x for x, _ in out}) != len(out):
        raise SpecValidationError("atom values must be distinct")
    return tuple(out)


#: largest denominator a float atom field snaps to
_MAX_DEN = 10**12


def snap(value: object) -> Fraction:
    """An atom field as an exact fraction: strings like "1/3" convert
    exactly; numbers snap to the best rational with denominator <= _MAX_DEN,
    which recovers values like 1/3 from their double rounding."""
    try:
        if isinstance(value, str):
            return Fraction(value)
        return Fraction(float(value)).limit_denominator(_MAX_DEN)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise SpecValidationError(f"atom field {value!r} is not a number") from exc


def atoms_from_distribution(d: ValueDistribution) -> tuple:
    """Snap a finite-support law's float atoms to nearby rationals (see
    :func:`snap`)."""
    if d.pieces:
        raise SpecValidationError("oracle enumeration needs a finite-support law")
    pairs = [(snap(x), snap(m)) for x, m in d.atoms]
    total = sum(m for _, m in pairs)
    if total != 1:
        # push any snap defect into the largest mass
        i = max(range(len(pairs)), key=lambda t: pairs[t][1])
        pairs[i] = (pairs[i][0], pairs[i][1] + (1 - total))
    return exact_atoms(pairs)


def _prophet_exact(atoms: Sequence[tuple[Fraction, Fraction]], n: int) -> list[Fraction]:
    """c_0..c_n with c_k = E(X v c_{k-1}), c_0 = 0."""
    cs = [Fraction(0)]
    for _ in range(n):
        cs.append(_order_max_exact(atoms, 1, [cs[-1]])[0])
    return cs


def _order_max_exact(atoms: Sequence[tuple[Fraction, Fraction]], k: int, floors: Iterable[Fraction]) -> list:
    """E(max of k samples v b), exact, at each floor b of ``floors``:
    b F(b)^k plus x P(max = x) for each atom x > b, those terms summed once
    from the top, so a call costs O(m) powers however many floors it takes."""
    xs = [x for x, _ in atoms]
    P = [F**k for F in itertools.accumulate((m for _, m in atoms), initial=Fraction(0))]
    tail = [Fraction(0)]  # tail[r]: the top r atoms' terms
    for t in reversed(range(len(xs))):
        tail.append(tail[-1] + xs[t] * (P[t + 1] - P[t]))
    return [b * P[(t := bisect.bisect_right(xs, b))] + tail[len(xs) - t] for b in floors]


def _expectations(ats, per_atom: list[set[Pair]], budget: int) -> tuple[int, set[tuple[int, int]]]:
    """Every distinct expectation sum_i m_i o_i of one payoff pair o_i from
    each atom's option set ``per_atom[i]``.

    The atoms are added one at a time, a set of partial sums after each, so
    the cost follows the number of distinct partial sums, not the size of
    the selection product.  Every weighted option m_i o_i is scaled by the
    lcm ``scale`` of their denominators, so the sums are pairs of ints:
    returns ``scale`` and the scaled sums.  Raises ResourceBudgetError
    before an atom step pairs more than ``budget`` partial sums with options.
    """
    weighted = [[(m * u, m * v) for u, v in options] for (_, m), options in zip(ats, per_atom)]
    scale = math.lcm(*(w.denominator for ws in weighted for pair in ws for w in pair))
    partial = {(0, 0)}
    for ws in weighted:
        if len(partial) * len(ws) > budget:
            raise ResourceBudgetError(
                f"more than {budget} pairings in one atom step of the oracle enumeration"
            )
        step = [(u.numerator * (scale // u.denominator), v.numerator * (scale // v.denominator)) for u, v in ws]
        partial = {(s1 + u, s2 + v) for s1, s2 in partial for u, v in step}
    return scale, partial


def _guards(atoms, n: int) -> None:
    if len(atoms) > MAX_SUPPORT:
        raise ResourceBudgetError(f"oracle supports at most {MAX_SUPPORT} atoms")
    if not 1 <= n <= MAX_HORIZON:
        raise SpecValidationError(f"oracle horizon must be in 1..{MAX_HORIZON}")


def oracle_spep(
    atoms: Iterable[tuple[object, object]] | ValueDistribution,
    n: int,
    variant: str,
    budget: int = DEFAULT_BUDGET,
) -> DiscreteSPEPSet:
    """Exact equilibrium payoff set of the n-arrival game on a finite law.

    ``atoms`` is either a finite-support :class:`ValueDistribution` (float
    atoms are snapped to nearby small rationals) or explicit (value, mass)
    pairs, which stay exact when given as strings/Fractions.  ``variant``
    is "full_recall" or "no_recall".  Every reported payoff is re-checked
    through the one-shot deviation verifier.

    ``budget`` bounds the pairings of partial sums with one atom's options
    in each step of the expectation sums (and so every partial set), and
    each full-recall state's payoff set; past it ResourceBudgetError is
    raised.
    """
    if isinstance(atoms, ValueDistribution):
        ats = atoms_from_distribution(atoms)
    else:
        ats = exact_atoms(atoms)
    _guards(ats, n)
    if variant == "no_recall":
        level, cont = _oracle_no_recall(ats, n, budget)
    elif variant == "full_recall":
        level, cont = _oracle_full_recall(ats, n, budget)
    else:
        raise SpecValidationError(f"unknown variant {variant!r}")
    return DiscreteSPEPSet(variant=variant, n=n, payoffs=level, endpoints_only=cont)


def _oracle_no_recall(ats, n: int, budget: int):
    """Sorted payoffs of the no-recall game, and whether a stage admitted a
    continuum."""
    cs = _prophet_exact(ats, n)
    level = {(Fraction(0), Fraction(0))}
    continuum = False
    for k in range(n):
        # payoff sets of the one-pending-value games at horizon k
        per_atom: list[set[Pair]] = []
        for x, _ in ats:
            options: set[Pair] = set()
            for dd, ee in level:
                game = StageGameNR(x, cs[k], dd, ee)
                outcome = solve_nr_stage(game)
                verify_outcome(payoff_matrix_nr(game), outcome, slack=0)
                continuum = continuum or outcome.has_continuum
                options.update(outcome.payoffs)
            per_atom.append(options)
        scale, sums = _expectations(ats, per_atom, budget)
        if k < n - 1:
            level = {(Fraction(p1, scale), Fraction(p2, scale)) for p1, p2 in sums}
    # the game is symmetric: the payoff set must be swap-symmetric; the
    # scaled sums share scale > 0, so their symmetry and order are the payoffs'
    if any((p2, p1) not in sums for p1, p2 in sums):
        raise InconsistencyError("no-recall payoff set is not symmetric under swap")
    return tuple((Fraction(p1, scale), Fraction(p2, scale)) for p1, p2 in sorted(sums)), continuum


def _lattice_from_zero(ats, levels: int) -> tuple[list[Fraction], list, list]:
    """The sorted values, 0 and the atoms, and the levels and next-state
    tables of :func:`full_recall.atom_lattice` from (0, 0)."""
    values = sorted({Fraction(0)} | {x for x, _ in ats})  # the atoms are the last len(ats)
    states, tables, _ = atom_lattice(range(len(values) - len(ats), len(values)), [0], [0], levels)
    return values, states, tables


def _oracle_full_recall(ats, n: int, budget: int):
    """Sorted payoffs (u, u) of the full-recall game, and whether a stage
    admitted a continuum: each lattice state's set, from the last level up."""
    values, states, tables = _lattice_from_zero(ats, n)
    i, j = states[n]
    sets = [{((values[a] + values[b]) / 2,) * 2} for a, b in zip(i.tolist(), j.tolist())]
    continuum = False
    for k in range(1, n + 1):
        (i, j), below = states[n - k], sets
        lone = _order_max_exact(ats, k, values)
        sets = []
        for a, f, row in zip(i.tolist(), j.tolist(), tables[n - k].tolist()):
            result: set[Pair] = set()
            scale, conts = _expectations(ats, [below[s] for s in row], budget)
            for d, _ in conts:
                game = StageGameFR(values[a], lone[f], Fraction(d, scale))
                outcome = solve_fr_stage(game)
                verify_outcome(payoff_matrix_fr(game), outcome, slack=0)
                continuum = continuum or outcome.has_continuum
                result.update(outcome.payoffs)
            if any(u != v for u, v in result):
                raise InconsistencyError("full-recall stage payoff left the diagonal")
            if len(result) > budget:
                raise ResourceBudgetError("payoff set exceeded the oracle budget")
            sets.append(result)
    return tuple(sorted(sets[0])), continuum


def oracle_summaries(spep: DiscreteSPEPSet) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(best_sum, worst_sum, worst_single, best_single) over the exact set."""
    if not spep.payoffs:
        raise SpecValidationError("empty payoff set")
    sums = [x + y for x, y in spep.payoffs]
    return (
        max(sums),
        min(sums),
        min(min(x, y) for x, y in spep.payoffs),
        max(max(x, y) for x, y in spep.payoffs),
    )
