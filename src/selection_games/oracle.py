"""Exact brute-force equilibrium payoff sets for finite-support laws.

Backward induction in exact rational arithmetic.  With k arrivals left,
the payoff set of the continuation game is the set of expectations of all
per-atom selections from the next level's sets; each continuation pair is
then pushed through the one-stage solver, and every Nash payoff found
enters the level-k set.  Small-support, small-horizon inputs only: the
selection products are enumerated explicitly under a size budget.

Payoffs are ``fractions.Fraction`` pairs end to end; floats appear only at
the reporting boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .distributions import ValueDistribution
from .errors import InconsistencyError, ResourceBudgetError, SpecValidationError
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

    ``endpoints_only`` is set when some stage game along the recursion
    admitted a payoff continuum; in that event the set lists the continuum
    endpoints only (sums and extremes are still exact).
    ``provenance`` aligns with ``payoffs``: the stage-case tags that fired
    along each payoff's derivation.
    """

    variant: str
    n: int
    payoffs: tuple[Pair, ...]
    provenance: tuple[frozenset[str], ...]
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
        prev = cs[-1]
        cs.append(sum(m * max(x, prev) for x, m in atoms))
    return cs


def _order_max_exact(atoms: Sequence[tuple[Fraction, Fraction]], k: int, b: Fraction) -> Fraction:
    """E(max of k samples v b), exact."""
    total = Fraction(0)
    F_prev = Fraction(0)
    F = Fraction(0)
    for x, m in atoms:
        F += m
        total += max(x, b) * (F**k - F_prev**k)
        F_prev = F
    return total


def _merge(into: dict, payoff: Pair, prov: frozenset) -> None:
    if payoff in into:
        into[payoff] = into[payoff] | prov
    else:
        into[payoff] = prov


def _selection_products(per_atom: list[list], budget: int) -> Iterable[tuple]:
    size = 1
    for options in per_atom:
        size *= len(options)
        if size > budget:
            raise ResourceBudgetError(
                f"selection product of size > {budget} in the oracle enumeration"
            )
    return itertools.product(*per_atom)


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
    verify: bool = True,
) -> DiscreteSPEPSet:
    """Exact equilibrium payoff set of the n-arrival game on a finite law.

    ``atoms`` is either a finite-support :class:`ValueDistribution` (float
    atoms are snapped to nearby small rationals) or explicit (value, mass)
    pairs, which stay exact when given as strings/Fractions.  ``variant``
    is "full_recall" or "no_recall".  Every reported payoff is re-checked
    through the one-shot deviation verifier when ``verify``.
    """
    if isinstance(atoms, ValueDistribution):
        ats = atoms_from_distribution(atoms)
    else:
        ats = exact_atoms(atoms)
    _guards(ats, n)
    if variant == "no_recall":
        payoffs, prov, cont = _oracle_no_recall(ats, n, budget, verify)
    elif variant == "full_recall":
        payoffs, prov, cont = _oracle_full_recall(ats, n, budget, verify)
    else:
        raise SpecValidationError(f"unknown variant {variant!r}")
    order = sorted(range(len(payoffs)), key=lambda i: payoffs[i])
    return DiscreteSPEPSet(
        variant=variant,
        n=n,
        payoffs=tuple(payoffs[i] for i in order),
        provenance=tuple(prov[i] for i in order),
        endpoints_only=cont,
    )


def _oracle_no_recall(ats, n: int, budget: int, verify: bool):
    cs = _prophet_exact(ats, n)
    level: dict[Pair, frozenset] = {(Fraction(0), Fraction(0)): frozenset()}
    continuum = False
    for k in range(n):
        # payoff sets of the one-pending-value games at horizon k
        per_atom: list[list[tuple[Pair, frozenset]]] = []
        for x, _ in ats:
            options: dict[Pair, frozenset] = {}
            for (dd, ee), prov in level.items():
                game = StageGameNR(x, cs[k], dd, ee)
                outcome = solve_nr_stage(game, tol=0)
                if verify:
                    verify_outcome(payoff_matrix_nr(game), outcome, slack=0)
                continuum = continuum or outcome.has_continuum
                for eq in outcome.equilibria:
                    _merge(options, eq.payoff, prov | {outcome.case_tag})
            per_atom.append(list(options.items()))
        nxt: dict[Pair, frozenset] = {}
        for combo in _selection_products(per_atom, budget):
            p1 = sum(m * v[0][0] for (_, m), v in zip(ats, combo))
            p2 = sum(m * v[0][1] for (_, m), v in zip(ats, combo))
            prov = frozenset().union(*(v[1] for v in combo))
            _merge(nxt, (p1, p2), prov)
        if len(nxt) > budget:
            raise ResourceBudgetError("payoff set exceeded the oracle budget")
        level = nxt
    payoffs = list(level.keys())
    # the game is symmetric: the payoff set must be swap-symmetric
    pset = set(payoffs)
    if any((y, x) not in pset for x, y in pset):
        raise InconsistencyError("no-recall payoff set is not symmetric under swap")
    return payoffs, [level[p] for p in payoffs], continuum


def _oracle_full_recall(ats, n: int, budget: int, verify: bool):
    values = tuple(sorted({Fraction(0)} | {x for x, _ in ats}))
    memo: dict[tuple, dict[Fraction, frozenset]] = {}
    continuum = False

    def med(a: Fraction, b: Fraction, x: Fraction) -> Fraction:
        return min(max(x, b), a)

    def solve_state(k: int, a: Fraction, b: Fraction) -> dict[Fraction, frozenset]:
        nonlocal continuum
        key = (k, a, b)
        if key in memo:
            return memo[key]
        if k == 0:
            memo[key] = {(a + b) / 2: frozenset()}
            return memo[key]
        per_atom = []
        for x, _ in ats:
            sub = solve_state(k - 1, max(a, x), med(a, b, x))
            per_atom.append(list(sub.items()))
        c = _order_max_exact(ats, k, b)
        result: dict[Fraction, frozenset] = {}
        conts: dict[Fraction, frozenset] = {}
        for combo in _selection_products(per_atom, budget):
            d = sum(m * v[0] for (_, m), v in zip(ats, combo))
            prov = frozenset().union(*(v[1] for v in combo))
            _merge(conts, d, prov)
        for d, prov in conts.items():
            game = StageGameFR(a, c, d)
            outcome = solve_fr_stage(game, tol=0)
            if verify:
                verify_outcome(payoff_matrix_fr(game), outcome, slack=0)
            continuum = continuum or outcome.has_continuum
            for eq in outcome.equilibria:
                u, v = eq.payoff
                if u != v:
                    raise InconsistencyError("full-recall stage payoff left the diagonal")
                _merge(result, u, prov | {outcome.case_tag})
        if len(result) > budget:
            raise ResourceBudgetError("payoff set exceeded the oracle budget")
        memo[key] = result
        return result

    root = solve_state(n, Fraction(0), Fraction(0))
    payoffs = [(u, u) for u in root]
    return payoffs, [root[u] for u, _ in payoffs], continuum


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
