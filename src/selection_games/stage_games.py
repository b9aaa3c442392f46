"""One-shot bid/pass stage games driving the backward recursions.

Both game variants reduce, at each stage, to a 2x2 matrix game between
"bid for the best available value a" and "pass":

                 bid                      pass
    bid     ((a+c)/2, (a+c)/2)          (a, c)
    pass        (c, a)                  (d, e)

where c is the lone-player continuation value of the rival of a successful
bidder and (d, e) are the continuation payoffs when both pass.  With recall
the continuation payoffs are symmetric (d = e); without recall they need
not be.  The solvers below enumerate every Nash equilibrium payoff of the
matrix, classified case by case, comparing exactly, and work unchanged over
floats or exact ``fractions.Fraction`` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InconsistencyError

#: bid probability pairs for the two pure profiles
_BID_BID = (1, 1)
_PASS_PASS = (0, 0)


def _cmp(x, y):
    return int(x > y) - int(x < y)


def _half(x):
    return x / 2


@dataclass(frozen=True)
class StageGameFR:
    """Full-recall stage game: best value a, rival continuation c, symmetric
    both-pass continuation d."""

    a: object
    c: object
    d: object


@dataclass(frozen=True)
class StageGameNR:
    """No-recall stage game: current value a, lone-player value c, both-pass
    continuation payoffs (d, e)."""

    a: object
    c: object
    d: object
    e: object


@dataclass(frozen=True)
class Equilibrium:
    payoff: tuple
    bid_probs: tuple


@dataclass(frozen=True)
class StageGameOutcome:
    """All Nash equilibrium payoffs of a stage game.

    When a case admits a continuum of equilibrium payoffs, only the
    continuum's endpoint payoffs are listed and ``has_continuum`` is set (the
    interior never feeds the recursions, which only consume extremes).
    """

    equilibria: tuple[Equilibrium, ...]
    has_continuum: bool = False

    @property
    def payoffs(self) -> tuple[tuple, ...]:
        return tuple(e.payoff for e in self.equilibria)


# -- the full-recall stage rule -------------------------------------------------


def stage_bids(a, c, d, best: bool):
    """Whether the worst (``best=False``) or best equilibrium of the
    full-recall stage game (a, c, d) bids, elementwise over floats,
    ``Fraction`` values or numpy arrays.

    Bid/bid is an equilibrium iff a >= c, and pass/pass iff d >= a.  The
    worst equilibrium bids whenever bid/bid is one, the tie a = c included
    (there it pays (a + c)/2 = c <= d); the best bids only where bid/bid is
    the sole equilibrium, a > c and a > d.  The worst rule never reads d.
    """
    if not best:
        return a >= c
    return (a > c) & (a > d)


def stage_value(a, c, d, best: bool):
    """Worst (best) symmetric equilibrium payoff of the full-recall stage
    game: (a + c)/2 where :func:`stage_bids` bids, else the both-pass
    continuation d."""
    bids = stage_bids(a, c, d, best)
    if isinstance(bids, np.ndarray):
        return np.where(bids, _half(a + c), d)
    return _half(a + c) if bids else d


# -- full recall -------------------------------------------------------------


def solve_fr_stage(g: StageGameFR) -> StageGameOutcome:
    """Enumerate the NE payoffs of the symmetric-continuation stage game.

    Cases: (a) a > max(c, d): bid/bid forced; (b) d > a > c: two pure
    equilibria plus a symmetric mixed one; (c) a < c: pass/pass forced;
    (d) boundary a = d > c or d > a = c: the two pure equilibria;
    (e) a = c = d: every profile, single payoff (d, d).
    """
    a, c, d = g.a, g.c, g.d
    ac, ad = _cmp(a, c), _cmp(a, d)
    half = _half(a + c)
    if ac <= 0 and ad > 0:
        raise InconsistencyError(
            f"stage game inconsistent with pass-dominance: c={c} >= a={a} but d={d} < a"
        )
    if ac < 0:
        return StageGameOutcome((Equilibrium((d, d), _PASS_PASS),))
    if ac == 0:
        if ad == 0:
            return StageGameOutcome((Equilibrium((d, d), _BID_BID),))
        # d > a = c
        return StageGameOutcome((Equilibrium((half, half), _BID_BID), Equilibrium((d, d), _PASS_PASS)))
    # a > c from here on
    if ad > 0:
        return StageGameOutcome((Equilibrium((half, half), _BID_BID),))
    if ad == 0:
        return StageGameOutcome((Equilibrium((half, half), _BID_BID), Equilibrium((d, d), _PASS_PASS)))
    # d > a > c: symmetric mixed equilibrium alongside the two pure ones
    p = 2 * (d - a) / (2 * d - a - c)
    mixed = (d * c - 2 * a * c + a * d) / (2 * d - a - c)
    return StageGameOutcome(
        (
            Equilibrium((half, half), _BID_BID),
            Equilibrium((d, d), _PASS_PASS),
            Equilibrium((mixed, mixed), (p, p)),
        )
    )


# -- no recall ----------------------------------------------------------------


def _gamma(a, c, cont):
    """Mixed-equilibrium payoff of the player whose both-pass continuation
    is ``cont``; the opponent's mixing makes them indifferent."""
    return (2 * a * c - cont * (c + a)) / (c + a - 2 * cont)


def _mix_prob(a, c, cont):
    """Bid probability making the *other* player (continuation ``cont``)
    indifferent."""
    return 2 * (a - cont) / (a + c - 2 * cont)


def solve_nr_stage(g: StageGameNR) -> StageGameOutcome:
    """Enumerate NE payoffs of the asymmetric-continuation stage game.

    Eleven cases depending on the ordering of a against c and the
    continuation pair (d, e); continuum cases report endpoint payoffs only.
    """
    a, c, d, e = g.a, g.c, g.d, g.e
    if d > c or e > c:
        raise InconsistencyError(
            f"no-recall continuation exceeds lone-player value: d={d}, e={e}, c={c}"
        )
    ac = _cmp(a, c)
    half = _half(a + c)
    if ac > 0:
        return StageGameOutcome((Equilibrium((half, half), _BID_BID),))
    if ac == 0:
        return StageGameOutcome((Equilibrium((c, c), _BID_BID),))
    ad, ae = _cmp(a, d), _cmp(a, e)
    if ad > 0 and ae > 0:
        # interior: two asymmetric pure equilibria and a mixed one
        g1, g2 = _gamma(a, c, d), _gamma(a, c, e)
        p1, p2 = _mix_prob(a, c, e), _mix_prob(a, c, d)
        return StageGameOutcome(
            (
                Equilibrium((a, c), (1, 0)),
                Equilibrium((c, a), (0, 1)),
                Equilibrium((g1, g2), (p1, p2)),
            )
        )
    if ad < 0 and ae < 0:
        return StageGameOutcome((Equilibrium((d, e), _PASS_PASS),))
    if ad < 0 and ae > 0:
        return StageGameOutcome((Equilibrium((c, a), (0, 1)),))
    if ad > 0 and ae < 0:
        return StageGameOutcome((Equilibrium((a, c), (1, 0)),))
    if ad == 0 and ae > 0:
        # a = d > e: player 2 passes, player 1 mixes over [pi*, 1]
        g2 = _gamma(a, c, e)
        return StageGameOutcome(
            (
                Equilibrium((c, a), (0, 1)),
                Equilibrium((a, g2), (_mix_prob(a, c, e), 0)),
                Equilibrium((a, c), (1, 0)),
            ),
            has_continuum=True,
        )
    if ae == 0 and ad > 0:
        g1 = _gamma(a, c, d)
        return StageGameOutcome(
            (
                Equilibrium((a, c), (1, 0)),
                Equilibrium((g1, a), (0, _mix_prob(a, c, d))),
                Equilibrium((c, a), (0, 1)),
            ),
            has_continuum=True,
        )
    if ad == 0 and ae == 0:
        return StageGameOutcome(
            (
                Equilibrium((a, a), _PASS_PASS),
                Equilibrium((a, c), (1, 0)),
                Equilibrium((c, a), (0, 1)),
            ),
            has_continuum=True,
        )
    if ad < 0 and ae == 0:
        # d > a = e: both-pass plus a continuum (lambda, a), lambda in [d, c]
        return StageGameOutcome(
            (Equilibrium((d, e), _PASS_PASS), Equilibrium((c, a), (0, 1))), has_continuum=True
        )
    # e > a = d
    return StageGameOutcome(
        (Equilibrium((d, e), _PASS_PASS), Equilibrium((a, c), (1, 0))), has_continuum=True
    )


# -- independent best-response verification -------------------------------------


def payoff_matrix_fr(g: StageGameFR) -> tuple:
    half = _half(g.a + g.c)
    return ((half, half), (g.a, g.c), (g.c, g.a), (g.d, g.d))


def payoff_matrix_nr(g: StageGameNR) -> tuple:
    half = _half(g.a + g.c)
    return ((half, half), (g.a, g.c), (g.c, g.a), (g.d, g.e))


def best_response_slack(matrix: Sequence[tuple], p, q) -> tuple:
    """Largest one-shot deviation gain for each player at bid probabilities
    (p, q); the reported equilibrium expected payoffs come along for free.

    ``matrix`` lists the payoff pairs in the order bid/bid, bid/pass,
    pass/bid, pass/pass.
    """
    (bb, bp, pb, pp) = matrix
    u_bid = q * bb[0] + (1 - q) * bp[0]
    u_pass = q * pb[0] + (1 - q) * pp[0]
    v_bid = p * bb[1] + (1 - p) * pb[1]
    v_pass = p * bp[1] + (1 - p) * pp[1]
    u = p * u_bid + (1 - p) * u_pass
    v = q * v_bid + (1 - q) * v_pass
    gain1 = max(u_bid, u_pass) - u
    gain2 = max(v_bid, v_pass) - v
    return (gain1, gain2, (u, v))


def verify_outcome(matrix: Sequence[tuple], outcome: StageGameOutcome, slack=1e-12) -> None:
    """Re-check every reported equilibrium with an explicit profile: the
    payoff must match the profile's expected payoff and neither player may
    gain more than ``slack`` by deviating."""
    for eq in outcome.equilibria:
        g1, g2, (u, v) = best_response_slack(matrix, *eq.bid_probs)
        if g1 > slack or g2 > slack:
            raise InconsistencyError(
                f"reported equilibrium fails best-response check: gains=({g1}, {g2})"
            )
        if abs(u - eq.payoff[0]) > slack or abs(v - eq.payoff[1]) > slack:
            raise InconsistencyError(
                f"reported payoff {eq.payoff} differs from profile payoff {(u, v)}"
            )
