"""One-shot bid/pass stage games driving the backward recursions.

Both game variants reduce, at each stage, to a 2x2 matrix game between
"bid for the best available value a" and "pass":

                 bid                      pass
    bid     ((a+c)/2, (a+c)/2)          (a, c)
    pass        (c, a)                  (d, e)

where c is the lone-player continuation value of the rival of a successful
bidder and (d, e) are the continuation payoffs when both pass.  With recall
the continuation payoffs are symmetric (d = e); without recall they need
not be.  One enumeration solves both: it lists the vertices of the Nash
equilibrium set, each player at bid, pass or the point mixing the rival
indifferent, with their payoffs, and flags an edge of the set along which
the payoff moves.  It compares exactly and works unchanged over floats or
exact ``fractions.Fraction`` values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InconsistencyError


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
    """The vertices of a stage game's Nash equilibrium set, each with its
    payoff and bid probabilities.

    When the set pays a continuum of payoffs (an edge along which one player
    is indifferent and the rival's payoff moves), only the vertex payoffs
    are listed and ``has_continuum`` is set (the interior never feeds the
    recursions, which only consume extremes).
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


# -- the equilibrium set of the 2x2 game ---------------------------------------


def _gamma(a, c, cont):
    """Payoff of the player whose both-pass continuation is ``cont`` while
    the rival mixes at :func:`_mix_prob`, which leaves them indifferent."""
    return (2 * a * c - cont * (c + a)) / (c + a - 2 * cont)


def _mix_prob(a, c, cont):
    """Bid probability making the *other* player (continuation ``cont``)
    indifferent."""
    return 2 * (a - cont) / (a + c - 2 * cont)


def _solve(a, c, d, e) -> StageGameOutcome:
    """The vertices of the Nash equilibrium set of the game (a, c, d, e).

    A player's gain from bidding is linear in the rival's bid probability,
    of sign cmp(a, c) against a bidder and cmp(a, cont) against a passer,
    so each vertex places each player at bid (1), pass (0) or mix (None),
    the rival's indifference point, which exists only where those two
    signs are strictly opposite.  Points are keyed by that position, not by
    their probability, which may round to 0 or 1 over floats.
    """
    half = _half(a + c)
    conts = (d, e)
    bid = _cmp(a, c)
    # gains[i][rival's position]: the sign of player i's gain from bidding
    gains = [{1: bid, 0: _cmp(a, cont), None: 0} for cont in conts]
    # mixes[i]: the rival's bid probability leaving player i indifferent
    mixes = [_mix_prob(a, c, cont) if bid * g[0] < 0 else None for cont, g in zip(conts, gains)]

    def responds(i, own, rival):
        g = gains[i][rival]
        return g == 0 if own is None else (g >= 0 if own else g <= 0)

    def payoff(i, own, rival):
        if rival is None:
            return _gamma(a, c, conts[i])
        # a mixing player is indifferent, so earns the bid payoff
        return ((conts[i], c), (a, half))[1 if own is None else own][rival]

    def positions(i):
        return (1, 0) if mixes[1 - i] is None else (1, 0, None)

    vertices = [(x, y) for x in positions(0) for y in positions(1) if responds(0, x, y) and responds(1, y, x)]
    equilibria = tuple(
        Equilibrium(
            (payoff(0, x, y), payoff(1, y, x)),
            (mixes[1] if x is None else x, mixes[0] if y is None else y),
        )
        for x, y in vertices
    )
    # an edge of the set along which the moving player is indifferent and
    # the rival's payoff moves: a continuum of payoffs
    has_continuum = any(
        u.payoff != v.payoff and ((y == y2 and gains[0][y] == 0) or (x == x2 and gains[1][x] == 0))
        for ((x, y), u), ((x2, y2), v) in itertools.combinations(zip(vertices, equilibria), 2)
    )
    return StageGameOutcome(equilibria, has_continuum)


def solve_fr_stage(g: StageGameFR) -> StageGameOutcome:
    """The equilibrium vertices of the full-recall stage game, the game
    (a, c, d, d); raises InconsistencyError on c >= a > d, which pass
    dominance rules out."""
    a, c, d = g.a, g.c, g.d
    if c >= a > d:
        raise InconsistencyError(
            f"stage game inconsistent with pass-dominance: c={c} >= a={a} but d={d} < a"
        )
    return _solve(a, c, d, d)


def solve_nr_stage(g: StageGameNR) -> StageGameOutcome:
    """The equilibrium vertices of the no-recall stage game (a, c, d, e);
    raises InconsistencyError if d or e exceeds the lone value c."""
    a, c, d, e = g.a, g.c, g.d, g.e
    if d > c or e > c:
        raise InconsistencyError(
            f"no-recall continuation exceeds lone-player value: d={d}, e={e}, c={c}"
        )
    return _solve(a, c, d, e)


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
