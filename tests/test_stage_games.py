import itertools
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from selection_games import distributions as D
from selection_games.errors import InconsistencyError
from selection_games.simulate import FULL_RECALL, spe_strategy
from selection_games.stage_games import (
    Equilibrium,
    StageGameFR,
    StageGameNR,
    StageGameOutcome,
    best_response_slack,
    payoff_matrix_fr,
    payoff_matrix_nr,
    solve_fr_stage,
    solve_nr_stage,
    stage_value,
    verify_outcome,
)

unit = st.floats(0.0, 1.0, allow_nan=False)
#: the law whose stage games hit the tie a = c < d (each atom has mass 1/3)
TIE_LAW = D.discrete([(0.0, 1 / 3), (0.625, 1 / 3), (0.75, 1 / 3)])


# -- the full-recall stage rule ------------------------------------------------------


def test_selector_examples():
    assert stage_value(0.5, 0.6, 0.3, best=False) == 0.3
    assert stage_value(0.7, 0.6, 0.65, best=True) == pytest.approx(0.65)
    assert stage_value(0.7, 0.6, 0.65, best=False) == pytest.approx(0.65)
    # the tie a = c < d: bid/bid is an equilibrium paying c, the worst one
    assert stage_value(0.5, 0.5, 0.75, best=False) == 0.5
    assert stage_value(0.5, 0.5, 0.75, best=True) == 0.75


@given(unit, unit, unit)
def test_selectors_agree_when_x_below_y(x, y, z):
    if x < y:
        assert stage_value(x, y, z, best=False) == z
        assert stage_value(x, y, z, best=True) == z


@given(unit, unit, unit, unit)
def test_psi_monotone_in_continuation(a, c, d1, d2):
    # the worst and best stage payoffs never fall as the both-pass
    # continuation rises
    lo, hi = min(d1, d2), max(d1, d2)
    assert stage_value(a, c, lo, best=False) <= stage_value(a, c, hi, best=False)
    assert stage_value(a, c, lo, best=True) <= stage_value(a, c, hi, best=True)


exact_unit = st.fractions(0, 1, max_denominator=12)


def _bids(out):
    """The bid probability pair of each equilibrium, in the order reported."""
    return [e.bid_probs for e in out.equilibria]


@given(exact_unit, exact_unit, exact_unit)
@example(Fr(1, 2), Fr(1, 2), Fr(3, 4))
def test_stage_value_is_the_enumerated_extreme(a, c, d):
    # pass dominance: a lone value c >= a leaves the both-pass value >= a
    assume(not c >= a > d)
    # stage_value is the extreme symmetric payoff; at a = d < c the set also
    # holds the asymmetric (a, c) and (c, a)
    payoffs = [p for p, q in solve_fr_stage(StageGameFR(a, c, d)).payoffs if p == q]
    for best, extreme in ((False, min(payoffs)), (True, max(payoffs))):
        assert stage_value(a, c, d, best=best) == extreme
        # the same rule elementwise on floats and on numpy arrays
        x = [float(a), float(c), float(d)]
        assert stage_value(*(np.array([v]) for v in x), best=best)[0] == stage_value(*x, best=best)


def test_worst_profile_bids_at_the_tie():
    # c_2(0) = 5/8 on the tie law, so the worst stage equilibrium at
    # (a, b) = (5/8, 0) with two arrivals to come is bid/bid
    assert TIE_LAW.expect_order_max_with(2, 0.0) == 0.625
    worst = spe_strategy(TIE_LAW, 3, FULL_RECALL, "worst").player1
    assert worst.bid_prob(1, 2, np.array([0.625]), np.array([0.0]))[0] == 1.0
    best = spe_strategy(TIE_LAW, 3, FULL_RECALL, "best").player1
    assert best.bid_prob(1, 2, np.array([0.625]), np.array([0.0]))[0] == 0.0


# -- full recall -------------------------------------------------------------------


def test_fr_unique_bid_case():
    out = solve_fr_stage(StageGameFR(a=0.9, c=0.3, d=0.5))
    assert _bids(out) == [(1, 1)]
    assert out.payoffs == ((0.6, 0.6),)


def test_fr_two_point_state_example():
    # one high sample seen, one arrival to come
    out = solve_fr_stage(StageGameFR(a=2 / 3, c=7 / 12, d=5 / 8))
    assert _bids(out) == [(1, 1)]
    assert out.payoffs[0][0] == pytest.approx(5 / 8, abs=1e-12)


def test_fr_pass_case():
    out = solve_fr_stage(StageGameFR(a=0.2, c=0.5, d=0.6))
    assert _bids(out) == [(0, 0)]
    assert out.payoffs == ((0.6, 0.6),)


def test_fr_mixed_case_values():
    a, c, d = 0.5, 0.2, 0.8
    out = solve_fr_stage(StageGameFR(a, c, d))
    # both pure equilibria, then the symmetric mixed one
    assert out.payoffs[:2] == (((a + c) / 2, (a + c) / 2), (d, d))
    assert _bids(out)[:2] == [(1, 1), (0, 0)] and len(out.equilibria) == 3
    mixed = out.equilibria[2]
    want = (d * c - 2 * a * c + a * d) / (2 * d - a - c)
    assert mixed.payoff[0] == pytest.approx(want, abs=1e-12)
    assert mixed.bid_probs[0] == pytest.approx(2 * (d - a) / (2 * d - a - c), abs=1e-12)


def test_fr_inconsistency_raises():
    with pytest.raises(InconsistencyError):
        solve_fr_stage(StageGameFR(a=0.5, c=0.7, d=0.3))


@given(unit, unit, unit)
# the mixed bid probability rounds to 1.0, yet the mixed point stays a third one
@example(a=5.682543545036407e-59, c=0.0, d=1.0)
def test_fr_outcomes_verify_and_order(a, c, d):
    if c >= a and d < a:
        return
    g = StageGameFR(a, c, d)
    out = solve_fr_stage(g)
    verify_outcome(payoff_matrix_fr(g), out, slack=1e-9)
    if d > a > c:  # both pure equilibria and the mixed one
        lo, mid, hi = sorted(p[0] for p in out.payoffs)
        assert lo <= mid <= hi
        assert hi == pytest.approx(d)
        assert lo == pytest.approx((a + c) / 2)


def test_fr_exact_fractions():
    g = StageGameFR(Fr(1, 2), Fr(1, 5), Fr(4, 5))
    out = solve_fr_stage(g)
    verify_outcome(payoff_matrix_fr(g), out, slack=0)
    mixed = [e for e in out.equilibria if isinstance(e.bid_probs[0], Fr)][0]
    assert mixed.payoff == (Fr(2, 5), Fr(2, 5))


# -- no recall -----------------------------------------------------------------------


def test_nr_interior_example():
    # pending value 1/3, lone value 1/2, symmetric continuation 1/4
    out = solve_nr_stage(StageGameNR(a=Fr(1, 3), c=Fr(1, 2), d=Fr(1, 4), e=Fr(1, 4)))
    assert _bids(out) == [(1, 0), (0, 1), (Fr(1, 2), Fr(1, 2))]
    assert set(out.payoffs) == {
        (Fr(1, 3), Fr(1, 2)),
        (Fr(1, 2), Fr(1, 3)),
        (Fr(3, 8), Fr(3, 8)),
    }


def test_nr_forced_bid_example():
    out = solve_nr_stage(StageGameNR(a=Fr(2, 3), c=Fr(1, 2), d=Fr(1, 4), e=Fr(1, 4)))
    assert _bids(out) == [(1, 1)]
    assert out.payoffs == ((Fr(7, 12), Fr(7, 12)),)


def test_nr_forced_pass_case():
    out = solve_nr_stage(StageGameNR(a=0.1, c=0.5, d=0.3, e=0.4))
    assert _bids(out) == [(0, 0)]
    assert out.payoffs == ((0.3, 0.4),)


def test_nr_one_sided_cases():
    out = solve_nr_stage(StageGameNR(a=0.3, c=0.5, d=0.4, e=0.2))
    assert _bids(out) == [(0, 1)]
    assert out.payoffs == ((0.5, 0.3),)
    out = solve_nr_stage(StageGameNR(a=0.3, c=0.5, d=0.2, e=0.4))
    assert _bids(out) == [(1, 0)]
    assert out.payoffs == ((0.3, 0.5),)


def _vertices(out):
    """The (payoff, bid_probs) pairs of an outcome as a set, each float
    rounded to 12 digits."""
    return {tuple(tuple(round(v, 12) for v in t) for t in (e.payoff, e.bid_probs)) for e in out.equilibria}


def test_nr_boundary_cases_report_endpoints():
    # a = d > e: player 1 mixes over [pi*, 1] while player 2 passes
    out = solve_nr_stage(StageGameNR(a=0.3, c=0.5, d=0.3, e=0.1))
    assert out.has_continuum
    assert _vertices(out) == {
        ((0.5, 0.3), (0, 1)),
        ((0.3, round(0.11 / 0.3, 12)), (round(2 / 3, 12), 0)),
        ((0.3, 0.5), (1, 0)),
    }
    out = solve_nr_stage(StageGameNR(a=0.3, c=0.5, d=0.3, e=0.3))
    assert out.has_continuum
    assert _vertices(out) == {((0.3, 0.3), (0, 0)), ((0.3, 0.5), (1, 0)), ((0.5, 0.3), (0, 1))}
    out = solve_nr_stage(StageGameNR(a=0.3, c=0.5, d=0.4, e=0.3))
    assert out.has_continuum
    assert _vertices(out) == {((0.4, 0.3), (0, 0)), ((0.5, 0.3), (0, 1))}


def test_nr_invariant_violation_raises():
    with pytest.raises(InconsistencyError):
        solve_nr_stage(StageGameNR(a=0.3, c=0.5, d=0.6, e=0.2))


@given(unit, unit, unit, unit)
def test_nr_outcomes_verify(a, c, d, e):
    if d > c or e > c:
        return
    g = StageGameNR(a, c, d, e)
    out = solve_nr_stage(g)
    verify_outcome(payoff_matrix_nr(g), out, slack=1e-9)
    if len(out.equilibria) == 3 and not out.has_continuum:  # the interior case
        mixed = out.payoffs[-1]
        assert mixed[0] + mixed[1] <= a + c + 1e-9


def test_best_response_slack_flags_non_equilibrium():
    g = StageGameNR(a=0.3, c=0.5, d=0.1, e=0.1)
    gains = best_response_slack(payoff_matrix_nr(g), 0.0, 0.0)
    assert max(gains[0], gains[1]) > 0.1


def test_verify_outcome_checks_every_equilibrium():
    # pass/pass is no equilibrium at a > c > d, and bid/bid pays (a + c)/2
    g = StageGameNR(a=Fr(1, 2), c=Fr(1, 3), d=Fr(1, 4), e=Fr(1, 4))
    half = (g.a + g.c) / 2
    for eq in (Equilibrium((g.d, g.e), (0, 0)), Equilibrium((g.a, g.a), (1, 1))):
        outcome = StageGameOutcome((Equilibrium((half, half), (1, 1)), eq))
        with pytest.raises(InconsistencyError):
            verify_outcome(payoff_matrix_nr(g), outcome, slack=0)


def test_payoff_extremes_feed_the_recursions():
    # interior case: min sum from the mixed point, max sum from the
    # asymmetric pure points, min single coordinate = the pending value
    a, c, d, e = Fr(1, 3), Fr(1, 2), Fr(1, 4), Fr(1, 4)
    payoffs = solve_nr_stage(StageGameNR(a, c, d, e)).payoffs
    sums = [p + q for p, q in payoffs]
    assert max(sums) == a + c
    assert min(min(p) for p in payoffs) == a
    assert min(sums) == Fr(3, 4)  # both coordinates 3/8 at the mixed point
    assert max(max(p) for p in payoffs) == c


# -- the enumeration against a brute-force scan of mixed profiles -------------------


def _lattice(den):
    return [Fr(i, den) for i in range(den + 1)]


def _stage_games(den):
    """Every exact stage game on the lattice of multiples of 1/den that
    its solver accepts, as (matrix, solver outcome)."""
    grid = _lattice(den)
    for a in grid:
        for c in grid:
            for d in grid:
                if not c >= a > d:
                    g = StageGameFR(a, c, d)
                    yield payoff_matrix_fr(g), solve_fr_stage(g)
                for e in grid:
                    if d <= c and e <= c:
                        g = StageGameNR(a, c, d, e)
                        yield payoff_matrix_nr(g), solve_nr_stage(g)


def _indifference(bb, bp, pb, pp):
    """The rival's bid probabilities in (0, 1) leaving a player indifferent,
    from that player's payoffs bidding against a bidder and a passer, and
    passing against a bidder and a passer."""
    slope = (bb - pb) - (bp - pp)
    if slope == 0:
        return []
    t = (pp - bp) / slope
    return [t] if 0 < t < 1 else []


def _midpoints(points):
    """The points and the midpoint of every pair of them."""
    return {(s + t) / 2 for s in points for t in points}


def _scan_payoffs(matrix):
    """Distinct equilibrium payoffs among the profiles whose bid
    probabilities are 0, 1, a mixing point or the midpoint of two of them,
    each checked with best_response_slack at slack 0."""
    bb, bp, pb, pp = matrix
    # player 1's mixing points leave player 2 indifferent, and vice versa
    ps = _midpoints([Fr(0), Fr(1)] + _indifference(bb[1], pb[1], bp[1], pp[1]))
    qs = _midpoints([Fr(0), Fr(1)] + _indifference(bb[0], bp[0], pb[0], pp[0]))
    found = set()
    for p in ps:
        for q in qs:
            g1, g2, payoff = best_response_slack(matrix, p, q)
            if g1 <= 0 and g2 <= 0:
                found.add(payoff)
    return found


def test_vertices_match_a_scan_of_mixed_profiles():
    for matrix, out in _stage_games(4):
        scanned, reported = _scan_payoffs(matrix), set(out.payoffs)
        assert reported <= scanned, (matrix, reported - scanned)
        for key in (lambda u: u[0], lambda u: u[1], sum):
            assert min(map(key, reported)) == min(map(key, scanned)), matrix
            assert max(map(key, reported)) == max(map(key, scanned)), matrix
        # midpoints of an edge whose payoff moves are payoffs of no vertex
        assert out.has_continuum == (len(scanned) > len(reported)), matrix


def test_full_recall_is_the_symmetric_no_recall_game():
    for a, c, d in itertools.product(_lattice(6), repeat=3):
        if not c >= a > d and d <= c:
            fr, nr = solve_fr_stage(StageGameFR(a, c, d)), solve_nr_stage(StageGameNR(a, c, d, d))
            assert (set(fr.payoffs), fr.has_continuum) == (set(nr.payoffs), nr.has_continuum), (a, c, d)
