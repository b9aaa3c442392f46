"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) and enforces the stated tolerances and runtime
budgets.
"""

import time
from fractions import Fraction as Fr

import numpy as np
import pytest

from selection_games import distributions as D
from selection_games import efficiency as E
from selection_games import full_recall as FR
from selection_games import no_recall as NR
from selection_games import oracle as O
from selection_games import simulate as S
from selection_games.prophet import max_feasible_sum
from selection_games.testkit import (
    GRID_BAND_TOL,
    TABLE_TOL,
    UNIFORM_BAND_ROWS,
    UNIFORM_NO_RECALL_ROWS,
    beta_distribution,
    continuous_test_laws,
    fixtures,
    two_point_best_value,
    two_point_no_recall_set,
)

ACCEPT_GRID = FR.GridConfig(size=1001)
TWO_POINT_ATOMS = [("1/3", "1/2"), ("2/3", "1/2")]
UNIFORM = D.uniform()


class _Check:
    def __init__(self, label):
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    @property
    def elapsed(self):
        return time.perf_counter() - self.t0

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} ({self.elapsed:.2f}s)")
        return False


def test_criterion_1_two_point_oracle_exactness():
    with _Check("1 two-point oracle exactness") as chk:
        s2 = O.oracle_spep(TWO_POINT_ATOMS, 2, "no_recall")
        assert set(s2.payoffs) == {
            (Fr(11, 24), Fr(13, 24)),
            (Fr(13, 24), Fr(11, 24)),
            (Fr(23, 48), Fr(23, 48)),
        }
        for n in range(2, 7):
            nr = O.oracle_spep(TWO_POINT_ATOMS, n, "no_recall")
            assert set(nr.payoffs) == two_point_no_recall_set(n)
            fr = O.oracle_spep(TWO_POINT_ATOMS, n, "full_recall")
            assert set(fr.payoffs) == {(two_point_best_value(n),) * 2}
        assert chk.elapsed < 5.0


def test_criterion_2_no_recall_reference_rows():
    with _Check("2 no-recall reference rows") as chk:
        seq = NR.no_recall_sequence(UNIFORM, 10)
        for n in (2, 3, 4):
            row = UNIFORM_NO_RECALL_ROWS[n]
            s = seq[n - 1]
            assert s.alpha_prime == pytest.approx(row[0], abs=TABLE_TOL)
            assert s.alpha == pytest.approx(row[1], abs=TABLE_TOL)
            assert s.beta == pytest.approx(row[2], abs=TABLE_TOL)
        for s in seq:
            closed = NR.uniform_no_recall_closed(s.n)
            assert s.alpha_prime == pytest.approx(closed.alpha_prime, abs=1e-8)
            assert s.alpha == pytest.approx(closed.alpha, abs=1e-8)
            assert s.beta == pytest.approx(closed.beta, abs=1e-8)
        assert chk.elapsed < 1.0


def test_criterion_3_band_reference_rows():
    with _Check("3 band reference rows") as chk:
        assert FR.uniform_closed_forms(3, 0.0, 0.0)[0] == pytest.approx(
            607 / 972, abs=1e-12
        )
        for n in range(1, 6):
            lo_ref, hi_ref = UNIFORM_BAND_ROWS[n][0], UNIFORM_BAND_ROWS[n][1]
            tol = TABLE_TOL if n <= 3 else GRID_BAND_TOL
            b = FR.band(UNIFORM, n, grid=ACCEPT_GRID)
            assert b.low == pytest.approx(lo_ref, abs=tol)
            assert b.high == pytest.approx(hi_ref, abs=tol)
            if n <= 3:
                closed = FR.uniform_closed_forms(n, 0.0, 0.0)
                assert closed[0] == pytest.approx(lo_ref, abs=TABLE_TOL)
                assert closed[1] == pytest.approx(hi_ref, abs=TABLE_TOL)
        assert chk.elapsed < 120.0


def test_criterion_4_ratio_reference_rows():
    with _Check("4 ratio reference rows") as chk:
        fixture = [f for f in fixtures() if f.name == "uniform-efficiency-ratios"][0]
        for n in (2, 3, 4, 5):
            fr = E.ratios(UNIFORM, n, "full_recall", grid=ACCEPT_GRID)
            nr = E.ratios(UNIFORM, n, "no_recall")
            got = {
                "poa_fr": fr.poa,
                "pos_fr": fr.pos,
                "pr_fr": fr.pr,
                "poa_nr": nr.poa,
                "pos_nr": nr.pos,
                "pr_nr": nr.pr,
            }
            for key, value in got.items():
                ev = fixture.lookup(f"{key}[{n}]")
                assert value == pytest.approx(ev.value, abs=ev.tol), (key, n)
        assert chk.elapsed < 180.0


def _sweep_laws():
    laws = []
    for p in range(1, 8):
        for q in range(1, 8):
            laws.append(beta_distribution(p, q))
    for eps in (0.3, 0.1, 0.03, 0.01):
        for eta in (0.1, 0.01, 0.001):
            laws.append(E.tightness_family(eps, eta))
    for lo in (0.05, 0.15, 0.25, 0.35):
        for hi in (0.55, 0.7, 0.85, 1.0):
            for w in (0.2, 0.4, 0.6, 0.8):
                for eta in (0.25, 0.05):
                    laws.append(
                        D.mixture_with_uniform(eta, D.discrete([(lo, w), (hi, 1.0 - w)]))
                    )
    for t in np.linspace(-1.0, 1.0, 21):
        laws.append(D.piecewise_poly([(0.0, 1.0, [1.0 - t, 2.0 * t])]))
    return laws


def test_criterion_5_two_arrival_bound_sweep():
    with _Check("5 two-arrival 4/3 bound sweep") as chk:
        laws = _sweep_laws()
        assert len(laws) >= 200
        bound = 4.0 / 3.0 + 1e-9
        for law in laws:
            pos2, poa2 = E.two_arrival_closed_forms(law)
            assert pos2 <= bound and poa2 <= bound
        pos_tight, _ = E.two_arrival_closed_forms(E.tightness_family(0.01, 0.001))
        assert pos_tight >= 4.0 / 3.0 - 0.02


def test_criterion_6_recall_dominates_symmetric_no_recall():
    with _Check("6 recall dominance and advantage size") as chk:
        for name, law in continuous_test_laws():
            grid = ACCEPT_GRID if name == "uniform" else FR.GridConfig(size=601)
            seq = NR.no_recall_sequence(law, 5)
            for n in range(1, 6):
                b = FR.band(law, n, grid=grid)
                assert b.low >= seq[n - 1].beta - 1e-6, (name, n)
        # published advantage ranges (min over the four pairings to max),
        # reproduced within one percentage point
        windows = {3: (0.06, 0.076), 4: (0.069, 0.08), 5: (0.07, 0.08)}
        seq = NR.no_recall_sequence(UNIFORM, 5)
        for n, (lo_pct, hi_pct) in windows.items():
            b = FR.band(UNIFORM, n, grid=ACCEPT_GRID)
            s = seq[n - 1]
            min_adv = b.low / s.beta - 1.0
            max_adv = b.high / s.alpha - 1.0
            assert min_adv <= max_adv
            assert min_adv >= lo_pct - 0.01, n
            assert max_adv <= hi_pct + 0.01, n


def test_criterion_7_best_payoff_comparisons():
    with _Check("7 recall-vs-no-recall worked examples") as chk:
        fr = O.oracle_spep([("1/10", "1/2"), ("1/2", "1/2")], 2, "full_recall")
        assert set(fr.payoffs) == {(Fr(3, 10), Fr(3, 10))}
        nr = O.oracle_spep([("1/10", "1/2"), ("1/2", "1/2")], 2, "no_recall")
        assert O.oracle_summaries(nr)[3] == Fr(11, 40)
        assert Fr(3, 10) > Fr(11, 40)
        hi2 = FR.uniform_closed_forms(2, 0.0, 0.0)[1]
        assert hi2 == pytest.approx(0.5, abs=1e-9)
        assert NR.best_single_two_arrivals(UNIFORM) == pytest.approx(0.5, abs=1e-9)


def test_criterion_8_equilibrium_verification():
    with _Check("8 equilibrium verification") as chk:
        for variant in ("full_recall", "no_recall"):
            for which in ("best", "worst"):
                for n in (1, 2, 3, 4):
                    gap = S.spe_gap(
                        UNIFORM, n, variant, which, grid_size=2001, grid=ACCEPT_GRID
                    )
                    assert gap <= 2e-3, (variant, which, n)

        runs = 10**6

        def within(report, targets, scale=1.0):
            for m, se, t in zip(report.mean, report.stderr, targets):
                assert abs(m - t) <= 3.0 * se * scale, (report.mean, targets)

        prof = S.spe_strategy(UNIFORM, 3, "full_recall", "worst", grid=ACCEPT_GRID)
        rep = S.play(UNIFORM, 3, "full_recall", prof.player1, prof.player2, runs, seed=11)
        within(rep, (607 / 972, 607 / 972))

        prof = S.spe_strategy(UNIFORM, 3, "full_recall", "best", grid=ACCEPT_GRID)
        rep = S.play(UNIFORM, 3, "full_recall", prof.player1, prof.player2, runs, seed=12)
        h3 = FR.uniform_closed_forms(3, 0.0, 0.0)[1]
        within(rep, (h3, h3))

        tp = D.two_point()
        prof = S.spe_strategy(tp, 5, "full_recall", "best")
        rep = S.play(tp, 5, "full_recall", prof.player1, prof.player2, runs, seed=15)
        h5 = float(two_point_best_value(5))
        within(rep, (h5, h5))

        prof = S.spe_strategy(UNIFORM, 4, "no_recall", "best")
        rep = S.play(UNIFORM, 4, "no_recall", prof.player1, prof.player2, runs, seed=13)
        s4 = NR.uniform_no_recall_closed(4)
        assert abs(rep.mean_sum - 2.0 * s4.beta) <= 3.0 * rep.stderr_sum
        within(rep, (prof.meta["player1_value"], prof.meta["player2_value"]))

        prof = S.spe_strategy(UNIFORM, 3, "no_recall", "worst")
        rep = S.play(UNIFORM, 3, "no_recall", prof.player1, prof.player2, runs, seed=14)
        w3 = prof.meta["player_value"]
        within(rep, (w3, w3))


#: largest relative difference allowed between the gaps of one mutant at G = 401
#: and G = 801 for delta = 0.016 (measured: 5.1 % with recall, best profile at
#: n = 3; 7.6 % without recall, the best profile's waiting player at n = 3)
MUTANT_GRID_AGREEMENT = 0.10


def _delayed(rule, delta):
    """A mutant reply that bids where ``rule`` bids at (a - delta, b), so it
    waits delta too long."""
    return S.Strategy("mutant", lambda t, k, a, b: rule.bid_prob(t, k, np.asarray(a) - delta, b))


def _assert_delays_priced(variant, which, n, opponent, rule):
    # the DP must price the deviation above 0, and price it alike on two
    # grids once delta spans several cells
    for delta in (0.004, 0.016):
        mutant = _delayed(rule, delta)
        gaps = [S.best_response_gap(UNIFORM, n, variant, opponent, mutant, G) for G in (401, 801)]
        assert min(gaps) > 0.0, (which, n, delta, gaps)
        if delta == 0.016:
            assert abs(gaps[0] - gaps[1]) <= MUTANT_GRID_AGREEMENT * gaps[1], (which, n, gaps)


def test_criterion_8_detects_delayed_bids():
    with _Check("8 sensitivity to delayed bids"):
        for which in ("best", "worst"):
            for n in (3, 4):
                rule = S.spe_strategy(UNIFORM, n, "full_recall", which, grid=ACCEPT_GRID).player1
                _assert_delays_priced("full_recall", which, n, rule, rule)


def test_criterion_8_detects_delayed_bids_without_recall():
    # each seat's rule is delayed against the other seat's: the worst profile
    # is one stationary rule, the best a designated bidder and a waiting player
    with _Check("8 sensitivity to delayed bids, no recall"):
        for which in ("best", "worst"):
            for n in (3, 4):
                prof = S.spe_strategy(UNIFORM, n, "no_recall", which)
                seats = [(prof.player2, prof.player1), (prof.player1, prof.player2)]
                for opponent, rule in seats[: 1 if prof.symmetric else 2]:
                    _assert_delays_priced("no_recall", which, n, opponent, rule)


def test_criterion_9_ratio_series_shape():
    with _Check("9 ratio series shape") as chk:
        ns = range(2, 11)
        seq = NR.no_recall_sequence(UNIFORM, 10)
        top2 = {n: UNIFORM.top_two_expectation(n) for n in ns}
        s = max_feasible_sum(UNIFORM, 10)
        poa = {n: s[n] / (2 * seq[n - 1].alpha) for n in ns}
        pos = {n: s[n] / (2 * seq[n - 1].beta) for n in ns}
        pr = {n: top2[n] / (2 * seq[n - 1].beta) for n in ns}
        assert max(poa, key=poa.get) == 2
        assert max(pos, key=pos.get) == 2
        assert max(pr, key=pr.get) == 5
