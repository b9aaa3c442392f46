import hashlib
import tracemalloc

import numpy as np
import pytest
from conftest import stored_triangle, triangle_cells

from selection_games import distributions as D
from selection_games import simulate as S
from selection_games.efficiency import tightness_family
from selection_games.errors import ResourceBudgetError, SpecValidationError, UnsupportedDistributionError
from selection_games import full_recall as FR
from selection_games.full_recall import GridConfig, TriangleContext, grid_tables, pass_value
from selection_games.prophet import prophet_values
from selection_games.testkit import beta_distribution

GRID = GridConfig(size=501)
RUNS = 200_000


def test_reports_are_reproducible():
    prof = S.spe_strategy(D.uniform(), 3, "full_recall", "worst", grid=GRID)
    r1 = S.play(D.uniform(), 3, "full_recall", prof.player1, prof.player2, 5000, seed=9)
    r2 = S.play(D.uniform(), 3, "full_recall", prof.player1, prof.player2, 5000, seed=9)
    assert r1 == r2
    r3 = S.play(D.uniform(), 3, "full_recall", prof.player1, prof.player2, 5000, seed=10)
    assert r3.mean != r1.mean


def test_single_arrival_always_bid_splits_mean():
    rep = S.play(D.uniform(), 1, "no_recall", S.always_bid(), S.always_bid(), RUNS, seed=3)
    for m, se in zip(rep.mean, rep.stderr):
        assert abs(m - 0.25) <= 3 * se


def test_lone_survivor_credited_optimal_continuation():
    # player 2 grabs the first arrival; under the auxiliary-game reduction
    # the abandoned player is credited the lone-player optimum exactly
    cs = prophet_values(D.uniform(), 3)
    rep = S.play(D.uniform(), 3, "no_recall", S.never_bid(), S.always_bid(), RUNS, seed=4)
    assert rep.mean[0] == pytest.approx(cs[2], abs=1e-12)
    assert abs(rep.mean[1] - 0.5) <= 3 * rep.stderr[1]


def test_mutual_never_bid_pays_nothing():
    rep = S.play(D.uniform(), 3, "no_recall", S.never_bid(), S.never_bid(), 1000, seed=4)
    assert rep.mean == (0.0, 0.0)


def test_tie_break_fairness_symmetric_profile():
    prof = S.spe_strategy(D.uniform(), 3, "no_recall", "worst")
    rep = S.play(D.uniform(), 3, "no_recall", prof.player1, prof.player2, RUNS, seed=5)
    gap = abs(rep.mean[0] - rep.mean[1])
    assert gap <= 3 * rep.stderr_sum


def test_two_point_recall_threshold_strategy():
    # bid iff the best sample is the high atom
    strat = S.threshold_strategy({1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5}, "grab-high")
    rep = S.play(D.two_point(), 4, "full_recall", strat, strat, RUNS, seed=6)
    want = 2 / 3 - (4 + 2) / (3 * 2**5)
    for m, se in zip(rep.mean, rep.stderr):
        assert abs(m - want) <= 3 * se


def test_spe_strategy_validation():
    with pytest.raises(SpecValidationError):
        S.spe_strategy(D.uniform(), 3, "full_recall", "median")
    with pytest.raises(UnsupportedDistributionError):
        S.spe_strategy(D.two_point(), 3, "no_recall", "best")


def test_meta_values_of_no_recall_best_profile():
    from selection_games.no_recall import uniform_no_recall_closed

    prof = S.spe_strategy(D.uniform(), 3, "no_recall", "best")
    s = uniform_no_recall_closed(3)
    assert prof.meta["player1_value"] == pytest.approx(s.alpha_prime, abs=1e-9)
    assert prof.meta["player1_value"] + prof.meta["player2_value"] == pytest.approx(
        2 * s.beta, abs=1e-9
    )


def test_best_response_gap_trivial_horizon():
    prof = S.spe_strategy(D.uniform(), 1, "no_recall", "worst")
    gap = S.best_response_gap(D.uniform(), 1, "no_recall", prof.player2, prof.player1, 801)
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_best_response_gap_flags_bad_strategy():
    gap = S.best_response_gap(D.uniform(), 3, "no_recall", S.never_bid(), S.never_bid(), 801)
    c3 = prophet_values(D.uniform(), 3)[3]
    assert gap == pytest.approx(c3, abs=1e-3)
    assert gap > 0.5



def test_no_recall_gap_runs_past_the_grid_table_budget():
    # the no-recall DP holds G-vectors only, so it runs on a grid whose
    # G x G tables the full-recall DP refuses
    u = D.uniform()
    prof = S.spe_strategy(u, 3, "no_recall", "worst")
    for opponent, reply in ((prof.player1, prof.player2), (S.never_bid(), S.never_bid())):
        coarse, fine = (S.best_response_gap(u, 3, "no_recall", opponent, reply, G) for G in (4001, 8001))
        assert fine == pytest.approx(coarse, abs=1e-9)
    with pytest.raises(ResourceBudgetError):
        S.best_response_gap(u, 3, "full_recall", S.never_bid(), S.never_bid(), 8001)


@pytest.mark.parametrize(
    "variant, want",
    # gaps of the two-pass DP with per-cell scalar moments, before the
    # one-pass expectation and the in-place stage algebra
    [("full_recall", 0.006321942529296964), ("no_recall", 0.01263974390722411)],
)
def test_asymmetric_gap_unchanged(variant, want):
    # never_bid as the opponent of an equilibrium reply: the two seats differ,
    # so the DP evaluates both strategies and keeps both value tables apart
    reply = S.spe_strategy(D.uniform(), 3, variant, "worst").player1
    gap = S.best_response_gap(D.uniform(), 3, variant, S.never_bid(), reply, 401)
    assert gap == pytest.approx(want, abs=1e-12)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_full_recall_gap_memory_peak():
    table = 801 * 801 * 8
    # the profiles read grid tables at the default grid; build them first
    S.spe_strategy(D.uniform(), 4, "full_recall", "best")
    worst = S.spe_strategy(D.uniform(), 4, "full_recall", "worst").player1
    # the best reply's stored triangle (0.53 table at G = 801), the
    # equilibrium reply's few differing rows and the block temporaries of the
    # bid rule, 0.05 table each (1.00 tables measured; 1.47 with a mirrored
    # G x G table)
    assert _traced_peak(lambda: S.spe_gap(D.uniform(), 4, "full_recall", "best", grid_size=801)) <= 1.03 * table
    # a reply that parts from the best one on every row keeps them all
    # (2.13 tables measured; 2.66 with a mirrored G x G table)
    never = lambda: S.best_response_gap(D.uniform(), 4, "full_recall", worst, S.never_bid(), 801)  # noqa: E731
    assert _traced_peak(never) <= 2.24 * table


@pytest.mark.parametrize("law", [D.uniform(), beta_distribution(2, 2)], ids=["uniform", "beta22"])
def test_full_recall_gap_allocates_no_square_table(law):
    # on an atomless law, an equilibrium profile's DP holds the stored
    # triangle and block temporaries: its traced peak stays under one (G, G)
    # float64 table, which therefore was never allocated (0.55 to 0.68 of one
    # measured at G = 2001)
    G = 2001
    for which in ("best", "worst"):
        S.spe_strategy(law, 4, "full_recall", which)
        assert _traced_peak(lambda: S.spe_gap(law, 4, "full_recall", which, grid_size=G)) < 8 * G * G


def _dense_br_gap_full_recall(d, n, opponent, reply, grid_size):
    """Reference for the full-recall best-response DP: both bid rules
    evaluated once per stage as G x G tables over the whole square, and the
    stage algebra on whole rows."""
    ctx = TriangleContext(d, GridConfig(size=grid_size))
    g = ctx.g
    A = g[:, None]
    B = g[None, :]
    shape = (grid_size, grid_size)
    v_br = v_eq = np.add.outer(g, g) / 2.0
    for t in range(n - 1, 0, -1):
        k = n - t
        q = S._bid_prob(opponent, t, k, A, B, shape)
        p = q if reply is opponent else S._bid_prob(reply, t, k, A, B, shape)
        shared = v_eq is v_br
        v_br = ctx.expect_over_arrival(v_br)
        v_eq = v_br.copy() if shared else ctx.expect_over_arrival(v_eq)
        ck = ctx.lone_values(k)[None, :]
        for rows in ctx.row_blocks:
            S._br_stage(A[rows], ck, q[rows], p[rows], v_br[rows], v_eq[rows], p is q)
        v_br, v_eq = (ctx.mirrored(stored_triangle(ctx, v)) for v in (v_br, v_eq))
    return float(ctx.expect(v_br[:, 0]) - ctx.expect(v_eq[:, 0]))


#: atoms at 0, which no column adds, and above 0, which column b = 0 adds
ATOMS_AND_UNIFORM = D.mixture_with_uniform(0.5, D.discrete([(0.0, 0.3), (0.6, 0.7)]))


def _dp_cases(n):
    b22 = beta_distribution(2, 2)
    best = S.spe_strategy(b22, n, "full_recall", "best", grid=GridConfig(size=201)).player1
    worst = S.spe_strategy(b22, n, "full_recall", "worst").player1
    atoms_worst = S.spe_strategy(ATOMS_AND_UNIFORM, n, "full_recall", "worst").player1
    threshold = S.threshold_strategy({1: 0.6, 2: 0.55, 3: 0.5})
    # fractional bid probabilities that depend on both a and b
    mixed = S.Strategy("mixed", lambda t, k, a, b: np.clip(2.0 * a - b - 0.3 * k, 0.0, 1.0))
    return {
        "best": (b22, best, best),
        "worst": (b22, worst, worst),
        "threshold-vs-worst": (b22, worst, threshold),
        "mixed": (D.uniform(), mixed, mixed),
        "atoms-worst": (ATOMS_AND_UNIFORM, atoms_worst, atoms_worst),
        "atoms-threshold-vs-worst": (ATOMS_AND_UNIFORM, atoms_worst, threshold),
    }


_DP_CASES = ["best", "worst", "threshold-vs-worst", "mixed", "atoms-worst", "atoms-threshold-vs-worst"]


@pytest.mark.parametrize(
    "case, n",
    [(case, n) for case in _DP_CASES for n in (1, 2, 3, 4)],
    ids=[case if n == 4 else f"{case}-n{n}" for case in _DP_CASES for n in (1, 2, 3, 4)],
)
def test_full_recall_dp_matches_dense_reference(case, n):
    # n = 1 has no stage; at n = 2 the first stage is also the last, on shared tables
    law, opponent, reply = _dp_cases(n)[case]
    # 201 rows make two row blocks of unequal height
    assert len(TriangleContext(law, GridConfig(size=201)).row_blocks) == 2
    got = S.best_response_gap(law, n, "full_recall", opponent, reply, 201)
    assert got == _dense_br_gap_full_recall(law, n, opponent, reply, 201)
    if case in ("threshold-vs-worst", "mixed", "atoms-threshold-vs-worst") and n > 1:
        assert got > 1e-3  # the gap depends on every stage's bid table


#: sha256 of the cells of the d-_k and d+_k triangles, row after row
#: (:func:`conftest.triangle_cells`), for k = 1..5 at G = 201, in
#: that order, and repr of the criterion-8 gaps of the DP cases at n = 4 and
#: G = 201, recorded before the grid engine and the DP shared one block sweep
TRIANGLE_DIGESTS = {
    "uniform": "20ad0a7a42ba96c18894baf55edad99cc0522e908205904a95195b7630fc69cd",
    "beta22": "f7722074b81237e086a1510d7cb56a062c5711b39555d722e8ad48b5dac10d53",
    "tightness": "61a88e812501554854a31b8be980180c932900db1a01a5ac6062b67c0448ff3f",
}
DP_GAP_REPRS = {
    "best": "0.0",
    "worst": "0.0",
    "threshold-vs-worst": "0.010010641352126148",
    "mixed": "0.01638648136469545",
    "atoms-worst": "0.0",
    "atoms-threshold-vs-worst": "0.022224043749894173",
}


def test_grid_triangles_and_dp_gaps_pinned():
    laws = {"uniform": D.uniform(), "beta22": beta_distribution(2, 2), "tightness": tightness_family(0.1, 0.05)}
    for name, law in laws.items():
        ctx, tables = grid_tables(law, 5, GridConfig(size=201))
        digest = hashlib.sha256()
        for st in tables[1:]:
            digest.update(triangle_cells(ctx, st.dminus).tobytes())
            digest.update(triangle_cells(ctx, st.dplus).tobytes())
        assert digest.hexdigest() == TRIANGLE_DIGESTS[name], name
    for case, (law, opponent, reply) in _dp_cases(4).items():
        assert repr(S.best_response_gap(law, 4, "full_recall", opponent, reply, 201)) == DP_GAP_REPRS[case], case


def test_full_recall_dp_evaluates_lone_values_once_per_stage(monkeypatch):
    floors = []
    original = D.ValueDistribution.order_max_with_vec

    def counted(self, k, ks):
        floors.append(np.size(ks))
        return original(self, k, ks)

    monkeypatch.setattr(D.ValueDistribution, "order_max_with_vec", counted)
    rule = S.spe_strategy(beta_distribution(2, 2), 4, "full_recall", "worst").player1
    S.best_response_gap(beta_distribution(2, 2), 4, "full_recall", rule, rule, 801)
    # per stage the DP's own c_k on the grid and one call of the rule: a whole
    # row at t = 3, 2 (its row blocks read prefixes of it), b = 0 alone at t = 1
    assert sorted(floors) == [1] + [801] * 5


@pytest.mark.parametrize(
    "law, n",
    [(D.uniform(), 4), (beta_distribution(2, 2), 4), (D.two_point(), 5)],
    ids=["uniform", "beta22", "two_point"],
)
def test_best_strategy_reads_pass_value_only_where_it_decides(law, n, rng):
    # the rule is a > max(c_k(b), dplus_k(a, b)); dplus is now read only
    # where a > c_k(b), which must not change a single decision.  dplus_k is
    # the closed form for k <= 2 on every law, the grid's for k >= 3
    ctx, tables = grid_tables(law, n - 1, GRID)
    prob = S.spe_strategy(law, n, "full_recall", "best", grid=GRID).player1.bid_prob
    u = rng.random((2, 5000))
    a, b = np.maximum(u[0], u[1]), np.minimum(u[0], u[1])
    # the grid nodes with b <= a: bilinear reads the triangle only
    i, j = np.tril_indices(len(ctx.g))
    for k in range(1, n):
        for x, y in ((a, b), (ctx.g[i], ctx.g[j])):
            c = law.order_max_with_vec(k, y)
            if k <= 2:
                dplus = pass_value(law, k, x, c)
            else:
                dplus = ctx.bilinear(tables[k].dplus, x, y)
            want = np.where(x > np.maximum(c, dplus), 1.0, 0.0)
            assert np.array_equal(prob(n - k, k, x, y), want)


@pytest.mark.parametrize(
    "law", [beta_distribution(2, 2), D.two_point(), tightness_family(0.1, 0.05)], ids=["beta22", "two_point", "tightness"]
)
def test_best_profile_builds_no_grid_up_to_three_arrivals(law):
    # d+_1 and d+_2 are closed forms on every law: the best profile, and the
    # plays and the DP that read it, need no grid table at n <= 3
    stale = [key for key in FR._TABLE_CACHE if key[0] == law.cache_key()]
    for key in stale:
        del FR._TABLE_CACHE[key]
    rule = S.spe_strategy(law, 3, "full_recall", "best").player1
    S.play(law, 3, "full_recall", rule, rule, 2000, seed=3)
    assert not [key for key in FR._TABLE_CACHE if key[0] == law.cache_key()]


def test_small_grid_gaps_stay_small():
    for variant in ("full_recall", "no_recall"):
        for which in ("best", "worst"):
            gap = S.spe_gap(D.uniform(), 3, variant, which, grid_size=801, grid=GRID)
            assert gap <= 2e-3, (variant, which)


def test_profiles_verify_for_nonuniform_law():
    from selection_games.testkit import beta_distribution

    b22 = beta_distribution(2, 2)
    for variant in ("full_recall", "no_recall"):
        for which in ("best", "worst"):
            gap = S.spe_gap(b22, 3, variant, which, grid_size=801, grid=GRID)
            assert gap <= 2e-3, (variant, which)


def test_no_recall_values_cross_checked_by_simulation():
    # Monte-Carlo play of the asymmetric best pair is independent of both
    # the recursion and the DP: the pair sum must hit twice the best
    # half-sum and the designated bidder the worst single payoff
    from selection_games.no_recall import no_recall_summary
    from selection_games.testkit import beta_distribution

    for law in (beta_distribution(2, 2), beta_distribution(1, 3)):
        s = no_recall_summary(law, 3)
        prof = S.spe_strategy(law, 3, "no_recall", "best")
        rep = S.play(law, 3, "no_recall", prof.player1, prof.player2, RUNS, seed=21)
        assert abs(rep.mean_sum - 2 * s.beta) <= 3 * rep.stderr_sum
        assert abs(rep.mean[0] - s.alpha_prime) <= 3 * rep.stderr[0]


def test_traces_collected_on_request():
    prof = S.spe_strategy(D.uniform(), 2, "full_recall", "worst", grid=GRID)
    rep = S.play(D.uniform(), 2, "full_recall", prof.player1, prof.player2, 50, seed=1,
                 collect_traces=True)
    assert rep.traces is not None
    assert rep.traces["taken_stage"].shape == (50,)
    assert set(np.unique(rep.traces["taken_stage"])) <= {0, 1, 2}


# -- the live-run loop of play against a dense reference ----------------------------------


def _dense_play(d, n, variant, strat1, strat2, runs, seed):
    """Reference for play: every stage evaluates both strategies and the lone
    value on all runs and masks the finished ones out."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    X = np.asarray(d.sample(rng, runs * n)).reshape(runs, n)
    U1 = rng.random((runs, n))
    U2 = rng.random((runs, n))
    coin = rng.random((runs, n)) < 0.5
    pay1 = np.zeros(runs)
    pay2 = np.zeros(runs)
    active = np.ones(runs, dtype=bool)
    a_state = np.zeros(runs)
    b_state = np.zeros(runs)
    c_by_k = prophet_values(d, n).values if variant == "no_recall" else None
    taken_stage = np.zeros(runs, dtype=np.int32)
    for t in range(1, n + 1):
        x = X[:, t - 1]
        if variant == "full_recall":
            new_b = np.maximum(b_state, np.minimum(a_state, x))
            new_a = np.maximum(a_state, x)
            a_state = np.where(active, new_a, a_state)
            b_state = np.where(active, new_b, b_state)
            a, b = a_state, b_state
        else:
            a, b = x, None
        k = n - t
        if variant == "full_recall" and t == n:
            bid1 = bid2 = active
        else:
            p1 = np.clip(np.asarray(strat1.bid_prob(t, k, a, b), dtype=float), 0.0, 1.0)
            p2 = np.clip(np.asarray(strat2.bid_prob(t, k, a, b), dtype=float), 0.0, 1.0)
            bid1 = active & (U1[:, t - 1] < np.broadcast_to(p1, a.shape))
            bid2 = active & (U2[:, t - 1] < np.broadcast_to(p2, a.shape))
        any_bid = bid1 | bid2
        if not np.any(any_bid):
            continue
        if variant == "full_recall":
            lone = b if k == 0 else np.asarray(d.order_max_with_vec(k, b))
        else:
            lone = np.full(runs, 0.0 if k == 0 else c_by_k[k - 1])
        w1 = (bid1 & ~bid2) | (bid1 & bid2 & coin[:, t - 1])
        w2 = (bid2 & ~bid1) | (bid1 & bid2 & ~coin[:, t - 1])
        pay1 = np.where(w1, a, np.where(w2, lone, pay1))
        pay2 = np.where(w2, a, np.where(w1, lone, pay2))
        taken_stage = np.where(any_bid & active, t, taken_stage)
        active = active & ~any_bid
    return {"taken_stage": taken_stage, "payoff1": pay1, "payoff2": pay2}


def _profiles():
    u = D.uniform()
    cases = []
    for n in (3, 4):
        for which in ("worst", "best"):
            prof = S.spe_strategy(u, n, "full_recall", which, grid=GRID)
            cases.append((f"fr-{which}-{n}", n, "full_recall", prof.player1, prof.player2))
    prof = S.spe_strategy(u, 3, "no_recall", "worst")
    cases.append(("nr-worst-3", 3, "no_recall", prof.player1, prof.player2))
    prof = S.spe_strategy(u, 4, "no_recall", "best")
    cases.append(("nr-best-4", 4, "no_recall", prof.player1, prof.player2))
    grab = S.threshold_strategy({1: 0.8, 2: 0.7, 3: 0.6}, "grab")
    for variant in ("full_recall", "no_recall"):
        cases.append((f"threshold-vs-never-{variant}", 4, variant, grab, S.never_bid()))
    return cases


@pytest.mark.parametrize("case", _profiles(), ids=lambda c: c[0])
def test_play_matches_dense_loop(case):
    _, n, variant, s1, s2 = case
    for seed in (0, 17):
        got = S.play(D.uniform(), n, variant, s1, s2, 20_000, seed=seed, collect_traces=True).traces
        want = _dense_play(D.uniform(), n, variant, s1, s2, 20_000, seed)
        np.testing.assert_array_equal(got["taken_stage"], want["taken_stage"])
        for key in ("payoff1", "payoff2"):
            np.testing.assert_array_equal(got[key], want[key])


@pytest.mark.parametrize(
    "law",
    [D.mixture_with_uniform(0.3, D.two_point()), D.piecewise_poly([(0.0, 1.0, (0.0, 0.0, 3.0))])],
    ids=["atoms_and_uniform", "quadratic_density"],
)
def test_play_does_not_depend_on_block_size(law, monkeypatch):
    # every block reads its own rows of the four draw segments of the stream
    grab = S.threshold_strategy({1: 0.8, 2: 0.6, 3: 0.5}, "grab")
    reports = []
    for block in (7, 1000, 1_000_000):
        monkeypatch.setattr(S, "PLAY_BLOCK_RUNS", block)
        for variant in ("full_recall", "no_recall"):
            reports.append(S.play(law, 4, variant, grab, S.never_bid(), 4001, seed=9, collect_traces=True))
    for got, want in zip(reports[:4], reports[4:]):
        assert got.mean == want.mean and got.stderr == want.stderr
        for key in ("taken_stage", "payoff1", "payoff2"):
            np.testing.assert_array_equal(got.traces[key], want.traces[key])


def test_play_memory_stays_flat_in_runs():
    prof = S.spe_strategy(D.uniform(), 5, "no_recall", "worst")
    S.play(D.uniform(), 5, "no_recall", prof.player1, prof.player2, 10, seed=1)
    runs = 400_000
    tracemalloc.start()
    try:
        S.play(D.uniform(), 5, "no_recall", prof.player1, prof.player2, runs, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two payoff vectors and their sum, plus a few MB for the blocks;
    # drawing all runs x n values and uniforms at once peaked at 28 vectors
    assert peak <= 4 * runs * 8 + 8 * 2**20


def test_symmetric_profile_evaluated_once_per_stage_on_live_runs():
    calls = []
    base = S.spe_strategy(D.uniform(), 4, "full_recall", "worst", grid=GRID).player1

    def counted(t, k, a, b):
        calls.append((t, np.size(a)))
        return base.bid_prob(t, k, a, b)

    s = S.Strategy("counted", counted)
    rep = S.play(D.uniform(), 4, "full_recall", s, s, 5000, seed=2, collect_traces=True)
    stages = [t for t, _ in calls]
    assert stages == sorted(set(stages))  # one call per stage
    taken = rep.traces["taken_stage"]
    for t, size in calls:
        # runs still live at stage t: nobody took an item before it
        assert size == np.count_nonzero((taken == 0) | (taken >= t))
