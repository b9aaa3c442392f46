import tracemalloc

import numpy as np
import pytest

from selection_games import distributions as D
from selection_games import simulate as S
from selection_games.errors import SpecValidationError, UnsupportedDistributionError
from selection_games.full_recall import GridConfig, grid_tables, uniform_pass_value
from selection_games.prophet import prophet_values

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


def test_full_recall_gap_memory_peak():
    # the best profile reads grid tables at the default grid; build them first
    S.spe_strategy(D.uniform(), 4, "full_recall", "best")
    tracemalloc.start()
    try:
        S.spe_gap(D.uniform(), 4, "full_recall", "best", grid_size=801)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 801 * 801 * 8


@pytest.mark.parametrize("law, n", [(D.uniform(), 4), (D.two_point(), 5)], ids=["uniform", "two_point"])
def test_best_strategy_reads_pass_value_only_where_it_decides(law, n, rng):
    # the rule is a > max(c_k(b), dplus_k(a, b)); dplus is now read only
    # where a > c_k(b), which must not change a single decision
    ctx, tables = grid_tables(law, n - 1, GRID)
    prob = S.spe_strategy(law, n, "full_recall", "best", grid=GRID).player1.bid_prob
    u = rng.random((2, 5000))
    a, b = np.maximum(u[0], u[1]), np.minimum(u[0], u[1])
    g = ctx.g
    for k in range(1, n):
        for x, y in ((a, b), (g[:, None], g[None, :])):
            c = law.order_max_with_vec(k, y)
            if law.pieces and k <= 2:
                dplus = uniform_pass_value(k, x, y)
            else:
                dplus = ctx.bilinear(tables[k].dplus, x, y)
            want = np.where(x > np.maximum(c, dplus), 1.0, 0.0)
            assert np.array_equal(prob(n - k, k, x, y), want)


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
        # the lone value c_k(b) comes from a BLAS matrix-vector product whose
        # rounding of a row can depend on the number of rows in the call, so
        # a survivor's payoff may move by an ulp when fewer runs are live;
        # without recall the lone value is a constant and payoffs are exact
        atol = 1e-15 if variant == "full_recall" else 0.0
        for key in ("payoff1", "payoff2"):
            np.testing.assert_allclose(got[key], want[key], rtol=0, atol=atol)


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
