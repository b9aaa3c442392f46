import functools
import hashlib
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import stored_triangle, triangle_cells

from selection_games import distributions as D
from selection_games import oracle as O
from selection_games import simulate as S
from selection_games.efficiency import ratios, tightness_family
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


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_play_refuses_a_seed_outside_the_philox_keys(seed, monkeypatch):
    # Philox keys lie in [0, 2**128): the seed is refused before any draw
    def no_draws(*args):
        raise AssertionError("drew from the stream")

    monkeypatch.setattr(S, "_stream_at", no_draws)
    with pytest.raises(SpecValidationError, match="seed"):
        S.play(D.uniform(), 2, "full_recall", S.always_bid(), S.always_bid(), 10, seed=seed)


def test_play_takes_the_largest_philox_key():
    rep = S.play(D.uniform(), 2, "no_recall", S.always_bid(), S.never_bid(), 10, seed=2**128 - 1)
    assert rep.seed == 2**128 - 1


@pytest.mark.parametrize("n", [0, -1])
def test_play_refuses_a_horizon_below_one(n):
    strat = S.threshold_strategy({1: 0.5})
    for variant in ("full_recall", "no_recall"):
        with pytest.raises(SpecValidationError):
            S.play(D.uniform(), n, variant, strat, strat, 10)


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
    # bid rule, 0.05 table each (0.91 tables measured; 0.93 while the first
    # stage was a grid pass over an even-split triangle, 1.47 with a mirrored
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
    # float64 table, which therefore was never allocated (0.55 to 0.57 of one
    # measured at G = 2001)
    G = 2001
    for which in ("best", "worst"):
        S.spe_strategy(law, 4, "full_recall", which)
        assert _traced_peak(lambda: S.spe_gap(law, 4, "full_recall", which, grid_size=G)) < 8 * G * G


def _dense_br_gap_full_recall(d, n, opponent, reply, grid_size):
    """Reference for the full-recall best-response DP: both bid rules
    evaluated once per stage as G x G tables over the whole square, and the
    stage algebra on whole rows.  The first stage takes its continuation,
    E_X of the even split, from the closed form d_1 = (a + c_1(b))/2."""
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
        ck = ctx.lone_values(k)[None, :]
        if k == 1:
            v_br = pass_value(d, 1, A, ck)
            v_eq = v_br.copy()
        else:
            shared = v_eq is v_br
            v_br = ctx.expect_over_arrival(v_br)
            v_eq = v_br.copy() if shared else ctx.expect_over_arrival(v_eq)
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
#: G = 201, recorded before the grid engine and the DP shared one block sweep;
#: the uniform digest again once d+_2 became E_X[low_1], which moved 92 cells
#: of d+_2..d+_5 by at most 5.6e-16; "threshold-vs-worst" again once the DP's
#: first stage took d_1 in closed form, which moved it by 1.1e-16 (from
#: 0.010010641352126148)
TRIANGLE_DIGESTS = {
    "uniform": "eeb4bbd7557e3ea911ea86245cbb981d78441412f8aa25946b535910d8e7d4b3",
    "beta22": "f7722074b81237e086a1510d7cb56a062c5711b39555d722e8ad48b5dac10d53",
    "tightness": "61a88e812501554854a31b8be980180c932900db1a01a5ac6062b67c0448ff3f",
}
DP_GAP_REPRS = {
    "best": "0.0",
    "worst": "0.0",
    "threshold-vs-worst": "0.010010641352126037",
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


@pytest.mark.parametrize("G", [201, 2001])
@pytest.mark.parametrize(
    "law",
    [D.uniform(), beta_distribution(2, 2), ATOMS_AND_UNIFORM, tightness_family(0.1, 0.05)],
    ids=["uniform", "beta22", "atoms_and_uniform", "tightness"],
)
def test_closed_form_first_stage_matches_the_grid_pass(law, G):
    # max(a, X) + med[a, b, X] = a + max(b, X), so E_X of the even split is
    # d_1 = (a + c_1(b))/2 on every law; the grid's quadrature misses it by
    # rounding alone (1.32e-14 at most, measured)
    ctx = TriangleContext(law, GridConfig(size=G))
    grid_pass = ctx.expect_over_arrival(ctx.even_split())
    c1 = ctx.lone_values(1)
    for rows, stop, on_tri in ctx.triangle_blocks():
        closed = pass_value(law, 1, ctx.g[rows, None], c1[:stop])
        assert np.abs(closed - ctx.block(grid_pass, rows))[on_tri].max() <= 2e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_full_recall_dp_takes_its_first_stage_in_closed_form(n, monkeypatch):
    # no even-split triangle, and one stored grid pass over v for each stage
    # but the first: none at n <= 2, where the DP runs on G-vectors alone
    def refuse(self, *args, **kwargs):
        raise AssertionError("the DP built an even-split triangle")

    passes = []
    original = TriangleContext.expect_over_arrival

    def counted(self, T, *args, **kwargs):
        passes.append(T.ndim)
        return original(self, T, *args, **kwargs)

    cases = _dp_cases(n)  # the best profile at n = 4 builds grid tables
    monkeypatch.setattr(TriangleContext, "even_split", refuse)
    monkeypatch.setattr(TriangleContext, "expect_over_arrival", counted)
    for case, (law, opponent, reply) in cases.items():
        passes.clear()
        S.best_response_gap(law, n, "full_recall", opponent, reply, 201)
        assert passes.count(1) == max(n - 2, 0), case


@pytest.mark.parametrize("which", ["best", "worst"])
def test_uniform_equilibrium_replies_part_on_no_row(which, monkeypatch):
    # with d_1 exact, the equilibrium reply's values equal the best reply's,
    # bit for bit, on every cell b <= a of every stage
    G = 2001
    g = np.linspace(0.0, 1.0, G)
    parted = []
    original = S._br_stage

    def compared(a, c, q, p, w_br, w_eq, same):
        original(a, c, q, p, w_br, w_eq, same)
        on_tri = g[None, : c.shape[1]] <= a
        parted.append(int(((w_eq.view(np.int64) != w_br.view(np.int64)) & on_tri).any(axis=1).sum()))

    monkeypatch.setattr(S, "_br_stage", compared)
    for n in (1, 2, 3, 4):
        parted.clear()
        assert S.spe_gap(D.uniform(), n, "full_recall", which, grid_size=G) == 0.0
        assert len(parted) >= n - 1 and not any(parted), (n, parted)


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
    # the closed form for k <= 2 on every law; for k >= 3 the grid's on a law
    # with a density, and on a law with none the exact one, the sum over the
    # atoms x of high_(k-1) at (a v x, med[a, b, x])
    prob = S.spe_strategy(law, n, "full_recall", "best", grid=GRID).player1.bid_prob
    u = rng.random((2, 5000))
    a, b = np.maximum(u[0], u[1]), np.minimum(u[0], u[1])
    # the grid nodes with b <= a: bilinear reads the triangle only
    g = np.linspace(0.0, 1.0, GRID.size)
    i, j = np.tril_indices(GRID.size)
    if law.pieces:
        ctx, tables = grid_tables(law, n - 1, GRID)
    for k in range(1, n):
        for x, y in ((a, b), (g[i], g[j])):
            c = law.order_max_with_vec(k, y)
            if k <= 2:
                dplus = pass_value(law, k, x, c)
            elif law.pieces:
                dplus = ctx.bilinear(tables[k].dplus, x, y)
            else:
                dplus = 0.0
                for atom, mass in law.atoms:
                    high = FR.lh_values(law, k - 1, np.maximum(x, atom), np.minimum(np.maximum(atom, y), x))[1]
                    dplus = dplus + mass * high
            want = np.where(x > np.maximum(c, dplus), 1.0, 0.0)
            assert np.array_equal(prob(n - k, k, x, y), want)


#: the four-atom law {0.1, 0.4, 0.6, 0.9} with mass 1/4 each
FOUR_ATOMS = D.discrete([(0.1, 0.25), (0.4, 0.25), (0.6, 0.25), (0.9, 0.25)])
#: laws with no density, on which the recall DP is exact
NO_DENSITY_LAWS = {
    "two_point": D.two_point(),
    "four_atoms": FOUR_ATOMS,
    "edge_atoms": D.discrete([(0.0, 0.2), (0.25, 0.3), (0.6, 0.1), (1.0, 0.4)]),
}


@pytest.mark.parametrize(
    "law, n",
    [
        (beta_distribution(2, 2), 3),
        (D.two_point(), 3),
        (tightness_family(0.1, 0.05), 3),
        (D.two_point(), 5),
        (D.two_point(), 6),
        (FOUR_ATOMS, 5),
    ],
    ids=["beta22", "two_point", "tightness", "two_point-n5", "two_point-n6", "four_atoms-n5"],
)
def test_best_profile_builds_no_grid_up_to_three_arrivals(law, n):
    # d+_1 and d+_2 are closed forms on every law: the best profile, and the
    # plays and the DP that read it, need no grid table at n <= 3; on a law
    # with no density d+_k is exact for every k, so they need none at any n
    stale = [key for key in FR._TABLE_CACHE if key[0] == law.cache_key()]
    for key in stale:
        del FR._TABLE_CACHE[key]
    rule = S.spe_strategy(law, n, "full_recall", "best").player1
    S.play(law, n, "full_recall", rule, rule, 2000, seed=3)
    assert not [key for key in FR._TABLE_CACHE if key[0] == law.cache_key()]


@pytest.mark.parametrize("law, horizon", [(D.two_point(), 6), (FOUR_ATOMS, 5)], ids=["two_point", "four_atoms"])
def test_exact_certificate_is_zero_on_equilibrium_profiles(law, horizon):
    # with recall on a law with no density the DP runs in exact arithmetic
    for n in range(1, horizon + 1):
        for which in ("best", "worst"):
            assert S.spe_gap(law, n, "full_recall", which) == 0.0, (n, which)


def _one_atom_lower(rule, law):
    """A reply that bids at (a, b) where ``rule`` bids at (a', b), a' the atom
    below a (0 below the lowest): it waits one atom too long."""
    xs = np.array([x for x, _ in law.atoms])
    below = np.concatenate(([0.0], xs))
    return S.Strategy("one-atom-lower", lambda t, k, a, b: rule.bid_prob(t, k, below[np.searchsorted(xs, a)], b))


#: repr of the exact gap of the one-atom-late reply at n = 4, best profile
DELAYED_GAP_REPRS = {"two_point": "0.03125", "four_atoms": "0.051953125"}


@pytest.mark.parametrize("name", sorted(DELAYED_GAP_REPRS))
def test_exact_certificate_prices_a_reply_one_atom_late(name):
    law = NO_DENSITY_LAWS[name]
    rule = S.spe_strategy(law, 4, "full_recall", "best").player1
    gap = S.best_response_gap(law, 4, "full_recall", rule, _one_atom_lower(rule, law))
    assert gap > 0.0
    assert repr(gap) == DELAYED_GAP_REPRS[name]


def _fraction_gap(law, n, opponent, reply):
    """Reference for the exact full-recall gap: the same backward induction as
    a plain recursion over the states (a, b), in Fraction throughout."""
    atoms = O.atoms_from_distribution(law)
    cdf = list(itertools.accumulate(m for _, m in atoms))

    def lone(k, b):  # E(max(X_1..X_k) v b)
        return sum(max(x, b) * (F**k - (F - m) ** k) for (x, m), F in zip(atoms, cdf))

    def bid_prob(rule, t, k, a, b):
        p = rule.bid_prob(t, k, np.array([float(a)]), np.array([float(b)]))
        return Fraction(float(np.clip(np.broadcast_to(p, (1,))[0], 0.0, 1.0)))

    @functools.cache
    def values(t, a, b):  # (best reply, reply) after the t-th arrival
        if t == n:
            return ((a + b) / 2,) * 2
        k = n - t
        q, p, c = bid_prob(opponent, t, k, a, b), bid_prob(reply, t, k, a, b), lone(k, b)
        w_br, w_eq = (sum(m * values(t + 1, max(a, x), min(max(x, b), a))[i] for x, m in atoms) for i in (0, 1))
        bid = q * (a + c) / 2 + (1 - q) * a
        return max(bid, q * c + (1 - q) * w_br), p * bid + (1 - p) * (q * c + (1 - q) * w_eq)

    return float(sum(m * (values(1, x, Fraction(0))[0] - values(1, x, Fraction(0))[1]) for x, m in atoms))


@pytest.mark.parametrize("name", sorted(NO_DENSITY_LAWS))
def test_exact_certificate_matches_a_fraction_recursion(name):
    law = NO_DENSITY_LAWS[name]
    # fractional bid probabilities that depend on both a and b
    mixed = S.Strategy("mixed", lambda t, k, a, b: np.clip(2.0 * a - b - 0.3 * k, 0.0, 1.0))
    for n in (1, 2, 3, 4):
        rule = S.spe_strategy(law, n, "full_recall", "best").player1
        threshold = S.threshold_strategy({1: 0.6, 2: 0.55, 3: 0.5})
        for opponent, reply in ((rule, rule), (rule, threshold), (mixed, mixed), (mixed, _one_atom_lower(rule, law))):
            got = S.best_response_gap(law, n, "full_recall", opponent, reply)
            assert got == _fraction_gap(law, n, opponent, reply), (n, opponent.name, reply.name)


def test_exact_expectation_keeps_every_digit_past_int64():
    # the level's numerators are dotted in int64 only while no partial sum
    # can reach 2**63; past that on Python ints, with the same sums
    rng = np.random.default_rng(63)
    nxt = rng.integers(0, 50, size=(40, 7))
    masses = np.array([int(m) for m in rng.integers(1, 1000, size=7)], dtype=object)
    top = 2**63 // int(masses.sum())
    for high in (top - 1, 2 * top - 1, 2**70):
        num = np.array([high - int(x) for x in rng.integers(0, 10**6, size=50)], dtype=object)
        got = S._expect_exact(num, nxt, masses)
        assert got.dtype == object
        assert got.tolist() == [sum(int(num[s]) * int(m) for s, m in zip(row, masses)) for row in nxt]


def test_laws_with_no_density_build_no_grid(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a law with no density built a triangle grid")

    monkeypatch.setattr(TriangleContext, "__init__", refuse)
    for law, n in ((D.two_point(), 6), (FOUR_ATOMS, 5)):
        for which in ("best", "worst"):
            prof = S.spe_strategy(law, n, "full_recall", which)
            S.play(law, n, "full_recall", prof.player1, prof.player2, 2000, seed=1)
            S.spe_gap(law, n, "full_recall", which)
        FR.band(law, n)
        ratios(law, n, "full_recall")


#: sha256 of repr((mean, stderr, stderr_sum)) of the fixed-seed plays of the
#: two-point law's profiles, recorded while the best profile read d+_k for
#: k >= 3 from a G = 1001 grid: the exact d+_k flips no decision
TWO_POINT_PLAY_DIGESTS = {
    4: "c259f3a47d03dd59d7c716232fd528e8b38da06a2724521b1388c420d7b08680",
    5: "f047efd3e5139ec916aa01ffc4711f72480b8a53e73ea2b892285675f7a163ec",
    6: "d97140ca167ca77f611caeeb5045b33452ad39909ecfdc327a36c1baeedda4d7",
}


@pytest.mark.parametrize("which", ["best", "worst"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_two_point_plays_pinned(n, which):
    # on this law the best and worst profiles make the same decisions
    prof = S.spe_strategy(D.two_point(), n, "full_recall", which)
    rep = S.play(D.two_point(), n, "full_recall", prof.player1, prof.player2, 20_000, seed=7)
    key = repr((rep.mean, rep.stderr, rep.stderr_sum))
    assert hashlib.sha256(key.encode()).hexdigest() == TWO_POINT_PLAY_DIGESTS[n]


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
    # every block reads its own rows of the draw segments of the stream.  A
    # player's uniforms are read only in the blocks where their rule mixes:
    # `band` mixes on a band of a, which a block of 7 runs often misses, so
    # the blocks' player offsets are compared across block sizes
    grab = S.threshold_strategy({1: 0.8, 2: 0.6, 3: 0.5}, "grab")
    band = S.Strategy("band", lambda t, k, a, b: np.where(a >= 0.75, 1.0, np.where((a > 0.4) & (a < 0.5), 0.5, 0.0)))
    pairs = [(grab, S.never_bid()), (band, band), (grab, band)]
    reports = []
    for block in (7, 1000, 1_000_000):
        monkeypatch.setattr(S, "PLAY_BLOCK_RUNS", block)
        for variant in ("full_recall", "no_recall"):
            for s1, s2 in pairs:
                reports.append(S.play(law, 4, variant, s1, s2, 4001, seed=9, collect_traces=True))
    plays = len(reports) // 3
    for got, want in zip(reports[: 2 * plays], reports[plays:]):
        assert got.mean == want.mean and got.stderr == want.stderr
        for key in ("taken_stage", "payoff1", "payoff2"):
            np.testing.assert_array_equal(got.traces[key], want.traces[key])


class _RecordedStream:
    """A generator of play's stream that logs each read as (segment, first
    double within the segment, count)."""

    def __init__(self, rng, offset, segment_size, log):
        self.rng, self.at, self.size, self.log = rng, offset, segment_size, log

    def random(self, shape):
        out = self.rng.random(shape)
        self.log.append(("read", self.at // self.size, self.at % self.size, out.size))
        self.at += out.size
        return out


def _logged_play(monkeypatch, law, n, variant, s1, s2, runs, seed):
    """Play with every read of the stream logged, and with a ("mixed", flag)
    entry for each bid_prob call, the flag saying whether it returned a
    probability strictly between 0 and 1."""
    log = []
    stream_at = S._stream_at
    monkeypatch.setattr(
        S, "_stream_at", lambda key, offset: _RecordedStream(stream_at(key, offset), offset, runs * n, log)
    )

    def logged(strategy):
        def prob(t, k, a, b):
            p = strategy.bid_prob(t, k, a, b)
            log.append(("mixed", bool(np.any((p > 0.0) & (p < 1.0)))))
            return p

        return S.Strategy(strategy.name, prob)

    p1 = logged(s1)
    p2 = p1 if s2 is s1 else logged(s2)
    S.play(law, n, variant, p1, p2, runs, seed=seed)
    return log


@pytest.mark.parametrize(
    "law, n, variant, which",
    [
        (D.uniform(), 3, "full_recall", "worst"),
        (D.uniform(), 3, "full_recall", "best"),
        (D.uniform(), 4, "no_recall", "best"),
    ],
    ids=["fr-worst", "fr-best", "nr-best"],
)
def test_profiles_that_never_mix_read_values_and_coins_alone(law, n, variant, which, monkeypatch):
    prof = S.spe_strategy(law, n, variant, which)
    runs = 2 * S.PLAY_BLOCK_RUNS + 5
    log = _logged_play(monkeypatch, law, n, variant, prof.player1, prof.player2, runs, 4)
    assert not any(entry[1] for entry in log if entry[0] == "mixed")
    reads = [entry[1:] for entry in log if entry[0] == "read"]
    assert {segment for segment, _, _ in reads} == {0, 3}
    for segment in (0, 3):
        starts = [(at, count) for s, at, count in reads if s == segment]
        # the segment's rows, block after block, each double once
        blocks = range(0, runs, S.PLAY_BLOCK_RUNS)
        assert starts == [(r0 * n, (min(runs, r0 + S.PLAY_BLOCK_RUNS) - r0) * n) for r0 in blocks]


def test_mixing_profile_reads_player_uniforms_where_it_mixes(monkeypatch):
    # the no-recall worst profile mixes on a band of values at stages 1 and
    # 2; in blocks of 3 runs some blocks meet the band and others do not
    block, runs, n = 3, 301, 3
    monkeypatch.setattr(S, "PLAY_BLOCK_RUNS", block)
    prof = S.spe_strategy(D.uniform(), n, "no_recall", "worst")
    log = _logged_play(monkeypatch, D.uniform(), n, "no_recall", prof.player1, prof.player2, runs, 12)
    mixed_blocks, read_blocks = set(), {1: [], 2: []}
    blocks = -1
    for entry in log:
        if entry[0] == "mixed":
            if entry[1]:
                mixed_blocks.add(blocks)
            continue
        _, segment, at, count = entry
        if segment == 0:
            blocks += 1
        if segment in (1, 2):
            # a player's rows of the block being played, read whole, once
            assert at == blocks * block * n and count == (min(runs, (blocks + 1) * block) - blocks * block) * n
            read_blocks[segment].append(blocks)
    assert blocks + 1 == -(-runs // block)
    assert 0 < len(mixed_blocks) < blocks + 1
    assert read_blocks[1] == read_blocks[2] == sorted(mixed_blocks)


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
