import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import stored_triangle, triangle_cells
from test_distributions import EPS, LAWS, _panti, _peval
from test_simulate import NO_DENSITY_LAWS

from selection_games import distributions as D
from selection_games import full_recall as FR
from selection_games import simulate as S
from selection_games.cli import run
from selection_games.efficiency import ratios, tightness_family
from selection_games.errors import InconsistencyError, SpecValidationError
from selection_games.prophet import prophet_values
from selection_games.testkit import (
    GRID_BAND_TOL,
    beta_distribution,
    continuous_test_laws,
    two_point_best_value,
)

SMALL = FR.GridConfig(size=401)
TWO_PIECE = dict(continuous_test_laws())["tilted-step"]


def test_horizon_zero_is_even_split():
    assert FR.lh_values(D.uniform(), 0, 0.6, 0.2) == (0.4, 0.4)


def test_argument_order_enforced():
    with pytest.raises(SpecValidationError):
        FR.lh_values(D.uniform(), 1, 0.2, 0.6)


def test_uniform_one_arrival_closed_form():
    for a, b in [(0.0, 0.0), (0.5, 0.2), (1.0, 1.0), (0.7, 0.7)]:
        lo, hi = FR.closed_forms(D.uniform(), 1, a, b)
        want = a / 2 + (1 + b * b) / 4
        assert lo == pytest.approx(want, abs=1e-12)
        assert hi == pytest.approx(want, abs=1e-12)
        grid_lo, grid_hi = FR.lh_values(D.uniform(), 1, a, b, SMALL)
        assert grid_lo == pytest.approx(want, abs=1e-6)
        assert grid_hi == pytest.approx(want, abs=1e-6)


def test_uniform_two_arrival_branches():
    lo, hi = FR.closed_forms(D.uniform(), 2, 0.0, 0.0)
    assert (lo, hi) == (pytest.approx(0.5), pytest.approx(0.5))
    lo, _ = FR.closed_forms(D.uniform(), 2, 0.9, 0.0)
    assert lo == pytest.approx(0.9 / 2 + 1 / 3, abs=1e-12)


def test_uniform_three_arrival_exact_values():
    lo, hi = FR.closed_forms(D.uniform(), 3, 0.0, 0.0)
    assert lo == pytest.approx(607 / 972, abs=1e-12)
    # frozen bisection + polynomial-integral oracle value
    assert hi == pytest.approx(0.6245510355658551, abs=1e-12)


def test_best_threshold_root():
    # the first arrival of the uniform best profile with 2 arrivals to come
    # bids above the root of a = d_2(a, 0) = (1 + a^2)/2 - a^3/6
    law, astar = D.uniform(), 0.6778146453739142
    assert FR.pass_value(law, 2, astar, law.expect_order_max_with(2, 0.0)) == pytest.approx(astar, abs=1e-12)
    assert (1 + astar**2) / 2 - astar**3 / 6 == pytest.approx(astar, abs=1e-12)
    rule = S.spe_strategy(law, 3, "full_recall", "best").player1
    a = np.array([astar - 1e-9, astar + 1e-9])
    assert np.array_equal(rule.bid_prob(1, 2, a, np.zeros(2)), [0.0, 1.0])


def test_closed_forms_reject_other_horizons():
    for n in (0, 4):
        with pytest.raises(SpecValidationError):
            FR.closed_forms(D.uniform(), n, 0.0, 0.0)
    with pytest.raises(SpecValidationError):
        FR.pass_value(D.uniform(), 3, 0.5, 0.75)
    with pytest.raises(SpecValidationError):
        FR.closed_forms(D.uniform(), 3, 0.2, 0.6)


def test_grid_matches_closed_forms_on_triangle():
    # agreement at a tighter grid on a coarse triangle sample, each side in
    # one call over the 1275 points
    grid = FR.GridConfig(size=2001)
    pts = [(a, b) for a in np.linspace(0, 1, 50) for b in np.linspace(0, 1, 50) if b <= a]
    a, b = np.array(pts).T
    for n in (1, 2, 3):
        got = FR.lh_values(D.uniform(), n, a, b, grid)
        want = FR.closed_forms(D.uniform(), n, a, b)
        worst_err = np.max(np.abs(got[0] - want[0]))
        best_err = np.max(np.abs(got[1] - want[1]))
        assert worst_err < 1e-4
        assert best_err < 1e-4


EDGE_ATOMS = D.discrete([(0.0, 0.2), (0.25, 0.3), (0.6, 0.1), (1.0, 0.4)])


@pytest.mark.parametrize(
    "law",
    [D.two_point(), D.discrete([(0.15, 0.1), (0.35, 0.4), (0.7, 0.3), (0.85, 0.2)]), EDGE_ATOMS],
    ids=["two_point", "four_atoms", "edge_atoms"],
)
def test_closed_forms_match_exact_recursion_at_atom_states(law):
    # every state reachable from (0, 0): a >= b among the atoms and 0
    # (measured: at most 3.3e-16 apart)
    xs = sorted({0.0} | {x for x, _ in law.atoms})
    pts = [(a, b) for a in xs for b in xs if b <= a]
    a, b = np.array(pts).T
    for n in (1, 2, 3):
        want = FR.lh_values(law, n, a, b)  # the exact recursion on a law with no density
        got = FR.closed_forms(law, n, a, b)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


#: |band(law, 3, G = 1001) - closed_forms(law, 3, 0, 0)|, the larger of its
#: worst and best ends, as measured, and the bound each is held to
GRID_ERRORS_AT_THREE = {
    "uniform": (D.uniform(), 1.70e-6, 2.0e-6),
    "beta22": (beta_distribution(2, 2), 2.05e-6, 2.5e-6),
    "beta35": (beta_distribution(3, 5), 1.25e-6, 1.5e-6),
    "tightness": (tightness_family(0.1, 0.05), 1.05e-8, 1.3e-8),
    "atom_at_0.6": (D.mixture_with_uniform(0.5, D.discrete([(0.6, 1.0)])), 3.48e-7, 4.2e-7),
}


@pytest.mark.parametrize("name", sorted(GRID_ERRORS_AT_THREE))
def test_grid_band_within_measured_error_of_closed_forms(name):
    law, measured, bound = GRID_ERRORS_AT_THREE[name]
    assert bound <= 1.5 * measured
    b = FR.band(law, 3, FR.GridConfig(size=1001))
    low, high = FR.closed_forms(law, 3, 0.0, 0.0)
    assert max(abs(b.low - low), abs(b.high - high)) <= bound


@pytest.mark.parametrize(
    "law",
    [
        D.uniform(),
        tightness_family(0.1, 0.05),
        D.two_point(),
        D.discrete([(0.2, 0.5), (0.7, 0.5)]),
        D.discrete([(0.125, 0.25), (0.375, 0.25), (0.625, 0.25), (0.875, 0.25)]),
    ],
    ids=["uniform", "tightness", "two_point", "two_atoms", "eighths"],
)
def test_lh_values_on_arrays_match_scalar_calls(law):
    grid = FR.GridConfig(size=201)
    pts = [(a, b) for a in np.linspace(0, 1, 21) for b in np.linspace(0, 1, 21) if b <= a]
    a, b = np.array(pts).T
    # on a law with no density the array call's states share the lattice's levels
    for n in (0, 1, 3) if law.pieces else (0, 1, 3, 6):
        low, high = FR.lh_values(law, n, a, b, grid)
        scalar = [FR.lh_values(law, n, x, y, grid) for x, y in pts]
        assert all(type(v) is float for pair in scalar for v in pair)
        assert np.array_equal(low, [pair[0] for pair in scalar])
        assert np.array_equal(high, [pair[1] for pair in scalar])
    with pytest.raises(SpecValidationError):
        FR.lh_values(law, 2, a, a + 0.01, grid)


def _brute_force_levels(atoms, n):
    """The states reachable from (0, 0) in 1..n arrivals, listed with Python
    sets, as index pairs into the sorted values."""
    levels = [{(0, 0)}]
    for _ in range(n):
        levels.append({(max(i, x), min(max(x, j), i)) for i, j in levels[-1] for x in atoms})
    return levels


LATTICE_LAWS = {
    "two_point": [1 / 3, 2 / 3],
    "tenths": [0.1, 0.4, 0.6, 0.9],
    "thirteen": [(i + 1) / 14 for i in range(13)],
}


@pytest.mark.parametrize("name", sorted(LATTICE_LAWS))
@pytest.mark.parametrize("n", range(1, 7))
def test_atom_lattice_matches_brute_force_listing(name, n):
    xs = LATTICE_LAWS[name]
    values = np.array([0.0] + xs)
    atoms = np.arange(1, len(values))
    states, tables, inverse = FR.atom_lattice(atoms, [0], [0], n)
    assert len(states) == n + 1 and len(tables) == n and inverse.tolist() == [0]
    m = len(xs)
    for level, want, (i, j) in zip(range(n + 1), _brute_force_levels(atoms.tolist(), n), states):
        keys = list(zip(i.tolist(), j.tolist()))
        assert keys == sorted(set(keys)) == sorted(want)
        assert len(keys) <= (m + 1) * (m + 2) // 2
        if level < n:
            ni, nj = states[level + 1]
            a, b, x = values[i][:, None], values[j][:, None], values[atoms][None, :]
            nxt = tables[level]
            assert nxt.shape == (len(keys), m)
            assert np.array_equal(values[ni[nxt]], np.maximum(a, x))
            assert np.array_equal(values[nj[nxt]], np.minimum(np.maximum(x, b), a))


def test_band_two_point_matches_closed_form():
    tp = D.two_point()
    for n in range(2, 8):
        b = FR.band(tp, n)
        want = float(two_point_best_value(n))
        assert b.low == pytest.approx(want, abs=1e-12)
        assert b.high == pytest.approx(want, abs=1e-12)


def test_band_low_high_example():
    b = FR.band(D.discrete([(0.1, 0.5), (0.5, 0.5)]), 2)
    assert b.high == pytest.approx(0.3, abs=1e-12)


def test_band_nondecreasing_in_horizon():
    prev = (0.0, 0.0)
    for n in range(1, 6):
        b = FR.band(D.uniform(), n, SMALL)
        assert b.low >= prev[0] - 1e-9 and b.high >= prev[1] - 1e-9
        assert b.low <= b.high + 1e-9
        prev = (b.low, b.high)


def test_tables_monotone_in_state():
    """Values are monotone in the second-best value b everywhere, and in the
    best value a away from branch switches for small horizons.

    Global a-monotonicity is false: the two-arrival worst value drops from
    d = 0.6728 to (a + c)/2 = 2/3 as a crosses c(b) = 2/3 (both-bid becomes
    an equilibrium there), and deeper stages inherit a shallow dip (~1e-3)
    where that drop curve sweeps through the arrival integral.
    """
    ctx, tables = FR.grid_tables(D.uniform(), 3, SMALL)
    g = ctx.g
    ii, jj = np.tril_indices(SMALL.size - 1)
    for n in (1, 2, 3):
        T = tables[n].low
        diffs_b = np.diff(T, axis=1)
        assert np.all(diffs_b[ii + 1, jj] >= -1e-9)
        tri = np.tril_indices(SMALL.size)
        assert np.all(T[tri] >= (np.add.outer(g, g) / 2)[tri] - 1e-9)
        if n <= 2:
            bid_branch = g[:, None] > ctx.lone_values(n)[None, :]
            diffs_a = np.diff(T, axis=0)
            same_branch = bid_branch[:-1, :] == bid_branch[1:, :]
            assert np.all(diffs_a[ii, jj][same_branch[ii, jj]] >= -1e-9)
        else:
            # the dip stays shallow
            assert np.min(np.diff(T, axis=0)[ii, jj]) > -5e-3


def test_lower_bound_via_lone_player_value():
    # expected worst value after a joint state refresh dominates the
    # half-sum of the standing value and the next lone-player value
    for law in (D.uniform(), beta_distribution(2, 2)):
        ctx, tables = FR.grid_tables(law, 4, SMALL)
        g = ctx.g
        for k in (2, 3, 4):
            c_k = prophet_values(law, k)[k]
            cap = law.expect_order_max_with(k, 0.0)
            mask = g <= cap
            dmin = tables[k].dminus[ctx.row_starts]  # the column b = 0 of the stored triangle
            assert np.all(dmin[mask] >= (g[mask] + c_k) / 2 - 1e-9)


@pytest.mark.parametrize(
    "law",
    [D.uniform(), beta_distribution(2, 2), tightness_family(0.1, 0.05)],
    ids=["uniform", "beta22", "tightness"],
)
def test_stage_cache_keeps_only_continuations(law, monkeypatch):
    G, n = 201, 5
    key = (law.cache_key(), G)
    FR._TABLE_CACHE.pop(key, None)
    passes = []
    expect = FR.TriangleContext.expect_over_arrival

    def counted(self, *args, **kwargs):
        passes.append(1)
        return expect(self, *args, **kwargs)

    monkeypatch.setattr(FR.TriangleContext, "expect_over_arrival", counted)
    ctx, tables = FR.grid_tables(law, n, FR.GridConfig(size=G))
    monkeypatch.undo()
    assert FR._TABLE_CACHE[key][1] is tables
    # one expectation pass per stored triangle
    assert len(passes) == 2 * n - 2
    # what the cache entry holds: dminus and dplus per stage k >= 1, each a
    # stored triangle, and no G x G table, in the stages or the context
    held = list(vars(ctx).values())
    for stage in tables:
        held += [getattr(stage, f.name) for f in dataclasses.fields(stage)]
    arrays = [v for v in held if isinstance(v, np.ndarray)]
    tri = [v for v in arrays if v.shape == (ctx.stored_size,) and v.dtype == np.float64]
    assert len(tri) == 2 * n
    # at k <= 2 the worst and best values of stage k - 1 are one function (the
    # even split, then (a + c_1(b))/2): one array; two at every later stage
    assert [st.dminus is st.dplus for st in tables[1:]] == [True, True] + [False] * (n - 2)
    distinct = {id(v): v for v in tri}
    assert len(distinct) == 2 * n - 2
    assert sum(v.nbytes for v in distinct.values()) == (2 * n - 2) * 8 * ctx.stored_size
    # each holds the G(G + 1)/2 cells b <= a, and padding
    assert all(triangle_cells(ctx, v).shape == (G * (G + 1) // 2,) for v in tri)
    assert [st.dminus is None and st.dplus is None for st in tables] == [True] + [False] * n
    # every other float array is a grid line, and the one mask of the
    # triangle blocks is a block of rows: no (G, G) table is held
    rest = [v for v in arrays if not any(v is t for t in tri)]
    assert all(v.size <= G for v in rest if v.dtype != bool)
    assert all(v.shape[0] <= ctx.row_blocks[0].stop for v in rest if v.dtype == bool)

    # low and high, derived on demand, are the stage rule applied to the
    # stored continuations, then mirrored: the worst bids where a >= c, the
    # best where a > max(c, d)
    even = np.add.outer(ctx.g, ctx.g) / 2.0  # mirrored as it stands: a + b rounds as b + a does
    assert np.array_equal(tables[0].low, even) and np.array_equal(tables[0].high, even)
    a_col = ctx.g[:, None]
    for k in range(1, n + 1):
        st = tables[k]
        cb = ctx.lone_values(k)[None, :]
        dminus, dplus = ctx.mirrored(st.dminus), ctx.mirrored(st.dplus)
        low = ctx.mirrored(stored_triangle(ctx, np.where(a_col >= cb, (a_col + cb) / 2.0, dminus)))
        high = np.where((a_col > cb) & (a_col > dplus), (a_col + cb) / 2.0, dplus)
        assert np.array_equal(st.low, low)
        assert np.array_equal(st.high, ctx.mirrored(stored_triangle(ctx, high)))
        b = FR.band(law, k, FR.GridConfig(size=G))
        assert b.low == st.low[0, 0] and b.high == st.high[0, 0]
        assert FR.lh_values(law, k, 0.0, 0.0, FR.GridConfig(size=G)) == (b.low, b.high)


@pytest.mark.parametrize("name", sorted(NO_DENSITY_LAWS))
def test_one_arrival_worst_and_best_agree_exactly(name):
    # max(a, X) + med[a, b, X] = a + max(b, X), so d_1 = (a + c_1(b))/2, the
    # bid payoff: low_1 = high_1, which lets d-_2 and d+_2 be one table
    u = np.random.default_rng(2027).random((2, 2000))
    low, high = FR.lh_values(NO_DENSITY_LAWS[name], 1, u.max(axis=0), u.min(axis=0))
    assert np.array_equal(low.view(np.int64), high.view(np.int64))


@pytest.mark.parametrize(
    "law",
    [D.uniform(), beta_distribution(2, 2), tightness_family(0.1, 0.05)],
    ids=["uniform", "beta22", "tightness"],
)
def test_one_arrival_worst_and_best_agree_on_the_grid(law):
    # on the grid the two rules read d_1 as a sum over the cells, so they part
    # on a few cells where a and c_1(b) nearly tie; both stay within the
    # measured 6.9e-15 (uniform) of (a + c_1(b))/2
    ctx, tables = FR.grid_tables(law, 2, FR.GridConfig(size=1001))
    i, j = np.tril_indices(1001)
    exact = (ctx.g[i] + law.order_max_with_vec(1, ctx.g[j])) / 2.0
    for best in (False, True):
        assert np.max(np.abs(triangle_cells(ctx, tables[1]._values(best)) - exact)) <= 6.9e-15


def _dense_bilinear(ctx, T, x, y):
    """Reference for TriangleContext.bilinear: the same interpolation read
    off a mirrored G x G table T by its indices."""
    G = ctx.grid.size
    xs = np.clip(np.asarray(x, dtype=float), 0.0, 1.0) / ctx.h
    ys = np.clip(np.asarray(y, dtype=float), 0.0, 1.0) / ctx.h
    i = np.clip(xs.astype(int), 0, G - 2)
    j = np.clip(ys.astype(int), 0, G - 2)
    fx = xs - i
    fy = ys - j
    t00, t10, t01, t11 = T[i, j], T[i + 1, j], T[i, j + 1], T[i + 1, j + 1]
    square = t00 * (1 - fx) * (1 - fy) + t10 * fx * (1 - fy) + t01 * (1 - fx) * fy + t11 * fx * fy
    lower_tri = t00 + (t10 - t00) * (fx - fy) + (t11 - t00) * fy
    return np.where((i == j) & (fx >= fy), lower_tri, square)


@pytest.mark.parametrize("law", [beta_distribution(2, 2), tightness_family(0.1, 0.05)], ids=["beta22", "tightness"])
def test_bilinear_reads_packed_triangle_as_mirrored_table(law, rng):
    G = 201
    ctx, tables = FR.grid_tables(law, 3, FR.GridConfig(size=G))
    g = ctx.g
    x, y = np.sort(rng.random((2, 10**4)), axis=0)[::-1]
    # inside every diagonal cell (fx >= fy), at its corners, and on the edges
    cell = g[:-1, None] + ctx.h * np.sort(rng.random((G - 1, 2)), axis=1)[:, ::-1]
    edge = np.linspace(0.0, 1.0, 1001)
    xs = np.concatenate([x, cell[:, 0], g, g[1:], np.ones_like(edge), edge])
    ys = np.concatenate([y, cell[:, 1], g, g[:-1], edge, np.zeros_like(edge)])
    assert np.all(xs >= ys)
    for st in tables[1:]:
        for stored in (st.dminus, st.dplus):
            want = _dense_bilinear(ctx, ctx.mirrored(stored), xs, ys)
            assert np.array_equal(ctx.bilinear(stored, xs, ys), want)


@pytest.mark.parametrize("G, spans", [(201, [(163, 201), (0, 163)]), (57, [(0, 57)])])
def test_triangle_blocks_cover_the_triangle_once(G, spans):
    ctx = FR.TriangleContext(D.uniform(), FR.GridConfig(size=G))
    walk = list(ctx.triangle_blocks())
    # the last block first; at G = 201 two blocks of unequal height
    assert [(rows.start, rows.stop) for rows, _, _ in walk] == spans
    hits = np.zeros((G, G), dtype=int)
    for rows, stop, on_tri in walk:
        assert on_tri.shape == (rows.stop - rows.start, stop)
        hits[rows, :stop] += on_tri
    # every cell with b <= a once, none with b > a
    assert np.array_equal(hits, np.tri(G, dtype=int))
    [(rows, stop, on_tri)] = ctx.triangle_blocks(1)
    assert (rows, stop) == (slice(0, G), 1)
    assert on_tri.shape == (G, 1) and on_tri.all()


def test_pass_dominance_check_active():
    # building tables runs the structural check; reaching here means no
    # violation was raised for these laws
    FR.grid_tables(D.uniform(), 5, SMALL)
    FR.grid_tables(D.mixture_with_uniform(0.5, D.discrete([(0.6, 1.0)])), 3, SMALL)


def test_pass_dominance_check_reads_the_triangle_only():
    ctx = FR.TriangleContext(D.uniform(), FR.GridConfig(size=201))
    assert [rows.stop for rows in ctx.row_blocks] == [163, 201]
    # passing is worth 1 >= a everywhere on the triangle; its padding cells
    # b > a of the diagonal tiles, zero here, are no states
    d = stored_triangle(ctx, np.ones((201, 201)))
    FR._check_pass_dominance(ctx, 1, d)
    # a = 0.9 <= c_1(0.895) = 0.9005 on the second block's diagonal tile
    d[ctx.row_starts[180] + 179] = 0.5
    with pytest.raises(InconsistencyError, match=r"grid node \(180, 179\)"):
        FR._check_pass_dominance(ctx, 1, d)


def test_band_for_mixed_law_brackets_components():
    mixed = D.mixture_with_uniform(0.5, D.discrete([(0.6, 1.0)]))
    b = FR.band(mixed, 3, SMALL)
    assert 0.0 < b.low <= b.high < 1.0


# -- atom path of the grid engine --------------------------------------------------------


def _dense_expect_over_arrival(ctx, T):
    """Reference for TriangleContext.expect_over_arrival on a mirrored G x G
    table T: the density part as running sums over the whole rows and columns
    of T, plus every atom evaluated cell by cell over the whole G x G grid;
    atoms at or below b add nothing beyond F(b) T(a, b).  The engine's stored
    result is its cells b <= a."""
    G = ctx.grid.size
    g, rho, phi = ctx.g, ctx.rho, ctx.phi
    cells_row = T[:, :-1] * rho[None, :] + T[:, 1:] * phi[None, :]
    crow = np.concatenate([np.zeros((G, 1)), np.cumsum(cells_row, axis=1)], axis=1)
    row_part = crow[np.arange(G), np.arange(G)][:, None] - crow
    cells_col = T[:-1, :] * rho[:, None] + T[1:, :] * phi[:, None]
    pcol = np.concatenate([np.zeros((1, G)), np.cumsum(cells_col, axis=0)], axis=0)
    col_suffix = pcol[-1, np.arange(G)] - pcol[np.arange(G), np.arange(G)]
    out = ctx.F[None, :] * T + row_part + col_suffix[:, None]
    stored = stored_triangle(ctx, T)
    for x_star, mass in ctx.atoms:
        alo = np.maximum(g, x_star)[:, None]
        mid = np.minimum(np.maximum(x_star, g[None, :]), g[:, None])
        vals = ctx.bilinear(stored, np.broadcast_to(alo, (G, G)), mid)
        out = out + mass * np.where(g[None, :] < x_star, vals, 0.0)
    return out


LOWER = np.tril_indices(201)


@pytest.mark.parametrize(
    "law",
    [D.two_point(), tightness_family(0.1, 0.05), EDGE_ATOMS, D.mixture_with_uniform(0.3, EDGE_ATOMS)],
    ids=["two_point", "tightness", "edge_atoms", "edge_atoms_mixture"],
)
def test_atom_path_matches_dense_reference(law, rng):
    ctx = FR.TriangleContext(law, FR.GridConfig(size=201))
    assert 0.25 in ctx.g  # one atom sits exactly on a grid node
    for _ in range(3):
        stored = stored_triangle(ctx, rng.random((201, 201)))
        want = _dense_expect_over_arrival(ctx, ctx.mirrored(stored))[LOWER]
        assert np.array_equal(triangle_cells(ctx, ctx.expect_over_arrival(stored)), want)


def test_atomless_expectation_unchanged(rng):
    for law in (D.uniform(), beta_distribution(2, 2), TWO_PIECE):
        # 201 rows make two row blocks of unequal height
        ctx = FR.TriangleContext(law, FR.GridConfig(size=201))
        assert len(ctx.row_blocks) == 2
        stored = stored_triangle(ctx, rng.random((201, 201)))
        want = _dense_expect_over_arrival(ctx, ctx.mirrored(stored))[LOWER]
        assert np.array_equal(triangle_cells(ctx, ctx.expect_over_arrival(stored)), want)


@pytest.mark.parametrize(
    "law",
    [D.uniform(), D.two_point(), EDGE_ATOMS, D.mixture_with_uniform(0.3, EDGE_ATOMS)],
    ids=["uniform", "two_point", "edge_atoms", "edge_atoms_mixture"],
)
def test_leading_columns_match_full_table(law, rng):
    # atoms at 0 (never added to a column), on a node, inside and at 1
    ctx = FR.TriangleContext(law, FR.GridConfig(size=201))
    assert len(ctx.row_blocks) == 2  # of unequal height
    stored = stored_triangle(ctx, rng.random((201, 201)))
    want = _dense_expect_over_arrival(ctx, ctx.mirrored(stored))[:, 0]
    column = ctx.expect_over_arrival(stored, 1)
    assert column.shape == (201,) and np.array_equal(column, want)
    # written over the leading values of the table it reads
    inplace = stored.copy()
    got = ctx.expect_over_arrival(inplace, 1, out=inplace[:201])
    assert np.shares_memory(got, inplace) and np.array_equal(got, want)


@pytest.mark.parametrize(
    "law",
    [D.uniform(), beta_distribution(2, 2), tightness_family(0.1, 0.05)],
    ids=["uniform", "beta22", "tightness"],
)
def test_packed_expectation_matches_mirrored_table(law, rng):
    ctx = FR.TriangleContext(law, FR.GridConfig(size=201))
    assert len(ctx.row_blocks) == 2  # of unequal height
    for _ in range(2):
        cells = rng.random(201 * 202 // 2)
        stored = stored_triangle(ctx, cells)
        T = ctx.mirrored(stored)
        assert np.array_equal(T, T.T) and np.array_equal(T[LOWER], cells)
        full = _dense_expect_over_arrival(ctx, T)
        # the stored result's cells are the dense one's lower triangle, bit for bit
        got = ctx.expect_over_arrival(stored)
        assert got.shape == stored.shape and np.array_equal(triangle_cells(ctx, got), full[LOWER])
        inplace = stored.copy()
        assert ctx.expect_over_arrival(inplace, out=inplace) is inplace
        assert np.array_equal(triangle_cells(ctx, inplace), full[LOWER])
        # cols == 1: the column b = 0 as a G-vector
        column = ctx.expect_over_arrival(stored, 1)
        assert column.shape == (201,) and np.array_equal(column, full[:, 0])
        out = np.empty(201)
        assert ctx.expect_over_arrival(stored, 1, out=out) is out and np.array_equal(out, column)
    with pytest.raises(SpecValidationError):
        ctx.expect_over_arrival(stored, 2)
    # a packed triangle of G(G + 1)/2 values is no stored triangle: refused
    for read in (ctx.expect_over_arrival, ctx.mirrored, lambda P: ctx.bilinear(P, 0.5, 0.25)):
        with pytest.raises(SpecValidationError, match="stored triangle"):
            read(cells)


def test_malformed_tables_are_refused():
    ctx = FR.TriangleContext(D.two_point(), FR.GridConfig(size=101))
    square, stored = np.ones((101, 101)), np.ones(ctx.stored_size)
    # bilinear and mirrored read a stored triangle alone: no G x G table, no
    # table of another shape, no 2-D table of the stored triangle's size
    for table in (square, np.ones((101, 100)), stored[None, :], stored[:, None], np.float64(1.0)):
        for read in (ctx.mirrored, lambda P: ctx.bilinear(P, 0.5, 0.25)):
            with pytest.raises(SpecValidationError, match="stored triangle"):
                read(table)
    # a 2-D table must be G x G, and takes no cols or out
    for table in (np.ones((101, 100)), np.ones((100, 101)), np.ones((102, 102))):
        with pytest.raises(SpecValidationError, match="G x G"):
            ctx.expect_over_arrival(table)
    for kwargs in ({"cols": 1}, {"out": np.empty((101, 101))}):
        with pytest.raises(SpecValidationError, match="G x G"):
            ctx.expect_over_arrival(square, **kwargs)
    # a table of another number of dimensions is no stored triangle
    with pytest.raises(SpecValidationError, match="stored triangle"):
        ctx.expect_over_arrival(np.ones((2, 101, 101)))


@pytest.mark.parametrize("law", [D.uniform(), D.two_point()], ids=["uniform", "two_point"])
def test_square_table_reads_its_triangle(law, rng):
    # a G x G table is read on its cells b <= a, and the result's cells
    # b > a, which are no states, mirror its triangle
    ctx = FR.TriangleContext(law, FR.GridConfig(size=201))
    T = rng.random((201, 201))
    got = ctx.expect_over_arrival(T)
    assert np.array_equal(got, ctx.mirrored(ctx.expect_over_arrival(stored_triangle(ctx, T))))
    assert np.array_equal(got, got.T)


@pytest.mark.parametrize(
    "law",
    [D.uniform(), beta_distribution(2, 2), tightness_family(0.1, 0.05)],
    ids=["uniform", "beta22", "tightness"],
)
def test_padding_is_inert(law):
    # every reader of a stored triangle gives the same cells with NaN padding
    # as with zero padding, bit for bit, and no NaN
    ctx = FR.TriangleContext(law, FR.GridConfig(size=201))
    assert len(ctx.row_blocks) == 2  # of unequal height
    rng = np.random.default_rng(21)
    T = rng.random((201, 201))
    zero, nan = stored_triangle(ctx, T), stored_triangle(ctx, T, pad=np.nan)

    def same(read, cells=lambda v: v):
        want, got = cells(read(zero.copy())), cells(read(nan.copy()))
        assert np.array_equal(got, want) and not np.isnan(got).any()

    same(lambda P: ctx.expect_over_arrival(P, out=P), lambda P: triangle_cells(ctx, P))
    same(lambda P: ctx.expect_over_arrival(P, 1))
    g, h = ctx.g, ctx.h
    # inside every diagonal cell and on the diagonal, where the square form
    # reads a padding corner
    x, y = (g[:-1, None] + h * np.sort(rng.random((200, 2)), axis=1)[:, ::-1]).T
    same(lambda P: ctx.bilinear(P, x, y))
    same(lambda P: ctx.bilinear(P, x, x))
    same(ctx.mirrored)
    for best in (False, True):
        same(lambda P: FR.StageTables(ctx, 2, P, P)._values(best), lambda P: triangle_cells(ctx, P))

    def dominance(d):
        try:
            FR._check_pass_dominance(ctx, 1, d)
        except InconsistencyError as exc:
            return str(exc)
        return None

    ones = stored_triangle(ctx, np.ones((201, 201)), pad=np.nan)
    assert dominance(ones) is None
    assert dominance(nan) is not None and dominance(nan) == dominance(zero)


def test_mirror_copies_lower_triangle(rng):
    ctx = FR.TriangleContext(D.uniform(), FR.GridConfig(size=57))
    T = rng.random((57, 57))
    want = T.copy()
    iu = np.triu_indices(57, 1)
    want[iu] = want.T[iu]
    assert np.array_equal(ctx.mirrored(stored_triangle(ctx, T)), want)


def test_unit_mass_on_two_point_grid():
    ctx = FR.TriangleContext(D.two_point(), FR.GridConfig(size=101))
    out = ctx.expect_over_arrival(np.ones((101, 101)))
    assert np.max(np.abs(out - 1.0)) <= 1e-12


def test_two_point_grid_band_matches_exact_recursion():
    tp = D.two_point()
    _, tables = FR.grid_tables(tp, 6, FR.GridConfig(size=1001))
    for n in range(2, 7):
        exact = FR.band(tp, n)
        assert tables[n].low[0, 0] == pytest.approx(exact.low, abs=GRID_BAND_TOL)
        assert tables[n].high[0, 0] == pytest.approx(exact.high, abs=GRID_BAND_TOL)


def test_near_two_point_mixture_band_is_feasible():
    mix = tightness_family(0.1, 0.05)
    for n in (3, 4, 5):
        ratios(mix, n, "full_recall")  # raises InconsistencyError on an infeasible band
        b = FR.band(mix, n)
        assert 2.0 * b.high <= mix.top_two_expectation(n)


# -- cell moments, grid expectations and the memory guard ---------------------------------


def _exact_cell_moments(law, edges, degree):
    """Cell moments in exact rational arithmetic on the float edges and
    coefficients."""
    total = [Fraction(0)] * (len(edges) - 1)
    for p in law.pieces:
        anti = _panti([Fraction(0)] * degree + [Fraction(c) for c in p.coeffs])
        lo, hi = Fraction(p.lo), Fraction(p.hi)
        at = [_peval(anti, min(max(Fraction(e), lo), hi)) for e in edges]
        for t in range(len(total)):
            total[t] += at[t + 1] - at[t]
    return total


MOMENT_LAWS = dict(
    LAWS, tightness=tightness_family(0.1, 0.05), two_piece=TWO_PIECE,
    beta35=beta_distribution(3, 5), beta67=beta_distribution(6, 7),
)


@pytest.mark.parametrize("name", sorted(MOMENT_LAWS))
def test_cell_moments_match_scalar_density_moment(name):
    # measured: at most 1.29 eps per cell on these laws, on Beta(6,7)
    law = MOMENT_LAWS[name]
    g = FR.TriangleContext(law, FR.GridConfig(size=401)).g
    for degree in (0, 1):
        got = law.cell_moments(g, degree)
        scalar = [law.density_moment(g[t], g[t + 1], degree) for t in range(len(g) - 1)]
        assert np.array_equal(got, scalar)
        exact = _exact_cell_moments(law, g, degree)
        err = max(abs(float(Fraction(x) - want)) for x, want in zip(got, exact))
        assert err <= 1.3 * EPS


def _loop_grid_expectation(d, g, vals):
    """The scalar loop ``TriangleContext.expect`` replaces."""
    total = 0.0
    for x, mass in d.atoms:
        total += mass * float(np.interp(x, g, vals))
    h = g[1] - g[0]
    for t in range(len(g) - 1):
        w0 = d.density_moment(g[t], g[t + 1], 0)
        if w0 == 0.0:
            continue
        w1 = d.density_moment(g[t], g[t + 1], 1)
        phi = (w1 - g[t] * w0) / h
        total += vals[t] * (w0 - phi) + vals[t + 1] * phi
    return float(total)


@pytest.mark.parametrize("name", ["uniform", "beta22", "mixture", "tightness", "two_point"])
def test_grid_expectation_matches_scalar_loop(name, rng):
    law = MOMENT_LAWS[name]
    ctx = FR.TriangleContext(law, FR.GridConfig(size=801))
    for vals in (rng.random(801), np.sqrt(ctx.g), (ctx.g + 0.2) / 2.0):
        assert abs(ctx.expect(vals) - _loop_grid_expectation(law, ctx.g, vals)) <= 1e-15


def test_grid_memory_guard_refuses_huge_grid_without_allocating():
    tracemalloc.start()
    try:
        code = run(["fullrecall", "--grid", "200000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 2**20
    # every grid the library and its benchmark use stays under the budget
    assert FR.GRID_WORKING_TABLES * 8 * 2001**2 <= FR.GRID_MEMORY_BUDGET


@pytest.mark.parametrize(
    "law, measured",
    [(D.uniform(), 0.6722), (tightness_family(0.1, 0.05), 0.6780)],
    ids=["uniform", "tightness"],
)
def test_grid_stage_peak_is_one_work_table(law, measured):
    # building stage 2 from stage 1 allocates, beyond the two stored
    # triangles it keeps, one stored work triangle (0.6 G x G table at
    # G = 401, its padding included) and the block temporaries: `measured`
    # G x G tables, as measured (1.0622 and 1.0672 with a G x G work table)
    G = 401
    grid = FR.GridConfig(size=G)
    FR._TABLE_CACHE.pop((law.cache_key(), G), None)
    FR.grid_tables(law, 1, grid)
    tracemalloc.start()
    try:
        _, tables = FR.grid_tables(law, 2, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = tables[2].dminus.nbytes + tables[2].dplus.nbytes
    assert (peak - kept) / (8 * G * G) <= measured


@pytest.mark.parametrize("G", [3, 4, 11, 2001])
@pytest.mark.parametrize("law", [D.uniform(), tightness_family(0.1, 0.05)], ids=["uniform", "tightness"])
def test_packed_column_sums_match_mirrored_table_at_every_block_shape(law, G, rng):
    # the column part sums each block's rows in one ordered reduce; a last
    # block of one row (G = 2001) has no row of column cells to add
    ctx = FR.TriangleContext(law, FR.GridConfig(size=G))
    if G == 2001:
        assert ctx.row_blocks[-1].stop - ctx.row_blocks[-1].start == 1
    stored = stored_triangle(ctx, rng.random(G * (G + 1) // 2))
    full = _dense_expect_over_arrival(ctx, ctx.mirrored(stored))
    assert np.array_equal(triangle_cells(ctx, ctx.expect_over_arrival(stored)), full[np.tril_indices(G)])
    assert np.array_equal(ctx.expect_over_arrival(stored, 1), full[:, 0])
