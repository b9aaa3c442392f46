import tracemalloc

import numpy as np
import pytest
from test_distributions import LAWS

from selection_games import distributions as D
from selection_games import full_recall as FR
from selection_games.cli import run
from selection_games.efficiency import ratios, tightness_family
from selection_games.errors import SpecValidationError
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
        lo, hi = FR.uniform_closed_forms(1, a, b)
        want = a / 2 + (1 + b * b) / 4
        assert lo == pytest.approx(want, abs=1e-12)
        assert hi == pytest.approx(want, abs=1e-12)
        grid_lo, grid_hi = FR.lh_values(D.uniform(), 1, a, b, SMALL)
        assert grid_lo == pytest.approx(want, abs=1e-6)
        assert grid_hi == pytest.approx(want, abs=1e-6)


def test_uniform_two_arrival_branches():
    lo, hi = FR.uniform_closed_forms(2, 0.0, 0.0)
    assert (lo, hi) == (pytest.approx(0.5), pytest.approx(0.5))
    lo, _ = FR.uniform_closed_forms(2, 0.9, 0.0)
    assert lo == pytest.approx(0.9 / 2 + 1 / 3, abs=1e-12)


def test_uniform_three_arrival_exact_values():
    lo, hi = FR.uniform_closed_forms(3, 0.0, 0.0)
    assert lo == pytest.approx(607 / 972, abs=1e-12)
    # frozen bisection + polynomial-integral oracle value
    assert hi == pytest.approx(0.6245510355658551, abs=1e-12)


def test_best_threshold_root():
    astar = FR.uniform_fr_best_threshold()
    assert astar == pytest.approx(0.6778146453739142, abs=1e-12)
    assert (1 + astar**2) / 2 - astar**3 / 6 == pytest.approx(astar, abs=1e-12)


def test_closed_forms_reject_other_horizons():
    with pytest.raises(SpecValidationError):
        FR.uniform_closed_forms(4, 0.0, 0.0)


def test_grid_matches_closed_forms_on_triangle():
    # agreement at a tighter grid on a coarse triangle sample
    grid = FR.GridConfig(size=2001)
    pts = [(a, b) for a in np.linspace(0, 1, 50) for b in np.linspace(0, 1, 50) if b <= a]
    for n in (1, 2, 3):
        got = [FR.lh_values(D.uniform(), n, a, b, grid) for a, b in pts]
        want = [FR.uniform_closed_forms(n, a, b) for a, b in pts]
        worst_err = max(abs(g[0] - w[0]) for g, w in zip(got, want))
        best_err = max(abs(g[1] - w[1]) for g, w in zip(got, want))
        assert worst_err < 1e-4
        assert best_err < 1e-4


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
            dmin = tables[k].dminus[:, 0]
            assert np.all(dmin[mask] >= (g[mask] + c_k) / 2 - 1e-9)


def test_pass_dominance_check_active():
    # building tables runs the structural check; reaching here means no
    # violation was raised for these laws
    FR.grid_tables(D.uniform(), 5, SMALL)
    FR.grid_tables(D.mixture_with_uniform(0.5, D.discrete([(0.6, 1.0)])), 3, SMALL)


def test_band_for_mixed_law_brackets_components():
    mixed = D.mixture_with_uniform(0.5, D.discrete([(0.6, 1.0)]))
    b = FR.band(mixed, 3, SMALL)
    assert 0.0 < b.low <= b.high < 1.0


# -- atom path of the grid engine --------------------------------------------------------


def _dense_expect_over_arrival(ctx, T):
    """Reference for TriangleContext.expect_over_arrival: the density part as
    the engine computes it, plus every atom evaluated cell by cell over the
    whole G x G grid; atoms at or below b add nothing beyond F(b) T(a, b)."""
    G = ctx.grid.size
    g, rho, phi = ctx.g, ctx.rho, ctx.phi
    cells_row = T[:, :-1] * rho[None, :] + T[:, 1:] * phi[None, :]
    crow = np.concatenate([np.zeros((G, 1)), np.cumsum(cells_row, axis=1)], axis=1)
    row_part = crow[np.arange(G), np.arange(G)][:, None] - crow
    cells_col = T[:-1, :] * rho[:, None] + T[1:, :] * phi[:, None]
    pcol = np.concatenate([np.zeros((1, G)), np.cumsum(cells_col, axis=0)], axis=0)
    col_suffix = pcol[-1, np.arange(G)] - pcol[np.arange(G), np.arange(G)]
    out = ctx.F[None, :] * T + row_part + col_suffix[:, None]
    for x_star, mass in ctx.atoms:
        alo = np.maximum(g, x_star)[:, None]
        mid = np.minimum(np.maximum(x_star, g[None, :]), g[:, None])
        vals = ctx.bilinear(T, np.broadcast_to(alo, (G, G)), mid)
        out = out + mass * np.where(g[None, :] < x_star, vals, 0.0)
    return out


EDGE_ATOMS = D.discrete([(0.0, 0.2), (0.25, 0.3), (0.6, 0.1), (1.0, 0.4)])


@pytest.mark.parametrize(
    "law",
    [D.two_point(), tightness_family(0.1, 0.05), EDGE_ATOMS, D.mixture_with_uniform(0.3, EDGE_ATOMS)],
    ids=["two_point", "tightness", "edge_atoms", "edge_atoms_mixture"],
)
def test_atom_path_matches_dense_reference(law, rng):
    ctx = FR.TriangleContext(law, FR.GridConfig(size=201))
    assert 0.25 in ctx.g  # one atom sits exactly on a grid node
    for _ in range(3):
        T = ctx.mirror(rng.random((201, 201)))
        np.testing.assert_allclose(
            ctx.expect_over_arrival(T), _dense_expect_over_arrival(ctx, T), rtol=0, atol=1e-12
        )


def test_atomless_expectation_unchanged(rng):
    for law in (D.uniform(), beta_distribution(2, 2), TWO_PIECE):
        # 201 rows make two row blocks of unequal height
        ctx = FR.TriangleContext(law, FR.GridConfig(size=201))
        assert len(ctx.row_blocks) == 2
        T = ctx.mirror(rng.random((201, 201)))
        assert np.array_equal(ctx.expect_over_arrival(T), _dense_expect_over_arrival(ctx, T))


def test_mirror_copies_lower_triangle(rng):
    ctx = FR.TriangleContext(D.uniform(), FR.GridConfig(size=57))
    T = rng.random((57, 57))
    want = T.copy()
    iu = np.triu_indices(57, 1)
    want[iu] = want.T[iu]
    assert np.array_equal(ctx.mirror(T), want)


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


def _scalar_density_moment(law, lo, hi, degree):
    """The per-cell loop the vectorized cell moments replace."""
    total = 0.0
    for p in law.pieces:
        a, b = max(lo, p.lo), min(hi, p.hi)
        if b <= a:
            continue
        anti = D._poly_antideriv((0.0,) * degree + tuple(p.coeffs))
        total += D._poly_eval(anti, b) - D._poly_eval(anti, a)
    return total


MOMENT_LAWS = dict(LAWS, tightness=tightness_family(0.1, 0.05), two_piece=TWO_PIECE)


@pytest.mark.parametrize("name", sorted(MOMENT_LAWS))
def test_cell_moments_match_scalar_density_moment(name):
    law = MOMENT_LAWS[name]
    g = FR.TriangleContext(law, FR.GridConfig(size=401)).g
    for degree in (0, 1):
        got = law.cell_moments(g, degree)
        scalar = [law.density_moment(g[t], g[t + 1], degree) for t in range(len(g) - 1)]
        loop = [_scalar_density_moment(law, g[t], g[t + 1], degree) for t in range(len(g) - 1)]
        assert np.array_equal(got, scalar)
        assert np.array_equal(got, loop)


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
