"""Extremal symmetric equilibrium payoffs of the game *with* recall.

With recall, every subgame-perfect equilibrium pays both players the same
amount, and the attainable payoffs form a band [low_n, high_n] computed by
a backward recursion over states (a, b) = (best, second-best) available
values with k arrivals to come:

    value_0(a, b) = (a + b) / 2
    low_k(a, b)  = L(a, c_k(b), E_X[ low_{k-1}(a v X, med[a, b, X]) ])
    high_k(a, b) = H(a, c_k(b), E_X[ high_{k-1}(a v X, med[a, b, X]) ])

where c_k(b) = E(max(X_1..X_k) v b) is the value a lone player extracts
after their rival grabs a, and L/H pick the worst/best stage equilibrium.

Three evaluation paths:

* finite-support laws: exact recursion over the (small) reachable state
  space;
* the uniform law for small horizons: closed forms
  (:func:`uniform_closed_forms`);
* general laws: value tables on a triangular grid over {0 <= b <= a <= 1}
  with bilinear interpolation, built bottom-up and memoized per
  (distribution, grid) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .distributions import ValueDistribution, _gauss_on
from .errors import InconsistencyError, ResourceBudgetError, SpecValidationError
from .stage_games import selector_H, selector_L

BRANCH_TOL = 1e-12

#: G x G float64 tables one stage of the grid engine or of the best-response
#: DP may hold at once, temporaries included (about 7 measured in the DP)
GRID_WORKING_TABLES = 12
#: largest working set a triangle grid may claim, in bytes (2 GiB: G <= 4729)
GRID_MEMORY_BUDGET = 2 * 1024**3
#: G x G tables are worked through in blocks of rows of about this many
#: bytes, so that a block's temporaries stay in cache
ROW_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class GridConfig:
    """Triangle-grid resolution and consistency-check knobs."""

    size: int = 1001
    check_consistency: bool = True
    consistency_slack: float = 1e-9

    def __post_init__(self) -> None:
        if self.size < 3:
            raise SpecValidationError("grid size must be >= 3")


@dataclass(frozen=True)
class FullRecallBand:
    """Band endpoints, and the grid that produced them (None when exact)."""

    n: int
    low: float
    high: float
    grid: GridConfig | None = None

    def __post_init__(self) -> None:
        if self.low > self.high + 1e-9:
            raise InconsistencyError(f"band inverted: low={self.low} > high={self.high}")


def med(a, b, x):
    """Median of the triple {a, b, x} with a >= b."""
    return min(max(x, b), a)


# -- triangular grid engine ---------------------------------------------------------


class TriangleContext:
    """Precomputed per-(distribution, grid) machinery for expectations over
    a fresh arrival, of grid tables and of functions on the grid.

    A grid whose working set (``GRID_WORKING_TABLES`` G x G float64 tables)
    would exceed ``GRID_MEMORY_BUDGET`` is refused with
    :class:`ResourceBudgetError` before anything of size G is allocated.
    """

    def __init__(self, dist: ValueDistribution, grid: GridConfig):
        G = grid.size
        working = GRID_WORKING_TABLES * 8 * G * G
        if working > GRID_MEMORY_BUDGET:
            raise ResourceBudgetError(
                f"grid size {G} needs about {working / 2**30:.1f} GiB of G x G tables, "
                f"over the budget of {GRID_MEMORY_BUDGET / 2**30:.1f} GiB"
            )
        self.dist = dist
        self.grid = grid
        self.g = np.linspace(0.0, 1.0, G)
        self.h = self.g[1] - self.g[0]
        # density cell moments: w0 = mass of a cell, w1 = first moment;
        # f is linear on a cell with weights rho (left node) and phi (right)
        w0 = dist.cell_moments(self.g, 0)
        w1 = dist.cell_moments(self.g, 1)
        self.phi = np.clip((w1 - self.g[:-1] * w0) / self.h, 0.0, None)
        self.rho = np.clip(w0 - self.phi, 0.0, None)
        self.F = np.asarray(dist.cdf(self.g))
        self.atoms = dist.atoms
        self._c_cache: dict[int, np.ndarray] = {}

    @cached_property
    def lower(self) -> np.ndarray:
        """Triangle mask {b <= a}, built once per grid."""
        return np.tri(self.grid.size, dtype=bool)

    @cached_property
    def row_blocks(self) -> tuple[slice, ...]:
        """Consecutive row slices of about ``ROW_BLOCK_BYTES`` of float64 each."""
        G = self.grid.size
        rows = max(1, ROW_BLOCK_BYTES // (8 * G))
        return tuple(slice(r, min(r + rows, G)) for r in range(0, G, rows))

    def lone_values(self, k: int) -> np.ndarray:
        """c_k(b) = E(max of k samples v b) on the grid."""
        if k not in self._c_cache:
            self._c_cache[k] = self.dist.order_max_with_vec(k, self.g)
        return self._c_cache[k]

    def bilinear(self, T: np.ndarray, x, y):
        """Interpolate a mirrored table at (x, y).

        Cells on the diagonal use linear interpolation over the triangle
        {y <= x} only: the mirrored surface is continuous but kinked across
        the diagonal, and plain bilinear interpolation would smear the kink.
        """
        G = self.grid.size
        xs = np.clip(np.asarray(x, dtype=float), 0.0, 1.0) / self.h
        ys = np.clip(np.asarray(y, dtype=float), 0.0, 1.0) / self.h
        i = np.clip(xs.astype(int), 0, G - 2)
        j = np.clip(ys.astype(int), 0, G - 2)
        fx = xs - i
        fy = ys - j
        square = (
            T[i, j] * (1 - fx) * (1 - fy)
            + T[i + 1, j] * fx * (1 - fy)
            + T[i, j + 1] * (1 - fx) * fy
            + T[i + 1, j + 1] * fx * fy
        )
        lower_tri = T[i, j] + (T[i + 1, j] - T[i, j]) * (fx - fy) + (T[i + 1, j + 1] - T[i, j]) * fy
        return np.where((i == j) & (fx >= fy), lower_tri, square)

    def expect(self, vals: np.ndarray) -> float:
        """E[f(X)] for f given by its values on the grid, linear on each cell:
        the atoms by interpolation, then the cells summed in grid order."""
        total = 0.0
        for x, mass in self.atoms:
            total += mass * float(np.interp(x, self.g, vals))
        cells = vals[:-1] * self.rho + vals[1:] * self.phi
        # a running sum, cell by cell, as a scalar loop would add them
        return float(np.cumsum(np.concatenate(([total], cells)))[-1])

    def expect_over_arrival(self, T: np.ndarray) -> np.ndarray:
        """E_X[T(a v X, med[a, b, X])] at every grid node (a_i, b_j), for a
        mirrored table T (T[i, j] == T[j, i]), as every table of the engine is.

        Splitting the arrival X at b and a gives

            F(b) T(a, b) + int_(b, a] T(a, x) dF(x) + int_(a, 1] T(x, a) dF(x),

        computed against the density via per-cell linear interpolation of T.
        Both integrals come from one pass of running sums along the rows, one
        block of rows at a time: for a mirrored T the running sums down the
        columns are their transpose, bit for bit, since a cumulative sum adds
        in sequence along either axis.
        Atoms follow the library convention (the CDF is right-continuous): an
        atom x* <= b is already inside F(b) T(a, b) and adds nothing more.  An
        atom x* > b moves the state to (a v x*, a ^ x*), which does not depend
        on b, so each atom costs one bilinear evaluation along the a axis,
        added to every column with b < x*.
        """
        G = self.grid.size
        g = self.g
        out = np.empty((G, G))
        buf = np.empty((self.row_blocks[0].stop, G))
        for rows in self.row_blocks:
            Tb, ob = T[rows], out[rows]
            # crow[i, j] = int_0^(g_j) T(a_i, x) dF(x), the running sum of row i's cells
            crow = buf[: len(Tb)]
            crow[:, 0] = 0.0
            np.multiply(Tb[:, :-1], self.rho, out=crow[:, 1:])
            np.multiply(Tb[:, 1:], self.phi, out=ob[:, 1:])
            crow[:, 1:] += ob[:, 1:]
            np.cumsum(crow[:, 1:], axis=1, out=crow[:, 1:])
            diag = crow[np.arange(len(Tb)), np.arange(rows.start, rows.stop)]
            # int_(a, 1] T(x, a) dF(x): the column pass, read off the transpose
            col_suffix = crow[:, -1] - diag
            np.subtract(diag[:, None], crow, out=crow)  # int_(b, a] T(a, x) dF(x)
            np.multiply(self.F, Tb, out=ob)
            ob += crow
            ob += col_suffix[:, None]
        for x_star, mass in self.atoms:
            u = self.bilinear(T, np.maximum(g, x_star), np.minimum(g, x_star))
            out[:, : np.searchsorted(g, x_star)] += mass * u[:, None]
        return out

    def mirror(self, T: np.ndarray) -> np.ndarray:
        """Copy the triangle {b <= a} of T onto {b > a}, in place, one row at a
        time, with no G x G mask."""
        for i in range(self.grid.size - 1):
            T[i, i + 1 :] = T[i + 1 :, i]
        return T


@dataclass(frozen=True)
class StageTables:
    """Grid tables with k arrivals to come: worst/best values plus the
    both-pass continuation matrices that produced them (None at k = 0)."""

    low: np.ndarray
    high: np.ndarray
    dminus: np.ndarray | None = None
    dplus: np.ndarray | None = None


_TABLE_CACHE: dict[tuple, tuple[TriangleContext, list[StageTables]]] = {}


def grid_tables(
    dist: ValueDistribution, n: int, grid: GridConfig
) -> tuple[TriangleContext, list[StageTables]]:
    """Value tables for k = 0..n, cached per (dist, grid)."""
    key = (dist.cache_key(), grid.size, grid.check_consistency)
    if key not in _TABLE_CACHE:
        ctx = TriangleContext(dist, grid)
        base = ctx.mirror(np.add.outer(ctx.g, ctx.g) / 2.0)
        _TABLE_CACHE[key] = (ctx, [StageTables(base, base.copy())])
    ctx, tables = _TABLE_CACHE[key]
    while len(tables) <= n:
        k = len(tables)
        prev = tables[k - 1]
        c = ctx.lone_values(k)
        dminus = ctx.expect_over_arrival(prev.low)
        dplus = ctx.expect_over_arrival(prev.high)
        a_col = ctx.g[:, None]
        cb = c[None, :]
        if grid.check_consistency:
            _check_pass_dominance(ctx.lower, a_col, cb, dminus, grid.consistency_slack)
            _check_pass_dominance(ctx.lower, a_col, cb, dplus, grid.consistency_slack)
        Lnew = np.where(a_col - cb > BRANCH_TOL, (a_col + cb) / 2.0, dminus)
        Hnew = np.where(a_col - np.maximum(cb, dplus) > BRANCH_TOL, (a_col + cb) / 2.0, dplus)
        tables.append(
            StageTables(ctx.mirror(Lnew), ctx.mirror(Hnew), ctx.mirror(dminus), ctx.mirror(dplus))
        )
    return ctx, tables


def _check_pass_dominance(lower, a_col, cb, dmat, slack) -> None:
    """Whenever the rival's lone value c is at least a, passing must be worth
    at least a too (the structural inequality behind the stage cases) on the
    triangle ``lower`` = {b <= a}."""
    mask = (cb - a_col >= -BRANCH_TOL) & lower
    bad = mask & (dmat < a_col - slack)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise InconsistencyError(
            f"continuation payoff {dmat[i, j]} below available value {a_col[i, 0]} "
            f"at grid node ({i}, {j}) despite c >= a"
        )


# -- exact path for finite-support laws ----------------------------------------------


def _lh_discrete(dist: ValueDistribution, n: int, a: float, b: float, memo: dict) -> tuple:
    key = (n, a, b)
    if key in memo:
        return memo[key]
    if n == 0:
        out = ((a + b) / 2.0, (a + b) / 2.0)
    else:
        c = dist.expect_order_max_with(n, b)
        dm = 0.0
        dp = 0.0
        for x, mass in dist.atoms:
            sub = _lh_discrete(dist, n - 1, max(a, x), med(a, b, x), memo)
            dm += mass * sub[0]
            dp += mass * sub[1]
        if c - a >= -BRANCH_TOL and (dm < a - 1e-9 or dp < a - 1e-9):
            raise InconsistencyError(
                f"pass-dominance violated at state (n={n}, a={a}, b={b}): "
                f"c={c}, d=({dm}, {dp})"
            )
        out = (selector_L(a, c, dm), selector_H(a, c, dp))
    memo[key] = out
    return out


# -- public operations -----------------------------------------------------------------


def lh_values(
    dist: ValueDistribution,
    n: int,
    a: float,
    b: float,
    grid: GridConfig | None = None,
) -> tuple[float, float]:
    """(worst, best) symmetric equilibrium payoff of the game with initial
    values a >= b and n arrivals to come."""
    if not 0.0 <= b <= a <= 1.0:
        raise SpecValidationError(f"need 0 <= b <= a <= 1, got a={a}, b={b}")
    if n < 0:
        raise SpecValidationError("n must be >= 0")
    if n == 0:
        return ((a + b) / 2.0, (a + b) / 2.0)
    if not dist.pieces:
        lo, hi = _lh_discrete(dist, n, a, b, {})
        return (float(lo), float(hi))
    grid = grid or GridConfig()
    ctx, tables = grid_tables(dist, n, grid)
    stage = tables[n]
    # interpolate the smooth both-pass continuation surfaces and apply the
    # branch selectors at the query itself; interpolating the branched value
    # tables directly would smear their jump discontinuities
    c = dist.expect_order_max_with(n, b)
    dminus = float(ctx.bilinear(stage.dminus, a, b))
    dplus = float(ctx.bilinear(stage.dplus, a, b))
    return (float(selector_L(a, c, dminus)), float(selector_H(a, c, dplus)))


def band(dist: ValueDistribution, n: int, grid: GridConfig | None = None) -> FullRecallBand:
    """Extremal symmetric equilibrium payoffs of the n-arrival game."""
    if n < 1:
        raise SpecValidationError("band requires n >= 1")
    if not dist.pieces:
        lo, hi = _lh_discrete(dist, n, 0.0, 0.0, {})
        return FullRecallBand(n=n, low=float(lo), high=float(hi))
    grid = grid or GridConfig()
    _, tables = grid_tables(dist, n, grid)
    stage = tables[n]
    return FullRecallBand(n=n, low=float(stage.low[0, 0]), high=float(stage.high[0, 0]), grid=grid)


# -- closed forms for the uniform law --------------------------------------------------


def _root_pass_value_equals_a(second: float) -> float:
    """Unique x in (0, 1] with x = (1 + x^2)/2 + (second^3 - x^3)/6."""
    beta3 = second**3

    def gap(x: float) -> float:
        return (1.0 + x * x) / 2.0 + (beta3 - x**3) / 6.0 - x

    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def uniform_fr_best_threshold() -> float:
    """First-arrival bid threshold of the best equilibrium with 2 arrivals
    to come (the root of a = (1 + a^2)/2 - a^3/6)."""
    return _root_pass_value_equals_a(0.0)


def uniform_pass_value(k: int, a, b):
    """Both-pass continuation d_k(a, b) of the uniform law for k in {1, 2}
    arrivals to come, elementwise in a >= b: the expected value of the
    (k - 1)-arrival game after one more arrival."""
    if k == 1:
        return a / 2.0 + (1.0 + b * b) / 4.0
    if k == 2:
        return (1.0 + a * a) / 2.0 + (b**3 - a**3) / 6.0
    raise SpecValidationError("uniform pass values are closed-form for k in {1, 2}")


def _uniform_lh2(a: float, b: float) -> tuple[float, float]:
    c2 = (2.0 + b**3) / 3.0
    d2 = uniform_pass_value(2, a, b)
    return (selector_L(a, c2, d2), selector_H(a, c2, d2))


def _integrate_pieces(lo: float, hi: float, cuts: list[float], f: Callable) -> float:
    """Integrate f over [lo, hi] splitting at the (sorted) interior cuts."""
    pts = [lo] + [c for c in sorted(cuts) if lo < c < hi] + [hi]
    total = 0.0
    for u, v in zip(pts[:-1], pts[1:]):
        total += _gauss_on(u, v, f, 8)
    return total


def uniform_closed_forms(n: int, a: float, b: float) -> tuple[float, float]:
    """Exact (worst, best) values for the uniform law, n in {1, 2, 3}.

    For n <= 2 these are literal piecewise polynomials; for n = 3 the inner
    expectation integrates the n = 2 forms piecewise-exactly, splitting at
    the branch boundaries (located by bisection where needed).
    """
    if n not in (1, 2, 3):
        raise SpecValidationError("closed forms are available for n in {1, 2, 3}")
    if not 0.0 <= b <= a <= 1.0:
        raise SpecValidationError(f"need 0 <= b <= a <= 1, got a={a}, b={b}")
    if n == 1:
        # one arrival: bidding pays (a + c_1(b)) / 2, which equals d_1(a, b)
        v = uniform_pass_value(1, a, b)
        return (v, v)
    if n == 2:
        return _uniform_lh2(a, b)

    # n == 3: split E_X[value_2(a v X, med[a, b, X])] at b and a
    l_ab, h_ab = _uniform_lh2(a, b)

    def low2(x: float, y: float) -> float:
        return _uniform_lh2(x, y)[0]

    def high2(x: float, y: float) -> float:
        return _uniform_lh2(x, y)[1]

    # x in [b, a]: value_2(a, x).  Branch flips where a = (2 + x^3)/3 for the
    # worst value; the best value additionally stays on the pass branch while
    # a <= d2(a, x), i.e. x^3 >= 6a - 3(1 + a^2) + a^3.
    cut_l_mid = np.cbrt(3.0 * a - 2.0) if 3.0 * a - 2.0 > 0.0 else -1.0
    qa = 6.0 * a - 3.0 * (1.0 + a * a) + a**3
    cut_h_mid = np.cbrt(min(3.0 * a - 2.0, qa)) if min(3.0 * a - 2.0, qa) > 0.0 else -1.0
    dm = b * l_ab + _integrate_pieces(
        b, a, [cut_l_mid], np.vectorize(lambda x: low2(a, x))
    )
    dp = b * h_ab + _integrate_pieces(
        b, a, [cut_h_mid], np.vectorize(lambda x: high2(a, x))
    )

    # x in [a, 1]: value_2(x, a).  Worst flips at x = (2 + a^3)/3; best flips
    # at max of that and the root of x = d2(x, a).
    cut_l_top = (2.0 + a**3) / 3.0
    cut_h_top = max(cut_l_top, _root_pass_value_equals_a(a))
    dm += _integrate_pieces(a, 1.0, [cut_l_top], np.vectorize(lambda x: low2(x, a)))
    dp += _integrate_pieces(a, 1.0, [cut_h_top], np.vectorize(lambda x: high2(x, a)))

    c3 = (3.0 + b**4) / 4.0
    return (selector_L(a, c3, dm), selector_H(a, c3, dp))
