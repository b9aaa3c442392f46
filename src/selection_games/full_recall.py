"""Extremal symmetric equilibrium payoffs of the game *with* recall.

With recall, every subgame-perfect equilibrium pays both players the same
amount, and the attainable payoffs form a band [low_n, high_n] computed by
a backward recursion over states (a, b) = (best, second-best) available
values with k arrivals to come:

    value_0(a, b) = (a + b) / 2
    low_k(a, b)  = L(a, c_k(b), E_X[ low_{k-1}(a v X, med[a, b, X]) ])
    high_k(a, b) = H(a, c_k(b), E_X[ high_{k-1}(a v X, med[a, b, X]) ])

where c_k(b) = E(max(X_1..X_k) v b) is the value a lone player extracts
after their rival grabs a.  L and H are the worst and best equilibrium
payoffs of the bid/pass stage game, :func:`stage_games.stage_value`: L pays
(a + c)/2 where a >= c, H where a > max(c, d), and both pay d elsewhere.

Three evaluation paths:

* n <= 3 on every law: closed forms in c_1, c_2, c_3 and the CDF
  (:func:`closed_forms`, :func:`pass_value`), read by the best profile;
* finite-support laws: exact recursion over the reachable states, listed
  by :func:`atom_lattice` level by level with their next-state tables.  One
  backward pass over it (:func:`_lh_discrete`) serves :func:`band`,
  :func:`lh_values` and, through :func:`exact_pass_value`, the best
  profile's d+_k for k >= 3, so neither builds a grid on such a law; the
  exact criterion 8 (:func:`simulate.best_response_gap`) and the oracle
  walk the same lattice;
* general laws: value tables on a triangular grid over {0 <= b <= a <= 1}
  with bilinear interpolation, built bottom-up and memoized per
  (distribution, grid) pair.

The grid memo keeps only what later stages read: per stage k >= 1 the
both-pass continuations d-_k = E_X[low_{k-1}] and d+_k = E_X[high_{k-1}],
each once, as a stored triangle (one array at k <= 2, as low_0 = high_0 =
(a + b)/2 and low_1 = high_1 = (a + c_1(b))/2: max(a, X) + med[a, b, X]
= a + max(b, X) makes d_1 the bid payoff); nothing at k = 0.  A stored
triangle holds the cells {b <= a} in the blocks of rows that every pass
walks: the rows r0..r1 - 1 of a block as one contiguous (r1 - r0) x r1
rectangle, the blocks in order, so that each block is read and written in
place as a view.  The cells b > a of a block are padding, filled with
finite values and never read as states; they add 3 % to a stored triangle
at G = 1001 and 5 % at G = 801 over the G(G + 1)/2 cells.  Each stage is
built in one stored work triangle, and no G x G table is allocated.  One
kernel takes the expectation over the arrival, on stored triangles alone
(:meth:`TriangleContext.expect_over_arrival`), for the grid tables and for
both replies of the best-response DP; a G x G table given to it is read on
its triangle.  low_k and high_k are derived from d-_k, d+_k and c_k on
demand (L and H are one ``np.where`` away) and are not kept; the band is
:func:`lh_values` at the state (0, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .distributions import ValueDistribution, uniform
from .errors import InconsistencyError, ResourceBudgetError, SpecValidationError
from .stage_games import stage_bids, stage_value

#: how far c may fall below a and still count as c >= a in the pass-dominance
#: checks (the stage rule itself compares exactly)
BRANCH_TOL = 1e-12
#: how far a both-pass continuation may fall below the available value a
#: where the rival's lone value c is at least a, before the pass-dominance
#: check reports an inconsistency
PASS_DOMINANCE_SLACK = 1e-9

#: G x G float64 tables one stage of the grid engine or of the best-response
#: DP may hold at once, temporaries included (at most 1.58 measured at
#: G = 801, where a stored triangle is 0.53: 1.58 in a grid stage, of which
#: 1.05 in the two stored triangles it keeps and 0.53 in its stored work
#: triangle; in the DP at n = 4 0.72 to 0.75 for a symmetric equilibrium
#: profile, 0.53 of it its stored triangle, and 1.33 to 1.34 for a reply that
#: parts from the best reply, which then keeps a second stored triangle)
GRID_WORKING_TABLES = 12
#: largest working set a triangle grid may claim, in bytes (2 GiB: G <= 4729)
GRID_MEMORY_BUDGET = 2 * 1024**3
#: bytes a (state, atom) entry of :func:`atom_lattice` costs while its level
#: is built: key, ``np.unique``'s sort and inverse, and the table (49 measured)
LATTICE_ENTRY_BYTES = 56
#: G x G tables are worked through in blocks of rows of about this many
#: bytes, so that a block's temporaries stay in cache
ROW_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class GridConfig:
    """Triangle-grid resolution."""

    size: int = 1001

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


# -- triangular grid engine ---------------------------------------------------------


class GridLine:
    """The grid's nodes on [0, 1] with the law's weights on them: what the
    expectation of a function on the grid against a fresh arrival needs.  It
    holds G-vectors only, so every grid size fits."""

    def __init__(self, dist: ValueDistribution, grid: GridConfig):
        self.dist = dist
        self.grid = grid
        self.g = np.linspace(0.0, 1.0, grid.size)
        self.h = self.g[1] - self.g[0]
        # density cell moments: w0 = mass of a cell, w1 = first moment;
        # f is linear on a cell with weights rho (left node) and phi (right)
        w0 = dist.cell_moments(self.g, 0)
        w1 = dist.cell_moments(self.g, 1)
        self.phi = np.clip((w1 - self.g[:-1] * w0) / self.h, 0.0, None)
        self.rho = np.clip(w0 - self.phi, 0.0, None)
        self.F = np.asarray(dist.cdf(self.g))
        self.atoms = dist.atoms

    def expect(self, vals: np.ndarray) -> float:
        """E[f(X)] for f given by its values on the grid, linear on each cell:
        the atoms by interpolation, then the cells summed in grid order."""
        total = 0.0
        for x, mass in self.atoms:
            total += mass * float(np.interp(x, self.g, vals))
        cells = vals[:-1] * self.rho + vals[1:] * self.phi
        # a running sum, cell by cell, as a scalar loop would add them
        return float(np.cumsum(np.concatenate(([total], cells)))[-1])


class TriangleContext(GridLine):
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
        super().__init__(dist, grid)
        self._c_cache: dict[int, np.ndarray] = {}
        # the weight of node j as cell j's left node and as cell j - 1's right
        self._rho_at, self._phi_at = np.append(self.rho, 0.0), np.insert(self.phi, 0, 0.0)

    @cached_property
    def row_blocks(self) -> tuple[slice, ...]:
        """Consecutive row slices of about ``ROW_BLOCK_BYTES`` of float64 each."""
        G = self.grid.size
        rows = max(1, ROW_BLOCK_BYTES // (8 * G))
        return tuple(slice(r, min(r + rows, G)) for r in range(0, G, rows))

    @cached_property
    def row_starts(self) -> np.ndarray:
        """Where row i starts in a stored triangle: the rows r0..r1 - 1 of
        each block of ``row_blocks`` are stored as one contiguous
        (r1 - r0) x r1 rectangle, the blocks in order, so row i of a block
        starts (i - r0) r1 after the block.  The cells b > a of a block are
        padding: writers fill whole blocks with finite values, and no reader
        takes a padding cell as a state."""
        starts, offset = [], 0
        for rows in self.row_blocks:
            starts.append(offset + np.arange(rows.stop - rows.start) * rows.stop)
            offset += (rows.stop - rows.start) * rows.stop
        return np.concatenate(starts)

    @cached_property
    def stored_size(self) -> int:
        """The length of a stored triangle, its padding included."""
        return int(self.row_starts[-1]) + self.grid.size

    def block(self, P: np.ndarray, rows: slice) -> np.ndarray:
        """The block ``rows`` of ``row_blocks`` of a stored triangle P, as a
        view of shape (rows.stop - rows.start, rows.stop)."""
        start = self.row_starts[rows.start]
        return P[start : start + (rows.stop - rows.start) * rows.stop].reshape(-1, rows.stop)

    def _check_stored(self, P: np.ndarray) -> None:
        """Refuse a table that is not a stored triangle of this grid."""
        if P.shape != (self.stored_size,):
            raise SpecValidationError(
                f"a stored triangle of grid size {self.grid.size} is 1-D of {self.stored_size} values, "
                f"got shape {P.shape}"
            )

    def triangle_blocks(self, cols: int | None = None):
        """One stage's walk over the triangle {b <= a}: ``(rows, stop, on_tri)``
        per block of ``row_blocks``, on the columns up to ``stop``, the end of
        its diagonal tile, which is the shape of the block in a stored
        triangle; ``on_tri`` marks the cells with b <= a, the others being
        padding.  The last block goes first: its columns hold every other
        block's, so a rule that keeps c_k(b) of its longest row computes it
        once a stage.  With ``cols == 1``, one block of every row on the
        column b = 0."""
        G = self.grid.size
        if cols == 1:
            yield slice(0, G), 1, np.ones((G, 1), dtype=bool)
            return
        for rows in reversed(self.row_blocks):
            h = rows.stop - rows.start
            # on_tri[k, j] is j <= rows.start + k: a window of one mask
            yield rows, rows.stop, self._tri_mask[:h, G - rows.start : G + h]

    @cached_property
    def _tri_mask(self) -> np.ndarray:
        """[k, c] is c <= G + k, for k below the tallest block's height."""
        G = self.grid.size
        h = self.row_blocks[0].stop
        return np.tri(h, G + h, G, dtype=bool)

    def lone_values(self, k: int) -> np.ndarray:
        """c_k(b) = E(max of k samples v b) on the grid."""
        if k not in self._c_cache:
            self._c_cache[k] = self.dist.order_max_with_vec(k, self.g)
        return self._c_cache[k]

    def bilinear(self, P: np.ndarray, x, y):
        """Interpolate a stored triangle P (entry (i, j <= i) at
        ``row_starts[i] + j``) at points (x, y) with x >= y.

        Cells on the diagonal use linear interpolation over the triangle
        {y <= x} only: the mirrored surface is continuous but kinked across
        the diagonal, and plain bilinear interpolation would smear the kink.
        So every value used lies on the triangle; the corner (i, i + 1) that
        a diagonal cell's square form reads, padding, is discarded.
        """
        self._check_stored(P)
        G = self.grid.size
        xs = np.clip(np.asarray(x, dtype=float), 0.0, 1.0) / self.h
        ys = np.clip(np.asarray(y, dtype=float), 0.0, 1.0) / self.h
        i = np.clip(xs.astype(int), 0, G - 2)
        j = np.clip(ys.astype(int), 0, G - 2)
        fx = xs - i
        fy = ys - j
        row, below = self.row_starts[i], self.row_starts[i + 1]
        t00, t10 = P[row + j], P[below + j]
        t01, t11 = P[row + j + 1], P[below + j + 1]
        square = t00 * (1 - fx) * (1 - fy) + t10 * fx * (1 - fy) + t01 * (1 - fx) * fy + t11 * fx * fy
        lower_tri = t00 + (t10 - t00) * (fx - fy) + (t11 - t00) * fy
        return np.where((i == j) & (fx >= fy), lower_tri, square)

    def mirrored(self, P: np.ndarray) -> np.ndarray:
        """The mirrored G x G table of a stored triangle P, built one row at a
        time: P's row i up to the diagonal, then its column i below it."""
        self._check_stored(P)
        G = self.grid.size
        T = np.empty((G, G))
        s = self.row_starts
        for i in range(G):
            T[i, : i + 1] = P[s[i] : s[i] + i + 1]
            T[i, i + 1 :] = P[s[i + 1 :] + i]
        return T

    def even_split(self, out: np.ndarray | None = None) -> np.ndarray:
        """(a + b)/2 on the triangle, stored, written into ``out`` (a new
        triangle by default) one whole block at a time."""
        if out is None:
            out = np.empty(self.stored_size)
        for rows, stop, _ in self.triangle_blocks():
            self.block(out, rows)[...] = (self.g[rows, None] + self.g[:stop]) / 2.0
        return out

    def expect_over_arrival(
        self, T: np.ndarray, cols: int | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """E_X[T(a v X, med[a, b, X])] at every grid node (a_i, b_j), for a
        table T on the triangle {b <= a}, stored (entry (i, j <= i) at
        ``row_starts[i] + j``): the stored result, its padding cells finite
        where T's are, or with ``cols == 1`` the column b = 0 as a G-vector.

        Splitting the arrival X at b and a gives

            F(b) T(a, b) + int_(b, a] T(a, x) dF(x) + int_(a, 1] T(x, a) dF(x),

        computed against the density via per-cell linear interpolation of T.
        Both integrals come from running sums along the rows of the mirrored
        table, added cell by cell in sequence: for row i these cover its
        triangle part up to the diagonal, then column i below it.  T is read
        one block of ``row_blocks`` at a time, in place, the column parts
        added down the triangle a row of cells at a time.
        Atoms follow the library convention (the CDF is right-continuous): an
        atom x* <= b is already inside F(b) T(a, b) and adds nothing more.  An
        atom x* > b moves the state to (a v x*, a ^ x*), which does not depend
        on b, so each atom costs one bilinear evaluation along the a axis,
        added to every column with b < x*.

        ``out`` may be T itself: the atom terms are evaluated first, and each
        block is written once it and the row after it are read, which no
        later block reads again.  With ``cols == 1``, T is read whole before
        ``out`` is written, so ``out`` may be any G values of T.

        A G x G table T, with neither ``cols`` nor ``out``, is copied block by
        block into a stored triangle, and the result comes back as
        :meth:`mirrored` gives it: T's cells b > a are not read, and the
        result's cells b > a, which are no states, mirror its cells b < a.
        Any other 2-D table is refused with :class:`SpecValidationError`, as
        is a 1-D one that is not a stored triangle of this grid.
        """
        G = self.grid.size
        square = T.ndim == 2
        if square:
            if T.shape != (G, G) or cols is not None or out is not None:
                raise SpecValidationError(f"a G x G table takes shape ({G}, {G}), and no cols or out")
            P = np.empty(self.stored_size)
            for rows, stop, _ in self.triangle_blocks():
                self.block(P, rows)[...] = T[rows, :stop]
            T = out = P
        self._check_stored(T)
        if cols not in (None, 1):
            raise SpecValidationError("a stored triangle takes cols None or 1")
        g = self.g
        atom_terms = [
            (mass * self.bilinear(T, np.maximum(g, x_star), np.minimum(g, x_star)), np.searchsorted(g, x_star))
            for x_star, mass in self.atoms
        ]
        if cols is None:
            if out is None:
                out = np.empty(len(T))
            diag, total = self._packed_sums(T, out)
            self._packed_add(out, total - diag, atom_terms)
            return self.mirrored(out) if square else out
        if out is None:
            out = np.empty(G)
        diag, total = self._packed_sums(T)
        np.multiply(self.F[0], T[self.row_starts], out=out)
        out += diag
        out += total - diag
        for u, stop in atom_terms:
            if stop:
                out += u
        return out

    def _packed_sums(self, T: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Each row's running sum of the mirrored table's cells up to its
        diagonal (``diag``) and over the whole row (``total``), for a stored
        T; with ``out``, F(b) T plus the row part int_(b, a] T(a, x) dF(x) is
        written there too, the column part still to come.

        Blocks go first to last, each read in place.  Its row pass gives the
        running sums up to the diagonal, and its rows of cells
        rho_l T[l, :l + 1] + phi_l T[l + 1, :l + 1], the last one reading the
        row after the block, added in sequence, carry every earlier row's sum
        on down its column.  Then the block is written: no later block reads
        its rows."""
        G = self.grid.size
        rho, phi, s = self.rho, self.phi, self.row_starts
        diag, total = np.empty(G), np.empty(G)
        size = self.row_blocks[0].stop * G
        crow_buf, cell_buf, right_buf = np.empty(size), np.empty(size), np.empty(size)
        for rows in self.row_blocks:
            r0, r1 = rows.start, rows.stop
            nb = r1 - r0
            Tb = self.block(T, rows)
            crow, cells = crow_buf[: nb * r1].reshape(nb, r1), cell_buf[: nb * r1].reshape(nb, r1)
            # crow[i, j] = int_0^(g_j) T(a_i, x) dF(x), the running sum of row
            # i's cells up to node j, with cells[i, j] = cell j - 1 of row i,
            # rho_(j-1) T[i, j - 1] + phi_(j-1) T[i, j]: one shifted add over
            # the rows laid end to end
            np.multiply(Tb, self._rho_at[:r1], out=crow)
            np.multiply(Tb, self._phi_at[:r1], out=cells)
            flat = cells.reshape(-1)
            np.add(crow.reshape(-1)[:-1], flat[1:], out=flat[1:])
            crow[:, 0] = 0.0
            np.cumsum(cells[:, 1:], axis=1, out=crow[:, 1:])
            diag[rows] = total[rows] = crow[np.arange(nb), np.arange(r0, r1)]
            # the column parts: cell l of row i <= l is rho_l T[l, i] + phi_l T[l + 1, i]
            steps = min(r1, G - 1) - r0
            col, right = cells[:steps], right_buf[: steps * r1].reshape(steps, r1)
            np.multiply(Tb[:steps], rho[r0 : r0 + steps, None], out=col)
            np.multiply(Tb[1:], phi[r0 : r1 - 1, None], out=right[: nb - 1])
            if r1 < G:
                np.multiply(T[s[r1] : s[r1] + r1], phi[r1 - 1], out=right[-1])
            if steps:
                col += right
                # row l adds to total[: l + 1] alone: zero its diagonal tile's
                # cells i > l, start the first row from total, and sum the
                # rows in order
                np.copyto(col[:, r0:], 0.0, where=~self._tri_mask[:steps, G : G + nb])
                col[0] += total[:r1]
                np.add.reduce(col, axis=0, out=total[:r1])
            if out is not None:
                np.subtract(diag[rows, None], crow, out=crow)  # int_(b, a] T(a, x) dF(x)
                np.multiply(self.F[:r1], Tb, out=cells)
                np.add(cells, crow, out=self.block(out, rows))
        return diag, total

    def _packed_add(self, out: np.ndarray, col_suffix: np.ndarray, atom_terms: list) -> None:
        """The rest of the stored :meth:`expect_over_arrival`, in place: the
        column part int_(a, 1] T(x, a) dF(x) on each row, then each atom's
        term on its columns, one block at a time."""
        for rows in self.row_blocks:
            ob = self.block(out, rows)
            ob += col_suffix[rows, None]
            for u, x_stop in atom_terms:
                ob[:, :x_stop] += u[rows, None]


@dataclass(frozen=True)
class StageTables:
    """Grid tables with k arrivals to come.

    Stored for k >= 1, each once as a stored triangle of
    :class:`TriangleContext` (entry (i, j <= i) at ``row_starts[i] + j``, each
    block of ``row_blocks`` a rectangle whose cells b > a are padding): the
    both-pass continuations
    ``dminus`` = E_X[low_{k-1}] and ``dplus`` = E_X[high_{k-1}], one array at
    k <= 2, where low_{k-1} = high_{k-1}: the even split at k = 1, and
    (a + c_1(b))/2 at k = 2, as d_1 equals the bid payoff.  c_k(b) is cached
    by ``ctx.lone_values``.  Nothing is stored at k = 0.
    Derived on demand and not kept: ``low`` and ``high``, the worst and best
    values, the even split (a + b)/2 at k = 0, else the stage rule at
    (a, c_k(b), d) on the grid, each built as a stored triangle and handed
    out as its mirrored G x G table (:meth:`TriangleContext.mirrored`).
    """

    ctx: TriangleContext
    k: int
    dminus: np.ndarray | None = None
    dplus: np.ndarray | None = None

    @property
    def low(self) -> np.ndarray:
        return self.ctx.mirrored(self._values(best=False))

    @property
    def high(self) -> np.ndarray:
        return self.ctx.mirrored(self._values(best=True))

    def _values(self, best: bool, out: np.ndarray | None = None) -> np.ndarray:
        """The worst (best) values as a stored triangle, written into ``out``
        (a new triangle by default) and returned: the stage rule on each whole
        block of :meth:`TriangleContext.triangle_blocks`."""
        ctx = self.ctx
        if self.k == 0:
            return ctx.even_split(out)
        if out is None:
            out = np.empty(ctx.stored_size)
        d = self.dplus if best else self.dminus
        c = ctx.lone_values(self.k)
        for rows, stop, _ in ctx.triangle_blocks():
            ctx.block(out, rows)[...] = stage_value(ctx.g[rows, None], c[None, :stop], ctx.block(d, rows), best)
        return out


_TABLE_CACHE: dict[tuple, tuple[TriangleContext, list[StageTables]]] = {}


def grid_tables(
    dist: ValueDistribution, n: int, grid: GridConfig
) -> tuple[TriangleContext, list[StageTables]]:
    """Value tables for k = 0..n, cached per (dist, grid).  Each stage is
    built in one stored work triangle: the previous stage's values, then their
    expectation over the arrival in place, checked and copied.  For k <= 2
    the worst and best values of stage k - 1 are one function (the even split,
    then (a + c_1(b))/2 = d_1), so d-_k is d+_k and is built once, from the
    worst rule."""
    key = (dist.cache_key(), grid.size)
    if key not in _TABLE_CACHE:
        ctx = TriangleContext(dist, grid)
        _TABLE_CACHE[key] = (ctx, [StageTables(ctx, 0)])
    ctx, tables = _TABLE_CACHE[key]
    work = np.empty(ctx.stored_size) if len(tables) <= n else None
    while len(tables) <= n:
        k = len(tables)
        continuations = []
        for best in (False,) if k <= 2 else (False, True):
            tables[k - 1]._values(best, out=work)
            ctx.expect_over_arrival(work, out=work)
            _check_pass_dominance(ctx, k, work)
            continuations.append(work.copy())
        tables.append(StageTables(ctx, k, continuations[0], continuations[-1]))
    return ctx, tables


def _check_pass_dominance(ctx: TriangleContext, k: int, d: np.ndarray) -> None:
    """Whenever the rival's lone value c is at least a, passing must be worth
    at least a too (the structural inequality behind the stage cases) on the
    stored triangle d, block by block, its padding masked off."""
    c = ctx.lone_values(k)
    for rows, stop, on_tri in ctx.triangle_blocks():
        a = ctx.g[rows, None]
        block = ctx.block(d, rows)
        bad = (c[None, :stop] - a >= -BRANCH_TOL) & (block < a - PASS_DOMINANCE_SLACK)
        bad &= on_tri
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise InconsistencyError(
                f"continuation payoff {block[i, j]} below available value {a[i, 0]} "
                f"at grid node ({rows.start + i}, {j}) despite c >= a"
            )


# -- exact path for finite-support laws ----------------------------------------------


def atom_lattice(atoms, a, b, levels: int) -> tuple[list, list, np.ndarray]:
    """The states reachable from the states (a, b), a >= b, in up to
    ``levels`` arrivals, as index pairs (i, j) into one sorted list of
    values, ``atoms`` the atoms' indices in the law's order: max and median
    keep order, so an arrival x moves (i, j) to (i v x, med[i, j, x]) on the
    indices as on the values, float or exact.  Returns each level's distinct
    states, two index arrays sorted by (i, j); each level's next-state table
    but the last's, state x atom; and each query's index among level 0's
    states.  A level whose working set (``LATTICE_ENTRY_BYTES`` an entry, 8
    for the tables kept before it) would exceed ``GRID_MEMORY_BUDGET`` raises
    :class:`ResourceBudgetError` before its table is allocated."""
    atoms, a, b = (np.asarray(v, dtype=np.intp) for v in (atoms, a, b))
    size = int(max(atoms.max(initial=0), a.max(initial=0))) + 1

    def distinct(key):
        key, inverse = np.unique(key, return_inverse=True)
        return (key // size, key % size), inverse.reshape(-1)

    first, inverse = distinct(a * size + b)
    states, tables, kept = [first], [], 0
    for _ in range(levels):
        i, j = states[-1][0][:, None], states[-1][1][:, None]
        working = 8 * kept + LATTICE_ENTRY_BYTES * i.size * atoms.size
        if working > GRID_MEMORY_BUDGET:
            raise ResourceBudgetError(
                f"{i.size} states x {atoms.size} atoms in one level of the atom-state lattice need about "
                f"{working / 2**30:.1f} GiB, over the budget of {GRID_MEMORY_BUDGET / 2**30:.1f} GiB"
            )
        kept += i.size * atoms.size
        key = np.maximum(atoms, j)
        np.minimum(key, i, out=key)
        key += np.maximum(i, atoms) * size
        nxt, table = distinct(key)
        states.append(nxt)
        tables.append(table.reshape(key.shape))
    return states, tables, inverse


def _lh_discrete(dist: ValueDistribution, n: int, a: np.ndarray, b: np.ndarray) -> tuple:
    """(low, high, d-, d+) with n >= 1 arrivals to come at the states (a, b),
    1-D arrays, on a law with no density: one backward pass over the levels
    of :func:`atom_lattice`, c_k once per value a level, and each
    continuation summed atom after atom.  Each value is the state's own."""
    xs = np.array([x for x, _ in dist.atoms])
    values = np.unique(np.concatenate((xs, a, b)))
    states, tables, inverse = atom_lattice(*(np.searchsorted(values, v) for v in (xs, a, b)), n)
    i, j = states[n]
    low = high = (values[i] + values[j]) / 2.0
    for k in range(1, n + 1):
        (i, j), nxt = states[n - k], tables[n - k]
        dm, dp = np.zeros((2, len(i)))
        for (_, mass), col in zip(dist.atoms, nxt.T):
            dm += mass * low[col]
            dp += mass * high[col]
        sa, sb, c = values[i], values[j], dist.order_max_with_vec(k, values)[j]
        bad = np.flatnonzero((c - sa >= -BRANCH_TOL) & (np.minimum(dm, dp) < sa - PASS_DOMINANCE_SLACK))
        if bad.size:
            s = bad[0]
            raise InconsistencyError(
                f"pass-dominance violated at state (n={k}, a={sa[s]}, b={sb[s]}): "
                f"c={c[s]}, d=({dm[s]}, {dp[s]})"
            )
        low, high = stage_value(sa, c, dm, best=False), stage_value(sa, c, dp, best=True)
    return low[inverse], high[inverse], dm[inverse], dp[inverse]


def exact_pass_value(dist: ValueDistribution, k: int, a: np.ndarray, b: np.ndarray, memo: dict) -> np.ndarray:
    """Both-pass continuation d+_k(a, b) of the best equilibrium, elementwise
    over 1-D arrays of states, on a law with no density, by the recursion of
    :func:`_lh_discrete`.  Each distinct state (level 0 of the lattice) is
    read from ``memo``, keyed by (k, a, b), or evaluated once and kept there."""
    values = np.unique(np.concatenate((a, b)))
    ((i, j),), _, inverse = atom_lattice([], *(np.searchsorted(values, v) for v in (a, b)), 0)
    sa, sb = values[i], values[j]
    keys = [(k, x, y) for x, y in zip(sa.tolist(), sb.tolist())]
    new = [s for s, key in enumerate(keys) if key not in memo]
    if new:
        memo.update(zip((keys[s] for s in new), _lh_discrete(dist, k, sa[new], sb[new])[3].tolist()))
    return np.array([memo[key] for key in keys])[inverse]


# -- public operations -----------------------------------------------------------------


def _states(a, b) -> tuple[np.ndarray, np.ndarray]:
    """States a >= b as float arrays of their broadcast shape, checked."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not np.all((0.0 <= b) & (b <= a) & (a <= 1.0)):
        raise SpecValidationError(f"need 0 <= b <= a <= 1, got a={a}, b={b}")
    return a, b


def lh_values(
    dist: ValueDistribution,
    n: int,
    a,
    b,
    grid: GridConfig | None = None,
):
    """(worst, best) symmetric equilibrium payoff of the game with initial
    values a >= b and n arrivals to come, elementwise over arrays a and b:
    two arrays of their broadcast shape, or two floats for scalars.  Each
    value is bitwise the point's own call: the grid path reads each table
    once for all points, and the exact path evaluates each distinct state of
    each level once for all of them."""
    a, b = _states(a, b)
    if n < 0:
        raise SpecValidationError("n must be >= 0")
    if n == 0:
        low = high = (a + b) / 2.0
    elif not dist.pieces:
        low, high = (v.reshape(a.shape) for v in _lh_discrete(dist, n, a.ravel(), b.ravel())[:2])
    else:
        ctx, tables = grid_tables(dist, n, grid or GridConfig())
        stage = tables[n]
        # interpolate the smooth both-pass continuation surfaces and apply the
        # stage rule at the query itself; interpolating the branched value
        # tables directly would smear their jump discontinuities
        c = dist.order_max_with_vec(n, b)
        low = stage_value(a, c, ctx.bilinear(stage.dminus, a, b), best=False)
        high = stage_value(a, c, ctx.bilinear(stage.dplus, a, b), best=True)
    if a.ndim == 0:
        return (float(low), float(high))
    return (low, high)


def band(dist: ValueDistribution, n: int, grid: GridConfig | None = None) -> FullRecallBand:
    """Extremal symmetric equilibrium payoffs of the n-arrival game."""
    if n < 1:
        raise SpecValidationError("band requires n >= 1")
    low, high = lh_values(dist, n, 0.0, 0.0, grid)
    return FullRecallBand(n=n, low=low, high=high, grid=(grid or GridConfig()) if dist.pieces else None)


# -- closed forms for n <= 3 ----------------------------------------------------------


def pass_value(dist: ValueDistribution, k: int, a, c):
    """Both-pass continuation d_k(a, b) for k in {1, 2}, elementwise, given
    c = c_k(b).  On every law d_1 = (a + c_1(b))/2 and, as E(a v X) = c_1(a)
    and E(med[a, b, X] v Y) = c_1(a) + c_2(b) - c_2(a),
    d_2 = c_1(a) + (c_2(b) - c_2(a))/2, with c_1(a), c_2(a) on a's own shape."""
    if k == 1:
        return (a + c) / 2.0
    if k == 2:
        return dist.order_max_with_vec(1, a) + (c - dist.order_max_with_vec(2, a)) / 2.0
    raise SpecValidationError("pass values are closed-form for k in {1, 2}")


def _cut(turns: Callable, lo, hi):
    """Elementwise, the s in [lo, hi] with ``turns`` False on (lo, s] and
    True on (s, hi] (s = hi where it never turns), by one vectorized
    bisection: 64 halvings leave neighbouring floats about any cut above
    2**-11, so an atom at the cut falls on its own branch."""
    left, right = np.broadcast_arrays(lo, hi)
    for _ in range(64):
        mid = (left + right) / 2.0
        on = turns(mid)
        left, right = np.where(on, left, mid), np.where(on, mid, right)
    return np.where(turns(hi), left, hi)


def closed_forms(dist: ValueDistribution, n: int, a, b):
    """Exact (worst, best) values for n in {1, 2, 3} on every law, atoms
    included, elementwise over a >= b as :func:`lh_values` takes them.

    Every term is a lone value c_j at a point, and c_j' = F^j.  n = 1, 2 are
    the stage rule at (a, c_n(b), :func:`pass_value`); at n = 3,
    d_3 = F(b) value_2(a, b) + int_(b, a] value_2(a, x) dF + int_(a, 1] value_2(x, a) dF,
    where value_2(a, x) bids below one cut and value_2(x, a) above one, each
    placed by :func:`_cut`.  On each branch, int x dF = [x F - c_1] and
    int c_j dF = [F c_j - c_(j+1)] over (u, v], both 0 at 1."""
    if n not in (1, 2, 3):
        raise SpecValidationError("closed forms are available for n in {1, 2, 3}")
    a, b = _states(a, b)
    lone, F = dist.order_max_with_vec, dist.cdf
    if n == 1:
        low = high = pass_value(dist, 1, a, lone(1, b))
    elif n == 2:
        c = lone(2, b)
        low, high = (stage_value(a, c, pass_value(dist, 2, a, c), best) for best in (False, True))
    else:
        c1a, c2a = lone(1, a), lone(2, a)
        Fa, Fb, c3b, value2 = F(a), F(b), lone(3, b), closed_forms(dist, 2, a, b)

        def G(j, x):  # int c_j dF
            return F(x) * lone(j, x) - lone(j + 1, x)

        # (b, a]: a/2 + c_2(x)/2 where value_2(a, x) bids, else c_1(a) + (c_2(x) - c_2(a))/2
        mid = (G(2, a) - G(2, b)) / 2.0
        # (a, 1]: c_2(a)/2 plus c_1(x) - c_2(x)/2 where value_2(x, a) passes, else x/2
        top = c2a / 2.0 * (1.0 - Fa) - (G(1, a) - G(2, a) / 2.0)

        def value3(best):
            def mid_passes(x):
                c = lone(2, x)
                return ~stage_bids(a, c, pass_value(dist, 2, a, c), best)

            def top_bids(x):
                return stage_bids(x, c2a, pass_value(dist, 2, x, c2a), best)

            s, t = _cut(mid_passes, b, a), _cut(top_bids, a, 1.0)
            Fs = F(s)
            d = Fb * value2[best] + mid + a / 2.0 * (Fs - Fb) + (c1a - c2a / 2.0) * (Fa - Fs)
            d += top + G(1, t) - G(2, t) / 2.0 - (t * F(t) - lone(1, t)) / 2.0
            return stage_value(a, c3b, d, best)

        low, high = value3(False), value3(True)
    if a.ndim == 0:
        return (float(low), float(high))
    return (low, high)


def uniform_closed_forms(n: int, a: float, b: float) -> tuple[float, float]:
    """:func:`closed_forms` on the uniform law, kept because perfbench reads
    it by this name."""
    return closed_forms(uniform(), n, a, b)
