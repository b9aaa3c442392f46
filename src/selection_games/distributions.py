"""Laws on [0, 1] and the expectation queries the equilibrium recursions need.

A ``ValueDistribution`` is a finite list of atoms plus a piecewise-polynomial
density.  Everything downstream (prophet values, stage games, equilibrium
recursions, efficiency ratios) asks this module for expectations, so the
queries here are computed exactly wherever the integrand is polynomial
against the density:

* order-statistic queries (``expect_max_with``, ``expect_order_max_with``,
  ``order_max_with_vec``) go through one kernel,
  the lone-player value c_k(b) = b + int_b^1 (1 - F^k).  On every CDF
  segment 1 - F^k is a polynomial; its antiderivative is built once per
  (law, k) as a Chebyshev series, so a query is one elementwise series
  evaluation and depends on its floor b alone;
* ``top_two_expectation`` adds to c_n(0) the mean of the second-largest
  sample, integrated exactly per segment from pointwise values at
  Chebyshev points;
* ``sample`` inverts the CDF: in closed form on constant-density pieces,
  and otherwise by Newton steps bracketed between two knots of a per-piece
  CDF table, with bisection for the rare draw Newton leaves unsettled.  A
  guide table over equal buckets of [0, 1] finds the knot bracket, mostly
  with one comparison;
* ``partial_expectation`` integrates P(a) / (a + s), or P(a) alone, P a
  polynomial, in closed form: on each density piece P times the density is
  divided by (a + s) synthetically, leaving a polynomial plus r / (a + s),
  whose integral is an antiderivative difference plus r ln(...), all in
  40-digit decimal arithmetic rounded once.  It is the one path for every
  scalar expectation against the law: the mean, the no-recall recursions,
  the two-pick sums and the two-arrival ratios;
* ``cdf`` and ``cell_moments`` (with ``density_moment``, its two-edge
  case) evaluate Chebyshev series in float over whole vectors: the CDF
  segment series that the lone-player kernel also reads, and each piece's
  moment antiderivative cast the same way.  They feed the triangle grid,
  not the scalar recursions.

Conventions fixed once and used everywhere:

* The CDF is right-continuous; ``cdf(x)`` includes the mass of an atom at
  ``x``.
* An oriented integral over ``[lo, hi]`` against the law excludes an atom
  sitting exactly at ``lo`` and includes one at ``hi``
  (see :meth:`ValueDistribution.partial_expectation`).
* Distributions are immutable after construction; all queries are pure.
"""

from __future__ import annotations

import decimal
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import SpecValidationError

MASS_TOL = 1e-12

#: knots of the per-piece CDF table that brackets each inverse-CDF draw
SAMPLE_KNOTS = 1025
#: buckets of the guide table that finds a draw's knot bracket; a power of
#: two, so target * SAMPLE_BUCKETS and m / SAMPLE_BUCKETS are exact
SAMPLE_BUCKETS = 4096
#: Newton steps per draw; a draw whose last step changed its CDF value by
#: more than ``4 * eps`` finishes by bisection inside its knot bracket
NEWTON_STEPS = 3
_SETTLED_STEP = 4.0 * np.finfo(float).eps
#: bisection steps of that fallback: a knot bracket of width w shrinks to
#: w * 2**-42, finer than the 2**-50 of bisecting the whole piece
FALLBACK_BISECTIONS = 42

# 40 significant digits for ``partial_expectation``: on a high-degree
# density the remainder term r ln(...) and Q's integral cancel by up to five
# digits, and so do a monomial antiderivative's two ends (Beta(6,7)'s
# coefficients reach 1.1e5); the same steps in double precision are off by
# up to 1.2e-12 on the no-recall recursion of Beta(6,7) and Beta(7,7)
_RATIONAL_CONTEXT = decimal.Context(prec=40)

# The polynomial helpers start from the integer 0, so they serve floats,
# arrays and the Decimals of ``partial_expectation`` alike.


def _poly_eval(coeffs: Sequence[float], x: np.ndarray | float):
    """Evaluate an ascending-coefficient polynomial."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_antideriv(coeffs: Sequence[float]) -> tuple[float, ...]:
    return (0,) + tuple(c / (k + 1) for k, c in enumerate(coeffs))


def _poly_mul(p: Sequence[float], q: Sequence[float]) -> list[float]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _divide_linear(coeffs: Sequence[float], shift: float) -> tuple[list[float], float]:
    """Synthetic division: coeffs(x) = Q(x) (x + shift) + r; returns (Q, r)."""
    acc, out = 0, []
    for c in reversed(coeffs):
        acc = acc * -shift + c
        out.append(acc)
    r = out.pop()
    return out[::-1], r


@dataclass(frozen=True)
class DensityPiece:
    lo: float
    hi: float
    coeffs: tuple[float, ...]

    def __call__(self, x):
        return _poly_eval(self.coeffs, x)

    @property
    def mass(self) -> float:
        anti = _poly_antideriv(self.coeffs)
        return _poly_eval(anti, self.hi) - _poly_eval(anti, self.lo)


@dataclass(frozen=True)
class ValueDistribution:
    """A law on [0, 1]: atoms plus a piecewise-polynomial density.

    ``atoms``
        tuple of ``(value, mass)`` pairs, sorted by value, values distinct,
        masses in (0, 1].
    ``pieces``
        tuple of :class:`DensityPiece`, disjoint and sorted; polynomial
        coefficients are in ascending order.

    Total mass must be 1 within ``MASS_TOL``.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    pieces: tuple[DensityPiece, ...] = ()

    def __post_init__(self) -> None:
        prev = -1.0
        for x, m in self.atoms:
            if not (0.0 <= x <= 1.0):
                raise SpecValidationError(f"atom value {x!r} outside [0, 1]")
            if not (0.0 < m <= 1.0):
                raise SpecValidationError(f"atom mass {m!r} outside (0, 1]")
            if x <= prev:
                raise SpecValidationError("atom values must be distinct and sorted")
            prev = x
        prev = 0.0
        for p in self.pieces:
            if not (0.0 <= p.lo < p.hi <= 1.0):
                raise SpecValidationError(f"density piece [{p.lo}, {p.hi}] invalid")
            if p.lo < prev:
                raise SpecValidationError("density pieces must be disjoint and sorted")
            grid = np.linspace(p.lo, p.hi, 65)
            if np.min(p(grid)) < -1e-9:
                raise SpecValidationError("density piece is negative")
            prev = p.hi
        total = sum(m for _, m in self.atoms) + sum(p.mass for p in self.pieces)
        if abs(total - 1.0) > MASS_TOL:
            raise SpecValidationError(f"total mass {total!r} != 1")

    # -- structure ---------------------------------------------------------

    def is_continuous(self) -> bool:
        return not self.atoms

    @cached_property
    def _segments(self) -> tuple[np.polynomial.Chebyshev, ...]:
        """The law's one float form of F: on each segment of the partition
        induced by atoms and pieces, the CDF as a Chebyshev series over that
        segment, cast from the monomial CDF, whose only float evaluations are
        the segment's end values.  Built on first use, so ``np.polynomial``
        loads then, not at import."""
        cuts = {0.0, 1.0}
        cuts.update(x for x, _ in self.atoms)
        for p in self.pieces:
            cuts.add(p.lo)
            cuts.add(p.hi)
        pts = sorted(cuts)
        segments = []
        acc = sum(m for x, m in self.atoms if x == 0.0)
        for u, v in zip(pts[:-1], pts[1:]):
            coeffs: tuple[float, ...] = (acc,)
            for p in self.pieces:
                if p.lo <= u and v <= p.hi:
                    anti = _poly_antideriv(p.coeffs)
                    # pin the constant so the segment equals acc at its left end
                    coeffs = (acc - _poly_eval(anti, u),) + anti[1:]
                    break
            segments.append(np.polynomial.Chebyshev.cast(np.polynomial.Polynomial(coeffs), domain=[u, v]))
            # advance the accumulated mass to v (density over [u, v] + atom at v)
            acc = float(_poly_eval(coeffs, v))
            acc += sum(m for x, m in self.atoms if x == v)
        return tuple(segments)

    @cached_property
    def _seg_lows(self) -> np.ndarray:
        return np.array([F.domain[0] for F in self._segments])

    # -- basic queries ------------------------------------------------------

    def cdf(self, x) -> float | np.ndarray:
        """Right-continuous CDF, clamped outside [0, 1]."""
        scalar = np.isscalar(x) or np.asarray(x).ndim == 0
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        shape = xs.shape
        xs = xs.ravel()
        out = np.empty_like(xs)
        idx = np.searchsorted(self._seg_lows, xs, side="right") - 1
        idx = np.clip(idx, 0, len(self._segments) - 1)
        for k, F in enumerate(self._segments):
            mask = idx == k
            if np.any(mask):
                out[mask] = F(xs[mask])
        out = np.where(xs >= 1.0, 1.0, out)
        out = np.where(xs < 0.0, 0.0, out)
        out = np.clip(out, 0.0, 1.0)
        if scalar:
            return float(out[0])
        return out.reshape(shape)

    def mean(self) -> float:
        """E(X) = int over (0, 1] of a dF(a); an atom at 0 adds nothing."""
        return self.partial_expectation(0.0, 1.0, (0.0, 1.0))

    def density_moment(self, lo: float, hi: float, degree: int) -> float:
        """Exact integral of x^degree * density over [lo, hi] (atoms excluded)."""
        return float(self.cell_moments(np.array([lo, hi], dtype=float), degree)[0])

    def cell_moments(self, edges: np.ndarray, degree: int) -> np.ndarray:
        """Exact integral of x^degree * density over every cell
        [edges[t], edges[t + 1]] (atoms excluded).

        Each density piece's moment antiderivative, a Chebyshev series over
        the piece, is evaluated once over the whole edge vector clipped to
        the piece; a cell adds the difference at its two ends where it
        overlaps the piece.  Pieces add in order.
        """
        edges = np.asarray(edges, dtype=float)
        total = np.zeros(edges.size - 1)
        for p, M in zip(self.pieces, self._moment_series(degree)):
            overlaps = np.minimum(edges[1:], p.hi) > np.maximum(edges[:-1], p.lo)
            at = M(np.clip(edges, p.lo, p.hi))
            total = np.where(overlaps, total + (at[1:] - at[:-1]), total)
        return total

    @cached_property
    def _moment_kernels(self) -> dict[int, tuple]:
        """Per degree d, filled on first use: for each density piece the
        Chebyshev series of int_lo^x t^d p(t) dt over [lo, hi]."""
        return {}

    def _moment_series(self, degree: int) -> tuple[np.polynomial.Chebyshev, ...]:
        kernels = self._moment_kernels
        if degree not in kernels:
            poly = np.polynomial
            kernels[degree] = tuple(
                poly.Chebyshev.cast(poly.Polynomial((0.0,) * degree + p.coeffs), domain=[p.lo, p.hi])
                .integ(lbnd=p.lo)
                for p in self.pieces
            )
        return kernels[degree]

    # -- integral kernels ----------------------------------------------------

    def partial_expectation(
        self, lo: float, hi: float, num: Sequence[float], shift: float | None = None
    ) -> float:
        """Exact integral of P(a) / (a + shift) against the law over (lo, hi],
        P given by its ascending coefficients ``num``; with ``shift=None``,
        of P(a) alone.  An atom at ``lo`` is excluded, one at ``hi`` included;
        an interval whose ends cross (hi <= lo) integrates to 0.

        On each density piece [u, v], P p = Q (a + shift) + r by synthetic
        division, so the piece adds Q's antiderivative difference plus
        r ln((v + shift) / (u + shift)); each atom x adds m P(x) / (x + shift).
        Every step runs in 40-digit decimal arithmetic on the exact values of
        the float inputs, and the sum is rounded to a float once.
        """
        if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
            raise SpecValidationError("partial_expectation requires lo and hi in [0, 1]")
        if hi <= lo:
            return 0.0
        if shift is not None and lo + shift <= 0.0:
            raise SpecValidationError(f"pole at a = {-shift!r} not below lo = {lo!r}")
        exact = decimal.Decimal
        with decimal.localcontext(_RATIONAL_CONTEXT):
            num = [exact(c) for c in num]
            s = None if shift is None else exact(shift)
            total = exact(0)
            for p in self.pieces:
                a, b = max(lo, p.lo), min(hi, p.hi)
                if b > a:
                    a, b = exact(a), exact(b)
                    quot = _poly_mul(num, [exact(c) for c in p.coeffs])
                    if s is not None:
                        quot, r = _divide_linear(quot, s)
                        total += r * ((b + s) / (a + s)).ln()
                    anti = _poly_antideriv(quot)
                    total += _poly_eval(anti, b) - _poly_eval(anti, a)
            for x, m in self.atoms:
                if lo < x <= hi:
                    x = exact(x)
                    value = _poly_eval(num, x)
                    total += exact(m) * (value if s is None else value / (x + s))
            return float(total)

    @cached_property
    def _lone_kernels(self) -> dict[int, tuple]:
        """Per order k, filled on first use: ``(suffix, series)`` where
        ``series[i](x)`` = int_x^hi (1 - F^k) on segment i and ``suffix[i]``
        = int_lo_i^1 (1 - F^k)."""
        return {}

    def _lone_kernel(self, k: int) -> tuple[np.ndarray, tuple[np.polynomial.Chebyshev, ...]]:
        kernels = self._lone_kernels
        if k not in kernels:
            series = []
            poly = np.polynomial
            for F in self._segments:
                # F**k would stop at the class's cap of 100 on the power
                Fk = poly.Chebyshev(poly.chebyshev.chebpow(F.coef, k, maxpower=None), domain=F.domain)
                series.append(-(1.0 - Fk).integ(lbnd=F.domain[1]))
            suffix = np.zeros(len(series) + 1)
            for i in range(len(series) - 1, -1, -1):
                suffix[i] = suffix[i + 1] + series[i](self._segments[i].domain[0])
            kernels[k] = (suffix, tuple(series))
        return kernels[k]

    def _lone_values(self, n: int, ks) -> np.ndarray:
        """c_n(b) = b + int_b^1 (1 - F^n) at every floor b of ``ks``: the one
        kernel behind every order-statistic query.

        Each floor b in segment i costs one series evaluation,
        b + suffix[i + 1] + series[i](b), so the value depends on b alone and
        not on the other floors of the call.
        """
        if n < 1:
            raise SpecValidationError("order statistic index n must be >= 1")
        ks = np.clip(np.asarray(ks, dtype=float), 0.0, 1.0)
        suffix, series = self._lone_kernel(n)
        idx = np.searchsorted(self._seg_lows, ks, side="right") - 1
        out = np.empty_like(ks)
        for i, R in enumerate(series):
            mask = idx == i
            if np.any(mask):
                b = ks[mask]
                out[mask] = b + suffix[i + 1] + R(b)
        return np.where(ks >= 1.0, ks, out)

    def _lone_value(self, n: int, k: float) -> float:
        return float(self._lone_values(n, np.array([k], dtype=float))[0])

    def expect_max_with(self, k: float) -> float:
        """E(X v k) for k in [0, 1], computed as k + integral_k^1 (1 - F)."""
        return self._lone_value(1, k)

    def expect_order_max_with(self, n: int, k: float) -> float:
        """E(max(X_1..X_n) v k) = k + integral_k^1 (1 - F^n)."""
        return self._lone_value(n, k)

    def order_max_with_vec(self, n: int, ks: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`expect_order_max_with` over an array of floors;
        each value depends on its own floor alone."""
        return self._lone_values(n, ks)

    def top_two_expectation(self, n: int) -> float:
        """E(first order statistic + second order statistic) of n samples,
        as c_n(0) + E[X_(n-1)] with E[X_(n-1)] = int (1 - F^n - n F^(n-1) (1 - F)).

        The integrand is sampled pointwise, where both subtracted terms lie in
        [0, 1], and integrated exactly per segment from its values at Chebyshev
        points.  (Differencing n c_(n-1)(0) and (n - 1) c_n(0), two terms of
        size n, would lose about n eps.)
        """
        if n < 2:
            raise SpecValidationError("top_two_expectation requires n >= 2")

        def survival(F):
            F = np.clip(F, 0.0, 1.0)
            below = F ** (n - 1)
            return 1.0 - below * F - n * below * (1.0 - F)

        second = 0.0
        for F in self._segments:
            lo, hi = F.domain.tolist()
            second += _chebyshev_point_integral(lambda x, F=F: survival(F(x)), lo, hi, F.degree() * n)
        return self._lone_value(n, 0.0) + second

    # -- sampling -------------------------------------------------------------

    @cached_property
    def _sample_tables(self) -> tuple:
        """Per density piece: None for a constant density (inverted in closed
        form), else its :class:`_SampleTable`."""
        tables = []
        edges = np.arange(SAMPLE_BUCKETS + 1) / SAMPLE_BUCKETS
        for p, M in zip(self.pieces, self._moment_series(0)):
            if len(p.coeffs) == 1:
                tables.append(None)
                continue
            F = M / p.mass
            knots = np.linspace(p.lo, p.hi, SAMPLE_KNOTS)
            cdf = np.maximum.accumulate(F(knots))
            guide = np.minimum(np.searchsorted(cdf, edges, side="right"), SAMPLE_KNOTS - 1)
            guide = np.append(guide, guide[-1])
            tables.append(_SampleTable(knots, cdf, F, guide, np.diff(guide) > 1))
        return tuple(tables)

    def _draw_piece(self, j: int, target: np.ndarray) -> np.ndarray:
        """Invert piece j's within-piece CDF at ``target``, which a constant
        density overwrites."""
        p, table = self.pieces[j], self._sample_tables[j]
        if table is None:
            # constant density: lo + target (hi - lo), in place
            target *= p.hi - p.lo
            target += p.lo
            return target
        return _invert_piece(p, table, target)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> float | np.ndarray:
        """i.i.d. draws; deterministic given the generator state.  Each draw
        reads one double u of ``rng`` and depends on it alone: u picks a
        component (atoms first, then pieces, in order) and is rescaled to a
        target in that piece's CDF.  A law of one piece and no atoms skips
        the component step, since its target (u - 0) / (1 - 0) is u itself."""
        scalar = size is None
        count = 1 if scalar else int(size)
        u = rng.random(count)
        if not self.atoms and len(self.pieces) == 1:
            out = self._draw_piece(0, u)
        else:
            out = np.empty(count)
            weights = [m for _, m in self.atoms] + [p.mass for p in self.pieces]
            edges = np.concatenate([[0.0], np.cumsum(weights)])
            edges[-1] = 1.0
            comp = np.clip(np.searchsorted(edges, u, side="right") - 1, 0, len(weights) - 1)
            for i, (x, _) in enumerate(self.atoms):
                out[comp == i] = x
            base = len(self.atoms)
            for j in range(len(self.pieces)):
                mask = comp == base + j
                if np.any(mask):
                    target = (u[mask] - edges[base + j]) / (edges[base + j + 1] - edges[base + j])
                    out[mask] = self._draw_piece(j, target)
        if scalar:
            return float(out[0])
        return out

    # -- identity ---------------------------------------------------------------

    def cache_key(self) -> tuple:
        return (self.atoms, tuple((p.lo, p.hi, p.coeffs) for p in self.pieces))


def _chebyshev_point_integral(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, degree: int) -> float:
    """Exact integral over [lo, hi] of a polynomial f of at most ``degree``,
    from its values at the degree + 1 Chebyshev points of the first kind.

    The values give f's Chebyshev coefficients c_j by a discrete cosine
    transform (done with one FFT), and int_{-1}^{1} T_j = 2 / (1 - j^2) for
    even j, 0 for odd j.
    """
    m = degree + 1
    theta = np.pi * (np.arange(m) + 0.5) / m
    vals = f(lo + (hi - lo) * (1.0 + np.cos(theta)) / 2.0)
    j = np.arange(0, m, 2)
    spectrum = np.fft.fft(np.concatenate([vals, vals[::-1]]))[:m:2]
    coeffs = (np.exp(-0.5j * np.pi * j / m) * spectrum).real / m
    weights = 2.0 / (1.0 - j.astype(float) ** 2)
    weights[0] = 1.0  # the series carries c_0 / 2
    return (hi - lo) / 2.0 * math.fsum(coeffs * weights)


class _SampleTable(NamedTuple):
    """One polynomial piece's inverse-CDF tables.

    ``F`` is the within-piece CDF series and ``cdf`` its values at the
    ``SAMPLE_KNOTS`` equally spaced ``knots``.  The guide table splits [0, 1]
    into ``SAMPLE_BUCKETS`` equal buckets: ``guide[m]`` counts the ``cdf``
    values <= m / SAMPLE_BUCKETS, capped at ``SAMPLE_KNOTS - 1`` (brackets
    are clipped to ``SAMPLE_KNOTS - 2``, so the cap moves no bracket), and
    ``crowded[m]`` marks the buckets whose count rises by more than one from
    edge m to edge m + 1.  A last, repeated entry serves the target 1.
    """

    knots: np.ndarray
    cdf: np.ndarray
    F: np.polynomial.Chebyshev
    guide: np.ndarray
    crowded: np.ndarray


def _knot_bracket(table: _SampleTable, target: np.ndarray) -> np.ndarray:
    """Each target's knot bracket ``clip(searchsorted(cdf, target, "right")
    - 1, 0, SAMPLE_KNOTS - 2)``, for targets in [0, 1], read off the guide
    table: in a bucket whose counts rise by at most one, one comparison with
    the next knot's CDF value settles the count; crowded buckets search."""
    cdf = table.cdf
    m = (target * SAMPLE_BUCKETS).astype(np.intp)
    count = table.guide[m]
    count += cdf[count] <= target
    wide = np.flatnonzero(table.crowded[m])
    if wide.size:
        count[wide] = np.searchsorted(cdf, target[wide], side="right")
    count -= 1
    return np.clip(count, 0, SAMPLE_KNOTS - 2, out=count)


def _invert_piece(p: DensityPiece, table: _SampleTable, target: np.ndarray) -> np.ndarray:
    """Solve F(x) = target on one piece: a knot bracket from the guide table,
    a linear-interpolation start, then Newton steps clipped to the bracket,
    each evaluating the Chebyshev series of F by Clenshaw's recurrence and
    the density by Horner's rule, in place on reused work arrays."""
    knots, cdf, F = table.knots, table.cdf, table.F
    j = _knot_bracket(table, target)
    j1 = j + 1
    lo, hi = knots[j], knots[j1]
    rise = cdf[j1] - cdf[j]
    frac = np.divide(target - cdf[j], rise, out=np.zeros_like(target), where=rise > 0.0)
    x = lo + np.clip(frac, 0.0, 1.0) * (hi - lo)
    # free the lookups before the six work arrays are taken
    del j, j1, rise, frac
    off, scl = F.mapparms()
    coef = F.coef
    mass = p.mass
    y, y2, c0, c1, tmp, slope = (np.empty_like(x) for _ in range(6))
    for step in range(NEWTON_STEPS):
        # F(x) as ``F.__call__`` computes it, op for op: y = off + scl x,
        # then Clenshaw's recurrence (F has at least three coefficients)
        np.multiply(x, scl, out=y)
        y += off
        np.add(y, y, out=y2)
        c0.fill(coef[-2])
        c1.fill(coef[-1])
        for c in coef[-3::-1]:
            np.multiply(c1, y2, out=tmp)
            tmp += c0
            np.subtract(c, c1, out=c0)
            c1, tmp = tmp, c1
        np.multiply(c1, y, out=y)
        y += c0
        y -= target
        # the density p(x) / mass by Horner's rule, floored at tiny; its
        # first step 0 x + c is 0 + c, since x >= 0
        slope.fill(0.0 + p.coeffs[-1])
        for c in p.coeffs[-2::-1]:
            slope *= x
            slope += c
        slope /= mass
        np.maximum(slope, np.finfo(float).tiny, out=slope)
        # the clipped step, into y
        np.divide(y, slope, out=y)
        np.subtract(x, y, out=y)
        np.clip(y, lo, hi, out=y)
        if step == NEWTON_STEPS - 1:
            # the last step's size in probability units, where rounding sets the floor
            moved = np.abs(np.subtract(y, x, out=tmp), out=tmp)
            moved *= slope
        x, y = y, x
    slow = np.flatnonzero(moved > _SETTLED_STEP)
    if slow.size:
        x[slow] = _bisect_piece(F, target[slow], lo[slow], hi[slow])
    return x


def _bisect_piece(F, target, lo, hi) -> np.ndarray:
    """Bisection of the within-piece CDF series F on the brackets [lo, hi]."""
    for _ in range(FALLBACK_BISECTIONS):
        mid = (lo + hi) / 2.0
        takes = F(mid) < target
        lo = np.where(takes, mid, lo)
        hi = np.where(takes, hi, mid)
    return (lo + hi) / 2.0


# -- constructors ----------------------------------------------------------------


def uniform() -> ValueDistribution:
    return ValueDistribution(pieces=(DensityPiece(0.0, 1.0, (1.0,)),))


def discrete(atoms: Iterable[tuple[float, float]]) -> ValueDistribution:
    pairs = tuple(sorted((float(x), float(m)) for x, m in atoms))
    return ValueDistribution(atoms=pairs)


def point_mass(v: float) -> ValueDistribution:
    return discrete([(v, 1.0)])


def two_point(lo: float = 1.0 / 3.0, hi: float = 2.0 / 3.0, p_lo: float = 0.5) -> ValueDistribution:
    return discrete([(lo, p_lo), (hi, 1.0 - p_lo)])


def mixture_with_uniform(eta: float, base: ValueDistribution) -> ValueDistribution:
    """(1 - eta) * base + eta * Uniform[0, 1]."""
    if not (0.0 < eta < 1.0):
        raise SpecValidationError("mixture weight eta must be in (0, 1)")
    atoms = tuple((x, (1.0 - eta) * m) for x, m in base.atoms)
    pieces = [DensityPiece(p.lo, p.hi, tuple((1.0 - eta) * c for c in p.coeffs)) for p in base.pieces]
    merged = _merge_uniform(pieces, eta)
    return ValueDistribution(atoms=atoms, pieces=tuple(merged))


def _merge_uniform(pieces: list[DensityPiece], eta: float) -> list[DensityPiece]:
    """Add a constant density eta on [0, 1] to existing pieces."""
    cuts = {0.0, 1.0}
    for p in pieces:
        cuts.add(p.lo)
        cuts.add(p.hi)
    pts = sorted(cuts)
    out = []
    for u, v in zip(pts[:-1], pts[1:]):
        coeffs = [eta]
        for p in pieces:
            if p.lo <= u and v <= p.hi:
                cs = list(p.coeffs)
                cs[0] += eta
                coeffs = cs
                break
        out.append(DensityPiece(u, v, tuple(coeffs)))
    return out


def piecewise_poly(pieces: Iterable[tuple[float, float, Sequence[float]]]) -> ValueDistribution:
    return ValueDistribution(
        pieces=tuple(DensityPiece(float(lo), float(hi), tuple(float(c) for c in cs)) for lo, hi, cs in pieces)
    )


# -- external spec representation --------------------------------------------------


def parse_number(value: object, name: str) -> float:
    """A numeric spec field: a JSON number, or a string holding a number or
    a fraction like "1/3"."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(Fraction(value)) if isinstance(value, str) else float(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    raise SpecValidationError(f"field {name!r} must be a number or a fraction string, got {value!r}")


def _spec_records(value: object, name: str, keys: tuple[str, ...]) -> list[list]:
    """The fields ``keys`` of each object of the list field ``name``."""
    if not isinstance(value, list) or not all(isinstance(e, dict) and set(keys) <= e.keys() for e in value):
        raise SpecValidationError(f"field {name!r} must be a list of objects with fields {', '.join(keys)}")
    return [[_spec_field(e[k], k) for k in keys] for e in value]


def _spec_field(value: object, name: str):
    """A number, or for "coeffs" a list of numbers."""
    if name != "coeffs":
        return parse_number(value, name)
    if not isinstance(value, list):
        raise SpecValidationError("field 'coeffs' must be a list")
    return [parse_number(c, name) for c in value]


def parse_spec(spec: dict | str) -> ValueDistribution:
    """Parse the JSON distribution spec.

    Accepted forms::

        {"type": "uniform"}
        {"type": "discrete", "atoms": [{"x": 0.5, "p": 1.0}, ...]}
        {"type": "mixture", "eta": 0.01, "discrete": {...}}
        {"type": "piecewise_poly", "pieces": [{"lo": 0, "hi": 1, "coeffs": [1.0]}]}
        {"type": "mixture_general", "atoms": [...], "pieces": [...]}

    with every numeric field read by :func:`parse_number`.
    """
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise SpecValidationError(f"distribution spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise SpecValidationError("distribution spec must be a JSON object")
    kind = spec.get("type")
    if kind == "uniform":
        return uniform()
    if kind == "discrete":
        atoms = _spec_records(spec.get("atoms"), "atoms", ("x", "p"))
        if not atoms:
            raise SpecValidationError("field 'atoms' must be a non-empty list")
        return discrete(atoms)
    if kind == "mixture":
        if "eta" not in spec or not isinstance(spec.get("discrete"), dict):
            raise SpecValidationError("mixture spec needs fields 'eta' and 'discrete', an object")
        base = parse_spec(dict(spec["discrete"], type="discrete"))
        return mixture_with_uniform(parse_number(spec["eta"], "eta"), base)
    if kind == "piecewise_poly":
        pieces = _spec_records(spec.get("pieces"), "pieces", ("lo", "hi", "coeffs"))
        if not pieces:
            raise SpecValidationError("field 'pieces' must be a non-empty list")
        return piecewise_poly(pieces)
    if kind == "mixture_general":
        # free-form atoms + pieces, as testkit.spec_dict writes mixed laws
        atoms = _spec_records(spec.get("atoms", []), "atoms", ("x", "p"))
        pieces = _spec_records(spec.get("pieces", []), "pieces", ("lo", "hi", "coeffs"))
        pieces = tuple(DensityPiece(lo, hi, tuple(cs)) for lo, hi, cs in pieces)
        return ValueDistribution(atoms=tuple(map(tuple, atoms)), pieces=pieces)
    raise SpecValidationError(f"unknown distribution type {kind!r}")
