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
  CDF table, with bisection for the rare draw Newton leaves unsettled;
* ``partial_expectation`` of an arbitrary integrand uses adaptive composite
  Simpson quadrature.

Conventions fixed once and used everywhere:

* The CDF is right-continuous; ``cdf(x)`` includes the mass of an atom at
  ``x``.
* An oriented integral over ``[lo, hi]`` against the law excludes an atom
  sitting exactly at ``lo`` and includes one at ``hi``
  (see :meth:`ValueDistribution.partial_expectation`).
* Distributions are immutable after construction; all queries are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import IntegrationError, SpecValidationError

MASS_TOL = 1e-12

#: knots of the per-piece CDF table that brackets each inverse-CDF draw
SAMPLE_KNOTS = 1025
#: Newton steps per draw; a draw whose last step changed its CDF value by
#: more than ``4 * eps`` finishes by bisection inside its knot bracket
NEWTON_STEPS = 3
_SETTLED_STEP = 4.0 * np.finfo(float).eps
#: bisection steps of that fallback: a knot bracket of width w shrinks to
#: w * 2**-42, finer than the 2**-50 of bisecting the whole piece
FALLBACK_BISECTIONS = 42

_LEGENDRE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _leggauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    if m not in _LEGENDRE_CACHE:
        _LEGENDRE_CACHE[m] = np.polynomial.legendre.leggauss(m)
    return _LEGENDRE_CACHE[m]


def _gauss_on(lo: float, hi: float, f: Callable[[np.ndarray], np.ndarray], m: int) -> float:
    """Gauss-Legendre quadrature of f on [lo, hi]; exact for poly degree <= 2m-1."""
    if hi <= lo:
        return 0.0
    xs, ws = _leggauss(m)
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    return float(half * np.dot(ws, f(mid + half * xs)))


def adaptive_simpson(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_depth: int = 40,
) -> float:
    """Adaptive composite Simpson rule with absolute tolerance ``tol``.

    Raises :class:`IntegrationError` on a non-finite integrand evaluation.
    """
    if hi <= lo:
        return 0.0

    def ev(x: float) -> float:
        y = f(x)
        if not math.isfinite(y):
            raise IntegrationError(f"non-finite integrand value at x={x!r}")
        return y

    def simpson(a: float, fa: float, fm: float, fb: float, b: float) -> float:
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, fm, fb, b, whole, eps, depth):
        m = (a + b) / 2.0
        lm, rm = (a + m) / 2.0, (m + b) / 2.0
        flm, frm = ev(lm), ev(rm)
        left = simpson(a, fa, flm, fm, m)
        right = simpson(m, fm, frm, fb, b)
        delta = left + right - whole
        if depth <= 0:
            raise IntegrationError("adaptive Simpson depth exhausted")
        if abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        return recurse(a, fa, flm, fm, m, left, eps / 2.0, depth - 1) + recurse(
            m, fm, frm, fb, b, right, eps / 2.0, depth - 1
        )

    fa, fb = ev(lo), ev(hi)
    fm = ev((lo + hi) / 2.0)
    whole = simpson(lo, fa, fm, fb, hi)
    return recurse(lo, fa, fm, fb, hi, whole, tol, max_depth)


def _poly_eval(coeffs: Sequence[float], x: np.ndarray | float):
    """Evaluate an ascending-coefficient polynomial."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_antideriv(coeffs: Sequence[float]) -> tuple[float, ...]:
    return (0.0,) + tuple(c / (k + 1) for k, c in enumerate(coeffs))


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
class _CdfSegment:
    """CDF restricted to [lo, hi): a polynomial (constant where no density)."""

    lo: float
    hi: float
    coeffs: tuple[float, ...]

    def __call__(self, x):
        return _poly_eval(self.coeffs, x)


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
    def _segments(self) -> tuple[_CdfSegment, ...]:
        """CDF as polynomials on the partition induced by atoms and pieces."""
        cuts = {0.0, 1.0}
        cuts.update(x for x, _ in self.atoms)
        for p in self.pieces:
            cuts.add(p.lo)
            cuts.add(p.hi)
        pts = sorted(cuts)
        segments: list[_CdfSegment] = []
        acc = sum(m for x, m in self.atoms if x == 0.0)
        for u, v in zip(pts[:-1], pts[1:]):
            coeffs: tuple[float, ...] = (acc,)
            for p in self.pieces:
                if p.lo <= u and v <= p.hi:
                    anti = _poly_antideriv(p.coeffs)
                    shifted = list(anti)
                    # pin the constant so the segment equals acc at its left end
                    shifted[0] += acc - _poly_eval(anti, u)
                    coeffs = tuple(shifted)
                    break
            segments.append(_CdfSegment(u, v, coeffs))
            # advance the accumulated mass to v (density over [u, v] + atom at v)
            acc = float(_poly_eval(coeffs, v))
            acc += sum(m for x, m in self.atoms if x == v)
        return tuple(segments)

    @cached_property
    def _seg_lows(self) -> np.ndarray:
        return np.array([s.lo for s in self._segments])

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
        for k, seg in enumerate(self._segments):
            mask = idx == k
            if np.any(mask):
                out[mask] = seg(xs[mask])
        out = np.where(xs >= 1.0, 1.0, out)
        out = np.where(xs < 0.0, 0.0, out)
        out = np.clip(out, 0.0, 1.0)
        if scalar:
            return float(out[0])
        return out.reshape(shape)

    def mean(self) -> float:
        return float(sum(x * w for x, w in self.atoms) + self.density_moment(0.0, 1.0, 1))

    def density_moment(self, lo: float, hi: float, degree: int) -> float:
        """Exact integral of x^degree * density over [lo, hi] (atoms excluded)."""
        return float(self.cell_moments(np.array([lo, hi], dtype=float), degree)[0])

    def cell_moments(self, edges: np.ndarray, degree: int) -> np.ndarray:
        """Exact integral of x^degree * density over every cell
        [edges[t], edges[t + 1]] (atoms excluded).

        Each density piece's antiderivative is evaluated once, by Horner, over
        the whole edge vector clipped to the piece; a cell adds the difference
        at its two ends where it overlaps the piece.  Pieces add in order.
        """
        edges = np.asarray(edges, dtype=float)
        total = np.zeros(edges.size - 1)
        for p in self.pieces:
            overlaps = np.minimum(edges[1:], p.hi) > np.maximum(edges[:-1], p.lo)
            anti = _poly_antideriv(tuple(0.0 for _ in range(degree)) + tuple(p.coeffs))
            at = _poly_eval(anti, np.clip(edges, p.lo, p.hi))
            total = np.where(overlaps, total + (at[1:] - at[:-1]), total)
        return total

    def atom_sum(self, lo: float, hi: float, g: Callable[[float], float]) -> float:
        """Sum of mass * g(x) over atoms in the half-open interval (lo, hi]."""
        return float(sum(m * g(x) for x, m in self.atoms if lo < x <= hi))

    # -- integral kernels ----------------------------------------------------

    def partial_expectation(
        self,
        lo: float,
        hi: float,
        g: Callable[[float], float],
        tol: float = 1e-10,
        max_depth: int = 40,
    ) -> float:
        """Integral of g against the law over (lo, hi] (atom convention:
        exclude at ``lo``, include at ``hi``); adaptive Simpson on density
        pieces."""
        if not (0.0 <= lo <= hi <= 1.0):
            raise SpecValidationError("partial_expectation requires 0 <= lo <= hi <= 1")
        total = self.atom_sum(lo, hi, g)
        for p in self.pieces:
            a, b = max(lo, p.lo), min(hi, p.hi)
            if b <= a:
                continue
            total += adaptive_simpson(lambda x: g(x) * float(p(x)), a, b, tol, max_depth)
        return float(total)

    def integral_cdf(self, lo: float, hi: float) -> float:
        """Exact integral of the CDF over [lo, hi] (Lebesgue, in x)."""
        total = 0.0
        for seg in self._segments:
            a, b = max(lo, seg.lo), min(hi, seg.hi)
            if b <= a:
                continue
            anti = _poly_antideriv(seg.coeffs)
            total += _poly_eval(anti, b) - _poly_eval(anti, a)
        if hi > 1.0:
            total += hi - max(lo, 1.0)
        return float(total)

    @cached_property
    def _lone_kernels(self) -> dict[int, tuple]:
        """Per order k, filled on first use: ``(suffix, series)`` where
        ``series[i](x)`` = int_x^hi (1 - F^k) on segment i and ``suffix[i]``
        = int_lo_i^1 (1 - F^k)."""
        return {}

    @cached_property
    def _cdf_series(self) -> tuple[np.polynomial.Chebyshev, ...]:
        """The CDF on each segment as a Chebyshev series over that segment."""
        # np.polynomial loads on first use, not at import
        poly = np.polynomial
        return tuple(
            poly.Chebyshev.cast(poly.Polynomial(seg.coeffs), domain=[seg.lo, seg.hi])
            for seg in self._segments
        )

    def _lone_kernel(self, k: int) -> tuple[np.ndarray, tuple[np.polynomial.Chebyshev, ...]]:
        kernels = self._lone_kernels
        if k not in kernels:
            series = []
            for seg, F in zip(self._segments, self._cdf_series):
                poly = np.polynomial
                # F**k would stop at the class's cap of 100 on the power
                Fk = poly.Chebyshev(poly.chebyshev.chebpow(F.coef, k, maxpower=None), domain=F.domain)
                series.append(-(1.0 - Fk).integ(lbnd=seg.hi))
            suffix = np.zeros(len(series) + 1)
            for i in range(len(series) - 1, -1, -1):
                suffix[i] = suffix[i + 1] + series[i](self._segments[i].lo)
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
        for seg, F in zip(self._segments, self._cdf_series):
            degree = (len(seg.coeffs) - 1) * n
            second += _chebyshev_point_integral(lambda x, F=F: survival(F(x)), seg.lo, seg.hi, degree)
        return self._lone_value(n, 0.0) + second

    # -- sampling -------------------------------------------------------------

    @cached_property
    def _sample_tables(self) -> tuple:
        """Per density piece: None for a constant density (inverted in closed
        form), else ``(knots, cdf, anti, anti_lo, mass)`` with the
        within-piece CDF ``cdf`` at ``SAMPLE_KNOTS`` equally spaced knots."""
        tables = []
        for p in self.pieces:
            if len(p.coeffs) == 1:
                tables.append(None)
                continue
            anti = _poly_antideriv(p.coeffs)
            anti_lo = _poly_eval(anti, p.lo)
            knots = np.linspace(p.lo, p.hi, SAMPLE_KNOTS)
            cdf = np.maximum.accumulate((_poly_eval(anti, knots) - anti_lo) / p.mass)
            tables.append((knots, cdf, anti, anti_lo, p.mass))
        return tuple(tables)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> float | np.ndarray:
        """i.i.d. draws; deterministic given the generator state.  Each draw
        reads one double of ``rng`` and depends on it alone."""
        scalar = size is None
        count = 1 if scalar else int(size)
        u = rng.random(count)
        out = np.empty(count)
        # component table: atoms first, then pieces, in order
        weights = [m for _, m in self.atoms] + [p.mass for p in self.pieces]
        edges = np.concatenate([[0.0], np.cumsum(weights)])
        edges[-1] = 1.0
        comp = np.clip(np.searchsorted(edges, u, side="right") - 1, 0, len(weights) - 1)
        for i, (x, _) in enumerate(self.atoms):
            out[comp == i] = x
        base = len(self.atoms)
        for j, (p, table) in enumerate(zip(self.pieces, self._sample_tables)):
            mask = comp == base + j
            if not np.any(mask):
                continue
            target = (u[mask] - edges[base + j]) / (edges[base + j + 1] - edges[base + j])
            if table is None:
                # constant density: invert in closed form
                out[mask] = p.lo + target * (p.hi - p.lo)
            else:
                out[mask] = _invert_piece(p, table, target)
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


def _invert_piece(p: DensityPiece, table: tuple, target: np.ndarray) -> np.ndarray:
    """Solve cdf(x) = target on one piece: a knot bracket from the table, a
    linear-interpolation start, then Newton steps clipped to the bracket."""
    knots, cdf, anti, anti_lo, mass = table
    j = np.clip(np.searchsorted(cdf, target, side="right") - 1, 0, len(knots) - 2)
    lo, hi = knots[j], knots[j + 1]
    rise = cdf[j + 1] - cdf[j]
    frac = np.divide(target - cdf[j], rise, out=np.zeros_like(target), where=rise > 0.0)
    x = lo + np.clip(frac, 0.0, 1.0) * (hi - lo)
    for _ in range(NEWTON_STEPS):
        resid = (_poly_eval(anti, x) - anti_lo) / mass - target
        slope = np.maximum(p(x) / mass, np.finfo(float).tiny)
        nxt = np.clip(x - resid / slope, lo, hi)
        # the step's size in probability units, where rounding sets the floor
        moved = np.abs(nxt - x) * slope
        x = nxt
    slow = np.flatnonzero(moved > _SETTLED_STEP)
    if slow.size:
        x[slow] = _bisect_piece(anti, anti_lo, mass, target[slow], lo[slow], hi[slow])
    return x


def _bisect_piece(anti, anti_lo, mass, target, lo, hi) -> np.ndarray:
    """Bisection of the within-piece CDF on the brackets [lo, hi]."""
    for _ in range(FALLBACK_BISECTIONS):
        mid = (lo + hi) / 2.0
        takes = (_poly_eval(anti, mid) - anti_lo) / mass < target
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


def parse_spec(spec: dict | str) -> ValueDistribution:
    """Parse the JSON distribution spec.

    Accepted forms::

        {"type": "uniform"}
        {"type": "discrete", "atoms": [{"x": 0.5, "p": 1.0}, ...]}
        {"type": "mixture", "eta": 0.01, "discrete": {...}}
        {"type": "piecewise_poly", "pieces": [{"lo": 0, "hi": 1, "coeffs": [1.0]}]}
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
        atoms = spec.get("atoms")
        if not isinstance(atoms, list) or not atoms:
            raise SpecValidationError("field 'atoms' must be a non-empty list")
        try:
            return discrete([(a["x"], a["p"]) for a in atoms])
        except (KeyError, TypeError) as exc:
            raise SpecValidationError("each atom needs fields 'x' and 'p'") from exc
    if kind == "mixture":
        if "eta" not in spec or "discrete" not in spec:
            raise SpecValidationError("mixture spec needs fields 'eta' and 'discrete'")
        base = parse_spec(dict(spec["discrete"], type="discrete"))
        return mixture_with_uniform(float(spec["eta"]), base)
    if kind == "piecewise_poly":
        pieces = spec.get("pieces")
        if not isinstance(pieces, list) or not pieces:
            raise SpecValidationError("field 'pieces' must be a non-empty list")
        try:
            return piecewise_poly([(p["lo"], p["hi"], p["coeffs"]) for p in pieces])
        except (KeyError, TypeError) as exc:
            raise SpecValidationError("each piece needs fields 'lo', 'hi', 'coeffs'") from exc
    if kind == "mixture_general":
        # free-form atoms + pieces, as produced by spec_dict for mixed laws
        try:
            atoms = tuple((float(a["x"]), float(a["p"])) for a in spec.get("atoms", []))
            pieces = tuple(
                DensityPiece(float(p["lo"]), float(p["hi"]), tuple(float(c) for c in p["coeffs"]))
                for p in spec.get("pieces", [])
            )
        except (KeyError, TypeError) as exc:
            raise SpecValidationError("malformed 'atoms'/'pieces' in mixture_general") from exc
        return ValueDistribution(atoms=atoms, pieces=pieces)
    raise SpecValidationError(f"unknown distribution type {kind!r}")


def spec_dict(d: ValueDistribution) -> dict:
    """Serialize back to the JSON spec form (always piecewise-general)."""
    if not d.pieces:
        return {"type": "discrete", "atoms": [{"x": x, "p": m} for x, m in d.atoms]}
    if not d.atoms:
        if len(d.pieces) == 1 and d.pieces[0].coeffs == (1.0,):
            return {"type": "uniform"}
        return {
            "type": "piecewise_poly",
            "pieces": [{"lo": p.lo, "hi": p.hi, "coeffs": list(p.coeffs)} for p in d.pieces],
        }
    return {
        "type": "mixture_general",
        "atoms": [{"x": x, "p": m} for x, m in d.atoms],
        "pieces": [{"lo": p.lo, "hi": p.hi, "coeffs": list(p.coeffs)} for p in d.pieces],
    }
