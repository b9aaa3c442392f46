import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selection_games import distributions as D
from selection_games.efficiency import tightness_family
from selection_games.errors import SpecValidationError
from selection_games.testkit import TWO_POINT_SPEC, beta_distribution, continuous_test_laws, spec_dict, two_point_top_two

EPS = np.finfo(float).eps

LAWS = {
    "uniform": D.uniform(),
    "two_point": D.two_point(),
    "beta22": beta_distribution(2, 2),
    "mixture": D.mixture_with_uniform(0.25, D.discrete([(0.2, 0.5), (0.9, 0.5)])),
    "point7": D.point_mass(0.7),
}


# -- construction / validation ----------------------------------------------------


def test_rejects_unnormalized_mass():
    with pytest.raises(SpecValidationError):
        D.discrete([(0.2, 0.5), (0.9, 0.6)])


def test_rejects_out_of_range_atom():
    with pytest.raises(SpecValidationError):
        D.discrete([(1.2, 1.0)])


def test_rejects_duplicate_atoms():
    with pytest.raises(SpecValidationError):
        D.ValueDistribution(atoms=((0.3, 0.5), (0.3, 0.5)))


def test_rejects_negative_density():
    with pytest.raises(SpecValidationError):
        D.piecewise_poly([(0.0, 1.0, [2.0, -3.0])])


def test_is_continuous_flag():
    assert D.uniform().is_continuous()
    assert not D.two_point().is_continuous()


# -- cdf -----------------------------------------------------------------------------


def test_cdf_examples():
    assert D.uniform().cdf(0.5) == pytest.approx(0.5, abs=1e-12)
    assert D.two_point().cdf(0.5) == pytest.approx(0.5, abs=1e-12)
    for law in LAWS.values():
        assert law.cdf(1.0) == pytest.approx(1.0, abs=1e-12)
        assert law.cdf(-3.0) == 0.0
        assert law.cdf(7.0) == 1.0


def test_cdf_right_continuous_at_atoms():
    law = LAWS["mixture"]
    for x, _ in law.atoms:
        below = law.cdf(x - 1e-12)
        at = law.cdf(x)
        assert at > below  # jump included at the atom


@given(st.floats(0, 1), st.floats(0, 1))
def test_cdf_nondecreasing(x, y):
    lo, hi = min(x, y), max(x, y)
    for law in LAWS.values():
        assert law.cdf(lo) <= law.cdf(hi) + 1e-12


# -- mean / max / order statistics ---------------------------------------------------


def test_mean_examples():
    assert D.uniform().mean() == pytest.approx(0.5, abs=1e-12)
    assert D.two_point().mean() == pytest.approx(0.5, abs=1e-12)
    assert D.discrete([(0.1, 0.5), (0.5, 0.5)]).mean() == pytest.approx(0.3, abs=1e-12)


def test_expect_max_examples():
    u = D.uniform()
    assert u.expect_max_with(0.5) == pytest.approx(5 / 8, abs=1e-12)
    for law in LAWS.values():
        assert law.expect_max_with(1.0) == pytest.approx(1.0, abs=1e-12)
        assert law.expect_max_with(0.0) == pytest.approx(law.mean(), abs=1e-10)


@given(st.floats(0, 1), st.floats(0, 1))
def test_expect_max_monotone_lipschitz(k1, k2):
    lo, hi = min(k1, k2), max(k1, k2)
    for law in LAWS.values():
        vlo, vhi = law.expect_max_with(lo), law.expect_max_with(hi)
        assert vhi >= vlo - 1e-10
        assert vhi - vlo <= (hi - lo) + 1e-10
        assert vlo >= max(lo, law.mean()) - 1e-10


def test_order_max_examples():
    u = D.uniform()
    b = 0.37
    assert u.expect_order_max_with(2, b) == pytest.approx((2 + b**3) / 3, abs=1e-12)
    assert u.expect_order_max_with(1, 0.0) == pytest.approx(0.5, abs=1e-12)
    tp = D.two_point()
    assert tp.expect_order_max_with(2, 0.0) == pytest.approx(7 / 12, abs=1e-12)


@given(st.integers(1, 6), st.floats(0, 1))
def test_order_max_monotone(n, k):
    for law in LAWS.values():
        v1 = law.expect_order_max_with(n, k)
        assert law.expect_order_max_with(n + 1, k) >= v1 - 1e-10
        assert law.expect_order_max_with(n, min(k + 0.1, 1.0)) >= v1 - 1e-10


def test_order_max_vec_matches_scalar():
    ks = np.linspace(0, 1, 23)
    for law in LAWS.values():
        vec = law.order_max_with_vec(3, ks)
        scal = [law.expect_order_max_with(3, k) for k in ks]
        assert np.allclose(vec, scal, atol=1e-12)


def _floors(law, rng, count):
    """Floors at 0, 1, every segment boundary, 1 - 1e-9, and random ones."""
    cuts = [x for x, _ in law.atoms] + [e for p in law.pieces for e in (p.lo, p.hi)]
    special = np.array([0.0, 1.0, 1.0 - 1e-9, *cuts])
    return np.concatenate([special, rng.random(count)])


@pytest.mark.parametrize("name", sorted(LAWS))
def test_order_max_vec_depends_on_floor_alone(name):
    law = LAWS[name]
    ks = _floors(law, np.random.default_rng(3), 1000)
    for k in range(1, 6):
        vec = law.order_max_with_vec(k, ks)
        assert np.array_equal(law.order_max_with_vec(k, ks[::-1])[::-1], vec)
        singles = [law.order_max_with_vec(k, ks[i : i + 1])[0] for i in range(len(ks))]
        assert np.array_equal(singles, vec)
        assert [law.expect_order_max_with(k, b) for b in ks[:12]] == list(vec[:12])


def test_order_max_rejects_nonpositive_order():
    for law in LAWS.values():
        for n in (0, -1):
            with pytest.raises(SpecValidationError):
                law.order_max_with_vec(n, np.linspace(0, 1, 5))
            with pytest.raises(SpecValidationError):
                law.expect_order_max_with(n, 0.5)


@pytest.mark.parametrize("name", sorted(LAWS))
def test_order_max_vec_memory(name):
    # one series evaluation per floor: a few length-N vectors, never an
    # N x (quadrature nodes) matrix
    law = LAWS[name]
    N = 200_000
    ks = np.random.default_rng(5).random(N)
    law.order_max_with_vec(3, ks[:8])
    tracemalloc.start()
    try:
        law.order_max_with_vec(3, ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * N * 8


# -- exact reference: Fraction polynomials ------------------------------------------


def _pmul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _peval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _panti(p):
    return [Fraction(0)] + [c / (i + 1) for i, c in enumerate(p)]


def _exact_cdf_segments(law):
    """[(lo, hi, CDF polynomial)] in exact rational arithmetic on the law's
    float parameters."""
    cuts = {Fraction(0), Fraction(1)}
    cuts.update(Fraction(x) for x, _ in law.atoms)
    cuts.update(Fraction(e) for p in law.pieces for e in (p.lo, p.hi))
    pts = sorted(cuts)
    acc = sum((Fraction(m) for x, m in law.atoms if x == 0.0), Fraction(0))
    segs = []
    for u, v in zip(pts[:-1], pts[1:]):
        poly = [acc]
        for p in law.pieces:
            if Fraction(p.lo) <= u and v <= Fraction(p.hi):
                poly = _panti([Fraction(c) for c in p.coeffs])
                poly[0] += acc - _peval(poly, u)
                break
        segs.append((u, v, poly))
        acc = _peval(poly, v) + sum((Fraction(m) for x, m in law.atoms if Fraction(x) == v), Fraction(0))
    return segs


def _exact_lone_value(segs, n):
    """b -> b + int_b^1 (1 - F^n), exactly."""
    antis = []
    for u, v, F in segs:
        Fn = [Fraction(1)]
        for _ in range(n):
            Fn = _pmul(Fn, F)
        antis.append((u, v, _panti([Fraction(int(i == 0)) - c for i, c in enumerate(Fn)])))

    def c(b):
        b = Fraction(b)
        total = b
        for u, v, A in antis:
            lo = max(u, b)
            if lo < v:
                total += _peval(A, v) - _peval(A, lo)
        return total

    return c


EXACT_LAWS = {
    "beta22": beta_distribution(2, 2),
    "beta35": beta_distribution(3, 5),
    "two_point": D.two_point(),
    "tightness": tightness_family(0.1, 0.05),
}


@pytest.mark.parametrize("name", sorted(EXACT_LAWS))
def test_order_max_matches_exact_reference(name):
    law = EXACT_LAWS[name]
    segs = _exact_cdf_segments(law)
    ks = [float(x) for x in np.linspace(0.0, 1.0, 21)]
    for u, v, _ in segs:
        ks += [float(u) + 1e-6, float(u) + 1e-9, float(v) - 1e-6, float(v) - 1e-9]
    ks = np.clip(ks, 0.0, 1.0)
    for n in range(1, 7):
        exact = _exact_lone_value(segs, n)
        want = np.array([float(exact(b)) for b in ks])
        assert np.max(np.abs(law.order_max_with_vec(n, ks) - want)) <= 2e-15


CDF_LAWS = dict(
    EXACT_LAWS,
    uniform=D.uniform(),
    beta67=beta_distribution(6, 7),
    tilted_step=dict(continuous_test_laws())["tilted-step"],
)


@pytest.mark.parametrize("name", sorted(CDF_LAWS))
def test_cdf_matches_exact_reference(name):
    # measured: at most 0.82 eps on these laws, on Beta(6,7), whose monomial
    # coefficients reach 1.1e5
    law = CDF_LAWS[name]
    segs = _exact_cdf_segments(law)
    xs = [float(x) for x in np.linspace(0.0, 1.0, 2001)]
    for u, v, _ in segs:
        xs += [float(u), float(u) + 1e-9, float(v) - 1e-9]
    for x in xs:
        for u, v, poly in segs:
            if u <= x < v:
                want = _peval(poly, Fraction(x))
                break
        else:
            want = Fraction(1)
        err = abs(float(Fraction(law.cdf(x)) - want))
        assert err <= 0.85 * EPS, (x, err)


@pytest.mark.parametrize("name", sorted(EXACT_LAWS))
def test_top_two_matches_exact_reference(name):
    law = EXACT_LAWS[name]
    segs = _exact_cdf_segments(law)
    for n in range(2, 11):
        # exact arithmetic can difference the two large terms freely
        want = n * _exact_lone_value(segs, n - 1)(0) - (n - 2) * _exact_lone_value(segs, n)(0)
        assert abs(law.top_two_expectation(n) - float(want)) <= 4 * EPS


@pytest.mark.parametrize("n", list(range(2, 11)) + [150, 500, 1000])
def test_top_two_uniform_within_four_eps(n):
    # n c_(n-1)(0) - (n - 2) c_n(0) was off by 1.7e-13 at n = 1000
    want = float(Fraction(2 * n - 1, n + 1))
    assert abs(D.uniform().top_two_expectation(n) - want) <= 4 * EPS


def test_top_two_two_point_closed_form():
    tp = D.two_point()
    for n in range(2, 11):
        assert abs(tp.top_two_expectation(n) - float(two_point_top_two(n))) <= 1e-14


def test_order_max_past_chebyshev_power_cap():
    # numpy caps Chebyshev ** at a power of 100; the kernel must not
    u = D.uniform()
    ks = np.concatenate([[0.0, 0.5, 0.99, 1.0 - 1e-9, 1.0], np.random.default_rng(7).random(200)])
    for k in (101, 150):
        want = 1.0 - (1.0 - ks ** (k + 1)) / (k + 1)
        assert np.max(np.abs(u.order_max_with_vec(k, ks) - want)) <= 2e-15
        assert u.top_two_expectation(k) == pytest.approx((2 * k - 1) / (k + 1), abs=1e-14)


def test_top_two_examples():
    u = D.uniform()
    assert u.top_two_expectation(2) == pytest.approx(1.0, abs=1e-12)
    # frozen Monte-Carlo oracle value (1e7 samples gave 1.24995 +- 0.00035)
    assert u.top_two_expectation(3) == pytest.approx(1.25, abs=1e-12)
    tp = D.two_point()
    for n in range(2, 8):
        want = 4 / 3 - (n + 2) / (3 * 2**n)
        assert tp.top_two_expectation(n) == pytest.approx(want, abs=1e-12)


@given(st.integers(2, 8))
def test_top_two_below_twice_max(n):
    for law in LAWS.values():
        assert law.top_two_expectation(n) <= 2 * law.expect_order_max_with(n, 0.0) + 1e-10


# -- partial expectation ---------------------------------------------------------------


def test_partial_expectation_examples():
    u = D.uniform()
    assert u.partial_expectation(0, 1, (0.0, 1.0)) == 0.5
    assert u.partial_expectation(0.25, 0.5, (0.0, 1.0)) == 3 / 32
    # int_0^1 da / (1 + a) = ln 2, rounded once
    assert u.partial_expectation(0, 1, (1.0,), shift=1.0) == math.log(2.0)
    tp = D.two_point()
    assert tp.partial_expectation(0.0, 0.5, (0.0, 1.0)) == 1 / 6
    # ends crossed by rounding give an empty interval, not an error
    below = math.nextafter(0.5, 0.0)
    assert u.partial_expectation(0.5, below, (0.0, 1.0)) == 0.0
    assert u.partial_expectation(0.5, below, (1.0,), shift=-0.5) == 0.0


def test_partial_expectation_atom_convention():
    tp = D.two_point()
    third = 1 / 3
    # atom at the lower endpoint excluded, at the upper endpoint included
    assert tp.partial_expectation(third, 0.5, (1.0,)) == 0.0
    assert tp.partial_expectation(0.0, third, (1.0,)) == 0.5
    assert tp.partial_expectation(third, 0.5, (1.0,), shift=1.0) == 0.0
    assert tp.partial_expectation(0.0, third, (1.0,), shift=1.0) == 0.5 / (third + 1.0)


def test_partial_expectation_rejects_pole_at_or_above_lo():
    u = D.uniform()
    # the pole of 1 / (a + shift) sits at a = -shift
    for lo, shift in ((0.0, 0.0), (0.5, -0.5), (0.3, -0.5), (0.0, -1.0)):
        with pytest.raises(SpecValidationError):
            u.partial_expectation(lo, 1.0, (1.0,), shift=shift)
    # a pole just below lo is fine: int_0.5^1 da / (a - 0.49) = ln 51
    assert u.partial_expectation(0.5, 1.0, (1.0,), shift=-0.49) == pytest.approx(math.log(51.0), rel=1e-13)


@given(st.floats(0.01, 0.99))
def test_partition_additivity_atomless(m):
    # measured over 20001 evenly spaced cuts m: 0 for the polynomial, at most
    # 2.22e-16 (one ulp of the whole, which is near 1.2) for the rational one
    for name in ("uniform", "beta22"):
        law = LAWS[name]
        for num, shift in (((0.25, 0.0, 1.0), None), ((0.3, 2.0), 0.5)):
            whole = law.partial_expectation(0, 1, num, shift)
            split = law.partial_expectation(0, m, num, shift) + law.partial_expectation(m, 1, num, shift)
            assert split == pytest.approx(whole, abs=2.3e-16)


def _mp_partial_expectation(law, lo, hi, num, shift):
    """int_(lo, hi] P(a) / (a + shift) dF(a) at 40 digits: mpmath quadrature
    on each density piece plus the atoms, every float input taken exactly."""
    with mpmath.workdps(40):
        coeffs = [mpmath.mpf(c) for c in reversed(num)]

        def f(a):
            return mpmath.polyval(coeffs, a) / (a + mpmath.mpf(shift))

        total = mpmath.mpf(0)
        for p in law.pieces:
            a, b = max(lo, p.lo), min(hi, p.hi)
            if b > a:
                dens = [mpmath.mpf(c) for c in reversed(p.coeffs)]
                total += mpmath.quad(lambda x: f(x) * mpmath.polyval(dens, x), [mpmath.mpf(a), mpmath.mpf(b)])
        for x, m in law.atoms:
            if lo < x <= hi:
                total += mpmath.mpf(m) * f(mpmath.mpf(x))
        return total


def _mixed_branch(beta, c):
    """No recall's worst sum on (beta, c]: (4ac - 2 beta (a + c)) / (c + a - 2 beta)."""
    return beta, c, (-2.0 * beta * c, 4.0 * c - 2.0 * beta), c - 2.0 * beta


def _stationary_worst(w, c):
    """The stationary worst profile on (w, c]: (2ac - w (a + c)) / (a + c - 2w)."""
    return w, c, (-w * c, 2.0 * c - w), c - 2.0 * w


def _poa_correction(m):
    """The two-arrival correction on (m/2, m]: a - 2m + m^2 / a."""
    return m / 2.0, m, (m * m, -2.0 * m, 1.0), 0.0


# (lo, c) pairs: the first uniform step, a pole 0.02 below lo, a range that
# holds both atoms of the tightness law (one at hi = 1), and a middle range
_RATIONAL_PAIRS = ((0.25, 0.5), (0.5, 0.52), (0.005, 1.0), (0.6, 0.75))

_RATIONAL_LAWS = {
    "uniform": D.uniform(),
    "beta22": beta_distribution(2, 2),
    "beta35": beta_distribution(3, 5),
    # the sweep's highest degree: its monomial coefficients reach 2.4e5
    "beta77": beta_distribution(7, 7),
    "tilted-step": dict(continuous_test_laws())["tilted-step"],
    "tightness(0.01,0.001)": tightness_family(0.01, 0.001),
}

# measured largest relative error against mpmath over every case below:
# 8.52e-17 (the uniform law's mixed branch), under the 2^-53 = 1.1e-16 of
# one rounding; the same steps in double precision were off by up to
# 3.2e-13 here (Beta(3,5) on (0.005, 1], where r ln(...) = -4430 cancels
# against Q's integral down to 1.05)
_RATIONAL_REL_ERR = 8.6e-17


@pytest.mark.parametrize("integrand", range(3), ids=("mixed-branch", "stationary-worst", "poa-correction"))
@pytest.mark.parametrize("name", tuple(_RATIONAL_LAWS))
def test_rational_kernel_against_mpmath(name, integrand):
    law = _RATIONAL_LAWS[name]
    if integrand == 2:
        cases = [_poa_correction(law.mean())]
    else:
        build = (_mixed_branch, _stationary_worst)[integrand]
        cases = [build(lo, c) for lo, c in _RATIONAL_PAIRS]
    for lo, hi, num, shift in cases:
        got = law.partial_expectation(lo, hi, num, shift=shift)
        want = _mp_partial_expectation(law, lo, hi, num, shift)
        assert abs(got - want) <= _RATIONAL_REL_ERR * abs(want), (lo, hi, got, float(want))


# -- sampling -----------------------------------------------------------------------


def test_sampling_deterministic(rng):
    law = LAWS["mixture"]
    r1 = np.random.Generator(np.random.Philox(key=42))
    r2 = np.random.Generator(np.random.Philox(key=42))
    assert np.array_equal(law.sample(r1, 1000), law.sample(r2, 1000))


def test_sampling_deterministic_polynomial_piece():
    law = LAWS["beta22"]
    r1 = np.random.Generator(np.random.Philox(key=7))
    r2 = np.random.Generator(np.random.Philox(key=7))
    assert np.array_equal(law.sample(r1, 10**5), law.sample(r2, 10**5))


class _FixedUniforms:
    """Stands in for a generator: ``random`` returns preset uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, count):
        assert count == self.u.size
        return self.u.copy()


def _bisection_sample(law, u):
    """Reference inverse: 50 bisection steps on the whole piece.  Returns the
    draws and each draw's component (atoms first, then pieces)."""
    weights = [m for _, m in law.atoms] + [p.mass for p in law.pieces]
    edges = np.concatenate([[0.0], np.cumsum(weights)])
    edges[-1] = 1.0
    comp = np.clip(np.searchsorted(edges, u, side="right") - 1, 0, len(weights) - 1)
    out = np.empty_like(u)
    for i, (x, _) in enumerate(law.atoms):
        out[comp == i] = x
    base = len(law.atoms)
    for j, p in enumerate(law.pieces):
        mask = comp == base + j
        target = (u[mask] - edges[base + j]) / (edges[base + j + 1] - edges[base + j])
        if len(p.coeffs) == 1:
            out[mask] = p.lo + target * (p.hi - p.lo)
            continue
        anti = D._poly_antideriv(p.coeffs)
        lo_val = D._poly_eval(anti, p.lo)
        lo = np.full(target.shape, p.lo)
        hi = np.full(target.shape, p.hi)
        for _ in range(50):
            mid = (lo + hi) / 2.0
            takes = (D._poly_eval(anti, mid) - lo_val) / p.mass < target
            lo = np.where(takes, mid, lo)
            hi = np.where(takes, hi, mid)
        out[mask] = (lo + hi) / 2.0
    return out, comp


def _backward_error(law, u, x, comp):
    """|F(x) - u| on the scale of the law, measured within each draw's own
    density piece (a mixture samples by component, not by inverting F);
    zero for atom draws."""
    atom_total = sum(m for _, m in law.atoms)
    atoms_below = np.zeros_like(x)
    for xa, m in law.atoms:
        atoms_below += np.where(x >= xa, m, 0.0)
    err = np.abs((law.cdf(x) - atoms_below) - (u - atom_total))
    return np.where(comp < len(law.atoms), 0.0, err)


SAMPLER_LAWS = {
    "beta22": beta_distribution(2, 2),
    "beta13": beta_distribution(1, 3),
    "beta35": beta_distribution(3, 5),
    "tilted-step": dict(continuous_test_laws())["tilted-step"],
    "atoms+beta22": D.ValueDistribution(
        atoms=((0.2, 0.3), (0.9, 0.2)), pieces=(D.DensityPiece(0.0, 1.0, (0.0, 3.0, -3.0)),)
    ),
}


#: measured largest backward error of the draws below, in eps
SAMPLER_BACKWARD_ERROR = {
    "beta22": 1.5, "beta13": 1.5, "beta35": 1.5, "tilted-step": 0.5, "atoms+beta22": 1.25,
}


@pytest.mark.parametrize("name", sorted(SAMPLER_LAWS))
def test_sampling_backward_error_no_worse_than_bisection(name, monkeypatch):
    law = SAMPLER_LAWS[name]
    u = np.random.default_rng(11).random(10**6)
    if not law.atoms and len(law.pieces) == 1:
        # the within-piece target equals u: add exact edge targets
        knots_cdf = law._sample_tables[0][1]
        u = np.concatenate([u, [0.0, knots_cdf[1], knots_cdf[512], knots_cdf[-2], 1.0 - 2.0**-53]])
    ref, comp = _bisection_sample(law, u)
    fallbacks = []
    bisect = D._bisect_piece

    def counting(F, target, lo, hi):
        fallbacks.append(target.size)
        return bisect(F, target, lo, hi)

    monkeypatch.setattr(D, "_bisect_piece", counting)
    got = law.sample(_FixedUniforms(u), u.size)
    bound = np.max(_backward_error(law, u, ref, comp))
    err = _backward_error(law, u, got, comp)
    assert np.max(err) <= bound
    assert np.max(err[10**6 :], initial=0.0) <= bound
    assert np.max(err) <= SAMPLER_BACKWARD_ERROR[name] * EPS
    # Newton settles all but a few draws (Beta(3,5): 3.9e-5 of them)
    assert sum(fallbacks) < 1e-3 * u.size
    # every draw stays inside its own piece (atoms are exact)
    base = len(law.atoms)
    for i, (x, _) in enumerate(law.atoms):
        assert np.all(got[comp == i] == x)
    for j, p in enumerate(law.pieces):
        drawn = got[comp == base + j]
        assert np.all((drawn >= p.lo) & (drawn <= p.hi))


def test_sampling_bisection_fallback_near_density_zero(monkeypatch):
    law = SAMPLER_LAWS["beta22"]
    calls = []
    bisect = D._bisect_piece

    def counting(F, target, lo, hi):
        calls.append(target.size)
        return bisect(F, target, lo, hi)

    monkeypatch.setattr(D, "_bisect_piece", counting)
    # Beta(2,2) has density zeros at both ends: Newton's steps there shrink
    # linearly, so these draws end in the fallback
    u = np.array([1e-13, 1e-9, 2e-7, 0.5, 1.0 - 2e-7, 1.0 - 1e-9])
    got = law.sample(_FixedUniforms(u), u.size)
    assert calls and sum(calls) >= 4
    ref, comp = _bisection_sample(law, u)
    bound = max(np.max(_backward_error(law, u, ref, comp)), 4.0 * np.finfo(float).eps)
    assert np.max(_backward_error(law, u, got, comp)) <= bound
    assert np.all(np.diff(got) > 0.0)


#: sha256 of the bytes of 10**5 draws from default_rng(20260), recorded from
#: the sampler before its guide table and one-piece path: a faster sampler
#: keeps every bit
SAMPLE_DIGESTS = {
    "beta22": "f49741d6919e4d8557a4d5973acdb2a26ce09971c37eaf2b213e8c76d52517e4",
    "beta13": "6c57cbf203ac808cac525f4346a6e3316daf61c7230d23cc791dcbb0ec91f3fc",
    "beta35": "8d4e5eb4e4ed0158f8ba1732e083e86d746d1dac320cecf5c0b147f407e684fb",
    "tilted-step": "66a7c69adba0d31e63e46d84c6c473651737569b055050bb395ef66f95fd62ba",
    "atoms+beta22": "933fa2f5fb2ffa6cbb39f097ffac346ad0e753d57eb134dc237e6ac301e52714",
    "uniform": "cc43ca8641cdcc9e8c71397f7e5de2a05db858172d91985052814ad1d4568b24",
    "tightness": "9eabfce50377905c0370472fc013732cd86f3c69655f20035b971a05973569be",
}


@pytest.mark.parametrize("name", sorted(SAMPLE_DIGESTS))
def test_sampling_draws_pinned(name):
    law = {**SAMPLER_LAWS, "uniform": D.uniform(), "tightness": tightness_family(0.1, 0.05)}[name]
    draws = law.sample(np.random.default_rng(20260), 10**5)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == SAMPLE_DIGESTS[name]


@pytest.mark.parametrize("name", ["beta22", "beta13", "beta35", "beta67", "atoms+beta22"])
def test_guide_table_bracket_matches_search(name):
    law = beta_distribution(6, 7) if name == "beta67" else SAMPLER_LAWS[name]
    table = law._sample_tables[0]
    cdf, crowded = table.cdf, table.crowded
    M = D.SAMPLE_BUCKETS
    bucket_edges = np.arange(M + 1) / M
    targets = np.concatenate([
        cdf,
        np.nextafter(cdf, 0.0),
        np.nextafter(cdf, 1.0),
        bucket_edges,
        np.nextafter(bucket_edges[1:], 0.0),
        [0.0, 1.0 - 2.0**-53],
        np.random.default_rng(5).random(10**5),
    ])
    targets = np.clip(targets, 0.0, 1.0)
    want = np.clip(np.searchsorted(cdf, targets, side="right") - 1, 0, D.SAMPLE_KNOTS - 2)
    assert np.array_equal(D._knot_bracket(table, targets), want)
    if name in ("beta35", "beta67"):
        # many knots share a bucket here, so the search path runs too
        assert np.any(crowded[(targets * M).astype(int)])


def test_point_mass_sampling(rng):
    law = D.point_mass(0.7)
    assert np.all(law.sample(rng, 100) == 0.7)


@pytest.mark.parametrize("name", ["uniform", "beta22", "mixture"])
def test_sampling_kolmogorov_distance(name, rng):
    law = LAWS[name]
    draws = np.sort(law.sample(rng, 10**6))
    grid = np.linspace(0, 1, 2001)
    emp = np.searchsorted(draws, grid, side="right") / len(draws)
    assert np.max(np.abs(emp - law.cdf(grid))) < 0.005


def test_two_point_atom_frequencies(rng):
    draws = D.two_point().sample(rng, 10**6)
    assert abs(np.mean(draws == 1 / 3) - 0.5) < 0.003
    assert abs(np.mean(draws == 2 / 3) - 0.5) < 0.003


# -- spec parsing -----------------------------------------------------------------------


def test_parse_round_trip():
    spec = {"type": "uniform"}
    law = D.parse_spec(spec)
    assert spec_dict(law) == spec
    # one law per other kind spec_dict writes: piecewise_poly, discrete and
    # mixture_general, each through its JSON text
    for law, kind in (
        (beta_distribution(2, 2), "piecewise_poly"),
        (D.two_point(), "discrete"),
        (tightness_family(0.1, 0.05), "mixture_general"),
    ):
        spec = spec_dict(law)
        assert spec["type"] == kind
        back = D.parse_spec(json.dumps(spec))
        assert back == law
        assert spec_dict(back) == spec


def test_parse_discrete_and_mixture():
    law = D.parse_spec(
        {"type": "mixture", "eta": 0.01, "discrete": {"atoms": [{"x": 0.09, "p": 0.9}, {"x": 1.0, "p": 0.1}]}}
    )
    assert law.atoms[0] == (0.09, pytest.approx(0.891))
    assert law.pieces[0].coeffs == (pytest.approx(0.01),)


def test_parse_reads_fraction_strings():
    assert D.parse_spec(TWO_POINT_SPEC) == D.two_point()
    # a string of coefficients is refused, not read one character at a time
    with pytest.raises(SpecValidationError, match="coeffs"):
        D.parse_spec({"type": "piecewise_poly", "pieces": [{"lo": 0, "hi": 1, "coeffs": "1"}]})
    with pytest.raises(SpecValidationError, match="'p'"):
        D.parse_spec({"type": "discrete", "atoms": [{"x": 1, "p": True}]})


def test_parse_errors_name_field():
    with pytest.raises(SpecValidationError, match="atoms"):
        D.parse_spec({"type": "discrete"})
    with pytest.raises(SpecValidationError, match="type"):
        D.parse_spec({"type": "cauchy"})
    with pytest.raises(SpecValidationError, match="eta"):
        D.parse_spec({"type": "mixture"})
