import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selection_games import distributions as D
from selection_games.efficiency import tightness_family
from selection_games.errors import IntegrationError, SpecValidationError
from selection_games.testkit import beta_distribution, continuous_test_laws, two_point_top_two

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
    assert u.partial_expectation(0, 1, lambda x: x) == pytest.approx(0.5, abs=1e-10)
    assert u.partial_expectation(0.25, 0.5, lambda x: x) == pytest.approx(3 / 32, abs=1e-10)
    tp = D.two_point()
    assert tp.partial_expectation(0.0, 0.5, lambda x: x) == pytest.approx(1 / 6, abs=1e-12)


def test_partial_expectation_atom_convention():
    tp = D.two_point()
    third = 1 / 3
    # atom at the lower endpoint excluded, at the upper endpoint included
    assert tp.partial_expectation(third, 0.5, lambda x: 1.0) == 0.0
    assert tp.partial_expectation(0.0, third, lambda x: 1.0) == pytest.approx(0.5)


def test_partial_expectation_rejects_nonfinite():
    with pytest.raises(IntegrationError):
        D.uniform().partial_expectation(0.0, 1.0, lambda x: float("nan"))


@given(st.floats(0.01, 0.99))
def test_partition_additivity_atomless(m):
    for name in ("uniform", "beta22"):
        law = LAWS[name]
        g = lambda x: x * x + 0.25
        whole = law.partial_expectation(0, 1, g)
        split = law.partial_expectation(0, m, g) + law.partial_expectation(m, 1, g)
        assert split == pytest.approx(whole, abs=1e-9)


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


@pytest.mark.parametrize("name", sorted(SAMPLER_LAWS))
def test_sampling_backward_error_no_worse_than_bisection(name):
    law = SAMPLER_LAWS[name]
    u = np.random.default_rng(11).random(10**6)
    if not law.atoms and len(law.pieces) == 1:
        # the within-piece target equals u: add exact edge targets
        knots_cdf = law._sample_tables[0][1]
        u = np.concatenate([u, [0.0, knots_cdf[1], knots_cdf[512], knots_cdf[-2], 1.0 - 2.0**-53]])
    ref, comp = _bisection_sample(law, u)
    got = law.sample(_FixedUniforms(u), u.size)
    bound = np.max(_backward_error(law, u, ref, comp))
    err = _backward_error(law, u, got, comp)
    assert np.max(err) <= bound
    assert np.max(err[10**6 :], initial=0.0) <= bound
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

    def counting(*args):
        calls.append(args[3].size)
        return bisect(*args)

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
    assert D.spec_dict(law) == spec


def test_parse_discrete_and_mixture():
    law = D.parse_spec(
        {"type": "mixture", "eta": 0.01, "discrete": {"atoms": [{"x": 0.09, "p": 0.9}, {"x": 1.0, "p": 0.1}]}}
    )
    assert law.atoms[0] == (0.09, pytest.approx(0.891))
    assert law.pieces[0].coeffs == (pytest.approx(0.01),)


def test_parse_errors_name_field():
    with pytest.raises(SpecValidationError, match="atoms"):
        D.parse_spec({"type": "discrete"})
    with pytest.raises(SpecValidationError, match="type"):
        D.parse_spec({"type": "cauchy"})
    with pytest.raises(SpecValidationError, match="eta"):
        D.parse_spec({"type": "mixture"})
