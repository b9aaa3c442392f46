import mpmath
import pytest

from selection_games import distributions as D
from selection_games import no_recall as NR
from selection_games.errors import UnsupportedDistributionError
from selection_games.testkit import (
    UNIFORM_NO_RECALL_ROWS,
    beta_distribution,
    continuous_test_laws,
    per_value_selectors,
)


def test_rejects_atomic_laws():
    with pytest.raises(UnsupportedDistributionError):
        NR.no_recall_summary(D.two_point(), 3)


def test_uniform_reference_rows():
    for n, (ap, al, be) in UNIFORM_NO_RECALL_ROWS.items():
        s = NR.no_recall_summary(D.uniform(), n)
        assert s.alpha_prime == pytest.approx(ap, abs=1e-3)
        assert s.alpha == pytest.approx(al, abs=1e-3)
        assert s.beta == pytest.approx(be, abs=1e-3)


def test_uniform_two_arrival_exact():
    s = NR.no_recall_summary(D.uniform(), 2)
    assert s.alpha_prime == pytest.approx(15 / 32, abs=1e-12)
    assert s.beta == pytest.approx(31 / 64, abs=1e-12)
    # worst sum evaluated independently from the closed two-arrival integral
    import math

    two_alpha = 1.125 - 0.25 * math.log(2.0)
    assert s.alpha == pytest.approx(two_alpha / 2, abs=1e-12)


def test_closed_recursion_matches_quadrature():
    seq = NR.no_recall_sequence(D.uniform(), 10)
    for s in seq:
        c = NR.uniform_no_recall_closed(s.n)
        assert s.alpha_prime == pytest.approx(c.alpha_prime, abs=1e-8)
        assert s.alpha == pytest.approx(c.alpha, abs=1e-8)
        assert s.beta == pytest.approx(c.beta, abs=1e-8)


def test_uniform_recursion_within_measured_error_of_closed_form():
    # measured: at most 2**-51 = 4.4e-16 over n = 1..10 (alpha at n = 8)
    for s in NR.no_recall_sequence(D.uniform(), 10):
        c = NR.uniform_no_recall_closed(s.n)
        for got, want in ((s.alpha_prime, c.alpha_prime), (s.alpha, c.alpha), (s.beta, c.beta)):
            assert abs(got - want) <= 2.0**-51


def test_ordering_chain_all_laws():
    for name, law in continuous_test_laws():
        for s in NR.no_recall_sequence(law, 6):
            c_n = s.prophet[s.n]
            assert s.alpha_prime <= s.alpha + 1e-9, name
            assert s.alpha <= s.beta + 1e-9, name
            assert s.beta <= c_n + 1e-9, name


def test_uniform_threshold_inequality():
    # the worst-single threshold plus the lone value covers the best sum
    for n in range(1, 21):
        s = NR.uniform_no_recall_closed(n)
        assert s.alpha_prime + s.prophet[n] >= 2 * s.beta - 1e-9


def test_per_value_selectors_branches():
    s = NR.no_recall_summary(D.uniform(), 2)
    c = s.prophet[2]
    lo = per_value_selectors(s, s.alpha_prime / 2)
    assert lo == (s.alpha_prime, 2 * s.beta, 2 * s.alpha)
    hi = per_value_selectors(s, 0.99)
    assert hi[0] == pytest.approx((0.99 + c) / 2)
    assert hi[1] == pytest.approx(0.99 + c)
    assert hi[2] == pytest.approx(0.99 + c)
    mid = (s.beta + c) / 2
    want = 2 * (2 * mid * c - s.beta * (mid + c)) / (c + mid - 2 * s.beta)
    assert per_value_selectors(s, mid)[2] == pytest.approx(want, abs=1e-12)


def test_selector_junction_structure():
    s = NR.no_recall_summary(D.uniform(), 3)
    eps = 1e-9
    c = s.prophet[3]

    def jump(idx, point):
        below = per_value_selectors(s, point - eps)[idx]
        above = per_value_selectors(s, point + eps)[idx]
        return above - below

    # worst single payoff and worst sum are continuous at every junction
    for point in (s.alpha_prime, c):
        assert jump(0, point) == pytest.approx(0.0, abs=1e-6)
    for point in (s.alpha_prime, s.alpha, s.beta, c):
        assert jump(2, point) == pytest.approx(0.0, abs=1e-6)
    # the best sum is continuous at beta and c but genuinely jumps up at
    # the worst-single threshold (bid sum replaces the pinned continuation)
    for point in (s.beta, c):
        assert jump(1, point) == pytest.approx(0.0, abs=1e-6)
    assert jump(1, s.alpha_prime) == pytest.approx(
        s.alpha_prime + c - 2 * s.beta, abs=1e-6
    )
    assert jump(1, s.alpha_prime) > 0.05


def test_best_single_two_arrivals_uniform():
    assert NR.best_single_two_arrivals(D.uniform()) == pytest.approx(0.5, abs=1e-12)


def test_recall_dominates_symmetric_values_through_six():
    from selection_games.full_recall import GridConfig, band

    grid = GridConfig(size=401)
    for name, law in continuous_test_laws():
        seq = NR.no_recall_sequence(law, 6)
        for n in range(1, 7):
            b = band(law, n, grid=grid)
            assert b.low >= seq[n - 1].beta - 1e-6, (name, n)


def test_sequence_growth_toward_lone_value():
    seq = NR.no_recall_sequence(D.uniform(), 10)
    betas = [s.beta for s in seq]
    alphas = [s.alpha for s in seq]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(betas, betas[1:]))
    assert all(a2 >= a1 - 1e-12 for a1, a2 in zip(alphas, alphas[1:]))


def test_narrow_support_law_runs_clean():
    # all mass on [0.4, 0.6]: thresholds clamp and integrands stay inside
    law = D.piecewise_poly([(0.4, 0.6, [5.0])])
    seq = NR.no_recall_sequence(law, 6)
    from selection_games.full_recall import GridConfig, band

    for s in seq:
        assert 0.2 <= s.alpha_prime <= s.beta <= 0.6
    b = band(law, 4, GridConfig(size=401))
    assert b.low >= seq[3].beta - 1e-6


# -- 40-digit reference ------------------------------------------------------------


def mp_pieces(law):
    """The law's density pieces at 40 digits, every float coefficient taken
    exactly: (lo, hi, density, antiderivative of density, of a density),
    coefficients ascending.  Call inside ``mpmath.workdps(40)``."""
    out = []
    for p in law.pieces:
        dens = [mpmath.mpf(c) for c in p.coeffs]
        anti0 = [mpmath.mpf(0)] + [c / (k + 1) for k, c in enumerate(dens)]
        anti1 = [mpmath.mpf(0)] * 2 + [c / (k + 2) for k, c in enumerate(dens)]
        out.append((mpmath.mpf(p.lo), mpmath.mpf(p.hi), dens, anti0, anti1))
    return out


def mp_poly(coeffs, x):
    return mpmath.polyval(coeffs[::-1], x)


def mp_moment(pieces, lo, hi, degree):
    """int_lo^hi a^degree p(a) da over the density pieces, degree 0 or 1."""
    total = mpmath.mpf(0)
    for u, v, _, anti0, anti1 in pieces:
        a, b = max(lo, u), min(hi, v)
        if b > a:
            anti = (anti0, anti1)[degree]
            total += mp_poly(anti, b) - mp_poly(anti, a)
    return total


def _mp_no_recall(law, n):
    """A 40-digit port of the recursion in its textbook form: masses, first
    moments and F(a) = int_0^a p at each kink, and mpmath quadrature of the
    mixed branch."""
    with mpmath.workdps(40):
        pieces = mp_pieces(law)
        zero, one = mpmath.mpf(0), mpmath.mpf(1)

        def cdf(x):
            return mp_moment(pieces, zero, x, 0)

        def mixed(be, c):
            total = mpmath.mpf(0)
            for u, v, dens, _, _ in pieces:
                a, b = max(be, u), min(c, v)
                if b > a:
                    f = lambda x: (4 * x * c - 2 * be * (x + c)) / (x + c - 2 * be) * mp_poly(dens, x)
                    total += mpmath.quad(f, [a, b])
            return total

        m = mp_moment(pieces, zero, one, 1)
        cs = [m]
        for _ in range(n - 1):
            cs.append(cs[-1] * cdf(cs[-1]) + mp_moment(pieces, cs[-1], one, 1))
        ap = al = be = m / 2
        rows = [(ap, al, be)]
        for c in cs[:-1]:
            tail = mp_moment(pieces, c, one, 1) + c * (1 - cdf(c))
            ap_next = ap * cdf(ap) + mp_moment(pieces, ap, c, 1) + tail / 2
            xb = min(max(2 * be - c, ap), be)
            two_beta = 2 * be * cdf(xb) + mp_moment(pieces, xb, one, 1) + c * (1 - cdf(xb))
            xa = min(max(2 * al - c, ap), al)
            two_alpha = 2 * al * cdf(ap) + mp_moment(pieces, ap, xa, 1) + c * mp_moment(pieces, ap, xa, 0)
            two_alpha += 2 * al * mp_moment(pieces, xa, al, 0) + 2 * mp_moment(pieces, al, be, 1)
            if c > be:
                two_alpha += mixed(be, c)
            ap, al, be = ap_next, (two_alpha + tail) / 2, two_beta / 2
            rows.append((ap, al, be))
        return rows


# high-degree Beta laws, where monomial coefficients reach 1e5, plus the low
# degrees of the test laws
_REFERENCE_LAWS = {
    "uniform": D.uniform(),
    **{f"beta({p},{q})": beta_distribution(p, q) for p, q in ((2, 2), (1, 3), (3, 5), (5, 7), (6, 7), (7, 7))},
}

# measured largest absolute error of alpha', alpha, beta over these laws and
# n = 1..10: 9.60e-17 (Beta(5,7)); float density moments and CDF integrals
# left up to 1.19e-12 here (Beta(6,7))
_NO_RECALL_ABS_ERR = 9.7e-17


@pytest.mark.parametrize("name", tuple(_REFERENCE_LAWS))
def test_recursion_against_mpmath(name):
    law = _REFERENCE_LAWS[name]
    for s, want in zip(NR.no_recall_sequence(law, 10), _mp_no_recall(law, 10)):
        for got, ref in zip((s.alpha_prime, s.alpha, s.beta), want):
            assert abs(mpmath.mpf(got) - ref) <= _NO_RECALL_ABS_ERR, (s.n, got, float(ref))
