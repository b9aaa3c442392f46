import mpmath
import pytest
from test_no_recall import mp_moment, mp_pieces, mp_poly

from selection_games import distributions as D
from selection_games import efficiency as E
from selection_games.errors import (
    DegenerateDistributionError,
    SpecValidationError,
    UnsupportedDistributionError,
)
from selection_games.full_recall import GridConfig
from selection_games.testkit import beta_distribution, continuous_test_laws

GRID = GridConfig(size=501)


def test_uniform_two_arrival_reference_values():
    r = E.ratios(D.uniform(), 2, "no_recall")
    assert r.poa == pytest.approx(1.0507, abs=1e-3)
    assert r.pos == pytest.approx(32 / 31, abs=1e-9)
    assert r.pr == pytest.approx(32 / 31, abs=1e-9)


def test_uniform_three_arrival_full_recall():
    r = E.ratios(D.uniform(), 3, "full_recall", grid=GRID)
    assert r.poa == pytest.approx(1.000823, abs=1e-4)


def test_full_recall_two_arrivals_always_efficient():
    for _, law in continuous_test_laws():
        r = E.ratios(law, 2, "full_recall", grid=GRID)
        assert r.poa == pytest.approx(1.0, abs=1e-6)
        assert r.pos == pytest.approx(1.0, abs=1e-6)
    tp = E.ratios(D.two_point(), 2, "full_recall")
    assert tp.poa == pytest.approx(1.0, abs=1e-12)


def test_ratio_report_records_terms():
    r = E.ratios(D.uniform(), 3, "no_recall")
    assert r.numerators["max_feasible_sum"] == pytest.approx(1.1953125, abs=1e-12)
    assert r.denominators["best_sum"] == pytest.approx(2 * 0.588134765625, abs=1e-9)


def test_ratios_validation():
    with pytest.raises(SpecValidationError):
        E.ratios(D.uniform(), 1, "no_recall")
    with pytest.raises(SpecValidationError):
        E.ratios(D.uniform(), 3, "partial_recall")
    with pytest.raises(UnsupportedDistributionError):
        E.ratios(D.two_point(), 3, "no_recall")
    with pytest.raises(DegenerateDistributionError):
        E.ratios(D.point_mass(0.0), 2, "full_recall")


def test_two_arrival_closed_forms_uniform():
    pos2, poa2 = E.two_arrival_closed_forms(D.uniform())
    assert pos2 == pytest.approx(32 / 31, abs=1e-12)
    # frozen closed-integral oracle: worst sum = 1.125 - ln(2)/4
    import math

    assert poa2 == pytest.approx(1.0 / (1.125 - math.log(2) / 4), abs=1e-12)


def test_two_arrival_closed_forms_point_mass():
    pos2, poa2 = E.two_arrival_closed_forms(D.point_mass(0.6))
    assert pos2 == pytest.approx(1.0, abs=1e-12)
    assert poa2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DegenerateDistributionError):
        E.two_arrival_closed_forms(D.point_mass(0.0))


def test_closed_forms_match_generic_path():
    for name, law in continuous_test_laws():
        pos2, poa2 = E.two_arrival_closed_forms(law)
        r = E.ratios(law, 2, "no_recall")
        assert pos2 == pytest.approx(r.pos, abs=1e-6), name
        assert poa2 == pytest.approx(r.poa, abs=1e-6), name
        assert r.pos == pytest.approx(r.pr, abs=1e-9), name


def test_tightness_family_construction():
    law = E.tightness_family(0.1, 0.01)
    assert law.atoms[0] == (pytest.approx(0.09), pytest.approx(0.891))
    assert law.atoms[1] == (pytest.approx(1.0), pytest.approx(0.099))
    assert law.pieces[0].coeffs == (pytest.approx(0.01),)
    with pytest.raises(SpecValidationError):
        E.tightness_family(0.7, 0.01)
    with pytest.raises(SpecValidationError):
        E.tightness_family(0.1, 0.0)


def test_tightness_family_drives_ratios_to_four_thirds():
    pos_small, poa_small = E.two_arrival_closed_forms(E.tightness_family(0.01, 0.001))
    assert pos_small >= 4 / 3 - 0.02
    assert poa_small <= 4 / 3 + 1e-9
    # limit identity: 1/PoS -> 1/2 + 1/(2 (1 + (1 - eps)^2)) as eta -> 0
    eps = 0.03
    pos, _ = E.two_arrival_closed_forms(E.tightness_family(eps, 1e-5))
    want = 1.0 / (0.5 + 1.0 / (2.0 * (1.0 + (1.0 - eps) ** 2)))
    assert pos == pytest.approx(want, abs=1e-3)


def test_bound_holds_on_assorted_laws():
    laws = [law for _, law in continuous_test_laws()]
    laws.append(E.tightness_family(0.3, 0.1))
    laws.append(D.mixture_with_uniform(0.4, D.discrete([(0.25, 0.5), (0.8, 0.5)])))
    for law in laws:
        pos2, poa2 = E.two_arrival_closed_forms(law)
        assert pos2 <= 4 / 3 + 1e-9
        assert poa2 <= 4 / 3 + 1e-9
        assert pos2 <= poa2 + 1e-12


def _mp_two_arrival(law):
    """(PoS_2, PoA_2) of an atomless law at 40 digits, with the exact mean:
    polynomial moments in closed form, the m^2 / a term by mpmath quadrature."""
    with mpmath.workdps(40):
        pieces = mp_pieces(law)
        zero, one = mpmath.mpf(0), mpmath.mpf(1)
        m = mp_moment(pieces, zero, one, 1)
        best = m + mp_moment(pieces, m / 2, one, 1)
        corr = mp_moment(pieces, m / 2, m, 1) - 2 * m * mp_moment(pieces, m / 2, m, 0)
        for u, v, dens, _, _ in pieces:
            a, b = max(m / 2, u), min(m, v)
            if b > a:
                corr += mpmath.quad(lambda x: m * m / x * mp_poly(dens, x), [a, b])
        worst = 2 * m - mp_moment(pieces, zero, m / 2, 1) - corr
        return 2 * m / best, 2 * m / worst


# measured largest absolute error over the 49 Beta(p, q), p, q = 1..7:
# 2.16e-16 (PoA_2 of Beta(5,2)), about one ulp of a ratio near 1; float
# density moments left up to 1.4e-13 here
_TWO_ARRIVAL_ABS_ERR = 2.2e-16


def test_two_arrival_closed_forms_against_mpmath():
    for p in range(1, 8):
        for q in range(1, 8):
            law = beta_distribution(p, q)
            got = E.two_arrival_closed_forms(law)
            for value, ref in zip(got, _mp_two_arrival(law)):
                assert abs(mpmath.mpf(value) - ref) <= _TWO_ARRIVAL_ABS_ERR, (p, q, value, float(ref))


@pytest.mark.parametrize("law", [D.uniform(), beta_distribution(2, 2)], ids=["uniform", "beta22"])
@pytest.mark.parametrize("variant", ["no_recall", "full_recall"])
def test_ratio_rows_equal_the_per_horizon_ratios(law, variant):
    # one forward recursion to the last horizon gives every horizon's entries
    rows = list(E.ratio_rows(law, 6, variant, GRID))
    assert [r.n for r in rows] == [2, 3, 4, 5, 6]
    for r in rows:
        assert r == E.ratios(law, r.n, variant, grid=GRID)
    assert list(E.ratio_rows(law, 1, variant, GRID)) == []


def test_ratio_rows_run_each_no_recall_recursion_once(monkeypatch):
    calls = []
    for name in ("no_recall_sequence", "max_feasible_sum"):
        original = getattr(E, name)
        monkeypatch.setattr(E, name, lambda d, n, f=original, name=name: calls.append((name, n)) or f(d, n))
    rows = list(E.ratio_rows(D.uniform(), 10, "no_recall"))
    assert len(rows) == 9
    assert sorted(calls) == [("max_feasible_sum", 10), ("no_recall_sequence", 10)]
