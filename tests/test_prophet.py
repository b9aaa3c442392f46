from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selection_games import distributions as D
from selection_games.prophet import max_feasible_sum, prophet_values

LAWS = [D.uniform(), D.two_point(), D.point_mass(0.4), D.mixture_with_uniform(0.3, D.discrete([(0.5, 1.0)]))]


def test_uniform_prophet_closed_form():
    c = prophet_values(D.uniform(), 3)
    assert c[1] == pytest.approx(0.5, abs=1e-12)
    assert c[2] == pytest.approx(5 / 8, abs=1e-12)
    # one more step of c_{k+1} = (1 + c_k^2) / 2
    assert c[3] == pytest.approx(89 / 128, abs=1e-12)


def test_point_mass_prophet():
    c = prophet_values(D.point_mass(0.7), 5)
    assert all(v == pytest.approx(0.7, abs=1e-12) for v in c.values)


def test_prophet_monotone_and_bounded():
    for law in LAWS:
        c = prophet_values(law, 8)
        vals = c.values
        assert vals[0] == pytest.approx(law.mean(), abs=1e-10)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        for n in range(1, 9):
            assert c[n] <= law.expect_order_max_with(n, 0.0) + 1e-9


def test_feasible_sum_base_cases():
    for law in LAWS:
        s = max_feasible_sum(law, 4)
        assert s[1] == pytest.approx(law.mean(), abs=1e-12)
        assert s[2] == pytest.approx(2 * law.mean(), abs=1e-12)


def test_feasible_sum_point_mass():
    s = max_feasible_sum(D.point_mass(0.4), 5)
    for n in range(2, 6):
        assert s[n] == pytest.approx(0.8, abs=1e-12)


def test_uniform_three_arrival_sum_matches_policy_oracle():
    # frozen policy-simulation oracle: threshold at s_2 - c_2 = 3/8 gave
    # 1.19510 +- 0.00037 on 1e7 runs; the exact value is 1.1953125
    s = max_feasible_sum(D.uniform(), 3)
    assert s[3] == pytest.approx(1.1953125, abs=1e-12)


def test_uniform_feasible_sum_matches_exact_fractions():
    # on the uniform law c_k = (1 + c_(k-1)^2) / 2 and
    # s_k = s_(k-1) + (1 - t^2) / 2 + (c_(k-1) - s_(k-1)) (1 - t) exactly
    c, s = [Fraction(1, 2)], [Fraction(1, 2), Fraction(1)]
    for k in range(3, 11):
        c.append((1 + c[-1] ** 2) / 2)
        t = min(max(s[-1] - c[-1], Fraction(0)), Fraction(1))
        s.append(s[-1] + (1 - t * t) / 2 + (c[-1] - s[-1]) * (1 - t))
    # every s_k is the correctly rounded exact value
    assert max_feasible_sum(D.uniform(), 10).values == tuple(float(v) for v in s)


@given(st.integers(2, 8))
def test_feasible_sum_dominated_by_top_two(n):
    for law in LAWS:
        s = max_feasible_sum(law, n)
        top2 = law.top_two_expectation(n)
        assert s[n] <= top2 + 1e-9
        if n == 2:
            assert s[2] == pytest.approx(top2, abs=1e-9)


def test_feasible_sum_nondecreasing():
    for law in LAWS:
        s = max_feasible_sum(law, 9).values
        assert all(b >= a - 1e-12 for a, b in zip(s, s[1:]))


@pytest.mark.parametrize("sequence", [prophet_values, max_feasible_sum])
def test_index_outside_one_to_n_raises(sequence):
    seq = sequence(D.uniform(), 3)
    assert len(seq) == 3 and seq[1] == seq.values[0] and seq[3] == seq.values[-1]
    for k in (0, 4):
        with pytest.raises(IndexError, match=r"out of range 1\.\.3"):
            seq[k]
