"""Equilibrium payoff bounds for the take-it-or-leave-it (no recall) game.

For an atomless law the equilibrium payoff set is convex and symmetric, so
three scalars summarize it at horizon n:

* ``alpha_prime`` - the worst payoff any single player can get in
  equilibrium;
* ``alpha`` - half the worst equilibrium payoff sum;
* ``beta`` - half the best equilibrium payoff sum.

All three start at E(X)/2 for one arrival and satisfy stage recursions
obtained by integrating, over the next arrival a, the corresponding
extreme Nash payoff of the stage game with lone-player value c_k (the
selectors of :func:`testkit.per_value_selectors`, which the tests check the
branches against).  Below a'_k every selector is the previous value, and the
law has mass 1 on [0, 1], so each step is that value plus one integral per
branch of what the branch adds to it:

    a'_{k+1}  = a'_k + int_(a'_k, c_k] (a - a'_k) dF
                     + int_(c_k, 1] ((a + c_k)/2 - a'_k) dF

    2 b_{k+1}  = 2 b_k + int_(x_b, 1] (a + c_k - 2 b_k) dF

    2 al_{k+1} = 2 al_k + int_(a'_k, x_a] (a + c_k - 2 al_k) dF
                        + int_(al_k, b_k] (2 a - 2 al_k) dF
                        + int_(b_k, c_k] (mixed(a) - 2 al_k) dF
                        + int_(c_k, 1] (a + c_k - 2 al_k) dF

where a'_k, al_k, b_k are shorthand for the stage-k scalars, mixed(a) =
(4 a c_k - 2 b_k (a + c_k)) / (a + c_k - 2 b_k), and the kinks of
max(a + c_k, 2 b_k) and min(2 al_k, a + c_k) sit at their analytic
crossings x_b = 2 b_k - c_k and x_a = 2 al_k - c_k, clamped into
[a'_k, b_k] and [a'_k, al_k].  Every integral is one call of the exact kernel
``ValueDistribution.partial_expectation``: a polynomial, or for the mixed
branch a linear function over (a + c_k - 2 b_k).
"""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import ValueDistribution
from .errors import (
    InconsistencyError,
    SpecValidationError,
    UnsupportedDistributionError,
)
from .prophet import ProphetSequence, prophet_values

_ORDER_SLACK = 1e-9


@dataclass(frozen=True)
class NoRecallSummary:
    n: int
    alpha_prime: float
    alpha: float
    beta: float
    prophet: ProphetSequence

    def __post_init__(self) -> None:
        c_n = self.prophet[self.n]
        chain = (self.alpha_prime, self.alpha, self.beta, c_n)
        for lo, hi in zip(chain[:-1], chain[1:]):
            if lo > hi + _ORDER_SLACK:
                raise InconsistencyError(
                    f"ordering violated at n={self.n}: "
                    f"alpha'={self.alpha_prime} alpha={self.alpha} "
                    f"beta={self.beta} c={c_n}"
                )


def _clamp(x: float, lo: float, hi: float) -> float:
    return min(max(x, lo), hi)


def no_recall_sequence(d: ValueDistribution, n: int) -> list[NoRecallSummary]:
    """Summaries for every horizon 1..n (the recursion computes them all)."""
    if n < 1:
        raise SpecValidationError("no_recall_sequence requires n >= 1")
    if not d.is_continuous():
        raise UnsupportedDistributionError(
            "the no-recall recursion requires an atomless law; "
            "use the exact enumeration for finite-support laws"
        )
    prophet = prophet_values(d, n)
    ap = al = be = d.mean() / 2.0
    out = [NoRecallSummary(1, ap, al, be, prophet)]
    for k in range(1, n):
        c = prophet[k]
        top = min(c, 1.0)
        lift = d.partial_expectation(ap, top, (-ap, 1.0))
        lift += d.partial_expectation(top, 1.0, (c / 2.0 - ap, 0.5))
        ap_next = ap + lift

        # best sum: max(a + c, 2 beta) crosses at a = 2 beta - c
        cross_b = _clamp(2.0 * be - c, ap, be)
        two_beta = 2.0 * be + d.partial_expectation(cross_b, 1.0, (c - 2.0 * be, 1.0))

        # worst sum: min(2 alpha, a + c) crosses at a = 2 alpha - c
        cross_a = _clamp(2.0 * al - c, ap, al)
        lift = d.partial_expectation(ap, cross_a, (c - 2.0 * al, 1.0))
        lift += d.partial_expectation(al, be, (-2.0 * al, 2.0))
        if c < be - _ORDER_SLACK:
            raise InconsistencyError(f"lone-player value {c} below best half-sum {be}")
        # denominator a + c - 2 beta >= c - beta > 0 on (beta, c] (empty when
        # c <= beta); the numerator (mixed(a) - 2 alpha)(a + c - 2 beta) is
        # linear in a
        shift = c - 2.0 * be
        num = (-2.0 * be * c - 2.0 * al * shift, 4.0 * c - 2.0 * be - 2.0 * al)
        lift += d.partial_expectation(be, top, num, shift=shift)
        lift += d.partial_expectation(top, 1.0, (c - 2.0 * al, 1.0))
        two_alpha = 2.0 * al + lift

        ap, al, be = ap_next, two_alpha / 2.0, two_beta / 2.0
        out.append(NoRecallSummary(k + 1, ap, al, be, prophet))
    return out


def no_recall_summary(d: ValueDistribution, n: int) -> NoRecallSummary:
    return no_recall_sequence(d, n)[-1]


def uniform_no_recall_closed(n: int) -> NoRecallSummary:
    """Exact recursion specialized to the uniform law.

    For uniform samples the kink maxima resolve analytically
    (a + c_k >= 2 beta_k throughout the middle band), leaving

        alpha_prime_{k+1} = alpha_prime_k^2 / 2 + c_k / 2 - c_k^2 / 4 + 1/4
        2 beta_{k+1} = 2 beta_k alpha_prime_k + c_k (1 - alpha_prime_k)
                       + (1 - alpha_prime_k^2) / 2
        2 alpha_{k+1} = 1/2 + 5 c_k^2 / 2 + 3 beta_k^2 + c_k - 6 c_k beta_k
                        + alpha_k^2 - 4 (c_k - beta_k)^2 ln 2
    """
    import math

    if n < 1:
        raise SpecValidationError("uniform_no_recall_closed requires n >= 1")
    cs = [0.5]
    for _ in range(n - 1):
        cs.append((1.0 + cs[-1] ** 2) / 2.0)
    prophet = ProphetSequence(tuple(cs))
    ap = al = be = 0.25
    for k in range(1, n):
        c = cs[k - 1]
        ap_next = 0.5 * ap * ap + 0.5 * c - 0.25 * c * c + 0.25
        two_beta = 2.0 * be * ap + c * (1.0 - ap) + (1.0 - ap * ap) / 2.0
        two_alpha = (
            0.5
            + 2.5 * c * c
            + 3.0 * be * be
            + c
            - 6.0 * c * be
            + al * al
            - 4.0 * (c - be) ** 2 * math.log(2.0)
        )
        ap, al, be = ap_next, two_alpha / 2.0, two_beta / 2.0
    return NoRecallSummary(n, ap, al, be, prophet)


def best_single_two_arrivals(d: ValueDistribution) -> float:
    """Best payoff one player can secure in equilibrium with two arrivals
    (atomless law): always passing while the rival takes interior values.

    Integrating the largest per-arrival equilibrium coordinate (m/2 below
    m/2, m up to m, (a + m)/2 above) gives, with m = E(X),
    m/2 + int_(m/2, m] m/2 dF + int_(m, 1] a/2 dF.
    """
    if not d.is_continuous():
        raise UnsupportedDistributionError("closed form requires an atomless law")
    m = d.mean()
    half = m / 2.0
    return half + d.partial_expectation(half, m, (half,)) + d.partial_expectation(m, 1.0, (0.0, 0.5))
