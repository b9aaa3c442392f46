"""Equilibrium payoff bounds for the take-it-or-leave-it (no recall) game.

For an atomless law the equilibrium payoff set is convex and symmetric, so
three scalars summarize it at horizon n:

* ``alpha_prime`` - the worst payoff any single player can get in
  equilibrium;
* ``alpha`` - half the worst equilibrium payoff sum;
* ``beta`` - half the best equilibrium payoff sum.

All three start at E(X)/2 for one arrival and satisfy stage recursions
obtained by integrating, over the next arrival a, the corresponding
extreme Nash payoff of the stage game with lone-player value c_k:

    alpha_prime_{k+1} = (c_k + 1)/2 - int_{a'_k}^{c_k} F - (1/2) int_{c_k}^{1} F

    2 beta_{k+1}  = int_0^{a'_k} 2 b_k dF + int_{a'_k}^{b_k} max(a + c_k, 2 b_k) dF
                    + int_{b_k}^{1} (a + c_k) dF

    2 alpha_{k+1} = int_0^{a'_k} 2 al_k dF + int_{a'_k}^{al_k} min(2 al_k, a + c_k) dF
                    + int_{al_k}^{b_k} 2 a dF
                    + int_{b_k}^{c_k} (4 a c_k - 2 b_k (a + c_k)) / (c_k + a - 2 b_k) dF
                    + int_{c_k}^{1} (a + c_k) dF

(a'_k, al_k, b_k shorthand for the stage-k scalars).  The max/min kinks are
split at their analytic crossing points, so every piece is integrated
exactly: the polynomial ones as density moments, and the mixed-equilibrium
branch, a linear function over (a + c_k - 2 b_k), by the rational kernel
``ValueDistribution.partial_expectation``.
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
    m = d.mean()
    ap = al = be = m / 2.0
    out = [NoRecallSummary(1, ap, al, be, prophet)]

    def mom1(lo: float, hi: float) -> float:
        return d.density_moment(lo, hi, 1)

    def mass(lo: float, hi: float) -> float:
        return d.density_moment(lo, hi, 0)

    for k in range(1, n):
        c = prophet[k]
        ap_next = (c + 1.0) / 2.0 - d.integral_cdf(ap, c) - 0.5 * d.integral_cdf(c, 1.0)

        # best sum: max(a + c, 2 beta) crosses at a = 2 beta - c
        cross_b = _clamp(2.0 * be - c, ap, be)
        two_beta = 2.0 * be * d.cdf(ap)
        two_beta += 2.0 * be * mass(ap, cross_b)
        two_beta += mom1(cross_b, 1.0) + c * mass(cross_b, 1.0)

        # worst sum: min(2 alpha, a + c) crosses at a = 2 alpha - c
        cross_a = _clamp(2.0 * al - c, ap, al)
        two_alpha = 2.0 * al * d.cdf(ap)
        two_alpha += mom1(ap, cross_a) + c * mass(ap, cross_a)
        two_alpha += 2.0 * al * mass(cross_a, al)
        two_alpha += 2.0 * mom1(al, be)
        if c > be:
            # denominator c + a - 2 beta >= c - beta > 0 on (beta, c)
            two_alpha += d.partial_expectation(
                be, min(c, 1.0), (-2.0 * be * c, 4.0 * c - 2.0 * be), shift=c - 2.0 * be
            )
        elif c < be - _ORDER_SLACK:
            raise InconsistencyError(f"lone-player value {c} below best half-sum {be}")
        two_alpha += mom1(min(c, 1.0), 1.0) + c * mass(min(c, 1.0), 1.0)

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


def per_value_selectors(summary: NoRecallSummary, a: float) -> tuple[float, float, float]:
    """The three per-arrival integrands of the stage recursions at value a:
    (worst single payoff, best payoff sum, worst payoff sum) of the stage
    game when the continuation ranges over the whole equilibrium set."""
    if not 0.0 <= a <= 1.0:
        raise SpecValidationError("a must lie in [0, 1]")
    c = summary.prophet[summary.n]
    ap, al, be = summary.alpha_prime, summary.alpha, summary.beta
    if a < ap:
        single = ap
    elif a < c:
        single = a
    else:
        single = (a + c) / 2.0
    if a < ap:
        best_sum = 2.0 * be
    elif a < be:
        best_sum = max(a + c, 2.0 * be)
    else:
        best_sum = a + c
    if a < ap:
        worst_sum = 2.0 * al
    elif a < al:
        worst_sum = min(2.0 * al, a + c)
    elif a < be:
        worst_sum = 2.0 * a
    elif a < c:
        worst_sum = 2.0 * (2.0 * a * c - be * (a + c)) / (c + a - 2.0 * be)
    else:
        worst_sum = a + c
    return (single, best_sum, worst_sum)


def best_single_two_arrivals(d: ValueDistribution) -> float:
    """Best payoff one player can secure in equilibrium with two arrivals
    (atomless law): always passing while the rival takes interior values.

    Integrating the largest per-arrival equilibrium coordinate gives
    (m/2) F(m/2) + m (F(m) - F(m/2)) + int_m^1 (a + m)/2 dF with m = E(X).
    """
    if not d.is_continuous():
        raise UnsupportedDistributionError("closed form requires an atomless law")
    m = d.mean()
    fm2, fm = d.cdf(m / 2.0), d.cdf(m)
    tail = d.density_moment(m, 1.0, 1) / 2.0 + m * (1.0 - fm) / 2.0
    return float((m / 2.0) * fm2 + m * (fm - fm2) + tail)
