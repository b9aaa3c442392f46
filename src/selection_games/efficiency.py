"""Price of anarchy, price of stability, and prophet ratio.

All three ratios divide a feasible benchmark sum by an equilibrium payoff
sum:

* with recall, the feasible benchmark is the expected sum of the two best
  samples (players can wait and split them), so
  PoA = top2 / (2 low_n), PoS = PR = top2 / (2 high_n);
* without recall, the feasible benchmark for PoA/PoS is the optimal
  two-pick stopping value s_n, while PR keeps the prophet's top-two sum:
  PoA = s_n / (2 alpha_n), PoS = s_n / (2 beta_n), PR = top2 / (2 beta_n).

The two-arrival no-recall case admits closed integral forms evaluated
directly against any law on [0, 1] with positive mean (mixed laws use the
library-wide atom convention), plus the near-two-point mixture family that
drives both ratios to their 4/3 supremum.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .distributions import ValueDistribution, discrete, mixture_with_uniform
from .errors import DegenerateDistributionError, InconsistencyError, SpecValidationError
from .full_recall import GridConfig, band
from .no_recall import no_recall_sequence
from .prophet import max_feasible_sum

_RATIO_SLACK = 1e-9


@dataclass(frozen=True)
class RatioReport:
    variant: str
    n: int
    poa: float
    pos: float
    pr: float
    numerators: dict = field(default_factory=dict)
    denominators: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.pos > self.poa + _RATIO_SLACK or self.pos > self.pr + _RATIO_SLACK:
            raise InconsistencyError(
                f"stability ratio exceeds anarchy/prophet ratio: {self}"
            )
        if min(self.poa, self.pos, self.pr) < 1.0 - _RATIO_SLACK:
            raise InconsistencyError(f"ratio below 1: {self}")


def ratios(
    d: ValueDistribution,
    n: int,
    variant: str,
    grid: GridConfig | None = None,
) -> RatioReport:
    """Efficiency ratios of the n-arrival game."""
    if n < 2:
        raise SpecValidationError("ratios require n >= 2")
    return next(ratio_rows(d, n, variant, grid, first=n))


def ratio_rows(
    d: ValueDistribution,
    n: int,
    variant: str,
    grid: GridConfig | None = None,
    first: int = 2,
) -> Iterator[RatioReport]:
    """The efficiency ratios of the horizons first..n, one report at a time.

    With recall each horizon reads its own band; without, every horizon
    reads one ``no_recall_sequence(d, n)`` and one ``max_feasible_sum(d, n)``,
    computed when the first report is asked for: the recursions run forward,
    so horizon k's entries are those a horizon-k call gives."""
    if variant == "full_recall":
        for k in range(first, n + 1):
            top2 = d.top_two_expectation(k)
            fr = band(d, k, grid=grid)
            yield _report(variant, k, top2, top2, fr.low, fr.high)
    elif variant == "no_recall":
        seq, s = no_recall_sequence(d, n), max_feasible_sum(d, n)
        for k in range(first, n + 1):
            yield _report(variant, k, d.top_two_expectation(k), s[k], seq[k - 1].alpha, seq[k - 1].beta)
    else:
        raise SpecValidationError(f"unknown variant {variant!r}")


def _report(variant: str, n: int, top2: float, s_n: float, worst: float, best: float) -> RatioReport:
    """The ratios of one horizon from the prophet's top-two sum, the feasible
    benchmark sum s_n and the worst and best equilibrium payoffs of a player."""
    if min(worst, best) <= 1e-12:
        raise DegenerateDistributionError("equilibrium sum is zero")
    return RatioReport(
        variant=variant,
        n=n,
        poa=s_n / (2.0 * worst),
        pos=s_n / (2.0 * best),
        pr=top2 / (2.0 * best),
        numerators={"top_two": top2, "max_feasible_sum": s_n},
        denominators={"worst_sum": 2.0 * worst, "best_sum": 2.0 * best},
    )


def two_arrival_closed_forms(d: ValueDistribution) -> tuple[float, float]:
    """(PoS_2, PoA_2) of the two-arrival no-recall game in closed form.

    With m = E(X) > 0 and the two-pick benchmark 2m:

        best sum  = m + int_{(m/2, 1]} a dF(a)
        worst sum = 2m - int_{(0, m/2]} a dF(a)
                       - int_{(m/2, m]} (a - 2m + m^2 / a) dF(a)

    Works for mixed (atomic + continuous) laws via the atom convention of
    the distributions module.
    """
    m = d.mean()
    if m <= 0.0:
        raise DegenerateDistributionError("two-arrival ratios need E(X) > 0")
    best_sum = m + d.partial_expectation(m / 2.0, 1.0, (0.0, 1.0))
    worst_sum = 2.0 * m
    worst_sum -= d.partial_expectation(0.0, m / 2.0, (0.0, 1.0))
    # a - 2m + m^2 / a = (m^2 - 2m a + a^2) / a
    worst_sum -= d.partial_expectation(m / 2.0, m, (m * m, -2.0 * m, 1.0), shift=0.0)
    pos2 = 2.0 * m / best_sum
    poa2 = 2.0 * m / worst_sum
    if pos2 > poa2 + _RATIO_SLACK or min(pos2, poa2) < 1.0 - _RATIO_SLACK:
        raise InconsistencyError(f"two-arrival ratios inconsistent: pos={pos2}, poa={poa2}")
    return (pos2, poa2)


def tightness_family(epsilon: float, eta: float) -> ValueDistribution:
    """Near-two-point mixture driving the two-arrival ratios toward 4/3:
    mass (1-eta)(1-epsilon) at epsilon - epsilon^2, mass (1-eta) epsilon at
    1, plus a uniform layer of total mass eta."""
    if not 0.0 < epsilon < 0.5:
        raise SpecValidationError("epsilon must be in (0, 1/2)")
    if not 0.0 < eta < 1.0:
        raise SpecValidationError("eta must be in (0, 1)")
    base = discrete([(epsilon - epsilon**2, 1.0 - epsilon), (1.0, epsilon)])
    return mixture_with_uniform(eta, base)
