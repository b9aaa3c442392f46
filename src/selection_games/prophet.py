"""Single-agent benchmark sequences.

``prophet_values`` is the value of the one-player take-it-or-leave-it
stopping problem: c_1 = E(X) and c_k = E(X v c_{k-1}).

``max_feasible_sum`` is the optimal expected *sum* when two picks may be
made over the horizon (the cooperative benchmark used by the no-recall
price of anarchy): with k arrivals left and both picks unused, take the
current value x iff x + c_{k-1} >= s_{k-1}, which gives

    s_1 = E(X),  s_2 = 2 E(X),
    s_k = s_{k-1} + integral_{(t, 1]} (x + c_{k-1} - s_{k-1}) dF(x),
    with threshold t = s_{k-1} - c_{k-1} clamped into [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import ValueDistribution
from .errors import SpecValidationError


@dataclass(frozen=True)
class ProphetSequence:
    """values[k-1] = one-player no-recall value with k arrivals."""

    values: tuple[float, ...]

    def __getitem__(self, k: int) -> float:
        if not 1 <= k <= len(self.values):
            raise IndexError(f"index {k} out of range 1..{len(self.values)}")
        return self.values[k - 1]

    def __len__(self) -> int:
        return len(self.values)


class FeasibleSumSequence(ProphetSequence):
    """values[k-1] = optimal expected two-pick sum with k arrivals."""


def prophet_values(d: ValueDistribution, n: int) -> ProphetSequence:
    if n < 1:
        raise SpecValidationError("prophet_values requires n >= 1")
    c = [d.mean()]
    for _ in range(n - 1):
        c.append(d.expect_max_with(c[-1]))
    return ProphetSequence(tuple(c))


def max_feasible_sum(d: ValueDistribution, n: int) -> FeasibleSumSequence:
    if n < 1:
        raise SpecValidationError("max_feasible_sum requires n >= 1")
    m = d.mean()
    c = prophet_values(d, max(n - 1, 1))
    s = [m]
    if n >= 2:
        s.append(2.0 * m)
    for k in range(3, n + 1):
        ck, prev = c[k - 1], s[-1]
        t = min(max(prev - ck, 0.0), 1.0)
        # an atom at t stays on the pass branch (the integrand is 0 there,
        # so no ambiguity)
        s.append(prev + d.partial_expectation(t, 1.0, (ck - prev, 1.0)))
    return FeasibleSumSequence(tuple(s))
