"""Shared reference data for the test suite, and the helpers only the tests
use.

Every expected value carries the label of the published reference row it
encodes, plus the tolerance at which a reproduction is accepted: 1e-3 for
four-digit table entries, 1e-2 for short-precision ratio entries, exact
(tol 0) for rational closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .distributions import ValueDistribution, piecewise_poly
from .errors import SpecValidationError
from .no_recall import NoRecallSummary


@dataclass(frozen=True)
class ExpectedValue:
    key: str
    value: object
    tol: float
    note: str


@dataclass(frozen=True)
class ReferenceFixture:
    name: str
    dist_spec: dict
    expected: tuple[ExpectedValue, ...]
    note: str = ""

    def lookup(self, key: str) -> ExpectedValue:
        for ev in self.expected:
            if ev.key == key:
                return ev
        raise KeyError(key)


TWO_POINT_SPEC = {
    "type": "discrete",
    "atoms": [{"x": "1/3", "p": "1/2"}, {"x": "2/3", "p": "1/2"}],
}

LOW_HIGH_SPEC = {
    "type": "discrete",
    "atoms": [{"x": "1/10", "p": "1/2"}, {"x": "1/2", "p": "1/2"}],
}

# reference rows for the uniform law: (n, worst-single, worst-half-sum,
# best-half-sum), four published digits each
UNIFORM_NO_RECALL_ROWS = {
    1: (0.25, 0.25, 0.25),
    2: (0.4688, 0.4759, 0.4844),
    3: (0.5747, 0.5803, 0.5881),
    4: (0.6419, 0.6465, 0.6533),
}

# (n, band low, band high, worst-half-sum, best-half-sum)
UNIFORM_BAND_ROWS = {
    1: (0.25, 0.25, 0.25, 0.25),
    2: (0.5, 0.5, 0.4759, 0.4844),
    3: (0.6244, 0.6245, 0.5803, 0.5881),
    4: (0.6989, 0.699, 0.6465, 0.6533),
    5: (0.7484, 0.7486, 0.6932, 0.6991),
}

# (n, (poa_fr, poa_nr, pos_fr, pos_nr, pr_fr, pr_nr))
UNIFORM_RATIO_ROWS = {
    2: (1.0, 1.0507, 1.0, 1.0323, 1.0, 1.0323),
    3: (1.000823, 1.0299, 1.0008, 1.0161, 1.0008, 1.0627),
    4: (1.00157, 1.0212, 1.00143, 1.0105, 1.00143, 1.0714),
    5: (1.0021, 1.0164, 1.00187, 1.0077, 1.00187, 1.0728),
}

#: entries printed with fewer than five significant digits get the loose tier
RATIO_TOL_TIGHT = 1e-3
RATIO_TOL_LOOSE = 1e-2

TABLE_TOL = 1e-3
GRID_BAND_TOL = 2e-3  # band rows computed by discretization (n = 4, 5)


def two_point_best_value(n: int) -> Fraction:
    """Symmetric equilibrium payoff of the two-point game with recall,
    n >= 2 arrivals."""
    return Fraction(2, 3) - Fraction(n + 2, 3 * 2 ** (n + 1))


def two_point_no_recall_set(n: int) -> set[tuple[Fraction, Fraction]]:
    """The three-point no-recall equilibrium payoff set, n >= 2 arrivals."""
    p = Fraction(2, 3) - Fraction(n + 1, 3 * 2 ** (n + 1))
    q = Fraction(2, 3) - Fraction(n + 3, 3 * 2 ** (n + 1))
    r = Fraction(2, 3) - Fraction(2 * n + 5, 3 * 2 ** (n + 2))
    return {(p, q), (q, p), (r, r)}


def two_point_top_two(n: int) -> Fraction:
    return Fraction(4, 3) - Fraction(n + 2, 3 * 2**n)


def fixtures() -> list[ReferenceFixture]:
    out = []
    uniform_spec = {"type": "uniform"}
    rows = []
    for n, (ap, al, be) in UNIFORM_NO_RECALL_ROWS.items():
        rows += [
            ExpectedValue(f"alpha_prime[{n}]", ap, TABLE_TOL, f"no-recall row n={n}"),
            ExpectedValue(f"alpha[{n}]", al, TABLE_TOL, f"no-recall row n={n}"),
            ExpectedValue(f"beta[{n}]", be, TABLE_TOL, f"no-recall row n={n}"),
        ]
    out.append(
        ReferenceFixture(
            "uniform-no-recall-scalars",
            uniform_spec,
            tuple(rows),
            "published uniform no-recall equilibrium bounds, 1 to 4 arrivals",
        )
    )

    rows = []
    for n, (lo, hi, al, be) in UNIFORM_BAND_ROWS.items():
        band_tol = TABLE_TOL if n <= 3 else GRID_BAND_TOL
        rows += [
            ExpectedValue(f"low[{n}]", lo, band_tol, f"band row n={n}"),
            ExpectedValue(f"high[{n}]", hi, band_tol, f"band row n={n}"),
            ExpectedValue(f"alpha[{n}]", al, TABLE_TOL, f"band row n={n}"),
            ExpectedValue(f"beta[{n}]", be, TABLE_TOL, f"band row n={n}"),
        ]
    rows.append(
        ExpectedValue("low_exact[3]", Fraction(607, 972), 0.0, "three-arrival exact worst value")
    )
    out.append(
        ReferenceFixture(
            "uniform-band-and-no-recall",
            uniform_spec,
            tuple(rows),
            "published uniform comparison rows, 1 to 5 arrivals",
        )
    )

    rows = []
    keys = ("poa_fr", "poa_nr", "pos_fr", "pos_nr", "pr_fr", "pr_nr")
    for n, vals in UNIFORM_RATIO_ROWS.items():
        for key, val in zip(keys, vals):
            digits = len(f"{val}".replace(".", "").lstrip("0")) if val != 1.0 else 1
            tol = RATIO_TOL_TIGHT if digits >= 5 else RATIO_TOL_LOOSE
            rows.append(ExpectedValue(f"{key}[{n}]", val, tol, f"ratio row n={n}"))
    out.append(
        ReferenceFixture(
            "uniform-efficiency-ratios",
            uniform_spec,
            tuple(rows),
            "published uniform efficiency ratios, 2 to 5 arrivals",
        )
    )

    rows = []
    for n in range(2, 7):
        rows.append(
            ExpectedValue(
                f"best_value[{n}]", two_point_best_value(n), 0.0, "two-point closed form"
            )
        )
    out.append(
        ReferenceFixture(
            "two-point-closed-forms",
            TWO_POINT_SPEC,
            tuple(rows),
            "exact two-point equilibrium values with recall, 2 to 6 arrivals",
        )
    )

    out.append(
        ReferenceFixture(
            "recall-beats-no-recall-example",
            LOW_HIGH_SPEC,
            (
                ExpectedValue("best_value_recall[2]", Fraction(3, 10), 0.0, "worked example"),
                ExpectedValue("best_single_no_recall[2]", Fraction(11, 40), 0.0, "worked example"),
            ),
            "two-atom law where recall strictly beats the best no-recall payoff",
        )
    )

    out.append(
        ReferenceFixture(
            "uniform-two-arrival-equality",
            uniform_spec,
            (
                ExpectedValue("best_value_recall[2]", 0.5, 1e-9, "worked example"),
                ExpectedValue("best_single_no_recall[2]", 0.5, 1e-9, "worked example"),
            ),
            "uniform two-arrival case where both variants give 1/2",
        )
    )
    return out


def beta_distribution(p: int, q: int) -> ValueDistribution:
    """Beta(p, q) with integer shape parameters as an exact polynomial
    density on [0, 1]."""
    if p < 1 or q < 1:
        raise ValueError("integer Beta shapes must be >= 1")
    import math

    norm = Fraction(math.factorial(p + q - 1), math.factorial(p - 1) * math.factorial(q - 1))
    # x^(p-1) (1-x)^(q-1) expanded in ascending powers
    coeffs = [Fraction(0)] * (p + q - 1)
    for j in range(q):
        coeffs[p - 1 + j] = norm * Fraction((-1) ** j * math.comb(q - 1, j))
    return piecewise_poly([(0.0, 1.0, [float(c) for c in coeffs])])


def continuous_test_laws() -> list[tuple[str, ValueDistribution]]:
    """Atomless laws used across ordering and ratio tests."""
    from .distributions import uniform

    tilted = piecewise_poly([(0.0, 0.5, [0.5]), (0.5, 1.0, [1.5])])
    return [
        ("uniform", uniform()),
        ("beta22", beta_distribution(2, 2)),
        ("beta13", beta_distribution(1, 3)),
        ("tilted-step", tilted),
    ]


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
