import hashlib
import itertools
from fractions import Fraction as Fr

import pytest

from selection_games import full_recall as FR
from selection_games import oracle as O
from selection_games.distributions import discrete
from selection_games.errors import ResourceBudgetError, SpecValidationError
from selection_games.stage_games import (
    StageGameFR,
    StageGameNR,
    payoff_matrix_fr,
    payoff_matrix_nr,
    solve_fr_stage,
    solve_nr_stage,
    verify_outcome,
)
from selection_games.testkit import (
    two_point_best_value,
    two_point_no_recall_set,
)

TWO_POINT = [("1/3", "1/2"), ("2/3", "1/2")]
LOW_HIGH = [("1/10", "1/2"), ("1/2", "1/2")]
THREE_ATOMS = [("1/5", "1/3"), ("1/2", "1/3"), ("9/10", "1/3")]
THREE_QUARTERS = [("1/4", "1/3"), ("1/2", "1/3"), ("3/4", "1/3")]
TENTHS = [("1/10", "1/4"), ("2/5", "1/4"), ("3/5", "1/4"), ("9/10", "1/4")]
EIGHTHS = [("1/8", "1/4"), ("3/8", "1/4"), ("5/8", "1/4"), ("7/8", "1/4")]


def test_two_point_two_arrival_set_exact():
    s = O.oracle_spep(TWO_POINT, 2, "no_recall")
    assert set(s.payoffs) == {
        (Fr(11, 24), Fr(13, 24)),
        (Fr(13, 24), Fr(11, 24)),
        (Fr(23, 48), Fr(23, 48)),
    }
    assert not s.endpoints_only


@pytest.mark.parametrize("n", range(2, 7))
def test_two_point_closed_forms_all_horizons(n):
    nr = O.oracle_spep(TWO_POINT, n, "no_recall")
    assert set(nr.payoffs) == two_point_no_recall_set(n)
    fr = O.oracle_spep(TWO_POINT, n, "full_recall")
    h = two_point_best_value(n)
    assert set(fr.payoffs) == {(h, h)}


def test_two_point_sum_identity():
    # the asymmetric no-recall sum equals the recall sum and beats the
    # symmetric no-recall sum
    for n in range(2, 7):
        pts = sorted(two_point_no_recall_set(n))
        h = two_point_best_value(n)
        p, q = pts[-1][0], pts[-1][1]
        r = [x for x, y in pts if x == y][0]
        assert p + q == 2 * h
        assert 2 * h > 2 * r


def test_summaries():
    s = O.oracle_spep(TWO_POINT, 2, "no_recall")
    best_sum, worst_sum, worst_single, best_single = O.oracle_summaries(s)
    assert best_sum == Fr(1)
    assert worst_sum == Fr(23, 24)
    assert worst_single == Fr(11, 24)
    assert best_single == Fr(13, 24)


def test_singleton_summaries():
    s = O.oracle_spep([("7/10", 1)], 3, "full_recall")
    assert O.oracle_summaries(s) == (Fr(7, 5), Fr(7, 5), Fr(7, 10), Fr(7, 10))


def test_low_high_example_exact():
    fr = O.oracle_spep(LOW_HIGH, 2, "full_recall")
    assert set(fr.payoffs) == {(Fr(3, 10), Fr(3, 10))}
    nr = O.oracle_spep(LOW_HIGH, 2, "no_recall")
    assert O.oracle_summaries(nr)[3] == Fr(11, 40)


def test_oracle_matches_full_recall_module():
    for atoms_exact, atoms_float in (
        (TWO_POINT, [(1 / 3, 0.5), (2 / 3, 0.5)]),
        (LOW_HIGH, [(0.1, 0.5), (0.5, 0.5)]),
        (
            [("1/5", "1/3"), ("1/2", "1/3"), ("9/10", "1/3")],
            [(0.2, 1 / 3), (0.5, 1 / 3), (0.9, 1 / 3)],
        ),
        # stage games with the tie a = c < d, where the worst equilibrium bids
        (
            [("0", "1/3"), ("5/8", "1/3"), ("3/4", "1/3")],
            [(0.0, 1 / 3), (0.625, 1 / 3), (0.75, 1 / 3)],
        ),
    ):
        law = discrete(atoms_float)
        for n in range(1, 6):
            spep = O.oracle_spep(atoms_exact, n, "full_recall")
            lo = min(float(x) for x, _ in spep.payoffs)
            hi = max(float(x) for x, _ in spep.payoffs)
            b = FR.band(law, n)
            assert abs(b.low - lo) < 1e-9
            assert abs(b.high - hi) < 1e-9


def test_three_atom_law_runs_and_is_symmetric():
    atoms = [("1/4", "1/3"), ("1/2", "1/3"), ("3/4", "1/3")]
    s = O.oracle_spep(atoms, 3, "no_recall")
    pset = set(s.payoffs)
    assert all((y, x) in pset for x, y in pset)


def test_guards():
    with pytest.raises(ResourceBudgetError):
        O.oracle_spep([(Fr(i, 10), Fr(1, 5)) for i in range(1, 6)], 2, "no_recall")
    with pytest.raises(SpecValidationError):
        O.oracle_spep(TWO_POINT, 9, "no_recall")
    with pytest.raises(ResourceBudgetError):
        O.oracle_spep(
            [("1/8", "1/4"), ("3/8", "1/4"), ("5/8", "1/4"), ("7/8", "1/4")],
            4,
            "no_recall",
            budget=50,
        )


def test_atom_validation():
    with pytest.raises(SpecValidationError):
        O.oracle_spep([("1/3", "1/3")], 2, "no_recall")
    with pytest.raises(SpecValidationError):
        O.oracle_spep([("1/3", "1/2"), ("1/3", "1/2")], 2, "no_recall")


@pytest.mark.parametrize("law", [TWO_POINT, THREE_ATOMS, TENTHS, [("0", "1/2"), ("1", "1/2")]],
                         ids=["two_point", "three_atoms", "tenths", "edges"])
def test_order_max_exact_matches_its_definition(law):
    ats = O.exact_atoms(law)
    floors = sorted({Fr(0), Fr(1), Fr(1, 2), Fr(1, 7)} | {x for x, _ in ats})
    for k in range(1, 7):
        want = []
        for b in floors:  # sum_x max(x, b) (F(x)^k - F(x-)^k), atom after atom
            F = total = Fr(0)
            for x, m in ats:
                total += max(x, b) * ((F + m) ** k - F**k)
                F += m
            want.append(total)
        assert O._order_max_exact(ats, k, floors) == want


def test_atoms_from_distribution_snaps_floats():
    law = discrete([(1 / 3, 0.5), (2 / 3, 0.5)])
    atoms = O.atoms_from_distribution(law)
    assert atoms == ((Fr(1, 3), Fr(1, 2)), (Fr(2, 3), Fr(1, 2)))


# -- the atom-at-a-time sums against the full selection product --------------


def _reference_no_recall(ats, n):
    cs = O._prophet_exact(ats, n)
    level = {(Fr(0), Fr(0))}
    continuum = False
    for k in range(n):
        per_atom = []
        for x, _ in ats:
            options = set()
            for dd, ee in level:
                game = StageGameNR(x, cs[k], dd, ee)
                outcome = solve_nr_stage(game)
                verify_outcome(payoff_matrix_nr(game), outcome, slack=0)
                continuum = continuum or outcome.has_continuum
                options.update(eq.payoff for eq in outcome.equilibria)
            per_atom.append(options)
        level = {
            (sum(m * v[0] for (_, m), v in zip(ats, combo)), sum(m * v[1] for (_, m), v in zip(ats, combo)))
            for combo in itertools.product(*per_atom)
        }
    return level, continuum


def _reference_full_recall(ats, n):
    memo = {}
    continuum = False

    def solve_state(k, a, b):
        nonlocal continuum
        key = (k, a, b)
        if key in memo:
            return memo[key]
        if k == 0:
            memo[key] = {(a + b) / 2}
            return memo[key]
        per_atom = [solve_state(k - 1, max(a, x), min(max(x, b), a)) for x, _ in ats]
        c = O._order_max_exact(ats, k, [b])[0]
        conts = {sum(m * v for (_, m), v in zip(ats, combo)) for combo in itertools.product(*per_atom)}
        result = set()
        for d in conts:
            game = StageGameFR(a, c, d)
            outcome = solve_fr_stage(game)
            verify_outcome(payoff_matrix_fr(game), outcome, slack=0)
            continuum = continuum or outcome.has_continuum
            result.update(eq.payoff[0] for eq in outcome.equilibria)
        memo[key] = result
        return result

    root = solve_state(n, Fr(0), Fr(0))
    return {(u, u) for u in root}, continuum


def _reference_spep(atoms, n, variant):
    """(payoffs, endpoints_only) by the full selection product, merged only
    at the end: the enumeration the oracle used before it summed one atom at
    a time."""
    ats = O.exact_atoms(atoms)
    enumerate_ = _reference_no_recall if variant == "no_recall" else _reference_full_recall
    level, continuum = enumerate_(ats, n)
    return tuple(sorted(level)), continuum


EXACTNESS_CASES = (
    [("two_point", TWO_POINT, n) for n in range(1, 7)]
    + [(name, law, n) for name, law in (("three_atoms", THREE_ATOMS), ("three_quarters", THREE_QUARTERS))
       for n in range(1, 6)]
    + [(name, law, n) for name, law in (("tenths", TENTHS), ("eighths", EIGHTHS)) for n in range(1, 5)]
)


@pytest.mark.parametrize("variant", ["no_recall", "full_recall"])
@pytest.mark.parametrize("name,law,n", EXACTNESS_CASES, ids=[f"{c[0]}-n{c[2]}" for c in EXACTNESS_CASES])
def test_matches_full_product_enumeration(name, law, n, variant):
    s = O.oracle_spep(law, n, variant)
    assert (s.payoffs, s.endpoints_only) == _reference_spep(law, n, variant)


def _set_digest(payoffs):
    text = ";".join(f"{x},{y}" for x, y in sorted(payoffs))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "law,n,points,summaries,digest",
    [
        # the four-atom set of the benchmark's atoms workload
        (TENTHS, 4, 5075, ("419/320", "2612501/2027520", "817/1280", "859/1280"), "b275da733eeaddbf"),
        # 1.73e6 selections: the full product exceeds the default budget, the
        # atom steps do not; pinned from the full-product enumeration run once
        # with budget=2*10**6
        (EIGHTHS, 5, 10380, ("707/512", "7033/5120", "349/512", "179/256"), "db65dffad32f0c8a"),
    ],
    ids=["tenths-n4", "eighths-n5"],
)
def test_four_atom_no_recall_sets_pinned(law, n, points, summaries, digest):
    s = O.oracle_spep(law, n, "no_recall")
    assert len(s.payoffs) == points
    assert tuple(str(v) for v in O.oracle_summaries(s)) == summaries
    assert _set_digest(s.payoffs) == digest
    assert not s.endpoints_only


def test_budget_bounds_each_atom_step():
    with pytest.raises(ResourceBudgetError):
        O.oracle_spep(TENTHS, 5, "no_recall")


@pytest.mark.parametrize("law,value", [(TENTHS, "7987/10240"), (EIGHTHS, "3153/4096")], ids=["tenths", "eighths"])
def test_full_recall_budget_refuses_and_completes(law, value):
    # every state's set with recall is one point here, so a budget of one
    # pairing per atom step completes, and a budget of none refuses
    with pytest.raises(ResourceBudgetError):
        O.oracle_spep(law, 6, "full_recall", budget=0)
    s = O.oracle_spep(law, 6, "full_recall", budget=1)
    assert s.payoffs == ((Fr(value), Fr(value)),) and not s.endpoints_only


@pytest.mark.parametrize("law", [TENTHS, EIGHTHS], ids=["tenths", "eighths"])
@pytest.mark.parametrize("n", range(1, 7))
def test_four_atom_full_recall_matches_band(law, n):
    spep = O.oracle_spep(law, n, "full_recall")
    values = [float(x) for x, _ in spep.payoffs]
    b = FR.band(discrete([(float(Fr(x)), float(Fr(m))) for x, m in law]), n)
    assert abs(b.low - min(values)) < 1e-9
    assert abs(b.high - max(values)) < 1e-9
