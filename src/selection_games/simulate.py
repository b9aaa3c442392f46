"""Monte-Carlo play, equilibrium strategy construction, and an independent
best-response verifier.

The simulator plays the *auxiliary* form of both games: a run ends the
moment a player takes an item, and the survivor is credited the exact
value of their one-player continuation (wait-for-the-best with recall,
the threshold stopping value without), instead of simulating it out.
This changes no expectation and removes most of the variance.

Strategies are vectorized decision rules.  ``bid_prob(t, k, a, b)`` maps
the stage index t (1-based), the number k of arrivals still to come, the
best available value a and (with recall) the second-best b, to a bid
probability; all arguments broadcast as numpy arrays.

Equilibrium profiles built by :func:`spe_strategy`:

* with recall, both players bid exactly when the stage analysis forces or
  permits it: at or above the rival's lone value c_k(b) for the worst
  profile, above max(c_k(b), both-pass continuation) for the best one.
  The best profile reads that continuation in closed form with one or two
  arrivals to come, from the exact recursion on a law with no density, and
  from the grid otherwise;
* without recall, the worst profile is the symmetric stationary one (pass
  below a self-consistent threshold, mix in the middle band, bid above
  c_k), and the best profile is an asymmetric pair in which a designated
  bidder takes every value above the worst-single-payoff threshold while
  the other player waits; the bidder's expected payoff is exactly the
  worst single equilibrium payoff, the pair sum the best equilibrium sum.

:func:`best_response_gap` certifies a profile by backward induction: with
recall on a law with no density, over the atom states reachable from (0, 0)
in exact arithmetic, so that neither the best profile nor its certificate
builds a grid on such a law; on a grid otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .distributions import ValueDistribution
from .errors import SpecValidationError, UnsupportedDistributionError
from .full_recall import GridConfig, GridLine, TriangleContext, exact_pass_value, grid_tables, pass_value
from .no_recall import no_recall_sequence
from .oracle import _lattice_from_zero, _order_max_exact, atoms_from_distribution
from .prophet import prophet_values
from .stage_games import stage_bids

FULL_RECALL = "full_recall"
NO_RECALL = "no_recall"
#: runs that :func:`play` plays together; a block's draws and stage arrays
#: (under a MB each) are reused from block to block
PLAY_BLOCK_RUNS = 16384


@dataclass(frozen=True)
class Strategy:
    """A (vectorized) behavioral decision rule for one player.

    ``bid_prob`` must be a pure elementwise function of its arguments:
    :func:`play` calls it with the values of the live runs only (those in
    which nobody has taken an item yet), and only once per stage when both
    seats hold the same strategy object.  A rule whose probabilities are all
    0 or 1 in a block of runs reads no uniform: :func:`play` reads a seat's
    segment of the stream (player 1's second, player 2's third) for a block
    only once the seat's rule mixes there.
    """

    name: str
    bid_prob: Callable[[int, int, np.ndarray, np.ndarray | None], np.ndarray]


@dataclass(frozen=True)
class StrategyProfile:
    player1: Strategy
    player2: Strategy
    meta: dict = field(default_factory=dict)

    @property
    def symmetric(self) -> bool:
        return self.player1 is self.player2


@dataclass(frozen=True)
class SimulationReport:
    runs: int
    seed: int
    mean: tuple[float, float]
    stderr: tuple[float, float]
    #: standard error of the payoff *sum* (accounts for the tie-break
    #: correlation between the two payoffs)
    stderr_sum: float = 0.0
    traces: dict | None = None

    @property
    def mean_sum(self) -> float:
        return self.mean[0] + self.mean[1]


def _med(a, b, x):
    return np.maximum(b, np.minimum(a, x))


def _bid_prob(
    strategy: Strategy, t: int, k: int, a: np.ndarray, b: np.ndarray | None, shape=None
) -> np.ndarray:
    """Bid probabilities clipped to [0, 1], broadcast to ``shape`` (a's shape
    by default)."""
    p = np.clip(np.asarray(strategy.bid_prob(t, k, a, b), dtype=float), 0.0, 1.0)
    return np.broadcast_to(p, a.shape if shape is None else shape)


def _stream_at(seed: int, offset: int) -> np.random.Generator:
    """A generator reading the Philox stream of ``seed`` from its
    ``offset``-th double on (one Philox counter step yields four doubles)."""
    bits = np.random.Philox(key=seed)
    bits.advance(offset // 4)
    rng = np.random.Generator(bits)
    rng.random(offset % 4)
    return rng


def play(
    d: ValueDistribution,
    n: int,
    variant: str,
    strat1: Strategy,
    strat2: Strategy,
    runs: int,
    seed: int = 0,
    collect_traces: bool = False,
) -> SimulationReport:
    """Empirical mean payoffs under fair-coin tie-breaking.

    With recall, the terminal rule overrides the strategies: every player
    still present at the last arrival bids for the best available item.
    Without recall, strategies act at every stage (two passes at the last
    arrival leave both players with nothing).

    The draws are one Philox stream of ``seed``, a key in [0, 2**128): four
    segments of runs x n doubles, each row-major, holding the values, player
    1's uniforms, player 2's uniforms and the tie-break coin.  Runs are
    played in blocks of ``PLAY_BLOCK_RUNS``, each block reading its own rows
    of a segment, so the result does not depend on the block size and the
    memory touched does not grow with runs.  Every block reads its rows of
    the values and of the coin; a stage turns only its live runs' doubles
    into values (:meth:`ValueDistribution.draws_from`: a draw depends on its
    own double alone).  A block reads a player's rows only once that
    player's bid probabilities in it take a value strictly between 0 and 1;
    until then the player bids where p == 1, as U < p would for U in [0, 1).
    A profile that never mixes reads the values and the coin alone.
    """
    if n < 1:
        raise SpecValidationError("n must be >= 1")
    if runs < 1:
        raise SpecValidationError("runs must be >= 1")
    if variant not in (FULL_RECALL, NO_RECALL):
        raise SpecValidationError(f"unknown variant {variant!r}")
    if not 0 <= seed < 2**128:
        raise SpecValidationError(f"seed must be in [0, 2**128), got {seed}")
    # the value and coin segments are read block after block; a player's
    # segment, a block's rows at a time, where that block needs them
    values, coins = (_stream_at(seed, s * runs * n) for s in (0, 3))
    pay1 = np.zeros(runs)
    pay2 = np.zeros(runs)
    c_by_k = prophet_values(d, n).values if variant == NO_RECALL else None
    taken_stage = np.zeros(runs, dtype=np.int32) if collect_traces else None
    for r0 in range(0, runs, PLAY_BLOCK_RUNS):
        rows = slice(r0, min(runs, r0 + PLAY_BLOCK_RUNS))
        size = rows.stop - r0
        V = values.random((size, n))
        coin = coins.random((size, n)) < 0.5
        # where each player's rows of the block sit in the stream
        offsets = [(s + 1) * runs * n + r0 * n for s in range(2)]
        _play_block(
            d, n, variant, strat1, strat2, V, seed, offsets, coin, c_by_k,
            pay1[rows], pay2[rows], None if taken_stage is None else taken_stage[rows],
        )

    # no-recall runs where nobody ever bid end with zero payoffs (already set)
    mean = (float(pay1.mean()), float(pay2.mean()))
    se = (
        float(pay1.std(ddof=1) / np.sqrt(runs)) if runs > 1 else 0.0,
        float(pay2.std(ddof=1) / np.sqrt(runs)) if runs > 1 else 0.0,
    )
    se_sum = float((pay1 + pay2).std(ddof=1) / np.sqrt(runs)) if runs > 1 else 0.0
    traces = None
    if collect_traces:
        traces = {"taken_stage": taken_stage, "payoff1": pay1, "payoff2": pay2}
    return SimulationReport(
        runs=runs, seed=seed, mean=mean, stderr=se, stderr_sum=se_sum, traces=traces
    )


def _play_block(d, n, variant, strat1, strat2, V, seed, offsets, coin, c_by_k, pay1, pay2, taken_stage):
    """Play one block of runs, writing into the block's views of the payoffs.

    Each stage touches only the live runs: it turns their value doubles
    ``V`` alone into draws, ``bid_prob`` sees their values alone and is
    evaluated once when ``strat1 is strat2``, and the survivor's lone value
    is computed only for runs in which someone bid.  A player's uniforms
    are read from ``offsets`` of the stream the first time their bid
    probabilities take a value strictly between 0 and 1.
    """
    # runs still in play, with their (best, second-best) available values
    live = np.arange(len(V))
    a = np.zeros(len(V))
    b = np.zeros(len(V)) if variant == FULL_RECALL else None
    U = [None, None]
    for t in range(1, n + 1):
        if live.size == 0:
            break
        x = d.draws_from(V[live, t - 1])
        if variant == FULL_RECALL:
            a, b = np.maximum(a, x), _med(a, b, x)
        else:
            a = x
        k = n - t
        if variant == FULL_RECALL and t == n:
            bid1 = bid2 = np.ones(live.size, dtype=bool)
        else:
            p1 = _bid_prob(strat1, t, k, a, b)
            p2 = p1 if strat2 is strat1 else _bid_prob(strat2, t, k, a, b)
            bids = []
            for i, p in enumerate((p1, p2)):
                if not np.any((p > 0.0) & (p < 1.0)):
                    bids.append(p == 1.0)  # what U < p gives for U in [0, 1)
                    continue
                if U[i] is None:
                    U[i] = _stream_at(seed, offsets[i]).random(V.shape)
                bids.append(U[i][live, t - 1] < p)
            bid1, bid2 = bids
        any_bid = bid1 | bid2
        if not np.any(any_bid):
            continue
        won = np.flatnonzero(any_bid)
        rows = live[won]
        # the lone bidder wins; a joint bid goes to player 1 on heads
        w1 = bid1[won] & (~bid2[won] | coin[rows, t - 1])
        if variant == FULL_RECALL:
            lone = b[won] if k == 0 else np.asarray(d.order_max_with_vec(k, b[won]))
        else:
            lone = 0.0 if k == 0 else c_by_k[k - 1]
        taken = a[won]
        pay1[rows] = np.where(w1, taken, lone)
        pay2[rows] = np.where(w1, lone, taken)
        if taken_stage is not None:
            taken_stage[rows] = t
        # by index: on a mask as random as this one numpy gathers far slower
        keep = np.flatnonzero(~any_bid)
        live, a = live[keep], a[keep]
        if b is not None:
            b = b[keep]


# -- equilibrium profiles ----------------------------------------------------------


def _fr_strategy(d: ValueDistribution, n: int, grid: GridConfig, best: bool) -> Strategy:
    """Bid exactly where the worst (best) stage equilibrium bids, by
    :func:`stage_bids` at (a, c_k(b), d+_k); d+_k is read only where the
    worst rule bids, never for the worst profile, and on every law from
    :func:`pass_value` for k <= 2: at the bidding states where a and b give
    one state per value, as :func:`play`'s live runs do, and once per row
    on a table's column of values a, as the best-response DP gives them.
    For k >= 3 a law with no density reads
    the exact recursion (:func:`exact_pass_value`, each distinct state once,
    kept in a memo the rule holds), and a law with a density the grid: no
    grid is built at n <= 3, nor at any n on a law with no density.  c_k of
    the last row of floors is kept for each k, so the best-response DP,
    whose row blocks read prefixes of one row, evaluates it once a stage."""
    ctx = tables = None
    memo: dict = {}
    if best and n > 3 and d.pieces:
        ctx, tables = grid_tables(d, n - 1, grid)

    # per k, the last row of floors evaluated and its c_k values
    last: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def lone_values(k, b):
        """c_k(b).  Floors given as one row, shape (1, m), as a table's
        columns are, are kept per k, and a row that is a prefix of the kept
        one, compared by value, is read off it: c_k(b) depends on b alone.
        Other shapes (the live runs of :func:`play`) are not kept."""
        if b.ndim != 2 or b.shape[0] != 1:
            return np.asarray(d.order_max_with_vec(k, b))
        row = b[0]
        if k in last:
            floors, c = last[k]
            if row.size <= floors.size and np.array_equal(floors[: row.size], row):
                return c[None, : row.size]
        c = np.asarray(d.order_max_with_vec(k, b))
        last[k] = (row.copy(), c[0])
        return c

    def prob(t, k, a, b):
        a = np.asarray(a, dtype=float)
        if k == 0:
            return np.ones_like(a)
        b = np.asarray(b, dtype=float)
        c = lone_values(k, b)
        bid = stage_bids(a, c, None, best=False)
        if best and np.any(bid):
            # one state per value, as play's live runs give them, or a
            # table's blocks; the runs' bidding states are read by index,
            # which gathers faster than a mask, the blocks' by the mask
            per_value = a.shape == bid.shape
            at = np.nonzero(bid) if per_value else bid
            a_c, b_c, c_c = (np.broadcast_to(v, bid.shape)[at] for v in (a, b, c))
            if k <= 2 and per_value:  # c_1(a), c_2(a) at the bidding states
                dplus = pass_value(d, k, a_c, c_c)
            elif k <= 2:  # c_1(a), c_2(a) once a row, c = c_k(b) as kept
                dplus = np.broadcast_to(pass_value(d, k, a, c), bid.shape)[at]
            elif ctx is None:
                dplus = exact_pass_value(d, k, a_c, b_c, memo)
            else:
                dplus = ctx.bilinear(tables[k].dplus, a_c, b_c)
            bid[at] = stage_bids(a_c, c_c, dplus, best=True)
        return bid.astype(float)

    return Strategy("fr-best-threshold" if best else "fr-worst-threshold", prob)


def _nr_worst_thresholds(d: ValueDistribution, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Self-consistent stationary worst profile: with k arrivals to come,
    pass below w_k, mix on [w_k, c_k), bid above; the both-pass continuation
    is the profile itself, so w_{k+1} = w_k
    + int_{(w_k, c_k]} (gamma(a; w_k) - w_k) dF + int_{(c_k, 1]} ((a + c_k)/2 - w_k) dF."""
    cs = prophet_values(d, n).values
    w = [d.mean() / 2.0]
    for k in range(1, n):
        wk, ck = w[-1], cs[k - 1]
        # gamma(a; w) - w = 2 (c - w)(a - w) / (a + c - 2w)
        lift = d.partial_expectation(wk, ck, (-2.0 * wk * (ck - wk), 2.0 * (ck - wk)), shift=ck - 2.0 * wk)
        lift += d.partial_expectation(ck, 1.0, (ck / 2.0 - wk, 0.5))
        w.append(wk + lift)
    return np.array(w), np.array(cs), w[-1] if n >= 1 else 0.0


def _nr_worst_strategy(d: ValueDistribution, n: int) -> tuple[Strategy, float]:
    w, cs, value = _nr_worst_thresholds(d, n)

    def prob(t, k, a, b):
        a = np.asarray(a, dtype=float)
        if k == 0:
            return np.ones_like(a)
        wk, ck = w[k - 1], cs[k - 1]
        mixed = 2.0 * (a - wk) / np.maximum(a + ck - 2.0 * wk, 1e-300)
        return np.where(a >= ck, 1.0, np.where(a < wk, 0.0, np.clip(mixed, 0.0, 1.0)))

    return Strategy("nr-worst-stationary", prob), float(value)


def _nr_best_profile(d: ValueDistribution, n: int) -> StrategyProfile:
    seq = no_recall_sequence(d, n)
    cs = prophet_values(d, n).values
    taus = np.array([s.alpha_prime for s in seq])
    for s in seq:
        ck = cs[s.n - 1]
        if 2.0 * s.beta - ck > s.alpha_prime + 1e-9:
            raise UnsupportedDistributionError(
                "best-profile construction needs a + c >= best sum above the "
                "worst-single threshold; not satisfied by this law"
            )

    def bidder_prob(t, k, a, b):
        a = np.asarray(a, dtype=float)
        if k == 0:
            return np.ones_like(a)
        return np.where(a > taus[k - 1], 1.0, 0.0)

    def passer_prob(t, k, a, b):
        a = np.asarray(a, dtype=float)
        if k == 0:
            return np.ones_like(a)
        return np.where(a > cs[k - 1], 1.0, 0.0)

    last = seq[-1]
    return StrategyProfile(
        Strategy("nr-best-designated-bidder", bidder_prob),
        Strategy("nr-best-waiting-player", passer_prob),
        meta={
            "player1_value": last.alpha_prime,
            "player2_value": 2.0 * last.beta - last.alpha_prime,
            "half_sum": last.beta,
        },
    )


def spe_strategy(
    d: ValueDistribution,
    n: int,
    variant: str,
    which: str,
    grid: GridConfig | None = None,
) -> StrategyProfile:
    """Construct the designated equilibrium profile for the n-arrival game.

    ``which`` is "best" or "worst".  The no-recall best profile is an
    asymmetric pair (only the payoff sum is pinned); everything else is
    symmetric.
    """
    if which not in ("best", "worst"):
        raise SpecValidationError("which must be 'best' or 'worst'")
    if n < 1:
        raise SpecValidationError("n must be >= 1")
    grid = grid or GridConfig()
    if variant == FULL_RECALL:
        s = _fr_strategy(d, n, grid, best=which == "best")
        return StrategyProfile(s, s, meta={})
    if variant == NO_RECALL:
        if not d.is_continuous():
            raise UnsupportedDistributionError(
                "no-recall equilibrium profiles need an atomless law"
            )
        if which == "worst":
            s, value = _nr_worst_strategy(d, n)
            return StrategyProfile(s, s, meta={"player_value": value})
        return _nr_best_profile(d, n)
    raise SpecValidationError(f"unknown variant {variant!r}")


def never_bid() -> Strategy:
    return Strategy("never-bid", lambda t, k, a, b: np.zeros_like(np.asarray(a, dtype=float)))


def always_bid() -> Strategy:
    return Strategy("always-bid", lambda t, k, a, b: np.ones_like(np.asarray(a, dtype=float)))


def threshold_strategy(thresholds: dict[int, float], name: str = "threshold") -> Strategy:
    """Bid at stage t iff the best available value is >= thresholds[t]
    (missing stages bid always)."""

    def prob(t, k, a, b):
        thr = thresholds.get(t, 0.0)
        return np.where(np.asarray(a, dtype=float) >= thr, 1.0, 0.0)

    return Strategy(name, prob)


# -- best-response verification ------------------------------------------------------


def best_response_gap(
    d: ValueDistribution,
    n: int,
    variant: str,
    opponent: Strategy,
    equilibrium_reply: Strategy,
    grid_size: int = 2001,
) -> float:
    """Value of the best response against ``opponent`` minus the value of
    ``equilibrium_reply`` against it, via backward induction over the
    states.  A result <= tolerance certifies that the reply admits no
    profitable deviation (up to grid error).

    With recall on a law with no density, the states are those reachable
    from (0, 0), pairs of atoms and 0, and the induction runs in exact
    arithmetic on the snapped atoms (:func:`oracle.atoms_from_distribution`),
    with each bid probability, a float of the rule at (float(a), float(b)),
    taken exactly; ``grid_size`` is not read.  The gap is exact up to its
    rounding to a float: an equilibrium profile's is 0.0, and a reply that
    waits past an atom has a positive one.  The states come from
    :func:`full_recall.atom_lattice`, each level's values are integer
    numerators over one common denominator, and a stage's continuations come
    from one gather of them through its next-state table: O(n m S) integer
    products for m atoms and S <= (m + 1)(m + 2)/2 states a stage.

    Otherwise the states lie on a grid.  With recall, they are the nodes
    (a, b) of the triangle
    b <= a, walked by :meth:`TriangleContext.triangle_blocks`, and every
    stage updates one stored triangle of the context, the best reply's, with
    the stage rule applied to each block in place, padding included; the
    padding cells b > a are masked off where the two replies are compared.
    With one arrival to come (k = 1) the continuation, E_X of the even split,
    is d_1 = (a + c_1(b))/2 on every law (:func:`pass_value`), written block
    by block with no grid pass; every later stage writes its expectation over
    the triangle.
    The first arrival always finds the state (X_1, 0), so the last backward
    stage (t = 1) computes only the column b = 0: E_X[v_2(a v X, med[a, 0, X])]
    as a G-vector (at n = 2 the G-vector (a + c_1(0))/2, so that the DP holds
    no triangle), and the bid rules and the stage rule once on (a, 0).  Its
    entries are bitwise those of the full tables' column b = 0.

    The equilibrium reply's table is kept only on the rows where it differs
    from the best reply's, bit for bit, as whole rows of the mirrored table
    built from the triangle: a differing cell (i, j) makes rows i and j
    differ there.  On an atomless law row i of the expectation reads row i of
    the table alone, so the reply's expectation is computed on those rows
    only and equals the best reply's on every other row.  For an equilibrium
    profile the rows are few, and no G x G table is allocated: none for the
    uniform law at n <= 4, measured at G = 2001.  With d_1 exact, bid and pass
    pay the same at k = 1 where the two replies may choose apart, a = c_1(b),
    and no later stage parts them there; the grid's quadrature of d_1, off by
    rounding, parted 2 to 179 of the 2001 rows.
    On a law with atoms an atom term reads other rows too, and every row is
    kept once any cell differs."""
    if n < 1:
        raise SpecValidationError("n must be >= 1")
    if variant == NO_RECALL:
        return _br_gap_no_recall(d, n, opponent, equilibrium_reply, grid_size)
    if variant == FULL_RECALL:
        if not d.pieces:
            return _br_gap_exact(d, n, opponent, equilibrium_reply)
        return _br_gap_full_recall(d, n, opponent, equilibrium_reply, grid_size)
    raise SpecValidationError(f"unknown variant {variant!r}")


def _br_gap_no_recall(d, n, opponent, reply, grid_size):
    # the no-recall DP holds G-vectors only: no G x G budget applies
    ctx = GridLine(d, GridConfig(size=grid_size))
    g = ctx.g
    cs = prophet_values(d, n).values
    r_br = r_eq = 0.0
    for t in range(n, 0, -1):
        k = n - t
        ck = 0.0 if k == 0 else cs[k - 1]
        q = _bid_prob(opponent, t, k, g, None)
        p = q if reply is opponent else _bid_prob(reply, t, k, g, None)
        # without recall the continuations do not depend on the value
        v_br, v_eq = np.full(g.shape, r_br), np.full(g.shape, r_eq)
        _br_stage(g, ck, q, p, v_br, v_eq, p is q)
        r_br, r_eq = ctx.expect(v_br), ctx.expect(v_eq)
    return float(r_br - r_eq)


def _br_gap_exact(d, n, opponent, reply):
    """The full-recall gap on a law with no density, in exact arithmetic on
    the snapped atoms (:func:`oracle.atoms_from_distribution`), over the
    levels of :func:`full_recall.atom_lattice` from (0, 0); the bid
    probabilities are the rules' floats at (float(a), float(b)), taken exactly.

    Each level's values are integer numerators, one object array a reply,
    over one common denominator ``den``: no level forms a ``Fraction``."""
    atoms = atoms_from_distribution(d)
    values, states, tables = _lattice_from_zero(atoms, n)
    scale = math.lcm(*(m.denominator for _, m in atoms))
    masses = np.array([int(m * scale) for _, m in atoms], dtype=object)
    floats = np.array([float(v) for v in values])
    unit, X = _over_one_denominator(values)
    i, j = states[n]
    # at the last arrival every player still present bids: the even split
    v_br = v_eq = X[i] + X[j]
    den = 2 * unit
    for t in range(n - 1, 0, -1):
        k = n - t
        (i, j), nxt = states[t], tables[t]
        q = _bid_prob(opponent, t, k, floats[i], floats[j])
        p = q if reply is opponent else _bid_prob(reply, t, k, floats[i], floats[j])
        Q, P, D = _over_one_power_of_two(q, p)
        cden, lone = _over_one_denominator(_order_max_exact(atoms, k, values))
        # a, c_k(b) and the continuations E_X[v] over one denominator `base`
        den *= scale
        base = math.lcm(unit, cden, den)
        A, C = X[i] * (base // unit), lone[j] * (base // cden)
        w_br, w_eq = (_expect_exact(v, nxt, masses) * (base // den) for v in (v_br, v_eq))
        # over 2 base D: bid = q (a + c)/2 + (1 - q) a and pass = q c + (1 - q) w
        bid = Q * (A + C) + (D - Q) * (2 * A)
        v_br = np.maximum(bid, Q * (2 * C) + (D - Q) * (2 * w_br)) * D
        v_eq = P * bid + (D - P) * (Q * (2 * C) + (D - Q) * (2 * w_eq))
        den = 2 * base * D * D
    w_br, w_eq = (_expect_exact(v, tables[0], masses)[0] for v in (v_br, v_eq))
    return float(Fraction(w_br - w_eq, den * scale))


def _expect_exact(num: np.ndarray, nxt: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """num[nxt] @ masses, exact, as an object array: the integer numerators
    ``num`` of a level gathered at each state of the next-state table ``nxt``
    and dotted with the integer masses, in int64 where no partial sum can
    reach 2**63, and on Python ints otherwise."""
    if max(num.max(), -num.min()) * int(masses.sum()) < 2**63:
        return (num.astype(np.int64)[nxt] @ masses.astype(np.int64)).astype(object)
    return num[nxt] @ masses


def _over_one_denominator(fractions: list) -> tuple[int, np.ndarray]:
    """The lcm of the denominators of ``fractions``, and their numerators
    over it as an object array."""
    den = math.lcm(*(f.denominator for f in fractions))
    return den, np.array([f.numerator * (den // f.denominator) for f in fractions], dtype=object)


def _over_one_power_of_two(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The bid probabilities q and p, float arrays, as integer numerators
    over the one power of two D that is their common denominator: (Q, P, D),
    one object array each; when p is q it is converted once and P is Q."""
    ratios = [[x.as_integer_ratio() for x in r.tolist()] for r in ((q,) if p is q else (q, p))]
    D = max((den for r in ratios for _, den in r), default=1)
    nums = [np.array([num * (D // den) for num, den in r], dtype=object) for r in ratios]
    return nums[0], nums[-1], D


def _br_stage(a, c, q, p, w_br, w_eq, same) -> None:
    """One stage of a grid best-response DP in place, with recall on a block
    of rows, without on the grid line: the continuation values w_br and w_eq
    become

        v_br = max(bid, q c + (1 - q) w_br)
        v_eq = p bid + (1 - p) (q c + (1 - q) w_eq),  bid = q (a + c) / 2 + (1 - q) a,

    rounded exactly as these formulas are.  ``same`` says p is q."""
    not_q = 1.0 - q
    bid = a + c
    bid *= q
    bid /= 2.0
    qc = np.multiply(not_q, a)
    bid += qc
    np.multiply(q, c, out=qc)
    for w in (w_br, w_eq):
        w *= not_q
        w += qc
    np.maximum(bid, w_br, out=w_br)
    w_eq *= not_q if same else 1.0 - p
    bid *= p
    w_eq += bid


def _br_gap_full_recall(d, n, opponent, reply, grid_size):
    ctx = TriangleContext(d, GridConfig(size=grid_size))
    g = ctx.g
    A = g[:, None]
    B = g[None, :]
    # v holds the best reply's values, stored.  The equilibrium reply's table
    # equals v except on the rows `diff`, which `eq` keeps whole, one mirrored
    # row each; both take the even split at t = n, so `diff` starts empty.
    # At n = 1 v is the even split on the column b = 0
    v = (g + g[0]) / 2.0
    diff = np.empty(0, dtype=np.intp)
    eq = np.empty((0, grid_size))
    parted = []
    for t in range(n - 1, 0, -1):
        k = n - t
        # the previous stage's parted rows, read into `eq`, go before the
        # expectations allocate
        parted = []
        # the first arrival finds b = 0, so stage t = 1 needs that column alone
        cols = 1 if t == 1 else None
        ck = ctx.lone_values(k)[None, :]
        if k == 1:
            # E_X of the even split is d_1 = (a + c_1(b))/2 on every law, as
            # max(a, X) + med[a, b, X] = a + max(b, X): written block by block
            # below (at n = 2 on the column b = 0), with no grid pass
            v = np.empty(grid_size if cols else ctx.stored_size)
        else:
            # continuation values E_X[v(a v X, med[a, b, X])], v's over v
            # itself (at t = 1 its column b = 0, a G-vector).  Row i of E reads
            # row i of the table alone (atoms make `diff` every row), so the
            # reply's rows outside `diff` are v's
            if diff.size:
                ctx.expect_over_arrival(eq, cols, rows=diff, out=eq[:, :cols])
            v = ctx.expect_over_arrival(v, cols, out=None if cols else v)
        # the rows where the reply's values on the triangle part from v's,
        # with those values, and the rows where its mirrored table does
        in_diff = np.zeros(grid_size, dtype=bool)
        for rows, stop, on_tri in ctx.triangle_blocks(cols):
            a, b = A[rows], B[:, :stop]
            shape = (len(a), stop)
            q = _bid_prob(opponent, t, k, a, b, shape)
            p = q if reply is opponent else _bid_prob(reply, t, k, a, b, shape)
            # the block of v, a view: at t = 1 the column itself
            w_br = v[:, None] if cols else ctx.block(v, rows)
            if k == 1:
                w_br[...] = pass_value(d, 1, a, ck[:, :stop])
            w_eq = w_br.copy()
            lo, hi = np.searchsorted(diff, (rows.start, rows.stop))
            w_eq[diff[lo:hi] - rows.start] = eq[lo:hi, :stop]
            _br_stage(a, ck[:, :stop], q, p, w_br, w_eq, p is q)
            # compared bit for bit, on the triangle
            apart = w_eq.view(np.int64) != w_br.view(np.int64)
            apart &= on_tri
            hit = np.flatnonzero(apart.any(axis=1))
            if hit.size:
                parted.append((rows.start + hit, w_eq[hit]))
                # a cell (i, j) puts row j there too, where it sits at column i
                in_diff[rows.start + hit] = True
                in_diff[:stop] |= apart.any(axis=0)
        if t > 1:
            del eq  # read: release the previous rows before the next are built
            diff, eq = _reply_rows(ctx, v, parted, in_diff)
    # the reply's column b = 0
    col = v.copy()
    for hit, vals in parted:
        col[hit] = vals[:, 0]
    return float(ctx.expect(v) - ctx.expect(col))


def _reply_rows(ctx, v, parted, in_diff):
    """The rows ``diff`` kept of the reply's mirrored table, and those rows,
    built from the stored v and the reply's parted rows on the triangle.  On a
    law with atoms every row is kept once any row parts."""
    diff = np.arange(ctx.grid.size) if ctx.atoms and in_diff.any() else np.flatnonzero(in_diff)
    eq = ctx.mirrored(v, diff)
    for hit, vals in parted:
        for i, row in zip(hit, vals):
            at = np.searchsorted(diff, i)
            eq[at, : i + 1] = row[: i + 1]  # row i on the triangle
            eq[:at, i] = row[diff[:at]]  # its cell (i, j) at (j, i), kept rows j < i
    return diff, eq


def spe_gap(
    d: ValueDistribution,
    n: int,
    variant: str,
    which: str,
    grid_size: int = 2001,
    grid: GridConfig | None = None,
) -> float:
    """Worst best-response gap over both seats of the constructed profile
    (with recall on a law with no density, exact, and ``grid_size`` and
    ``grid`` are not read)."""
    profile = spe_strategy(d, n, variant, which, grid=grid)
    g1 = best_response_gap(d, n, variant, profile.player2, profile.player1, grid_size)
    if profile.symmetric:
        return g1
    g2 = best_response_gap(d, n, variant, profile.player1, profile.player2, grid_size)
    return max(g1, g2)
