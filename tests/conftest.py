import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture(scope="session")
def uniform_dist():
    from selection_games.distributions import uniform

    return uniform()


@pytest.fixture(scope="session")
def two_point_dist():
    from selection_games.distributions import two_point

    return two_point()


def triangle_cells(ctx, P):
    """The cells b <= a of a stored triangle P of the context ``ctx``, row
    after row: the packed lower triangle of G(G + 1)/2 values."""
    i, j = np.tril_indices(ctx.grid.size)
    return P[ctx.row_starts[i] + j]


def stored_triangle(ctx, T, pad=0.0):
    """A stored triangle of the context ``ctx`` holding the cells b <= a of
    the G x G table T, or T's cells row after row if T is 1-D, with every
    padding cell set to ``pad``."""
    i, j = np.tril_indices(ctx.grid.size)
    P = np.full(ctx.stored_size, pad)
    P[ctx.row_starts[i] + j] = T[i, j] if T.ndim == 2 else T
    return P
