import numpy as np
import pytest

from votedist import LineElection


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def two_block_election(eps: float, total: int = 100) -> LineElection:
    """(1/2 + eps) of the voters at 1/2 + eps, the rest at 0.

    The archetypal large-distortion election under full participation: the
    bigger block barely prefers the right candidate and drags the majority
    with it, while the left candidate is far cheaper.
    """
    m_right = round((0.5 + eps) * total)
    m_left = total - m_right
    return LineElection([0.0] * m_left + [0.5 + eps] * m_right)


def hexed_lists(lists):
    """Each list of floats as the hex strings of its entries, to compare bit for bit."""
    return [[v.hex() for v in values] for values in lists]
