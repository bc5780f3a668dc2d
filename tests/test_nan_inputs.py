"""Every public numeric function rejects NaN in each of its float arguments.

A range check written ``x < lo`` lets NaN through, since every comparison
with NaN is false; the check must be written so that NaN fails it.  Each row
is a valid call; the test replaces one float argument at a time with NaN.
"""

import math

import pytest

from votedist import metric, model, montecarlo, worstcase
from votedist.model import LineElection


def distance_ratio(d_left, d_right):
    """:func:`metric.distance_ratio` of the pair ``(d_left, d_right)``."""
    return metric.distance_ratio((d_left, d_right))


VALID_CALLS = [
    (model.check_beta, (0.5,)),
    (model.participation_probability, (0.2, 0.9, 0.5)),
    (model.profile, (0.3, 0.5)),
    (model.region_of, (0.3,)),
    (model.distortion_pair, (2.0, 1.0)),
    (distance_ratio, (2.0, 1.0)),
    (worstcase.two_point_distortion, (0.5, 0.1, 2.0)),
    (worstcase.binding_xd, (0.5, 0.1, 0.5, 0.1)),
    (worstcase.vote_count_threshold, (0.1,)),
    (worstcase.solve_worst_case_margin, (0.5, 0.1)),
    (montecarlo.hoeffding_half_width, (10, 0.95)),
    (montecarlo.McConfig, (10, 1, 0.95)),
    (worstcase.verify_distortion_bound, (0.1, 1.0, [LineElection([1.5])])),
]

NAN_CALLS = [
    (f, args, k)
    for f, args in VALID_CALLS
    for k, arg in enumerate(args)
    if isinstance(arg, float)
]


@pytest.mark.parametrize("f, args", VALID_CALLS, ids=[f.__name__ for f, _ in VALID_CALLS])
def test_table_calls_are_valid(f, args):
    f(*args)


@pytest.mark.parametrize(
    "f, args, k", NAN_CALLS, ids=[f"{f.__name__}-arg{k}" for f, _, k in NAN_CALLS]
)
def test_nan_argument_is_rejected(f, args, k):
    with pytest.raises(ValueError):
        f(*args[:k], math.nan, *args[k + 1 :])
