"""Every integer input (a seed, a count or a size) follows one rule.

An integer input must be an integer but not a bool, and at least its least
value; otherwise ``ValueError`` is raised with a message that starts with
the input's name.  Each row names the input, its least value and a call
that passes the value in that input's place.
"""

import numpy as np
import pytest

from votedist import cli, model, montecarlo, verification, worstcase

INTEGER_INPUTS = [
    ("seed", 0, lambda v: montecarlo.McConfig(10, v)),
    ("seed", 0, lambda v: verification.displacement_suites(1, v)),
    ("seed", 0, lambda v: verification.canonicalization_suites(1, v)),
    ("seed", 0, lambda v: worstcase.generate_gate_elections(0.1, 1.0, 1, v)),
    ("trials", 1, lambda v: verification.displacement_suites(v, 1)),
    ("trials", 1, lambda v: verification.canonicalization_suites(v, 1)),
    ("trials", 1, lambda v: cli.cmd_verify.callback(1, v, 0.1, 1.0, 25)),
    ("count", 0, lambda v: worstcase.generate_gate_elections(0.1, 1.0, v, 3)),
    ("samples", 1, lambda v: montecarlo.hoeffding_half_width(v, 0.95)),
    ("samples", 1, lambda v: montecarlo.McConfig(v, 1)),
    ("total", 1, lambda v: worstcase.witness_election(worstcase.solve_worst_case(1.0), v)),
    ("max_voters", 1, lambda v: verification.random_election(np.random.default_rng(1), v)),
    ("max_voters", 1,
     lambda v: verification.random_euclidean_election(np.random.default_rng(1), v)),
]

CASES = [
    (name, call, value)
    for name, least, call in INTEGER_INPUTS
    for value in (1.5, True, least - 1)
]

IDS = [f"{name}-row{k // 3}-{value!r}" for k, (name, _, value) in enumerate(CASES)]


@pytest.mark.parametrize("name, call, value", CASES, ids=IDS)
def test_non_integer_bool_and_too_small_are_rejected(name, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(value)


@pytest.mark.parametrize(
    "value, message",
    [
        (1.5, "n must be an integer, got 1.5"),
        (True, "n must be an integer, got True"),
        (np.bool_(True), "n must be an integer, got np.True_"),
        ("3", "n must be an integer, got '3'"),
        (1, "n must be >= 2, got 1"),
    ],
)
def test_check_count_messages(value, message):
    with pytest.raises(ValueError) as err:
        model._check_count("n", value, 2)
    assert str(err.value) == message


def test_numpy_integers_are_returned_as_int():
    value = model._check_count("n", np.int64(3))
    assert value == 3 and type(value) is int
