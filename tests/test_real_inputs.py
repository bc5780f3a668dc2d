"""Every real input (a parameter, a margin, a position or a cost) follows one rule.

A real input must be a real number but not a bool, within the float range,
not NaN, and in its interval; otherwise ``ValueError`` is raised with a
message that starts with the input's name.  Each row names the input, a
value outside its interval, the function that takes it and a call that
passes the value in that input's place.
"""

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import votedist
from votedist import documents, metric, model, montecarlo, verification, worstcase

REAL_INPUTS = [
    ("beta", 1.5, model.check_beta, model.check_beta),
    ("d_near", -0.1, model.participation_probability,
     lambda v: model.participation_probability(v, 0.9, 0.5)),
    ("d_far", -0.1, model.participation_probability,
     lambda v: model.participation_probability(0.2, v, 0.5)),
    ("x", math.inf, model.profile, lambda v: model.profile(v, 0.5)),
    ("x", -math.inf, model.region_of, model.region_of),
    ("sc_left", -1.0, model.distortion_pair, lambda v: model.distortion_pair(v, 1.0)),
    ("sc_right", -1.0, model.distortion_pair, lambda v: model.distortion_pair(1.0, v)),
    ("d_left", -1.0, metric.distance_ratio, lambda v: metric.distance_ratio((v, 1.0))),
    ("d_right", -1.0, metric.distance_ratio, lambda v: metric.distance_ratio((1.0, v))),
    ("q_b", 1.5, worstcase.two_point_distortion,
     lambda v: worstcase.two_point_distortion(v, 0.1, 2.0)),
    ("x_b", 0.6, worstcase.two_point_distortion,
     lambda v: worstcase.two_point_distortion(0.5, v, 2.0)),
    ("x_d", 0.5, worstcase.two_point_distortion,
     lambda v: worstcase.two_point_distortion(0.5, 0.1, v)),
    ("q_b", 0.0, worstcase.binding_xd, lambda v: worstcase.binding_xd(v, 0.1, 0.5, 0.1)),
    ("x_b", -0.1, worstcase.binding_xd, lambda v: worstcase.binding_xd(0.5, v, 0.5, 0.1)),
    # At beta = 0 the vote-lead constraint does not involve x_d.
    ("beta", 0.0, worstcase.binding_xd, lambda v: worstcase.binding_xd(0.5, 0.1, v, 0.1)),
    ("margin", -0.1, worstcase.binding_xd, lambda v: worstcase.binding_xd(0.5, 0.1, 0.5, v)),
    ("epsilon", -0.5, worstcase.solve_worst_case_margin,
     lambda v: worstcase.solve_worst_case_margin(0.5, v)),
    ("beta", 1.5, worstcase.sweep_beta, lambda v: worstcase.sweep_beta([0.5, v])),
    ("alpha", 0.0, worstcase.vote_count_threshold, worstcase.vote_count_threshold),
    ("alpha", 1e51, worstcase.check_gate_inputs,
     lambda v: worstcase.check_gate_inputs(v, 1.0, 1)),
    ("alpha", 0.0, worstcase.generate_gate_elections,
     lambda v: worstcase.generate_gate_elections(v, 1.0, 1, 3)),
    ("alpha", 0.0, worstcase.verify_distortion_bound,
     lambda v: worstcase.verify_distortion_bound(v, 1.0, [])),
    ("alpha", 0.0, verification.bound_suite, lambda v: verification.bound_suite(v, 1.0, 1, 3)),
    ("confidence", 1.0, montecarlo.hoeffding_half_width,
     lambda v: montecarlo.hoeffding_half_width(10, v)),
    ("confidence", 0.0, montecarlo.McConfig, lambda v: montecarlo.McConfig(10, 1, v)),
    # Functions that take beta beside their own inputs pass it to check_beta.
    ("beta", 1.5, model.participation_probability,
     lambda v: model.participation_probability(0.2, 0.9, v)),
    ("beta", 1.5, model.profile, lambda v: model.profile(0.3, v)),
    ("beta", 1.5, worstcase.solve_worst_case_margin,
     lambda v: worstcase.solve_worst_case_margin(v, 0.1)),
    ("beta", 1.5, worstcase.verify_distortion_bound,
     lambda v: worstcase.verify_distortion_bound(0.1, v, [model.LineElection([1.5])])),
    ("beta", 2.0, documents.ElectionDocument,
     lambda v: documents.ElectionDocument(v, model.LineElection([0.2]))),
    # A report checks the six values it is built from.
    ("sc_left", -1.0, model.DistortionReport,
     lambda v: model.DistortionReport(v, 1.0, 1.0, 1.0, 0.5, 0.5)),
    ("sc_right", -1.0, model.DistortionReport,
     lambda v: model.DistortionReport(1.0, v, 1.0, 1.0, 0.5, 0.5)),
    ("expected_votes_left", math.inf, model.DistortionReport,
     lambda v: model.DistortionReport(1.0, 1.0, v, 1.0, 0.5, 0.5)),
    ("expected_votes_right", -1.0, model.DistortionReport,
     lambda v: model.DistortionReport(1.0, 1.0, 1.0, v, 0.5, 0.5)),
    ("win_prob_left", -0.5, model.DistortionReport,
     lambda v: model.DistortionReport(1.0, 1.0, 1.0, 1.0, v, 0.5)),
    ("win_prob_right", -0.5, model.DistortionReport,
     lambda v: model.DistortionReport(1.0, 1.0, 1.0, 1.0, 0.5, v)),
    ("bound", 10**400, worstcase.BoundCheck, lambda v: worstcase.BoundCheck(1.0, v)),
]

BAD_VALUES = (True, np.True_, "0.5", None, math.nan)

CASES = [
    (name, call, value)
    for name, outside, _, call in REAL_INPUTS
    for value in BAD_VALUES + (outside,)
]

IDS = [
    f"{name}-row{k // (len(BAD_VALUES) + 1)}-{value!r}"
    for k, (name, _, value) in enumerate(CASES)
]


@pytest.mark.parametrize("name, call, value", CASES, ids=IDS)
def test_bool_string_none_nan_and_out_of_range_are_rejected(name, call, value):
    with pytest.raises(ValueError, match=f"^{name} must "):
        call(value)


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "r must be a real number, got True"),
        (np.True_, "r must be a real number, got np.True_"),
        ("0.5", "r must be a real number, got '0.5'"),
        (None, "r must be a real number, got None"),
        (0.5 + 0j, "r must be a real number, got (0.5+0j)"),
        (np.array(0.5), "r must be a real number, got array(0.5)"),
        (10**400, f"r must be a real number, got {10**400!r}"),
        (math.nan, "r must lie in (0, 1e50], got nan"),
        (np.float32(math.nan), "r must lie in (0, 1e50], got nan"),
        (0.0, "r must lie in (0, 1e50], got 0.0"),
        (-math.inf, "r must lie in (0, 1e50], got -inf"),
        (2e50, "r must lie in (0, 1e50], got 2e+50"),
    ],
)
def test_check_real_messages(value, message):
    with pytest.raises(ValueError) as err:
        model._check_real("r", value, 0.0, 1e50, lo_open=True)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "kwargs, interval",
    [({}, "[-inf, inf]"), ({"lo_open": True}, "(-inf, inf]"),
     ({"hi_open": True}, "[-inf, inf)"), ({"lo_open": True, "hi_open": True}, "(-inf, inf)")],
)
def test_open_ends_are_marked(kwargs, interval):
    with pytest.raises(ValueError) as err:
        model._check_real("r", math.nan, **kwargs)
    assert str(err.value) == f"r must lie in {interval}, got nan"


def test_ends_are_in_the_interval_unless_open():
    assert model._check_real("r", 0.0, 0.0, 1.0) == 0.0
    assert model._check_real("r", 1.0, 0.0, 1.0) == 1.0
    assert model._check_real("r", math.inf, 0.0) == math.inf
    for value, kwargs in ((0.0, {"lo_open": True}), (1.0, {"hi_open": True})):
        with pytest.raises(ValueError):
            model._check_real("r", value, 0.0, 1.0, **kwargs)


@pytest.mark.parametrize("value", [0.25, np.float64(0.25), np.float32(0.25), 1, np.int64(1)])
def test_real_numbers_are_returned_as_float(value):
    checked = model._check_real("r", value, 0.0, 1.0)
    assert checked == float(value) and type(checked) is float


def test_every_float_parameter_is_checked():
    # Every public parameter annotated ``float`` is a row of the table, or
    # is a ``beta``, which reaches ``check_beta`` (itself a row).  Classes
    # count when they validate their fields in ``__post_init__``; the
    # others are result records.
    rows = {(f, name) for name, _, f, _ in REAL_INPUTS}
    unchecked = []
    for info in pkgutil.iter_modules(votedist.__path__):
        module = importlib.import_module(f"votedist.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not callable(obj) or inspect.isclass(obj) and not hasattr(obj, "__post_init__"):
                continue
            for param in inspect.signature(obj).parameters.values():
                if param.annotation == "float" and param.name != "beta":
                    if (obj, param.name) not in rows:
                        unchecked.append(f"{info.name}.{name}({param.name})")
    assert unchecked == []
