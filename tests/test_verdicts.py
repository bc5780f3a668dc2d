"""Every verdict applies its tolerance through one rule, ``model._within``.

Each test keeps the comparison a verdict site wrote out by hand before it
was routed through the rule, and checks that the site's routed form returns
the same bool on 200 examples: ordinary floats, ±0.0, ±inf, NaN,
subnormals, and values at the site's ``limit + tol`` and one ulp either
side.  Where the site can be called with chosen inputs, the routed form is
the real code.  A guard over the source then fails on any comparison that
applies a tolerance outside the rule.
"""

import ast
import math
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import votedist
from votedist import displace, metric, model, verification, worstcase
from votedist.model import LEFT, TIE, LineElection
from votedist.worstcase import BoundCheck

SPECIAL = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0,
    5e-324, -5e-324, sys.float_info.min, -sys.float_info.min, sys.float_info.max,
)


def reals():
    """Any float, with the special values above drawn often."""
    return st.one_of(st.sampled_from(SPECIAL), st.floats())


def around(point):
    """``point`` and its neighbours one ulp below and above, or any float."""
    near = (math.nextafter(point, -math.inf), point, math.nextafter(point, math.inf))
    return st.one_of(st.sampled_from(near), reals())


EXAMPLES = settings(max_examples=200, deadline=None)


@EXAMPLES
@given(reals(), st.data())
def test_certificate_rule(before, data):
    after = data.draw(around(before - displace.CERTIFICATE_TOL))
    reference = after >= before - displace.CERTIFICATE_TOL
    certificate = displace.ValidityCertificate(LEFT, LEFT, before, after, True)
    assert certificate.passed == reference


@EXAMPLES
@given(st.lists(around(1.0 - metric.TRIANGLE_TOL), min_size=1, max_size=8))
def test_triangle_rule_on_arrays(sums):
    # MetricElection._check's fast path, on the row sums of its array.
    s = np.array(sums)
    reference = s.min() >= 1.0 - metric.TRIANGLE_TOL
    assert model._within(-s.min(), -1.0, metric.TRIANGLE_TOL) == reference
    elementwise = model._within(-s, -1.0, metric.TRIANGLE_TOL)
    assert np.array_equal(elementwise, s >= 1.0 - metric.TRIANGLE_TOL)


finite_distances = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, sys.float_info.min, 1.0, sys.float_info.max)),
    st.floats(0.0, allow_infinity=False),
)


@EXAMPLES
@given(finite_distances, st.data())
def test_triangle_rule_per_voter(d_left, data):
    # The scan reaches the check only with finite, nonnegative distances.
    d_right = data.draw(
        around(1.0 - metric.TRIANGLE_TOL - d_left).filter(lambda d: 0.0 <= d < math.inf)
    )
    reference = not d_left + d_right < 1.0 - metric.TRIANGLE_TOL
    with np.errstate(over="ignore"):
        try:
            metric.MetricElection([(d_left, d_right)])
            accepted = True
        except ValueError as err:
            assert "triangle inequality" in str(err)
            accepted = False
    assert accepted == reference


@EXAMPLES
@given(reals(), st.data())
def test_tie_rule(votes_left, data):
    gap = max(model.WINNER_TIE_TOL, model.WINNER_TIE_EPS * model._EPS * 2.0 * votes_left)
    votes_right = data.draw(st.one_of(around(votes_left + gap), around(votes_left - gap)))
    tol = max(
        model.WINNER_TIE_TOL, model.WINNER_TIE_EPS * model._EPS * (votes_left + votes_right)
    )
    reference = abs(votes_left - votes_right) <= tol
    assert (model._winner(votes_left, votes_right) == TIE) == reference


REPORT_ELECTION = LineElection([0.2, 0.9])


@EXAMPLES
@given(reals(), st.data())
def test_report_sum_rule(p_left, data):
    p_right = data.draw(st.one_of(around(1.0 - p_left + 1e-9), around(1.0 - p_left - 1e-9)))
    reference = p_left >= 0 and p_right >= 0 and abs(p_left + p_right - 1.0) <= 1e-9
    measured = (*model.social_costs(REPORT_ELECTION), *model.expected_votes(REPORT_ELECTION, 1.0))
    try:
        model.DistortionReport(*measured, p_left, p_right)
        accepted = True
    except ValueError as err:
        # A negative or NaN probability fails its range by name, before the sum.
        named = [name for name, p in (("win_prob_left", p_left), ("win_prob_right", p_right))
                 if not p >= 0]
        rule = f"{named[0]} must lie in" if named else "win probabilities must sum to 1"
        assert str(err).startswith(rule)
        accepted = False
    assert accepted == reference


@EXAMPLES
@given(reals(), st.data())
def test_winner_form_rule(dstar, data):
    limit = dstar * (1.0 + verification._DSTAR_ULPS * model._EPS)
    distortion = data.draw(around(limit))
    reference = distortion <= dstar * (1.0 + verification._DSTAR_ULPS * model._EPS)
    form = SimpleNamespace(election=LineElection([0.2, 1.5]))
    with mock.patch.object(model, "_candidate_distortion", return_value=distortion), \
            mock.patch.object(worstcase, "sweep_beta", return_value=[SimpleNamespace(value=dstar)]):
        assert verification._winner_forms_ok([form], [1.0]) == [reference]


@EXAMPLES
@given(reals().filter(lambda bar: bar != -math.inf), st.data())
def test_expected_form_rule(bar, data):
    # ``bar`` is a distortion, at least 1: the routed strict check differs
    # from ``<`` only at bar = -inf, where both sides read -inf.
    after = data.draw(around(bar))
    reference = after < bar
    form = SimpleNamespace(election=LineElection([0.7, 1.5]))  # one C voter, one D voter
    with mock.patch.object(model, "_candidate_distortion", side_effect=[bar, after]):
        assert verification._expected_forms_ok([form], [1.0]) == [reference]


pick_rows = reals().flatmap(
    lambda top: st.tuples(st.just(top), around(top - worstcase._PICK_TOL * (1.0 + top)))
)


@EXAMPLES
@given(st.lists(pick_rows, min_size=1, max_size=8))
def test_pick_rule_on_arrays(rows):
    top, runner_up = np.array(rows).T[:, :, None]
    with np.errstate(invalid="ignore", over="ignore"):
        reference = (top - runner_up <= worstcase._PICK_TOL * (1.0 + top))[:, 0]
        routed = model._within(top - runner_up, 0.0, worstcase._PICK_TOL * (1.0 + top))[:, 0]
    assert np.array_equal(routed, reference)


@EXAMPLES
@given(reals(), st.data())
def test_bound_rule(bound, data):
    dbar = data.draw(around(bound + 1e-12))
    if math.isnan(bound):  # not a bound: the check refuses it
        with pytest.raises(ValueError, match=r"^bound must lie in \[-inf, inf\], got nan$"):
            BoundCheck(dbar, bound)
        return
    assert (BoundCheck(dbar, bound).status == "pass") == (dbar <= bound + 1e-12)


class TestBoundCheck:
    def test_pass(self):
        check = BoundCheck(1.25, 1.5)
        assert (check.status, check.slack, check.method) == ("pass", 0.25, "exact")
        assert check == BoundCheck(1.25, 1.5, None)

    def test_fail_one_ulp_above_the_tolerance(self):
        bound = 1.5
        dbar = math.nextafter(bound + worstcase._BOUND_TOL, math.inf)
        assert BoundCheck(bound + worstcase._BOUND_TOL, bound).status == "pass"
        check = BoundCheck(dbar, bound)
        assert (check.status, check.slack, check.method) == ("fail", bound - dbar, "exact")
        assert check.slack < -worstcase._BOUND_TOL

    @pytest.mark.parametrize("dbar, reason", [(None, None), (1.25, "a reason")])
    def test_holds_exactly_one_of_dbar_and_reason(self, dbar, reason):
        with pytest.raises(ValueError, match="^a check holds exactly one of dbar and reason"):
            BoundCheck(dbar, 1.5, reason)

    def test_both_skip_reasons(self):
        # At alpha 0.1 each candidate needs about 140 expected votes.  Two
        # voters have too few; 600 voters at 0 and 400 at 1 all vote, and
        # the left candidate costs less.
        elections = [LineElection([0.2, 1.5]), LineElection([0.0] * 600 + [1.0] * 400)]
        checks = worstcase.verify_distortion_bound(0.1, 1.0, elections)
        threshold = worstcase.vote_count_threshold(0.1)
        assert [c.reason for c in checks] == [
            f"expected votes below threshold {threshold:.6g}",
            "right candidate is not strictly optimal",
        ]
        for check in checks:
            assert (check.status, check.dbar, check.slack, check.method) == (
                "skipped", None, None, None
            )
            assert check == BoundCheck(None, check.bound, check.reason)


SOURCES = sorted(Path(votedist.__file__).parent.glob("*.py"))
TOLERANCE_SUFFIXES = ("_TOL", "_EPS", "_ULPS")


def _reads_a_tolerance(node):
    if isinstance(node, ast.Name):
        return node.id == "tol" or node.id.endswith(TOLERANCE_SUFFIXES)
    if isinstance(node, ast.Attribute):
        return node.attr.endswith(TOLERANCE_SUFFIXES)
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return 0.0 < abs(node.value) < 1e-6
    return False


def test_every_tolerance_goes_through_the_rule():
    # A comparison that reads a tolerance constant, a local ``tol`` or a
    # small float literal applies a tolerance by hand; only the rule may.
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        rule = {
            id(n)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == "_within"
            for n in ast.walk(f)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and id(node) not in rule:
                if any(_reads_a_tolerance(n) for n in ast.walk(node)):
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []
