import dataclasses
import json
import warnings

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from votedist.cli import main
from votedist.documents import (
    DocumentError,
    ElectionDocument,
    parse_election,
    serialize_election,
)
from votedist.metric import MetricElection
from votedist.model import LineElection

from conftest import two_block_election

ALPHA_RANGE = "error: alpha must lie in [1e-100, 1e50], got "

# An integer literal beyond the float range; JSON reads it as an int.
HUGE_INT = "9" * 400

MINIMAL_LINE = """
{
  "schema": 1,
  "kind": "line",
  "beta": 1.0,
  "voters": [1.5]
}
"""


# ``verify --seed 1``, ``2`` and ``3`` at the default options.
VERIFY_DEFAULTS_OUTPUT = (
    "ok   A_to_zero: 200/200\n"
    "ok   BC_pair: 200/200\n"
    "ok   same_region_merge: 200/200\n"
    "ok   A_to_B_map: 200/200\n"
    "ok   C_to_D_map: 200/200\n"
    "ok   D_geometric_merge: 200/200\n"
    "ok   canonical_winner_form: 50/50\n"
    "ok   canonical_expected_form: 50/50\n"
    "ok   expected_distortion_bound: 25/25\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParsing:
    def test_minimal_line_document(self):
        doc = parse_election(MINIMAL_LINE)
        assert doc == ElectionDocument(1.0, LineElection((1.5,)))
        assert doc.election.positions == (1.5,)

    def test_two_block_fixture(self):
        e = two_block_election(0.01)
        doc = ElectionDocument(0.0, e, {"title": "two blocks"})
        parsed = parse_election(serialize_election(doc))
        assert len(parsed.election) == 100
        assert parsed.beta == 0.0

    def test_triangle_violation_named(self):
        text = json.dumps(
            {"schema": 1, "kind": "metric", "beta": 1.0, "voters": [[0.2, 0.3]]}
        )
        with pytest.raises(DocumentError, match="triangle"):
            parse_election(text)

    @pytest.mark.parametrize("beta", [-0.2, 1.5, -int(HUGE_INT)])
    def test_beta_out_of_range(self, beta):
        text = json.dumps({"schema": 1, "kind": "line", "beta": beta, "voters": [1.0]})
        with pytest.raises(DocumentError, match="beta"):
            parse_election(text)

    def test_unknown_kind_rejected(self):
        text = json.dumps({"schema": 1, "kind": "plane", "beta": 1.0, "voters": [1.0]})
        with pytest.raises(DocumentError) as err:
            parse_election(text)
        assert str(err.value) == "kind: must be one of ('line', 'metric'), got 'plane'"

    def test_syntax_error_reports_location(self):
        with pytest.raises(DocumentError, match="line 1"):
            parse_election("{nope}")

    def test_unknown_field_rejected(self):
        text = json.dumps(
            {"schema": 1, "kind": "line", "beta": 1.0, "voters": [1.0], "extra": 3}
        )
        with pytest.raises(DocumentError, match="extra"):
            parse_election(text)

    def test_missing_field_rejected(self):
        with pytest.raises(DocumentError, match="voters"):
            parse_election(json.dumps({"schema": 1, "kind": "line", "beta": 1.0}))

    def test_wrong_schema_version(self):
        text = json.dumps({"schema": 2, "kind": "line", "beta": 1.0, "voters": [1.0]})
        with pytest.raises(DocumentError, match="schema"):
            parse_election(text)

    @pytest.mark.parametrize("schema", ["true", "1.0", '"1"'])
    def test_schema_must_be_the_integer_version(self, schema):
        # true and 1.0 compare equal to 1 in Python; only the integer passes.
        text = f'{{"schema": {schema}, "kind": "line", "beta": 1.0, "voters": [1.0]}}'
        with pytest.raises(DocumentError, match="schema: unsupported version"):
            parse_election(text)

    def test_bad_metric_pair_shape(self):
        text = json.dumps(
            {"schema": 1, "kind": "metric", "beta": 1.0, "voters": [[1.0]]}
        )
        with pytest.raises(DocumentError, match=r"voters\[0\]"):
            parse_election(text)

    def test_metadata_must_be_strings(self):
        text = json.dumps(
            {
                "schema": 1,
                "kind": "line",
                "beta": 1.0,
                "voters": [1.0],
                "metadata": {"n": 3},
            }
        )
        with pytest.raises(DocumentError, match="metadata"):
            parse_election(text)

    @pytest.mark.parametrize(
        "doc",
        [
            ElectionDocument(0.25, LineElection((0.0, -1.5, 2.25)), {"a": "b"}),
            ElectionDocument(1.0, MetricElection(((0.5, 0.5), (3.0, 1.0)))),
        ],
    )
    def test_round_trip(self, doc):
        assert parse_election(serialize_election(doc)) == doc


N_FAULTY = 20_001
FAULT_SITES = (0, N_FAULTY // 2, N_FAULTY - 1)
GOOD_VOTERS = {
    "line": ["0.25", "1.5", "-0.75", "3"],
    "metric": ["[0.75, 0.5]", "[2, 1.5]", "[0.0, 1.0]"],
}
# The faulty voter as JSON text, and the message the parser has always given
# for it at index {i}.
FAULTS = {
    "line": {
        "bool": ("true", "voters[{i}]: expected a number, got True"),
        "string": ('"1.5"', "voters[{i}]: expected a number, got '1.5'"),
        "null": ("null", "voters[{i}]: expected a number, got None"),
        "nested": ("[1.0]", "voters[{i}]: expected a number, got [1.0]"),
        "nan": ("NaN", "voters[{i}]: must be finite, got nan"),
        "overflow": ("1e400", "voters[{i}]: must be finite, got inf"),
        "huge_int": (HUGE_INT, "voters[{i}]: must be finite, got inf"),
    },
    "metric": {
        "bool": ("[1.0, true]", "voters[{i}][1]: expected a number, got True"),
        "string": ('["1.5", 1.0]', "voters[{i}][0]: expected a number, got '1.5'"),
        "null": ("[1.0, null]", "voters[{i}][1]: expected a number, got None"),
        "scalar": ("1.0", "voters[{i}]: expected a [d_left, d_right] pair, got 1.0"),
        "nan": ("[NaN, 1.0]", "voters[{i}][0]: must be finite, got nan"),
        "overflow": ("[1.0, 1e400]", "voters[{i}][1]: must be finite, got inf"),
        "huge_int": (f"[1.0, {HUGE_INT}]", "voters[{i}][1]: must be finite, got inf"),
        "triple": (
            "[1.0, 1.0, 1.0]",
            "voters[{i}]: expected a [d_left, d_right] pair, got [1.0, 1.0, 1.0]",
        ),
        "negative": ("[-0.5, 1.5]", "voters: voter {i} has negative distances"),
        "triangle": (
            "[0.25, 0.5]",
            "voters: voter {i} violates the triangle inequality: 0.25 + 0.5 < 1",
        ),
    },
}
# Faults the election itself finds; they are reported only when no voter of
# the document is malformed or non-finite.
ELECTION_FAULTS = ("negative", "triangle")


def faulty_document(kind, faults):
    """JSON text of N_FAULTY voters with ``faults`` ({index: fault}) put in."""
    good = GOOD_VOTERS[kind]
    voters = [good[i % len(good)] for i in range(N_FAULTY)]
    for i, fault in faults.items():
        voters[i] = FAULTS[kind][fault][0]
    return f'{{"schema": 1, "kind": "{kind}", "beta": 1.0, "voters": [{", ".join(voters)}]}}'


def expected_fault(kind, faults):
    order = sorted(faults, key=lambda i: (faults[i] in ELECTION_FAULTS, i))
    return FAULTS[kind][faults[order[0]]][1].format(i=order[0])


class TestErrorParity:
    """Each fault is reported with the message and index it always had."""

    @pytest.mark.parametrize("where", FAULT_SITES)
    @pytest.mark.parametrize(
        "kind,fault", [(k, f) for k in FAULTS for f in FAULTS[k]]
    )
    def test_single_fault(self, kind, fault, where):
        with pytest.raises(DocumentError) as err:
            parse_election(faulty_document(kind, {where: fault}))
        assert str(err.value) == FAULTS[kind][fault][1].format(i=where)

    @pytest.mark.parametrize(
        "kind,first,second",
        [
            ("line", "nan", "bool"),
            ("line", "string", "overflow"),
            ("line", "overflow", "nested"),
            ("metric", "nan", "string"),
            ("metric", "null", "triple"),
            ("metric", "triple", "overflow"),
            ("metric", "negative", "triangle"),
            ("metric", "triangle", "negative"),
            ("metric", "negative", "bool"),
            ("metric", "triangle", "nan"),
            ("metric", "triangle", "scalar"),
        ],
    )
    def test_two_faults(self, kind, first, second):
        faults = {N_FAULTY // 3: first, 2 * N_FAULTY // 3: second}
        with pytest.raises(DocumentError) as err:
            parse_election(faulty_document(kind, faults))
        assert str(err.value) == expected_fault(kind, faults)

    def test_good_document_parses(self):
        for kind in FAULTS:
            doc = parse_election(faulty_document(kind, {}))
            assert len(doc.election) == N_FAULTY


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
distance_pairs = st.tuples(
    st.floats(0.0, 1e12), st.floats(0.0, 1e12)
).filter(lambda pair: pair[0] + pair[1] >= 1.0)
metadata = st.dictionaries(st.text(max_size=5), st.text(max_size=5), max_size=3)


class TestArrayDocuments:
    @given(st.lists(finite_floats, min_size=1, max_size=30), st.floats(0.0, 1.0), metadata)
    def test_line_round_trip(self, voters, beta, meta):
        doc = ElectionDocument(beta, LineElection(voters), meta)
        assert parse_election(serialize_election(doc)) == doc

    @given(st.lists(distance_pairs, min_size=1, max_size=30), st.floats(0.0, 1.0), metadata)
    def test_metric_round_trip(self, pairs, beta, meta):
        doc = ElectionDocument(beta, MetricElection(pairs), meta)
        parsed = parse_election(serialize_election(doc))
        assert parsed == doc
        assert parsed.election.pairs == tuple(pairs)

    def test_large_integers_convert_like_float(self):
        ints = [2**53 + 1, -(2**53 + 3), 2**63 + 12345, 2**64 + 1, 10**300 + 7]
        assert float(2**53 + 1) != 2**53 + 1  # the conversion rounds
        line = parse_election(
            json.dumps({"schema": 1, "kind": "line", "beta": 1.0, "voters": ints})
        )
        assert line.election.positions == tuple(float(v) for v in ints)
        pairs = [[abs(v), 2**60 + 1] for v in ints]
        metric = parse_election(
            json.dumps({"schema": 1, "kind": "metric", "beta": 1.0, "voters": pairs})
        )
        assert metric.election.pairs == tuple((float(a), float(b)) for a, b in pairs)

    def test_parsed_election_is_returned_as_is(self):
        # A --beta override replaces the beta and keeps the parsed election.
        doc = parse_election(MINIMAL_LINE)
        assert dataclasses.replace(doc, beta=0.5).election is doc.election
        metric = parse_election(
            json.dumps({"schema": 1, "kind": "metric", "beta": 1.0, "voters": [[1, 2]]})
        )
        assert isinstance(metric.election, MetricElection)

    def test_kind_is_read_from_the_election(self):
        doc = ElectionDocument(1.0, MetricElection([(0.4, 0.8)]), {"a": "b"})
        assert doc.kind == "metric"
        line = dataclasses.replace(doc, election=LineElection([0.25]))
        assert line.kind == "line"
        assert [f.name for f in dataclasses.fields(doc)] == ["beta", "election", "metadata"]

    def test_voters_are_built_on_first_access(self):
        doc = parse_election(faulty_document("line", {}))
        assert "positions" not in vars(doc.election)
        assert doc.election.positions[:4] == (0.25, 1.5, -0.75, 3.0)
        assert "positions" in vars(doc.election)

    def test_document_of_invalid_voters_is_rejected(self):
        # Raw voters are not an election; only the parser builds one.
        with pytest.raises(TypeError, match="expected a line or metric election"):
            ElectionDocument(1.0, (0.5, 1.0))


class TestCli:
    def setup_method(self):
        self.runner = CliRunner()

    def test_eval_single_voter(self, tmp_path):
        path = write(tmp_path, "e.json", MINIMAL_LINE)
        result = self.runner.invoke(main, ["eval", path])
        assert result.exit_code == 0
        header, row = result.output.strip().split("\n")
        values = dict(zip(header.split(","), row.split(",")))
        assert values["expected_distortion"] == "1.5"
        assert values["win_prob_left"] == "0.25"

    def test_eval_metric_document(self, tmp_path):
        doc = json.dumps(
            {"schema": 1, "kind": "metric", "beta": 1.0, "voters": [[1.0, 1.0]]}
        )
        path = write(tmp_path, "m.json", doc)
        result = self.runner.invoke(main, ["eval", path, "--format", "report"])
        assert result.exit_code == 0
        assert "expected_distortion" in result.output

    def test_eval_rejects_invalid_document(self, tmp_path):
        path = write(tmp_path, "bad.json", "{broken")
        result = self.runner.invoke(main, ["eval", path])
        assert result.exit_code == 1

    def test_eval_rejects_huge_integer_voter(self, tmp_path):
        doc = f'{{"schema": 1, "kind": "line", "beta": 1.0, "voters": [0.5, {HUGE_INT}]}}'
        result = self.runner.invoke(main, ["eval", write(tmp_path, "e.json", doc)])
        assert result.exit_code == 1
        assert result.stderr == "error: voters[1]: must be finite, got inf\n"

    def test_repeat_invocations_are_byte_identical(self, tmp_path):
        path = write(tmp_path, "e.json", MINIMAL_LINE)
        args = ["simulate", path, "--samples", "2000", "--seed", "9"]
        first = self.runner.invoke(main, args)
        second = self.runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_simulate_requires_seed(self, tmp_path):
        path = write(tmp_path, "e.json", MINIMAL_LINE)
        result = self.runner.invoke(main, ["simulate", path, "--samples", "10"])
        assert result.exit_code != 0

    def test_worstcase_row(self):
        result = self.runner.invoke(main, ["worstcase", "--beta", "1"])
        assert result.exit_code == 0
        header, row = result.output.strip().split("\n")
        assert header == "beta,dstar,q_b,x_b,x_d,attained"
        assert abs(float(row.split(",")[1]) - 1.5224) < 1e-3

    def test_worstcase_margin_flag_shaves_value(self):
        base = self.runner.invoke(main, ["worstcase", "--beta", "1"])
        squeezed = self.runner.invoke(main, ["worstcase", "--beta", "1", "--epsilon", "0.05"])
        assert squeezed.exit_code == 0
        value = float(base.output.strip().split("\n")[1].split(",")[1])
        value_eps = float(squeezed.output.strip().split("\n")[1].split(",")[1])
        assert value_eps < value

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-0.5"])
    def test_worstcase_rejects_bad_epsilon(self, epsilon):
        result = self.runner.invoke(
            main, ["worstcase", "--beta", "1", "--epsilon", epsilon]
        )
        assert result.exit_code == 1
        assert result.stderr.startswith("error: epsilon must be finite and >= 0")

    def test_sweep_endpoints(self):
        result = self.runner.invoke(main, ["sweep", "--count", "2"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert float(lines[1].split(",")[1]) >= 2.99
        assert abs(float(lines[2].split(",")[1]) - 1.5224) < 1e-3

    def test_curve_midpoint_never_votes(self):
        result = self.runner.invoke(
            main,
            ["curve", "--beta", "0.5", "--beta", "1", "--zmin", "0", "--zmax", "1",
             "--points", "3"],
        )
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.strip().split("\n")[1:]]
        mid = [r for r in rows if r[0] == "0.5"]
        assert len(mid) == 2
        assert all(r[2] == "0" for r in mid)

    def test_reduce_auto_mode(self, tmp_path):
        doc = json.dumps(
            {"schema": 1, "kind": "line", "beta": 1.0,
             "voters": [-0.5, 0.1, 0.1, 0.8, 2.0, 2.4]}
        )
        path = write(tmp_path, "e.json", doc)
        result = self.runner.invoke(main, ["reduce", path])
        assert result.exit_code == 0
        reduced = parse_election(result.output)
        assert reduced.metadata["applied"] in ("true", "false")
        assert reduced.metadata["reduced"] in ("winner", "distortion")

    def test_reduce_collapses_each_region_in_one_step(self, tmp_path):
        # Demo 05's election: one step moves both A voters, one the two B-C
        # pairs, then one merge for each of B and D.
        doc = json.dumps(
            {"schema": 1, "kind": "line", "beta": 0.9,
             "voters": [-1.2, -0.3, 0.05, 0.1, 0.32, 0.6, 0.85, 2.0, 2.3, 2.8, 3.2]}
        )
        path = write(tmp_path, "e.json", doc)
        result = self.runner.invoke(main, ["reduce", path])
        assert result.exit_code == 0
        reduced = parse_election(result.output)
        assert reduced.metadata["reduced"] == "winner"
        assert reduced.metadata["steps"] == "4"
        assert sorted(set(reduced.election.positions)) == pytest.approx([1.92 / 7, 2.575], abs=1e-12)

    def test_reduce_writes_file(self, tmp_path):
        path = write(tmp_path, "e.json", MINIMAL_LINE)
        out = tmp_path / "reduced.json"
        result = self.runner.invoke(main, ["reduce", path, "--out", str(out)])
        assert result.exit_code == 0
        assert parse_election(out.read_text()).kind == "line"

    def test_metric_reduce_round_trips(self, tmp_path):
        doc = json.dumps(
            {"schema": 1, "kind": "metric", "beta": 1.0,
             "voters": [[0.4, 0.8], [1.5, 0.6], [2.0, 1.2]]}
        )
        path = write(tmp_path, "m.json", doc)
        result = self.runner.invoke(main, ["metric-reduce", path])
        assert result.exit_code == 0
        reduced = parse_election(result.output)
        assert reduced.kind == "line"
        assert reduced.metadata["swapped"] in ("true", "false")

    def test_metric_reduce_rejects_line_document(self, tmp_path):
        path = write(tmp_path, "e.json", MINIMAL_LINE)
        result = self.runner.invoke(main, ["metric-reduce", path])
        assert result.exit_code == 1

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_verify_at_the_defaults_is_pinned(self, seed):
        result = self.runner.invoke(main, ["verify", "--seed", seed])
        assert result.exit_code == 0
        assert result.output == VERIFY_DEFAULTS_OUTPUT

    def test_verify_small_run_passes(self):
        result = self.runner.invoke(
            main,
            ["verify", "--seed", "3", "--trials", "25", "--bound-count", "2"],
        )
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--trials", "-4"], "error: trials must be >= 1, got -4\n"),
            (["--trials", "1", "--bound-count", "-1"], "error: count must be >= 0, got -1\n"),
        ],
    )
    def test_verify_rejects_negative_counts(self, args, message):
        result = self.runner.invoke(main, ["verify", "--seed", "1", *args])
        assert result.exit_code == 1
        assert result.stderr == message
        assert "ok" not in result.stdout

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--beta", "2", "--alpha", "0"], "error: beta must lie in [0, 1], got 2.0\n"),
            (["--alpha", "0", "--bound-count", "-1"], ALPHA_RANGE + "0.0\n"),
            (["--trials", "0", "--alpha", "0"], ALPHA_RANGE + "0.0\n"),
            (["--bound-count", "-1", "--trials", "0"], "error: count must be >= 0, got -1\n"),
        ],
    )
    def test_verify_checks_its_options_before_any_suite(self, monkeypatch, args, message):
        from votedist import verification

        def unreachable(*args):
            raise AssertionError("a suite ran before the options were checked")

        monkeypatch.setattr(verification, "displacement_suites", unreachable)
        result = self.runner.invoke(main, ["verify", "--seed", "1", *args])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.stderr == message

    def test_verify_bound_count_zero_skips_the_audit(self):
        result = self.runner.invoke(
            main, ["verify", "--seed", "1", "--trials", "1", "--bound-count", "0"]
        )
        assert result.exit_code == 0, result.output
        assert "expected_distortion_bound: 0/0" in result.output

    def test_verify_reports_failure_with_exit_two(self, monkeypatch):
        from votedist import verification

        def broken(trials, seed):
            return [verification.SuiteResult("A_to_zero", trials, 1)]

        monkeypatch.setattr(verification, "displacement_suites", broken)
        monkeypatch.setattr(
            verification, "canonicalization_suites", lambda trials, seed: []
        )
        monkeypatch.setattr(
            verification,
            "bound_suite",
            lambda *a, **k: verification.SuiteResult("expected_distortion_bound", 1, 0),
        )
        result = self.runner.invoke(main, ["verify", "--seed", "1"])
        assert result.exit_code == 2
        assert "FAIL" in result.output


OVERFLOW_LINE = '{"schema": 1, "kind": "line", "beta": 1.0, "voters": [1e308, 1e308]}'
OVERFLOW_METRIC = (
    '{"schema": 1, "kind": "metric", "beta": 1.0,'
    ' "voters": [[1e308, 1e308], [1e308, 1e308]]}'
)
METRIC = '{"schema": 1, "kind": "metric", "beta": 1.0, "voters": [[0.4, 0.8]]}'
SOCIAL_COSTS = "error: the social costs exceed the float range\n"
CURVE_RANGE = "error: --zmin, --zmax and their span must be finite, got "

# Invalid input to any command: the group's error boundary prints one
# ``error:`` line, nothing on stdout, and exits 1 through SystemExit.  No
# numpy warning comes before it, so the cases run with warnings as errors.
CONTRACT_CASES = [
    (["curve", "--zmin", "nan"], CURVE_RANGE + "nan, 2.0\n"),
    (["curve", "--zmax", "inf"], CURVE_RANGE + "-1.0, inf\n"),
    (["curve", "--zmin", "-1e308", "--zmax", "1e308"], CURVE_RANGE + "-1e+308, 1e+308\n"),
    (["verify", "--seed", "1", "--trials", "1", "--alpha", "nan"], ALPHA_RANGE + "nan\n"),
    (["verify", "--seed", "1", "--trials", "1", "--alpha", "inf"], ALPHA_RANGE + "inf\n"),
    (["verify", "--seed", "1", "--trials", "1", "--alpha", "1e-200"], ALPHA_RANGE + "1e-200\n"),
    (["verify", "--seed", "1", "--trials", "1", "--alpha", "1e200"], ALPHA_RANGE + "1e+200\n"),
    (["eval", "{overflow_line}"], SOCIAL_COSTS),
    (["eval", "{overflow_metric}"], SOCIAL_COSTS),
    (["simulate", "{overflow_line}", "--samples", "10", "--seed", "1"], SOCIAL_COSTS),
    (["reduce", "{overflow_line}"], SOCIAL_COSTS),
    (["metric-reduce", "{overflow_metric}"], SOCIAL_COSTS),
    (["eval", "{missing}"], "error: cannot read {missing}: [Errno 2] No such file or "
     "directory: '{missing}'\n"),
    (["simulate", "{metric}", "--samples", "10", "--seed", "1"],
     "error: simulate supports line elections only\n"),
    (["reduce", "{metric}"], "error: reduce supports line elections only\n"),
    (["reduce", "{metric}", "--beta", "2"], "error: reduce supports line elections only\n"),
    (["metric-reduce", "{line}"], "error: metric-reduce supports metric elections only\n"),
    (["eval", "{line}", "--beta", "2"], "error: beta must lie in [0, 1], got 2.0\n"),
]


@pytest.mark.parametrize(
    "args, message", CONTRACT_CASES, ids=[" ".join(args) for args, _ in CONTRACT_CASES]
)
def test_invalid_input_is_one_error_line_and_exit_one(tmp_path, args, message):
    paths = {
        "line": write(tmp_path, "line.json", MINIMAL_LINE),
        "metric": write(tmp_path, "metric.json", METRIC),
        "overflow_line": write(tmp_path, "overflow_line.json", OVERFLOW_LINE),
        "overflow_metric": write(tmp_path, "overflow_metric.json", OVERFLOW_METRIC),
        "missing": str(tmp_path / "missing.json"),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = CliRunner().invoke(main, [arg.format(**paths) for arg in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == message.format(**paths)


# Click's usage errors go through the same boundary: exit 1 and one line that
# names the argument or option at fault, so exit 2 stays a failed audit.
USAGE_CASES = [
    (["eval", "{dir}"], "error: Invalid value for 'ELECTION_FILE': "),
    (["simulate", "{line}", "--samples", "10"], "error: Missing option '--seed'"),
    (["simulate", "{line}", "--samples", "abc", "--seed", "1"],
     "error: Invalid value for '--samples': "),
    (["--bogus"], "error: No such option '--bogus'."),
    ([], "error: Missing command."),
]


@pytest.mark.parametrize(
    "args, prefix", USAGE_CASES,
    ids=[" ".join(args) or "no command" for args, _ in USAGE_CASES],
)
def test_usage_errors_are_one_error_line_and_exit_one(tmp_path, args, prefix):
    paths = {"dir": str(tmp_path), "line": write(tmp_path, "line.json", MINIMAL_LINE)}
    result = CliRunner().invoke(main, [arg.format(**paths) for arg in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith(prefix)
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")


@pytest.mark.parametrize(
    "command", [["eval"], ["reduce"], ["simulate", "--samples", "10", "--seed", "1"]]
)
def test_voters_near_the_float_limit_run_without_warnings(tmp_path, command):
    # |x| + |x - 1| overflows for this voter, which is still a valid one.
    path = write(tmp_path, "e.json", '{"schema": 1, "kind": "line", "beta": 0.5,'
                 ' "voters": [-1.7e308, 0.3]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = CliRunner().invoke(main, [command[0], path, *command[1:]])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""


# Every option of every command.  Adding or removing a knob must show up here
# as a deliberate edit.
COMMAND_OPTIONS = {
    "curve": ["--beta", "--out", "--points", "--zmax", "--zmin"],
    "eval": ["--beta", "--format", "--out", "election_file"],
    "metric-reduce": ["--beta", "--out", "election_file"],
    "reduce": ["--beta", "--mode", "--out", "election_file"],
    "simulate": [
        "--beta", "--confidence", "--format", "--out", "--samples", "--seed", "election_file",
    ],
    "sweep": ["--count", "--out", "--start", "--stop"],
    "verify": ["--alpha", "--beta", "--bound-count", "--seed", "--trials"],
    "worstcase": ["--beta", "--epsilon", "--format", "--out"],
}


def test_command_options_are_pinned():
    options = {
        name: sorted(opt for param in command.params for opt in param.opts)
        for name, command in main.commands.items()
    }
    assert options == COMMAND_OPTIONS
