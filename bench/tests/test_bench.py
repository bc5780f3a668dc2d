"""Tests of the benchmark's own logic: tracing, checks, launcher contract.

Run with ``python -m pytest bench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from votedist import exact, model

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def test_self_times_on_nested_spans():
    spans = [
        ("cli", 0.0, 10.0, -1),
        ("a", 1.0, 6.0, 0),
        ("b", 2.0, 4.0, 1),
        ("b", 4.5, 5.0, 1),
        ("c", 7.0, 9.0, 0),
    ]
    got = tracing.self_times(spans)
    assert got == {"cli": (1, 3.0), "a": (1, 2.5), "b": (2, 2.5), "c": (1, 2.0)}
    assert sum(s for _, s in got.values()) == pytest.approx(10.0)


def test_wrap_restore_round_trip():
    originals = tracing.current_functions()
    assert len(originals) == len(tracing.HOOKS)
    recorder = tracing.Recorder()
    with recorder.installed():
        wrapped = tracing.current_functions()
        assert all(tracing.is_wrapped(f) for f in wrapped.values())
        e = model.LineElection([-0.4, 0.1, 0.3, 0.5, 1.5])
        with recorder.span(tracing.ROOT):
            exact.expected_distortion(e, 1.0)
    after = tracing.current_functions()
    assert all(after[k] is originals[k] for k in originals)
    counts, timings, absent = recorder.metrics()
    assert absent == []
    assert counts["exact.vote_pmf.calls"] == 2
    assert counts["exact.vote_pmf.voters"] == 4  # the voter at 1/2 is indifferent
    # Once per voter for the win probabilities and twice for expected votes
    # (the report's own sum and the expected winner's).
    assert counts["model.profile.calls"] == 15
    assert counts["exact.expected_distortion.calls"] == 1
    assert set(timings) >= {"exact.vote_pmf_s", "cli.self_s", "model.self_s"}
    assert all(v >= 0.0 for v in timings.values())


def test_missing_function_is_reported_absent(monkeypatch):
    import votedist.exact

    monkeypatch.delattr(votedist.exact, "vote_pmf")
    recorder = tracing.Recorder()
    with recorder.installed():
        pass
    _, _, absent = recorder.metrics()
    assert {"exact.vote_pmf.calls", "exact.vote_pmf.voters", "exact.vote_pmf_s"} <= set(absent)
    assert "exact.win_probabilities_s" not in absent


@pytest.fixture(scope="module")
def eval_output(tmp_path_factory):
    """A real eval CSV on a small generated document, and its recomputation."""
    doc = workloads.Document("small", "line", 0.8,
                             np.random.default_rng(3).uniform(-1.0, 2.0, size=40))
    path = tmp_path_factory.mktemp("eval") / "small.json"
    path.write_text(doc.to_json())
    op = workloads.Op("small", ("eval", str(path)), lambda text: [])
    text = _output(op)
    return text, workloads.recompute(doc)


def _output(op):
    import contextlib
    import io

    from votedist import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(list(op.argv), standalone_mode=False)
    return buf.getvalue()


def _perturb_csv(text, field, value):
    (row,) = checks.read_csv(text)
    row[field] = value
    return ",".join(row) + "\n" + ",".join(row.values()) + "\n"


def test_eval_check_rejects_perturbed_output(eval_output):
    text, expected = eval_output
    (row,) = checks.read_csv(text)
    assert checks.check_eval(text, expected, reference=row) == []
    p = float(row["win_prob_left"])
    bad_sum = _perturb_csv(text, "win_prob_left", repr(p + 1e-6))
    assert checks.check_eval(bad_sum, expected)
    ev = float(row["expected_votes_left"])
    assert checks.check_eval(_perturb_csv(text, "expected_votes_left", repr(ev * (1 + 1e-8))),
                             expected)
    sc = float(row["sc_right"])
    assert checks.check_eval(_perturb_csv(text, "sc_right", repr(sc * (1 - 1e-8))), expected)
    d = float(row["expected_distortion"])
    bad_ref = _perturb_csv(text, "expected_distortion", repr(d + 1e-6))
    assert checks.check_eval(bad_ref, expected) == []  # only the reference catches it
    assert checks.check_eval(bad_ref, expected, reference=row)
    winner = "tie" if row["expected_winner"] != "tie" else "left"
    assert checks.check_eval(_perturb_csv(text, "expected_winner", winner), expected,
                             reference=row)
    assert checks.check_eval(text + text.splitlines()[1] + "\n", expected)


def test_eval_check_requires_a_close_contest_when_asked(eval_output):
    text, expected = eval_output
    row = checks.read_csv(text)[0]
    close = 0.05 <= float(row["win_prob_left"]) <= 0.95
    assert bool(checks.check_eval(text, expected, close_contest=True)) != close


VERIFY_OK = "".join(
    f"ok   {name}: {n}/{n}{note}\n"
    for name, n, note in [
        ("A_to_zero", 200, ""), ("BC_pair", 200, ""), ("same_region_merge", 200, ""),
        ("A_to_B_map", 200, ""), ("C_to_D_map", 200, ""), ("D_geometric_merge", 200, ""),
        ("canonical_winner_form", 50, ""), ("canonical_expected_form", 50, ""),
        ("expected_distortion_bound", 25, " skipped=1"),
    ]
)


def test_verify_check_rejects_perturbed_output():
    assert checks.check_verify(VERIFY_OK) == []
    assert checks.check_verify(VERIFY_OK.replace("ok   BC_pair: 200/200",
                                                 "FAIL BC_pair: 199/200"))
    assert checks.check_verify(VERIFY_OK.replace("50/50", "49/50", 1))
    assert checks.check_verify(VERIFY_OK.replace("25/25", "30/30"))
    assert checks.check_verify("".join(VERIFY_OK.splitlines(True)[:-1]))
    assert checks.check_verify(VERIFY_OK + "ok   extra: 200/200\n")


def test_nonzero_exit_fails_the_operation():
    op = workloads.Op("bad", ("verify", "--seed", "1", "--beta", "2"), lambda text: [])
    result = workloads.run_op(op)
    assert not result["ok"] and result["problems"][0] == "exit code 1"


@pytest.fixture(scope="module")
def sweep_output():
    (op,) = workloads.prepare("sweep", 0, Path("."))
    return _output(op)


def test_sweep_check_rejects_perturbed_output(sweep_output):
    text = sweep_output
    assert checks.check_sweep(text, workloads.SWEEP_COUNT) == []
    lines = text.splitlines(True)
    assert checks.check_sweep("".join(lines[:-1]), workloads.SWEEP_COUNT)

    def edit(k, field, value):
        rows = checks.read_csv(text)
        rows[k][field] = value
        header = lines[0]
        return header + "".join(",".join(r.values()) + "\n" for r in rows)

    dstar_1 = float(checks.read_csv(text)[-1]["dstar"])
    assert checks.check_sweep(edit(-1, "dstar", repr(dstar_1 + 1e-8)), workloads.SWEEP_COUNT)
    assert checks.check_sweep(edit(0, "attained", "true"), workloads.SWEEP_COUNT)
    assert checks.check_sweep(edit(0, "dstar", "2.5"), workloads.SWEEP_COUNT)
    assert checks.check_sweep(edit(100, "dstar", "1.3"), workloads.SWEEP_COUNT)
    # A column added later is read past by name.
    wider = "".join(
        line.rstrip("\n") + (",dstar_upper\n" if i == 0 else ",9\n")
        for i, line in enumerate(lines)
    )
    assert checks.check_sweep(wider, workloads.SWEEP_COUNT) == []


def test_shared_document_is_a_close_contest_on_seven_sites():
    for seed in (0, 1, 2):
        docs = {d.name: d for d in workloads.make_documents(seed)}
        desc = workloads.describe_document(docs["shared"])
        assert desc["groups"] == 7 and desc["shared_share"] == 1.0
        assert desc["left"] == desc["right"] == workloads.N_VOTERS // 2
        assert workloads.describe_document(docs["distinct"])["shared_share"] == 0.0
    again = workloads.make_documents(0)
    assert all(np.array_equal(a.voters, b.voters)
               for a, b in zip(again, workloads.make_documents(0)))


def test_traced_verify_counts_repeat(tmp_path):
    counts = []
    for _ in range(2):
        (op,) = workloads.prepare("verify", 5, tmp_path)
        recorder = tracing.Recorder()
        with recorder.installed():
            result = workloads.run_op(op, recorder)
        assert result["ok"], result["problems"]
        counts.append(recorder.metrics()[0])
    assert counts[0] == counts[1]
    assert counts[0]["displace.chain_steps"] > 0
    assert counts[0]["montecarlo.samples"] == 25 * 100_000


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = [(name, unit) for name, unit, *_ in tracing.METRICS] + [tracing.TRACE_OVERHEAD]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS


def _launch(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def test_launcher_reports_one_json_line():
    proc = _launch(ROOT, "--workload", "sweep", "--seed", "3", "--seconds", "1",
                   "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    assert set(final["metrics"]) == {name for name, _ in run.END_TO_END}


def test_launcher_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _launch(tmp_path, "--workload", "verify", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
