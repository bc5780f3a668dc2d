"""Command-line interface.

Every command reads election files in the JSON schema of
:mod:`votedist.documents`, writes deterministic text (CSV by default) to
stdout or ``--out``, and exits 0 on success, 1 on invalid input, 2 on a
certified property failure.  Randomized commands require an explicit
``--seed``; there is no wall-clock default.

Commands raise ``ValueError`` (``DocumentError`` is one) on invalid input
and do not catch it: the group ``main`` is the single error boundary that
turns it, and click's usage errors (an unknown command or option, a missing
command, a missing or malformed option), into one ``error: <message>`` line
on stderr and exit 1, so a script can tell invalid input from a failed
audit.  Once ``verify`` has checked its options, an exception that an audit
suite raises is that suite's failure (a ``FAIL`` line and exit 2).  Every
election file is read by ``_load``, which also checks the document's kind
and applies ``--beta``.
"""

from __future__ import annotations

import dataclasses
import sys
from types import SimpleNamespace

import click
import numpy as np

from . import displace, documents, exact, metric, model, montecarlo, verification, worstcase
from .documents import DocumentError, ElectionDocument

EXIT_VALIDATION = 1
EXIT_PROPERTY = 2

_REPORT_FIELDS = tuple(f.name for f in dataclasses.fields(model.DistortionReport))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _emit(text: str, out) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _report_lines(report, fmt: str, fields=_REPORT_FIELDS) -> str:
    values = [getattr(report, f) for f in fields]
    if fmt == "csv":
        return ",".join(fields) + "\n" + ",".join(_fmt(v) for v in values) + "\n"
    width = max(len(f) for f in fields)
    return "".join(f"{f:<{width}}  {_fmt(v)}\n" for f, v in zip(fields, values))


def _load(path: str, beta: float | None, kind: str | None = None) -> ElectionDocument:
    """The document at ``path``, of ``kind`` if given, at ``beta`` if given."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise DocumentError(f"cannot read {path}: {err}") from None
    doc = documents.parse_election(text)
    if kind is not None and doc.kind != kind:
        command = click.get_current_context().info_name
        raise DocumentError(f"{command} supports {kind} elections only")
    if beta is not None:
        doc = dataclasses.replace(doc, beta=model.check_beta(beta))
    return doc


class _Main(click.Group):
    """The single error boundary of every command.

    A ``ValueError`` (a ``DocumentError`` among them) or a click usage error,
    in the group's own arguments or in a command's, prints
    ``error: <message>`` on stderr and exits 1; a usage error's message names
    the option at fault, as click's own usage block does.  Commands run with
    numpy's overflow warnings off: voters near the float limit overflow
    intermediate sums, which the checks report or the results absorb, and a
    warning line would break the one-line contract.
    """

    def make_context(self, info_name, args, parent=None, **extra):
        return self._guarded(super().make_context, info_name, args, parent, **extra)

    def invoke(self, ctx):
        return self._guarded(super().invoke, ctx)

    @staticmethod
    def _guarded(call, *args, **kwargs):
        try:
            with np.errstate(over="ignore"):
                return call(*args, **kwargs)
        except ValueError as err:
            message = str(err)
        except click.UsageError as err:
            message = err.format_message()
        click.echo(f"error: {message}", err=True)
        sys.exit(EXIT_VALIDATION)


election_argument = click.argument("election_file", type=click.Path(dir_okay=False))
format_option = click.option(
    "--format", "fmt", type=click.Choice(["csv", "report"]), default="csv",
    show_default=True, help="Output style.",
)
out_option = click.option(
    "--out", type=click.Path(dir_okay=False, writable=True), default=None,
    help="Write output to this path instead of stdout.",
)
beta_option = click.option(
    "--beta", type=float, default=None,
    help="Override the document's participation parameter.",
)


@click.group(cls=_Main, no_args_is_help=False)
def main() -> None:
    """Distortion of two-candidate elections with distance-based abstention."""


@main.command("eval")
@election_argument
@beta_option
@format_option
@out_option
def cmd_eval(election_file, beta, fmt, out) -> None:
    """Exact evaluation: costs, distortions, win probabilities."""
    doc = _load(election_file, beta)
    _emit(_report_lines(exact.expected_distortion(doc.election, doc.beta), fmt), out)


@main.command("simulate")
@election_argument
@click.option("--samples", type=int, required=True, help="Number of simulated outcomes.")
@click.option("--seed", type=click.IntRange(min=0), required=True, help="Generator seed.")
@click.option("--confidence", type=float, default=0.95, show_default=True)
@beta_option
@format_option
@out_option
def cmd_simulate(election_file, samples, seed, confidence, beta, fmt, out) -> None:
    """Estimate win probability and expected distortion by sampling."""
    doc = _load(election_file, beta)
    cfg = montecarlo.McConfig(samples, seed, confidence)
    est = montecarlo.simulate(doc.election, doc.beta, cfg)
    fields = ("p_left_hat", "half_width_p", "expected_distortion_hat", "half_width_d")
    _emit(_report_lines(est, fmt, fields), out)


@main.command("reduce")
@election_argument
@click.option(
    "--mode", type=click.Choice(["auto", "winner", "distortion"]), default="auto",
    show_default=True,
    help="Which canonical form to target; auto picks from the configuration.",
)
@beta_option
@out_option
def cmd_reduce(election_file, mode, beta, out) -> None:
    """Canonicalize a line election through certified displacements."""
    doc = _load(election_file, beta, "line")
    e, b = doc.election, doc.beta
    if mode == "auto":
        mode = "winner" if model.expected_winner(e, b) == model.LEFT else "distortion"
    try:
        if mode == "winner":
            form = displace.canonicalize_expected_winner(e, b)
        else:
            form = displace.canonicalize_expected_distortion(e, b)
    except displace.CertificateError as err:
        click.echo(f"certificate failure: {err}", err=True)
        sys.exit(EXIT_PROPERTY)
    meta = {
        **doc.metadata,
        "reduced": mode,
        "applied": str(form.applied).lower(),
        "steps": str(len(form.steps)),
    }
    reduced = dataclasses.replace(doc, election=form.election, metadata=meta)
    _emit(documents.serialize_election(reduced), out)


@main.command("metric-reduce")
@election_argument
@beta_option
@out_option
def cmd_metric_reduce(election_file, beta, out) -> None:
    """Reduce a metric election to an equivalent-or-worse line election."""
    doc = _load(election_file, beta, "metric")
    reduction = metric.reduce_to_line(doc.election)
    meta = {**doc.metadata, "swapped": str(reduction.swapped).lower()}
    reduced = dataclasses.replace(doc, election=reduction.election, metadata=meta)
    _emit(documents.serialize_election(reduced), out)


@main.command("worstcase")
@click.option("--beta", type=float, required=True)
@click.option(
    "--epsilon", type=float, default=0.0, show_default=True,
    help="Require the expected-vote lead to exceed a factor 1 + epsilon.",
)
@format_option
@out_option
def cmd_worstcase(beta, epsilon, fmt, out) -> None:
    """Worst-case distortion of the expected winner at one beta."""
    solution = worstcase.solve_worst_case_margin(beta, epsilon)
    row = SimpleNamespace(dstar=solution.value, **vars(solution))
    _emit(_report_lines(row, fmt, ("beta", "dstar", "q_b", "x_b", "x_d", "attained")), out)


@main.command("sweep")
@click.option("--start", type=float, default=0.0, show_default=True)
@click.option("--stop", type=float, default=1.0, show_default=True)
@click.option("--count", type=int, default=101, show_default=True)
@out_option
def cmd_sweep(start, stop, count, out) -> None:
    """CSV of the worst-case distortion curve over a range of beta."""
    model.check_beta(start)
    model.check_beta(stop)
    if count < 2 or stop <= start:
        raise ValueError("need count >= 2 and stop > start")
    betas = [start + (stop - start) * k / (count - 1) for k in range(count)]
    _emit(worstcase.sweep_csv(worstcase.sweep_beta(betas)), out)


@main.command("curve")
@click.option(
    "--beta", "betas", type=float, multiple=True,
    default=(0.0, 0.25, 0.5, 0.75, 1.0), show_default=True,
    help="Repeatable; one curve per value.",
)
@click.option("--zmin", type=float, default=-1.0, show_default=True)
@click.option("--zmax", type=float, default=2.0, show_default=True)
@click.option("--points", type=int, default=301, show_default=True)
@out_option
def cmd_curve(betas, zmin, zmax, points, out) -> None:
    """CSV of the participation probability along the line, per beta."""
    betas = [model.check_beta(b) for b in betas]
    if points < 2 or zmax <= zmin:
        raise ValueError("need points >= 2 and zmax > zmin")
    # A nan or infinite end, or a span that overflows, fails this test.
    if not zmax - zmin < float("inf"):
        raise ValueError(f"--zmin, --zmax and their span must be finite, got {zmin}, {zmax}")
    lines = ["z,beta,probability"]
    for b in betas:
        for k in range(points):
            z = zmin + (zmax - zmin) * k / (points - 1)
            lines.append(f"{z:.12g},{b:.12g},{model.profile(z, b).participation:.12g}")
    _emit("\n".join(lines) + "\n", out)


@main.command("verify")
@click.option("--seed", type=click.IntRange(min=0), required=True,
              help="Seed for all random draws.")
@click.option("--trials", type=int, default=200, show_default=True,
              help="Random elections per displacement suite.")
@click.option("--alpha", type=float, default=0.1, show_default=True)
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--bound-count", type=int, default=25, show_default=True,
              help="Gate elections for the expected-distortion bound audit.")
def cmd_verify(seed, trials, alpha, beta, bound_count) -> None:
    """Re-run the certified randomized audits; nonzero exit on any failure."""
    # Every option is checked before the first suite runs; after that, an
    # exception from a suite is that suite's failure, not invalid input.
    worstcase.check_gate_inputs(alpha, beta, bound_count)
    model._check_count("trials", trials, 1)
    suites = (
        ("displacement_suites", lambda: verification.displacement_suites(trials, seed)),
        ("canonicalization_suites",
         lambda: verification.canonicalization_suites(max(1, trials // 4), seed + 1)),
        ("expected_distortion_bound",
         lambda: [verification.bound_suite(alpha, beta, bound_count, seed + 2)]),
    )
    failed = False
    for name, run in suites:
        try:
            results = run()
        except Exception as err:
            click.echo(f"FAIL {name}: raised {type(err).__name__}: {err}")
            failed = True
            continue
        for r in results:
            status = "ok" if r.ok else "FAIL"
            note = f" {r.note}" if r.note else ""
            click.echo(f"{status:4} {r.name}: {r.trials - r.failures}/{r.trials}{note}")
            failed = failed or not r.ok
    if failed:
        sys.exit(EXIT_PROPERTY)


if __name__ == "__main__":
    main()
