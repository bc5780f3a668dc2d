"""Per-layer tracing from outside the package.

The traced run replaces public functions of each ``votedist`` module, as
module attributes, with wrappers that record a span (name, start, end,
parent) or only a call count.  Every call path inside the package looks
these names up on the module at call time (``cli`` -> ``exact`` ->
``model`` and so on), so the wrappers see every layer boundary without any
change to the package.  ``Recorder.installed()`` restores the originals on
exit.

A layer's self time is its span time minus the time of its child spans, so
the self times of all spans plus the root ``cli`` span add up to the traced
wall time.  Hooks whose function no longer exists are reported as absent,
not as an error.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Optional

#: Root span around each CLI invocation.
ROOT = "cli"

_MARK = "_bench_wrapper"


def _vote_pmf_voters(counters, args, kwargs, result):
    # One PMF entry per possible vote count, so the input length is len - 1.
    counters["exact.vote_pmf.voters"] += len(result) - 1


def _mc_samples(counters, args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    counters["montecarlo.samples"] += cfg.samples


def _chain(counters, args, kwargs, result):
    counters["displace.chain_steps"] += len(result.steps)
    counters["displace.certificates"] += len(result.certificates)


def _bound_checks(counters, args, kwargs, result):
    for check in result:
        if check.method in ("exact", "montecarlo"):
            counters[f"worstcase.bound_checks.{check.method}"] += 1
        if check.status != "skipped":
            counters["worstcase.bound_checks.checked"] += 1
        if check.status in ("pass", "fail"):
            counters["worstcase.bound_checks.determinate"] += 1


@dataclass(frozen=True)
class Hook:
    """One wrapped function: ``module.attr``, timed unless ``timed`` is False.

    ``count`` adds to the recorder's counters from the call's arguments and
    result.
    """

    module: str
    attr: str
    timed: bool = True
    count: Optional[Callable] = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"


HOOKS = (
    # model.profile runs once per voter per evaluation: a counter only,
    # because a span per call would dominate the traced time.
    Hook("model", "profile", timed=False),
    Hook("model", "expected_votes"),
    Hook("model", "expected_winner"),
    Hook("model", "winner_distortion"),
    Hook("model", "distortion_report"),
    Hook("exact", "vote_pmf", count=_vote_pmf_voters),
    Hook("exact", "win_probabilities"),
    Hook("exact", "win_probabilities_from_profiles"),
    Hook("exact", "expected_distortion"),
    Hook("montecarlo", "simulate", count=_mc_samples),
    Hook("displace", "canonicalize_expected_winner", count=_chain),
    Hook("displace", "canonicalize_expected_distortion", count=_chain),
    Hook("displace", "certify_winner_displacement"),
    Hook("displace", "certify_expected_displacement"),
    Hook("worstcase", "solve_worst_case_margin"),
    Hook("worstcase", "vote_moments"),
    Hook("worstcase", "verify_distortion_bound", count=_bound_checks),
    Hook("verification", "displacement_suites"),
    Hook("verification", "canonicalization_suites"),
    Hook("verification", "bound_suite"),
    Hook("metric", "metric_report"),
    Hook("metric", "metric_profiles"),
    Hook("documents", "parse_election"),
)

MODULES = ("model", "exact", "montecarlo", "displace", "worstcase",
           "verification", "metric", "documents")

_CANON = ("displace.canonicalize_expected_winner",
          "displace.canonicalize_expected_distortion")
_CERTIFY = ("displace.certify_winner_displacement",
            "displace.certify_expected_displacement")
_WINPROB = ("exact.win_probabilities", "exact.win_probabilities_from_profiles")
_BOUND = ("worstcase.verify_distortion_bound",)

# (metric, unit, kind, sources).  kind: "calls" sums call counts of the
# source hooks, "self" sums their self time, "counter" reads the counter of
# the metric's own name.  A metric is absent when all of its sources are.
METRICS = (
    ("model.profile.calls", "count", "calls", ("model.profile",)),
    ("model.expected_votes.calls", "count", "calls", ("model.expected_votes",)),
    ("model.expected_votes_s", "s", "self", ("model.expected_votes",)),
    ("model.expected_winner.calls", "count", "calls", ("model.expected_winner",)),
    ("exact.vote_pmf.calls", "count", "calls", ("exact.vote_pmf",)),
    ("exact.vote_pmf.voters", "count", "counter", ("exact.vote_pmf",)),
    ("exact.vote_pmf_s", "s", "self", ("exact.vote_pmf",)),
    ("exact.win_probabilities_s", "s", "self", _WINPROB),
    ("exact.expected_distortion.calls", "count", "calls", ("exact.expected_distortion",)),
    ("montecarlo.simulate.calls", "count", "calls", ("montecarlo.simulate",)),
    ("montecarlo.samples", "count", "counter", ("montecarlo.simulate",)),
    ("montecarlo.simulate_s", "s", "self", ("montecarlo.simulate",)),
    ("displace.canonicalize.calls", "count", "calls", _CANON),
    ("displace.chain_steps", "count", "counter", _CANON),
    ("displace.certificates", "count", "counter", _CANON),
    ("displace.canonicalize_winner_s", "s", "self", _CANON[:1]),
    ("displace.canonicalize_expected_s", "s", "self", _CANON[1:]),
    ("displace.certify.calls", "count", "calls", _CERTIFY),
    ("displace.certify_s", "s", "self", _CERTIFY),
    ("worstcase.solve.calls", "count", "calls", ("worstcase.solve_worst_case_margin",)),
    ("worstcase.solve_s", "s", "self", ("worstcase.solve_worst_case_margin",)),
    ("worstcase.vote_moments_s", "s", "self", ("worstcase.vote_moments",)),
    ("worstcase.verify_bound_s", "s", "self", _BOUND),
    ("worstcase.bound_checks.exact", "count", "counter", _BOUND),
    ("worstcase.bound_checks.montecarlo", "count", "counter", _BOUND),
    ("worstcase.bound_checks.determinate_ratio", "ratio", "ratio", _BOUND),
    ("verification.displacement_suites_s", "s", "self", ("verification.displacement_suites",)),
    ("verification.canonicalization_suites_s", "s", "self",
     ("verification.canonicalization_suites",)),
    ("verification.bound_suite_s", "s", "self", ("verification.bound_suite",)),
    ("metric.metric_report_s", "s", "self", ("metric.metric_report",)),
    ("metric.metric_profiles_s", "s", "self", ("metric.metric_profiles",)),
    ("documents.parse_s", "s", "self", ("documents.parse_election",)),
    ("cli.self_s", "s", "self", (ROOT,)),
) + tuple(
    (f"{m}.self_s", "s", "self", tuple(h.key for h in HOOKS if h.module == m and h.timed))
    for m in MODULES
)

#: Per-layer metrics measured by the launcher rather than by the recorder.
TRACE_OVERHEAD = ("trace_overhead", "ratio")


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Calls and summed self time per span name.

    ``spans`` is a sequence of ``(name, start, end, parent)`` where
    ``parent`` is the index of the enclosing span or -1.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child[i])
    return out


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.counters: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._count_only: dict[str, list[int]] = {}
        self.absent: set[str] = set()

    def _push(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    @contextlib.contextmanager
    def span(self, name: str):
        idx, parent = self._push()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _wrap(self, hook: Hook, fn):
        if not hook.timed:
            cell = self._count_only.setdefault(hook.key, [0])

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            setattr(counted, _MARK, True)
            return counted

        name, count, counters = hook.key, hook.count, self.counters

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx, parent = self._push()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        setattr(timed, _MARK, True)
        return timed

    @contextlib.contextmanager
    def installed(self):
        """Wrap every hook for the duration of the block, then restore."""
        originals = []
        try:
            for hook in HOOKS:
                mod, fn = _resolve(hook)
                if fn is None:
                    self.absent.add(hook.key)
                    continue
                originals.append((mod, hook.attr, fn))
                setattr(mod, hook.attr, self._wrap(hook, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(originals):
                setattr(mod, attr, fn)

    def metrics(self) -> tuple[dict[str, float], dict[str, float], list[str]]:
        """Count fields, timing fields and the names of absent metrics."""
        per_name = self_times(self.spans)
        calls = {name: c for name, (c, _) in per_name.items()}
        for key, cell in self._count_only.items():
            calls[key] = cell[0]
        selfs = {name: s for name, (_, s) in per_name.items()}
        counts: dict[str, float] = {}
        timings: dict[str, float] = {}
        absent: list[str] = []
        for metric, unit, kind, sources in METRICS:
            if all(s in self.absent for s in sources):
                absent.append(metric)
            if kind == "calls":
                counts[metric] = sum(calls.get(s, 0) for s in sources)
            elif kind == "counter":
                counts[metric] = self.counters[metric]
            elif kind == "ratio":
                checked = self.counters["worstcase.bound_checks.checked"]
                determinate = self.counters["worstcase.bound_checks.determinate"]
                counts[metric] = determinate / checked if checked else 0.0
            else:
                timings[metric] = sum(selfs.get(s, 0.0) for s in sources)
        return counts, timings, absent


def _resolve(hook: Hook):
    """The hook's module and function, or None for a function that is gone."""
    try:
        mod = importlib.import_module(f"votedist.{hook.module}")
    except ImportError:
        return None, None
    fn = getattr(mod, hook.attr, None)
    return mod, (fn if callable(fn) else None)


def is_wrapped(fn) -> bool:
    """True for a function installed by a :class:`Recorder`."""
    return getattr(fn, _MARK, False)


def current_functions() -> dict:
    """The present module attribute of every hook that exists."""
    found = {hook.key: _resolve(hook)[1] for hook in HOOKS}
    return {key: fn for key, fn in found.items() if fn is not None}
