"""Output checks.  Each returns a list of problems; empty means correct.

The exit code is checked by the caller, for every command alike.

Columns are read by name, so a column added later does not break a check.
"""

from __future__ import annotations

import csv
import io
import math
import re

SQRT2 = math.sqrt(2.0)
#: Worst-case expected-winner distortion at beta = 1.
TIGHT_VALUE = (1.0 + SQRT2) ** 2 / (1.0 + 2.0 * SQRT2)

EVAL_TEXT_FIELDS = ("optimal", "expected_winner")
EVAL_FIELDS = (
    "sc_left", "sc_right", "optimal", "dist_left", "dist_right",
    "expected_votes_left", "expected_votes_right", "expected_winner",
    "win_prob_left", "win_prob_right", "expected_distortion",
)
TOL = 1e-9


def read_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(got: float, want: float, tol: float = TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def check_eval(text: str, expected: dict, reference: dict | None = None,
               close_contest: bool = False) -> list[str]:
    """Check one ``votedist eval`` CSV.

    ``expected`` holds the benchmark's own numpy recomputation of
    ``sc_left``, ``sc_right``, ``expected_votes_left`` and
    ``expected_votes_right``.  ``reference`` holds the field strings that
    the reference commit printed for this input; ``close_contest`` requires
    both win probabilities in [0.05, 0.95].
    """
    rows = read_csv(text)
    if len(rows) != 1:
        return [f"expected one CSV row, got {len(rows)}"]
    row = rows[0]
    missing = [f for f in EVAL_FIELDS if f not in row]
    if missing:
        return [f"missing columns {missing}"]
    try:
        num = {f: float(row[f]) for f in EVAL_FIELDS if f not in EVAL_TEXT_FIELDS}
    except ValueError as err:
        return [f"unparsable field: {err}"]
    problems = []
    if abs(num["win_prob_left"] + num["win_prob_right"] - 1.0) > TOL:
        problems.append(
            f"win probabilities sum to {num['win_prob_left'] + num['win_prob_right']!r}"
        )
    for field, want in expected.items():
        if not _close(num[field], want):
            problems.append(f"{field}={num[field]!r}, recomputed {want!r}")
    if close_contest and not all(
        0.05 <= num[f] <= 0.95 for f in ("win_prob_left", "win_prob_right")
    ):
        problems.append("contest is not close: a win probability is outside [0.05, 0.95]")
    for field, want in (reference or {}).items():
        if field in EVAL_TEXT_FIELDS:
            ok = row[field] == want
        else:
            ok = _close(num[field], float(want))
        if not ok:
            problems.append(f"{field}={row[field]!r}, reference {want!r}")
    return problems


_VERIFY_LINE = re.compile(r"^(ok|FAIL)\s+(\S+): (\d+)/(\d+)(?: .*)?$")
#: Displacement suites (6 x trials), canonicalizations (2 x trials // 4) and
#: the bound audit, at the CLI defaults.
VERIFY_COUNTS = sorted([200] * 6 + [50] * 2 + [25])


def check_verify(text: str) -> list[str]:
    """Check ``votedist verify`` at its defaults: nine ``ok`` suite lines."""
    problems = []
    lines = text.splitlines()
    counts = []
    for line in lines:
        m = _VERIFY_LINE.match(line)
        if not m or m.group(1) != "ok" or m.group(3) != m.group(4):
            problems.append(f"not a passing suite line: {line!r}")
            continue
        counts.append(int(m.group(4)))
    if len(lines) != len(VERIFY_COUNTS) or sorted(counts) != VERIFY_COUNTS:
        problems.append(f"suite counts {counts}, expected {VERIFY_COUNTS}")
    return problems


def check_sweep(text: str, count: int) -> list[str]:
    """Check ``votedist sweep`` over beta in [0, 1] against the paper's curve."""
    rows = read_csv(text)
    if len(rows) != count:
        return [f"expected {count} rows, got {len(rows)}"]
    try:
        beta = [float(r["beta"]) for r in rows]
        dstar = [float(r["dstar"]) for r in rows]
        attained = [r["attained"] for r in rows]
    except (KeyError, ValueError) as err:
        return [f"bad sweep column: {err!r}"]
    problems = []
    if beta[0] != 0.0 or beta[-1] != 1.0:
        problems.append(f"beta runs from {beta[0]} to {beta[-1]}, expected 0 to 1")
    if abs(dstar[-1] - TIGHT_VALUE) > TOL:
        problems.append(f"dstar at beta=1 is {dstar[-1]!r}, expected {TIGHT_VALUE!r}")
    if not (dstar[0] >= 2.99 and attained[0] == "false"):
        problems.append(f"beta=0 row: dstar={dstar[0]!r} attained={attained[0]!r}")
    k = min(range(count), key=dstar.__getitem__)
    if abs(dstar[k] - SQRT2) > 0.02 or abs(beta[k] - 0.705) > 0.02:
        problems.append(f"curve minimum {dstar[k]!r} at beta={beta[k]!r}")
    return problems
