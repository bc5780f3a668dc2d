"""Election files: a small JSON schema with a kind tag and version field.

A document looks like::

    {
      "schema": 1,
      "kind": "line",
      "beta": 1.0,
      "voters": [1.5, -0.25],
      "metadata": {"title": "example"}
    }

``kind`` is ``line`` (voters are positions) or ``metric`` (voters are
``[d_left, d_right]`` distance pairs).  Parsing is strict: unknown keys,
out-of-range beta and triangle-inequality violations are all rejected with
the offending field named.  ``parse_election(serialize_election(doc))``
returns an equal document.

The voters are type-checked in one pass and converted into the election's
array in one numpy call; the election is built once, validated by array
reductions, and the document carries it.  Only when a check fails are the
voters scanned one by one, to name the first faulty one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .metric import MetricElection
from .model import LineElection, check_beta

__all__ = [
    "SCHEMA_VERSION",
    "DocumentError",
    "ElectionDocument",
    "parse_election",
    "serialize_election",
]

SCHEMA_VERSION = 1


class DocumentError(ValueError):
    """An election document failed to parse or validate."""


_ELECTIONS = {"line": LineElection, "metric": MetricElection}


@dataclass(frozen=True)
class ElectionDocument:
    """Parsed election file: beta, a line or metric election, and metadata.

    ``kind`` is read from the election's class.  ``beta`` is checked and kept
    as a float, and metadata maps strings to strings, so every document
    round-trips.  The document keeps its own copy of the metadata, which
    ``serialize_election`` checks again, and the hash covers ``beta`` and the
    election only.
    """

    beta: float
    election: LineElection | MetricElection
    metadata: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        if not isinstance(self.election, (LineElection, MetricElection)):
            raise TypeError(
                f"election: expected a line or metric election, got {self.election!r}"
            )
        object.__setattr__(self, "beta", check_beta(self.beta))
        object.__setattr__(self, "metadata", _checked_metadata(self.metadata))

    @property
    def kind(self) -> str:
        return "line" if isinstance(self.election, LineElection) else "metric"


def _checked_metadata(metadata) -> dict:
    """A copy of ``metadata``, which must map strings to strings."""
    if not isinstance(metadata, dict):
        raise DocumentError("metadata: expected an object")
    for key, value in metadata.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise DocumentError(f"metadata[{key!r}]: keys and values must be strings")
    return dict(metadata)


_NUMBERS = {int, float}


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"{where}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range, like 1e400
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise DocumentError(f"{where}: must be finite, got {value!r}")
    return value


def _well_typed(kind: str, voters: list) -> bool:
    # JSON gives each voter as int, float, bool, str, None, list or dict.
    if kind == "line":
        return set(map(type, voters)) <= _NUMBERS
    return (
        set(map(type, voters)) == {list}
        and set(map(len, voters)) == {2}
        and set(map(type, chain.from_iterable(voters))) <= _NUMBERS
    )


def _parse_voters(kind: str, voters: list) -> LineElection | MetricElection:
    """The election of a document's voters, converted in one numpy call.

    One pass over the types admits only numbers (for metric documents,
    lists of two numbers); ints convert as ``float(int)`` does.  After any
    failure, here or in the election's own checks,
    :func:`_reject_first_malformed` reports the first voter in document
    order that is malformed or not finite.  Only when there is none does
    the election's own error (a negative distance or a triangle violation)
    stand.
    """
    fault = None
    if _well_typed(kind, voters):
        try:
            if kind == "line":
                return LineElection(np.fromiter(voters, float, len(voters)))
            flat = np.fromiter(chain.from_iterable(voters), float, 2 * len(voters))
            return MetricElection(flat.reshape(-1, 2))
        except (ValueError, OverflowError) as err:
            fault = err
    _reject_first_malformed(kind, voters)
    raise DocumentError(f"voters: {fault}") from None


def _reject_first_malformed(kind: str, voters: list) -> None:
    for i, v in enumerate(voters):
        if kind == "line":
            _require_number(v, f"voters[{i}]")
            continue
        if not isinstance(v, list) or len(v) != 2:
            raise DocumentError(
                f"voters[{i}]: expected a [d_left, d_right] pair, got {v!r}"
            )
        _require_number(v[0], f"voters[{i}][0]")
        _require_number(v[1], f"voters[{i}][1]")


def parse_election(text: str) -> ElectionDocument:
    """Parse and validate an election document from JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentError(
            f"invalid document syntax: {err.msg} (line {err.lineno}, column {err.colno})"
        ) from None
    if not isinstance(raw, dict):
        raise DocumentError("document root must be an object")

    unknown = set(raw) - {"schema", "kind", "beta", "voters", "metadata"}
    if unknown:
        raise DocumentError(f"unknown field(s): {', '.join(sorted(unknown))}")
    for key in ("schema", "kind", "beta", "voters"):
        if key not in raw:
            raise DocumentError(f"missing required field {key!r}")

    # A JSON integer only: ``true`` and ``1.0`` equal 1 in Python.
    if type(raw["schema"]) is not int or raw["schema"] != SCHEMA_VERSION:
        raise DocumentError(
            f"schema: unsupported version {raw['schema']!r}, expected {SCHEMA_VERSION}"
        )
    kind = raw["kind"]
    if kind not in _ELECTIONS:
        raise DocumentError(f"kind: must be one of {tuple(_ELECTIONS)}, got {kind!r}")
    beta = _require_number(raw["beta"], "beta")
    if not 0.0 <= beta <= 1.0:
        raise DocumentError(f"beta: out of range [0, 1]: {beta}")

    voters = raw["voters"]
    if not isinstance(voters, list) or not voters:
        raise DocumentError("voters: expected a non-empty list")
    election = _parse_voters(kind, voters)

    return ElectionDocument(beta, election, raw.get("metadata", {}))


def serialize_election(doc: ElectionDocument) -> str:
    """Render a document as JSON; the inverse of :func:`parse_election`."""
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": doc.kind,
        "beta": doc.beta,
        "voters": doc.election.array.tolist(),
    }
    if doc.metadata:
        payload["metadata"] = _checked_metadata(doc.metadata)
    return json.dumps(payload, indent=2) + "\n"
