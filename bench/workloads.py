"""The benchmark's workloads: seeded inputs, the CLI calls, output checks.

Each workload is a list of operations.  An operation is one call of the CLI
entry point, ``votedist.cli.main(argv, standalone_mode=False)``, in the
calling interpreter, with its output captured and checked afterwards.

* ``eval-large``: ``votedist eval`` on three generated documents of 20,000
  voters each.  ``distinct`` has no two voters alike, ``shared`` puts every
  voter on one of 7 sites (so grouping voters by side and participation
  could help), ``metric`` is a planar election given as distance pairs.
* ``verify``: ``votedist verify --seed <seed>`` at the CLI defaults, which
  drives thousands of tiny elections through displacement chains,
  certificates and the Monte Carlo bound audit.
* ``sweep``: ``votedist sweep --count 401``; only the worst-case solver
  runs, and the seed does not change it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks
import tracing

WORKLOADS = ("eval-large", "verify", "sweep")

N_VOTERS = 20_000
#: Base sites and weights of the ``shared`` document, left then right of 1/2.
SHARED_SITES = (
    (np.array([-0.5, 0.1, 0.2, 0.4]), np.array([0.3, 0.3, 0.2, 0.2])),
    (np.array([0.7, 1.3, 2.0]), np.array([0.3, 0.5, 0.2])),
)
SWEEP_COUNT = 401
#: The CLI defaults of ``votedist verify``.
VERIFY_DEFAULTS = {"trials": 200, "alpha": 0.1, "beta": 1.0, "bound_count": 25,
                   "samples": 100_000}

REFERENCE = Path(__file__).with_name("reference.json")

#: Input seeds of the processes of one untraced ``verify`` run are this far apart.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Document:
    """One generated election: its kind, beta and voters (positions or pairs)."""

    name: str
    kind: str
    beta: float
    voters: np.ndarray

    def distances(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "line":
            return np.abs(self.voters), np.abs(self.voters - 1.0)
        return self.voters[:, 0], self.voters[:, 1]

    def to_json(self) -> str:
        return json.dumps({"schema": 1, "kind": self.kind, "beta": self.beta,
                           "voters": self.voters.tolist()})


def voter_arrays(d_left: np.ndarray, d_right: np.ndarray, beta: float):
    """Side (-1 left, 0 indifferent, +1 right) and participation per voter."""
    side = np.sign(d_left - d_right)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = (np.abs(d_right - d_left) / (d_left + d_right)) ** beta
    p = np.where(side == 0, 0.0, 1.0 if beta == 0.0 else p)
    return side, p


def _participation(x: np.ndarray, beta: float) -> np.ndarray:
    return voter_arrays(np.abs(x), np.abs(x - 1.0), beta)[1]


def _split(total: int, weights: np.ndarray) -> np.ndarray:
    """Integer counts summing to ``total`` in proportion to ``weights``."""
    raw = weights / weights.sum() * total
    counts = np.floor(raw).astype(int)
    short = total - counts.sum()
    counts[np.argsort(counts - raw)[:short]] += 1
    return counts


def line_distinct(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-1.0, 2.0, size=N_VOTERS)


def line_shared(rng: np.random.Generator, beta: float = 1.0) -> np.ndarray:
    """Voters on 7 fixed sites, half on each side, in a seeded order.

    The exact engine's cost depends on the participation values and on the
    voter order (small values, or voters sorted by position, leave long runs
    of subnormal PMF entries): with sites drawn per seed, the cost of this
    document varied by a third between seeds.  So only the order comes from
    the seed.  The right-side weights are pulled toward one site until both
    expected vote counts agree, so the contest is close.
    """
    half = N_VOTERS // 2
    (left, w_left), (right, w_right) = SHARED_SITES
    p_left, p_right = _participation(left, beta), _participation(right, beta)
    c_left = _split(half, w_left)
    target = float(c_left @ p_left)
    ev = half * float(w_right @ p_right)
    j = int(np.argmin(p_right) if ev > target else np.argmax(p_right))
    lam = (ev - target) / (ev - half * p_right[j])
    w = (1.0 - lam) * w_right
    w[j] += lam
    c_right = _split(half, w)
    diff = target - float(c_right @ p_right)
    var = float(c_left @ (p_left * (1 - p_left)) + c_right @ (p_right * (1 - p_right)))
    if not (0.0 <= lam < 1.0 and abs(diff) <= 0.5 * math.sqrt(var)):
        raise ValueError("shared sites do not give a close contest")
    positions = np.repeat(np.concatenate([left, right]), np.concatenate([c_left, c_right]))
    return rng.permutation(positions)


def metric_pairs(rng: np.random.Generator) -> np.ndarray:
    """Distance pairs of planar voters to candidates at (0, 0) and (1, 0)."""
    x = rng.uniform(-1.0, 2.0, size=N_VOTERS)
    y = rng.uniform(-1.5, 1.5, size=N_VOTERS)
    return np.column_stack([np.hypot(x, y), np.hypot(x - 1.0, y)])


def input_seed(workload: str, seed: int, process: int) -> int:
    """The seed that process ``process`` of a run builds its inputs from.

    ``verify`` does more or less work depending on its random draws: over
    ten seeds one run took from 16 to 19 times the reference mix, and the
    order repeated on a second pass.  So each process of an untraced run
    draws from its own seed and the run's median averages over them.  The
    other workloads do the same work for every seed.
    """
    return seed + SEED_STRIDE * process if workload == "verify" else seed


def make_documents(seed: int) -> list[Document]:
    rngs = [np.random.default_rng([seed, k]) for k in range(3)]
    return [
        Document("distinct", "line", 1.0, line_distinct(rngs[0])),
        Document("shared", "line", 1.0, line_shared(rngs[1])),
        Document("metric", "metric", 0.7, metric_pairs(rngs[2])),
    ]


def recompute(doc: Document) -> dict[str, float]:
    """Social costs and expected votes, computed here with numpy."""
    d_left, d_right = doc.distances()
    side, p = voter_arrays(d_left, d_right, doc.beta)
    return {
        "sc_left": float(d_left.sum()),
        "sc_right": float(d_right.sum()),
        "expected_votes_left": float(p[side < 0].sum()),
        "expected_votes_right": float(p[side > 0].sum()),
    }


def describe_document(doc: Document) -> dict:
    """Voters, distinct (side, participation) groups and shared share."""
    side, p = voter_arrays(*doc.distances(), doc.beta)
    _, counts = np.unique(np.column_stack([side, p]), axis=0, return_counts=True)
    return {
        "voters": len(side),
        "beta": doc.beta,
        "left": int((side < 0).sum()),
        "right": int((side > 0).sum()),
        "groups": len(counts),
        "shared_share": float(counts[counts > 1].sum() / len(side)),
    }


def load_reference(seed: int) -> Optional[dict]:
    """Reference eval fields for this seed, if the benchmark ships them."""
    with open(REFERENCE) as fh:
        return json.load(fh)["seeds"].get(str(seed))


@dataclass(frozen=True)
class Op:
    """One CLI call and the check of its output text, which lists problems."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]


def prepare(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Build and write the inputs of a workload; return its operations."""
    if workload == "eval-large":
        reference = load_reference(seed) or {}
        ops = []
        for doc in make_documents(seed):
            path = workdir / f"{doc.name}.json"
            path.write_text(doc.to_json())
            check = functools.partial(checks.check_eval, expected=recompute(doc),
                                      reference=reference.get(doc.name),
                                      close_contest=doc.name == "shared")
            ops.append(Op(doc.name, ("eval", str(path)), check))
        return ops
    if workload == "verify":
        return [Op("verify", ("verify", "--seed", str(seed)), checks.check_verify)]
    if workload == "sweep":
        return [Op("sweep", ("sweep", "--count", str(SWEEP_COUNT)),
                   functools.partial(checks.check_sweep, count=SWEEP_COUNT))]
    raise ValueError(f"unknown workload {workload!r}")


def describe(workload: str, seed: int) -> dict:
    """Deterministic descriptors of a workload's inputs."""
    if workload == "eval-large":
        docs = {d.name: describe_document(d) for d in make_documents(seed)}
        return {"documents": docs, "reference": load_reference(seed) is not None}
    if workload == "verify":
        from votedist import worstcase

        d = VERIFY_DEFAULTS
        # The CLI draws the gate elections from seed + 2.
        gates = worstcase.generate_gate_elections(d["alpha"], d["beta"],
                                                  d["bound_count"], seed + 2)
        sizes = [len(e) for e in gates]
        return {
            "displacement_trials": 6 * d["trials"],
            "canonicalizations": 2 * (d["trials"] // 4),
            "gate_elections": len(gates),
            "gate_voters_min": min(sizes),
            "gate_voters_max": max(sizes),
            "gate_beta": d["beta"],
            "gate_samples": d["samples"],
        }
    return {"betas": SWEEP_COUNT, "beta_min": 0.0, "beta_max": 1.0, "grid": 128,
            "seed_used": False}


def run_op(op: Op, recorder: Optional[tracing.Recorder] = None) -> dict:
    """Call the CLI once, timed; check the exit code and output afterwards."""
    from votedist import cli

    out, err = io.StringIO(), io.StringIO()
    problems: list[str] = []
    code = 0
    root = recorder.span(tracing.ROOT) if recorder else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), root:
            rv = cli.main(list(op.argv), standalone_mode=False)
        code = rv if isinstance(rv, int) else 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        problems.append(traceback.format_exc())
    wall = time.perf_counter() - start
    if not problems:
        problems = ([] if code == 0 else [f"exit code {code}"]) + op.check(out.getvalue())
    if problems and err.getvalue():
        problems.append(f"stderr: {err.getvalue()[:500]}")
    return {"name": op.name, "wall_s": wall, "ok": not problems, "problems": problems}
