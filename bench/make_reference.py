"""Regenerate ``reference.json``: the eval-large fields for the shipped seeds.

    python3 bench/make_reference.py [--seeds 0-49]

Run it only on a commit whose output is trusted; the benchmark then checks
every later commit's ``votedist eval`` fields against these within 1e-9.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from votedist import cli  # noqa: E402


def reference_for(seed: int, workdir: Path) -> dict:
    out = {}
    for doc in workloads.make_documents(seed):
        path = workdir / f"{doc.name}.json"
        path.write_text(doc.to_json())
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["eval", str(path)], standalone_mode=False)
        (row,) = checks.read_csv(buf.getvalue())
        out[doc.name] = {f: row[f] for f in checks.EVAL_FIELDS}
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="0-49", help="inclusive range lo-hi")
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
                            text=True).stdout.strip()
    seeds = {}
    work = HERE.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for seed in range(lo, hi + 1):
            seeds[str(seed)] = reference_for(seed, Path(tmp))
            print(f"seed {seed} done", file=sys.stderr)
    payload = {"commit": commit, "seeds": seeds}
    workloads.REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
