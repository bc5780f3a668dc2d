"""Benchmark launcher for votedist.

    python3 bench/run.py --workload {eval-large,verify,sweep,all} --seed N \
        --seconds S --trace {0,1}

Run from a checkout with the package under ``src/``.  For ``--seconds``
seconds the launcher starts one fresh interpreter after another
(``worker.py``); each sets up, calls the CLI entry point in-process for the
workload's fixed work, checks the output and reports.  Processes run one at
a time, with the BLAS and OpenMP thread pools pinned to one thread.

``--trace 0`` reports the end-to-end metrics: medians of set-up time, of
wall time as a multiple of a reference mix timed in the same process
(``calibrate.py``), and of peak RSS over the processes of the run.  ``--trace 1`` alternates
untraced and traced processes and reports the per-layer metrics of the
traced ones, plus ``trace_overhead``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it, ``details``, holds metadata, input descriptors and every
sample.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKDIR = ROOT / ".bench_work"

WORKLOADS = ("eval-large", "verify", "sweep")
EVAL_DOCS = ("distinct", "shared", "metric")
#: Set-up is measured at least this often per run; set-up-only processes
#: make up the difference when the workload leaves less room.
SETUP_SAMPLES = 9
CHILD_TIMEOUT = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("wall_rel", "ratio"), ("peak_rss_mb", "MB"))


class WorkerFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, mode: str, workdir: Path, describe: bool = False,
          process: int = 0) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir), "--mode", mode, "--process", str(process)]
    if describe:
        cmd.append("--describe")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, env=child_env(), cwd=ROOT)
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} process exited {proc.returncode}: {proc.stderr[-2000:]}")
    if mode == "import":
        return {}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerFailed(f"{mode} process printed no report: {proc.stdout[-500:]!r}") from None


def summary(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def metadata() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "votedist").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    versions = {}
    for dist in ("numpy", "click"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": {var: child_env()[var] for var in THREAD_VARS},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Measure one workload; returns (result, details)."""
    spawn(workload, seed, "import", workdir)  # compile bytecode, warm the file cache
    reports: list[tuple[str, dict]] = []
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.monotonic() + seconds
    k = 0
    while k < (2 if trace else 1) or time.monotonic() < deadline:
        mode = "traced" if trace and k % 2 else "run"
        try:
            # Traced runs keep one input seed, so their count fields can be compared.
            rep = spawn(workload, seed, mode, workdir, describe=(k == 0),
                        process=0 if trace else k)
        except (WorkerFailed, subprocess.TimeoutExpired) as err:
            attempted += 1
            failed += 1
            problems.append(str(err))
            if k == 0:
                break
            k += 1
            continue
        reports.append((mode, rep))
        for op in rep["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                problems.append(f"{op['name']}: {op['problems']}")
        k += 1
    if not reports:
        raise WorkerFailed("; ".join(problems))

    setups = [rep["setup_s"] for _, rep in reports]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", workdir)["setup_s"])

    untraced = [rep for mode, rep in reports if mode == "run"]
    traced = [rep for mode, rep in reports if mode == "traced"]
    walls = [sum(op["wall_s"] for op in rep["ops"]) for rep in untraced]
    samples = {
        "setup_s": setups,
        "wall_rel": [w / rep["calib_s"] for w, rep in zip(walls, untraced)],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in untraced],
        "wall_s": walls,
        "calib_s": [rep["calib_s"] for rep in untraced],
    }
    if workload == "eval-large":
        for doc in EVAL_DOCS:
            samples[f"eval_{doc}_s"] = [
                op["wall_s"] for rep in untraced for op in rep["ops"] if op["name"] == doc
            ]
    units = {name: unit for name, unit in END_TO_END}
    units.update({f"eval_{doc}_s": "s" for doc in EVAL_DOCS}, wall_s="s", calib_s="s")
    details = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "processes": len(reports), "samples": samples,
        "input_seeds": sorted({rep["input_seed"] for _, rep in reports}),
        "summary": {name: summary(v) for name, v in samples.items()},
        "units": units,
        "error_rate": failed / attempted,
        "descriptors": reports[0][1].get("descriptors"),
    }
    if trace:
        if not traced:
            raise WorkerFailed("no traced process completed")
        counts = [rep["counts"] for rep in traced]
        if any(c != counts[0] for c in counts):
            problems.append("count fields differ between traced processes of one seed")
        timings = {
            name: statistics.median(rep["timings"][name] for rep in traced)
            for name in traced[0]["timings"]
        }
        traced_walls = [sum(op["wall_s"] for op in rep["ops"]) for rep in traced]
        overhead = statistics.median(traced_walls) / statistics.median(walls)
        values = {**counts[0], **timings, tracing.TRACE_OVERHEAD[0]: overhead}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, *_ in tracing.METRICS + (tracing.TRACE_OVERHEAD,)}
        details.update(counts=counts[0], timings=timings, absent=traced[0]["absent"],
                       traced_walls=traced_walls)
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END}
    details["problems"] = problems[:20]
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, details


def render(result: dict, details: dict) -> str:
    head = (f"{details['workload']}  seed={details['seed']}  trace={details['trace']}  "
            f"processes={details['processes']}")
    lines = [head]
    for name, s in details["summary"].items():
        if details["trace"] and name != "wall_s":
            continue
        lines.append(f"  {name:<24} {s['median']:>12.6g} {details['units'][name]:<5} "
                     f"median of {s['n']}, range {s['min']:.6g}..{s['max']:.6g}")
    if details["trace"]:
        absent = set(details["absent"])
        for name, m in result["metrics"].items():
            note = "  (absent)" if name in absent else ""
            lines.append(f"  {name:<40} {m['value']:>12.6g} {m['unit']}{note}")
    lines.append(f"  {'error_rate':<24} {details['error_rate']:>12.6g} ratio "
                 f"{result['failed']} of {result['attempted']} operations failed")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "votedist" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'votedist'}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        meta = metadata()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            result, details = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                           workdir)
            details["metadata"] = meta
            print(render(result, details))
            print("details " + json.dumps(details))
            results[name] = result
    except (WorkerFailed, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
