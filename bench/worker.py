"""One benchmark process: set up, run a workload once, report JSON.

Started by ``run.py`` in a fresh interpreter, so its set-up time covers
interpreter start, ``import votedist`` and building and writing the inputs.
The last line of its standard output is one JSON object.  It imports the
package from the ``src`` directory of the checkout it sits in and nowhere
else.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--process", type=int, default=0,
                        help="index of this process in its run")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the launcher just before it started this process")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--mode", choices=("run", "traced", "setup", "import"),
                        default="run")
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import votedist

    if Path(votedist.__file__).resolve().parent != SRC / "votedist":
        raise SystemExit(f"imported votedist from {votedist.__file__}, not {SRC}")
    if args.mode == "import":
        return 0

    import tracing
    import workloads
    from calibrate import calibrate

    seed = workloads.input_seed(args.workload, args.seed, args.process)
    workdir = Path(tempfile.mkdtemp(dir=args.workdir))
    try:
        ops = workloads.prepare(args.workload, seed, workdir)
        report = {"setup_s": time.monotonic() - args.t0, "input_seed": seed}
        if args.mode == "setup":
            print(json.dumps(report))
            return 0

        recorder = tracing.Recorder() if args.mode == "traced" else None
        before = tracing.current_functions()
        if recorder is None:
            calib = calibrate()
            results = [workloads.run_op(op) for op in ops]
            report["calib_s"] = (calib + calibrate()) / 2.0
        else:
            with recorder.installed():
                results = [workloads.run_op(op, recorder) for op in ops]
        after = tracing.current_functions()
        if after != before or any(tracing.is_wrapped(f) for f in after.values()):
            raise SystemExit("wrapped functions were left installed")
        report["ops"] = results
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder is not None:
            counts, timings, absent = recorder.metrics()
            report.update(counts=counts, timings=timings, absent=absent)
        if args.describe:
            report["descriptors"] = workloads.describe(args.workload, seed)
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
