"""One workload run in a fresh process (started by ``run.py``).

Prints one JSON object as its last line: the run's metrics, notes,
check counts and program digest, or with ``--setup-only`` just the
set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _import_program() -> None:
    """Import the program from this checkout's ``src/``, never from an
    installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro

    here = os.path.realpath(os.path.dirname(repro.__file__))
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"repro imported from {here}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--nproc", type=int, required=True,
                        help="CPUs the benchmark may use")
    parser.add_argument("--speed-log", required=True,
                        help="the speed sampler's log")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() at spawn")
    args = parser.parse_args(argv)

    _import_program()
    import workloads as W

    run = W.Run(args.workload, ROOT, args.seed, args.seconds,
                traced=bool(args.trace), smoke=args.smoke,
                env=dict(os.environ), nproc=args.nproc,
                speed_log=args.speed_log)
    workload = W.WORKLOADS[args.workload](run)
    try:
        workload.setup(run)
        setup_end = time.monotonic()
        setup_raw_s = setup_end - args.spawned_at
        setup_s = run.scaler().seconds(args.spawned_at, setup_end)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s,
                              "setup_raw_s": setup_raw_s}))
            return 0
        workload.measure(run)
        run.check(threading.active_count() <= run.nproc,
                  f"{threading.active_count()} threads > nproc {run.nproc}")
        workload.check(run)
        trace_file = None
        if run.layer is not None:
            workload.traced(run)
            os.makedirs(run.out_dir, exist_ok=True)
            trace_file = os.path.join(
                run.out_dir, f"trace-{args.workload}-seed{args.seed}.json")
            with open(trace_file, "w") as handle:
                json.dump({"traceEvents": run.layer.trace_events()}, handle)
    finally:
        run.close()
    print(json.dumps({
        "workload": args.workload,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "metrics": run.metrics,
        "notes": run.notes,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "digest": run.digest,
        "trace_file": trace_file,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
