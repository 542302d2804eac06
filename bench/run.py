"""Benchmark of the VeGen reproduction, end to end and layer by layer.

    python3 bench/run.py --seed 0                       # all five workloads
    python3 bench/run.py --seed 0 --workload prove --repeat 10
    python3 bench/run.py --seed 0 --traced              # + per-layer metrics
    python3 bench/run.py --workload cli_light --seed 3 --seconds 15 --trace 0

Each run of a workload is a fresh child process (``child.py``) pinned to
one CPU, next to a speed sampler (``speed.py``) on the same CPU; times
are reported at the sampler's reference speed.  Set-up is
timed from the child's spawn, three times per run, and reported as the
median.  The end-to-end metrics print as median and quartiles over
``--repeat`` runs.  ``--trace 1`` makes the runs traced and prints the
per-layer metrics instead; ``--traced`` adds one traced run after the
untraced ones and prints both, with the tracing overhead.  Every output
is checked; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 0
only when every check passed.  Metric names and units come from
``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import measure as M  # noqa: E402
import speed  # noqa: E402

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 160.0
SMOKE_SECONDS = 2.0

#: Variables that would point the program at caches or artifacts outside
#: this checkout, or bound its caches differently from the defaults.
SCRUBBED_ENV = ("REPRO_WARM_CACHE_DIR", "REPRO_WARM_CACHE_LIMIT",
                "REPRO_SERVE_CACHE_LIMIT", "REPRO_TARGET_ARTIFACT")


class BenchError(RuntimeError):
    """The benchmark cannot run or produced no usable result."""


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def check_checkout() -> None:
    """Refuse to run without this checkout's program, or with a stale
    target artifact (the registry would silently fall back to the slow
    pseudocode build and inflate set-up)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise BenchError(f"no program to benchmark under {src}")
    sys.path.insert(0, src)
    from repro.target.artifact import ArtifactError, load_artifact
    from repro.target.registry import DEFAULT_ARTIFACT_PATH

    try:
        load_artifact(DEFAULT_ARTIFACT_PATH, check_fresh=True)
    except (ArtifactError, OSError, ValueError) as exc:
        raise BenchError(f"target artifact unusable ({exc}); "
                         f"run `python -m repro gen` first") from exc


def git_revision() -> str:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args: List[str], cpu: int) -> Dict:
    """Run one child on ``cpu`` to completion; its last stdout line is
    its result.  Everything it starts (CLI runs, the server and its
    worker) inherits the CPU."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {' '.join(args)} exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int,
             smoke: bool) -> Dict:
    """Set up ``SETUP_REPEATS`` times and measure once, on the first CPU
    this process may use, next to a speed sampler on that CPU."""
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[0]
    log_path = os.path.join(BENCH_DIR, "out", f"speed-{os.getpid()}.log")
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--nproc", str(len(allowed)),
            "--speed-log", log_path]
    if smoke:
        args.append("--smoke")
    setups, raw = [], []
    with speed.Sampler(cpu, log_path):
        if not trace:
            for _ in range(SETUP_REPEATS - 1):
                child = spawn(args + ["--setup-only"], cpu)
                setups.append(child["setup_s"])
                raw.append(child["setup_raw_s"])
        result = spawn(args, cpu)
    setups.append(result["setup_s"])
    raw.append(result["setup_raw_s"])
    result["metrics"]["setup_s"] = M.median(setups)
    result["notes"]["setup_s"] = (f"median of {len(setups)} set-ups; "
                                  f"wall {M.median(raw):.4g} s")
    return result


def declared(spec: Dict, kind: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[kind]}


def select(result: Dict, names: Dict[str, str], workload: str) -> Dict:
    missing = sorted(set(names) - set(result["metrics"]))
    if missing:
        raise BenchError(f"{workload}: metrics not measured: "
                         f"{', '.join(missing)}")
    return {name: result["metrics"][name] for name in names}


def print_table(title: str, rows, units: Dict[str, str], notes: Dict):
    print(title)
    print(f"  {'metric':32s} {'median':>14s} {'q1':>14s} {'q3':>14s}  "
          f"{'unit':8s} samples")
    for name, values in rows.items():
        q1, med, q3 = M.quartiles(values)
        print(f"  {name:32s} {med:14.6g} {q1:14.6g} {q3:14.6g}  "
              f"{units[name]:8s} {len(values)} run(s); "
              f"{notes.get(name, '')}")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    names = list(whys)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="length of one measured run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (median and quartiles)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced runs, print per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="also make one traced run and print the "
                             "per-layer metrics and tracing overhead")
    parser.add_argument("--smoke", action="store_true",
                        help="1-2 cells per workload and a 2 s serve step")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    seconds = SMOKE_SECONDS if args.smoke else args.seconds

    try:
        check_checkout()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    e2e = declared(spec, "end_to_end")
    layers = declared(spec, "per_layer")
    print("env " + json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git": git_revision(),
        "loadavg": os.getloadavg(),
        "seed": args.seed, "seconds": seconds, "repeat": args.repeat,
    }), flush=True)

    workloads = [args.workload] if args.workload else names
    final: Dict[str, Dict] = {}
    attempted = failed = 0
    consistent = True
    try:
        for workload in workloads:
            wanted = layers if args.trace else e2e
            runs = [run_once(workload, args.seed, seconds, args.trace,
                             args.smoke) for _ in range(args.repeat)]
            rows = {n: [select(r, wanted, workload)[n] for r in runs]
                    for n in wanted}
            print_table(f"{workload} ({whys[workload]})", rows, wanted,
                        runs[-1]["notes"])
            chosen = {n: (M.quartiles(v)[1], wanted[n])
                      for n, v in rows.items()}
            for r in runs:
                attempted += r["attempted"]
                failed += r["failed"]
                for failure in r["failures"]:
                    print(f"  FAILED: {failure}")
            if args.traced and not args.trace:
                traced = run_once(workload, args.seed, seconds, 1,
                                  args.smoke)
                layer_values = select(traced, layers, workload)
                print_table("  per-layer (one traced run)",
                            {n: [v] for n, v in layer_values.items()},
                            layers, traced["notes"])
                print("  tracing overhead (traced minus untraced median):")
                for name in e2e:
                    if name in traced["metrics"] and name != "setup_s":
                        delta = traced["metrics"][name] - chosen[name][0]
                        print(f"    {name:30s} {delta:+14.6g} {e2e[name]}")
                same = traced["digest"] == runs[0]["digest"]
                consistent &= same
                print(f"  program digests {'equal' if same else 'DIFFER'}"
                      f" traced vs untraced; trace: {traced['trace_file']}")
                attempted += traced["attempted"]
                failed += traced["failed"]
                chosen.update({n: (v, layers[n])
                               for n, v in layer_values.items()})
            prefix = f"{workload}." if len(workloads) > 1 else ""
            for name, (value, unit) in chosen.items():
                final[prefix + name] = {"value": value, "unit": unit}
            digests = {r["digest"] for r in runs}
            consistent &= len(digests) == 1
            if len(digests) != 1:
                print("  program digests DIFFER between repeats")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    correct = failed == 0 and consistent
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
