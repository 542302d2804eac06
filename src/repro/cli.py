"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``vectorize FILE.c``
    Compile a mini-C kernel file and vectorize every function in it;
    print the scalar IR, the emitted vector program, and model costs.

``describe INSTRUCTION``
    Run the offline pipeline for one target instruction and print its
    VIDL description and canonical matching patterns (Figure 4b/4c).

``targets``
    List available targets and their instruction counts.

``validate``
    Re-run the §6.1 random-testing validation over a target's ISA.

``lint``
    Run the ``repro.analysis`` sanitizer suite (IRLint, DataflowLint,
    VIDLLint, LaneSan, DepSan) over vectorization results — for a
    mini-C file, a bundled kernel, or every bundled kernel — and report
    diagnostics.

``verify``
    Run TransVal translation validation (``repro.analysis.transval``)
    over vectorization results: statically prove each emitted vector
    program equivalent to its scalar input, reporting per-goal proof
    status and exiting non-zero on any disproved goal.

``bench``
    Run the bundled kernel × target matrix with tracing and counters on;
    write the ``BENCH_vegen.json`` perf trajectory and (optionally)
    compare against an older trajectory, failing on cost regressions.

``serve``
    Run the long-lived asyncio compile server (``repro.serve``): JSON
    over HTTP, content-addressed result cache, a hash-sharded pool of
    ``--workers`` (at least 1) compile processes, ``/metrics``
    endpoint.  ``bench/``'s ``serve_hits`` and ``serve_misses``
    workloads measure it under load.

``gen``
    Run the offline generator phase for the whole spec inventory and
    serialize the generated vectorization utilities into a versioned
    JSON artifact (``repro.target.artifact``); ``--check`` verifies the
    committed artifact is present, fresh, and byte-identical to a
    regeneration.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from repro.frontend import compile_c
from repro.ir import print_function
from repro.target import available_targets, get_target


def _cmd_vectorize(args: argparse.Namespace) -> int:
    from repro.session import VectorizationSession

    with open(args.file) as handle:
        source = handle.read()
    functions = compile_c(source)
    pipeline = None
    if args.passes:
        from repro.passes import available_passes, build_pipeline

        names = [n.strip() for n in args.passes.split(",") if n.strip()]
        try:
            pipeline = build_pipeline(names)
        except KeyError:
            unknown = [n for n in names if n not in available_passes()]
            print(f"unknown passes: {', '.join(unknown)}; available: "
                  f"{', '.join(available_passes())}", file=sys.stderr)
            return 2
    config = None
    if args.exact:
        from repro.vectorizer.context import VectorizerConfig

        config = VectorizerConfig(beam_width=args.beam_width, exact=True,
                                  exact_node_budget=args.exact_budget)
    session = VectorizationSession(
        target=args.target,
        beam_width=args.beam_width,
        reassociate=args.reassociate,
        pipeline=pipeline,
        config=config,
    )
    status = 0
    for fn in functions:
        if not args.emit_c:
            # Suppressed in emit mode so stdout is a compilable
            # translation unit (headers are include-guarded).
            print(f"=== {fn.name} ===")
        if args.dump_ir:
            print(print_function(fn))
            print()
        obs = {}
        if args.trace:
            from repro.obs import Counters, Tracer

            obs = {"tracer": Tracer(), "counters": Counters()}
        if args.exact and "counters" not in obs:
            from repro.obs import Counters

            obs["counters"] = Counters()
        result = session.vectorize(fn, **obs)
        if args.exact:
            counters = obs["counters"]
            nodes = counters.get("beam.exact_nodes")
            if counters.get("beam.exact_proved"):
                print(f"exact       : proved optimal "
                      f"({nodes} nodes explored)")
            else:
                print(f"exact       : node budget exhausted after "
                      f"{nodes} nodes (best incumbent, no proof)")
        if args.report or args.trace:
            from repro.vectorizer.report import render_report

            print(render_report(result))
            print()
        if args.emit_c:
            from repro.emit import EmitError

            try:
                print(result.c_source)
            except EmitError as exc:
                print(f"cannot emit C: {exc}", file=sys.stderr)
                status = 1
            continue
        print(result.program.dump())
        print(f"scalar cost : {result.scalar_cost:8.1f} model cycles")
        print(f"vector cost : {result.cost.total:8.1f} model cycles "
              f"({result.speedup_over_scalar:.2f}x)")
        if args.compare_baseline:
            from repro.baseline import baseline_vectorize

            llvm = baseline_vectorize(fn, target=args.target)
            print(f"llvm cost   : {llvm.cost.total:8.1f} model cycles "
                  f"(vegen is {llvm.cost.total / result.cost.total:.2f}x)")
        if not result.vectorized:
            print("(not vectorized: scalar code modeled cheapest)")
        print()
    return status


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.vidl import format_inst_desc

    target = get_target(args.target)
    try:
        inst = target.get(args.instruction)
    except KeyError:
        names = [n for n in target.by_name if args.instruction in n]
        print(f"unknown instruction {args.instruction!r}", file=sys.stderr)
        if names:
            print(f"did you mean: {', '.join(sorted(names)[:8])}",
                  file=sys.stderr)
        return 1
    print(f"# pseudocode semantics\n{inst.spec_text.strip()}\n")
    print("# lifted VIDL description (Figure 4b)")
    print(format_inst_desc(inst.desc))
    print("\n# canonical matching operations (Figure 4c)")
    for i, op in enumerate(dict.fromkeys(inst.match_ops)):
        print(f"  lane-op {i}: {op}")
    print(f"\ncost: {inst.cost} model cycles  |  SIMD: {inst.is_simd}  |  "
          f"requires: {', '.join(sorted(inst.requires)) or '-'}")
    return 0


def _cmd_targets(_args: argparse.Namespace) -> int:
    for name in available_targets():
        target = get_target(name)
        print(f"{name:14s} {len(target.instructions):4d} instructions, "
              f"{len(target.operation_index):3d} distinct operations")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.pseudocode import parse_spec, run_spec
    from repro.vidl import bits_from_lanes, execute_inst, lanes_from_bits

    target = get_target(args.target)
    rng = random.Random(args.seed)
    failures: List[str] = []
    for inst in target.instructions:
        spec = parse_spec(inst.spec_text)
        for _ in range(args.trials):
            env = {p.name: rng.getrandbits(p.total_width)
                   for p in spec.params}
            expected = run_spec(spec, env)
            lanes = [
                lanes_from_bits(env[p.name], p.lanes,
                                inst.desc.inputs[i].elem_type)
                for i, p in enumerate(spec.params)
            ]
            got = bits_from_lanes(execute_inst(inst.desc, lanes),
                                  inst.desc.out_elem_type)
            if got != expected:
                failures.append(inst.name)
                break
    total = len(target.instructions)
    print(f"validated {total - len(failures)}/{total} instructions "
          f"({args.trials} random trials each)")
    if failures:
        print("mismatches:", ", ".join(failures), file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_result, errors_only
    from repro.kernels import all_kernels

    if args.file:
        functions = {}
        with open(args.file) as handle:
            source = handle.read()
        for fn in compile_c(source):
            functions[fn.name] = fn
    elif args.kernel:
        kernels = all_kernels()
        if args.kernel not in kernels:
            print(f"unknown kernel {args.kernel!r}; available: "
                  f"{', '.join(sorted(kernels))}", file=sys.stderr)
            return 2
        functions = {args.kernel: kernels[args.kernel]}
    elif args.all:
        functions = all_kernels()
    else:
        print("lint: give a FILE, --kernel NAME, or --all",
              file=sys.stderr)
        return 2

    if args.target == "all":
        targets = available_targets()
    else:
        targets = [args.target]

    checked = 0
    error_count = 0
    warning_count = 0
    for tname in targets:
        from repro.session import VectorizationSession

        target = get_target(tname)
        session = VectorizationSession(target=target,
                                       beam_width=args.beam_width)
        for fname, fn in functions.items():
            result = session.vectorize(fn)
            diagnostics = analyze_result(result, target=target)
            checked += 1
            errors = errors_only(diagnostics)
            error_count += len(errors)
            warning_count += len(diagnostics) - len(errors)
            for diag in diagnostics:
                print(f"{tname}/{fname}: {diag.format()}")
    print(f"linted {checked} function/target combinations: "
          f"{error_count} errors, {warning_count} warnings")
    return 1 if error_count else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.transval import (
        FAILED,
        SAMPLED,
        TransValConfig,
        validate_result,
    )
    from repro.kernels import all_kernels
    from repro.obs import Counters
    from repro.session import VectorizationSession

    if args.file:
        functions = {}
        with open(args.file) as handle:
            source = handle.read()
        for fn in compile_c(source):
            functions[fn.name] = fn
    elif args.kernel:
        kernels = all_kernels()
        functions = {}
        for name in args.kernel:
            if name not in kernels:
                print(f"unknown kernel {name!r}; available: "
                      f"{', '.join(sorted(kernels))}", file=sys.stderr)
                return 2
            functions[name] = kernels[name]
    elif args.all:
        functions = all_kernels()
    else:
        print("verify: give a FILE, --kernel NAME, or --all",
              file=sys.stderr)
        return 2

    if args.target == "all":
        targets = available_targets()
    else:
        targets = [args.target]

    config = TransValConfig(enum_bits=args.enum_bits)
    counters = Counters()
    cells = []
    checked = 0
    failed = 0
    sampled = 0
    for tname in targets:
        session = VectorizationSession(target=tname,
                                       beam_width=args.beam_width)
        for fname in sorted(functions):
            result = session.vectorize(functions[fname])
            report = validate_result(result, config=config,
                                     counters=counters)
            checked += 1
            counts = report.counts()
            if report.status == FAILED:
                failed += 1
            elif counts.get(SAMPLED):
                sampled += 1
            cell = report.as_dict()
            cell["target"] = tname
            cells.append(cell)
            if not args.quiet or report.status == FAILED:
                print(f"{tname}/{fname}: {report.status} "
                      f"({len(report.goals)} goals)")
            for diag in report.diagnostics():
                print(f"{tname}/{fname}: {diag.format()}")
    print(f"verified {checked} function/target combinations: "
          f"{checked - failed - sampled} proved, {sampled} sampled, "
          f"{failed} failed")
    if args.report:
        import json

        doc = {
            "schema": "repro-verify-report/v1",
            "cells": cells,
            "counters": {k: v for k, v in counters.as_dict().items()
                         if k.startswith("transval.")},
        }
        with open(args.report, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.report}")
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeConfig, run_server
    from repro.vectorizer.context import VectorizerConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_pending=args.max_pending,
        max_batch=args.max_batch,
        default_timeout_s=args.timeout,
        cache_dir=args.cache_dir,
        cache_memory_entries=args.cache_entries,
        allow_faults=args.allow_faults,
        default_config=VectorizerConfig(beam_width=args.beam_width),
    )
    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.kernels import all_kernels
    from repro.obs import (
        compare_bench,
        load_bench,
        render_bench_summary,
        run_bench,
        validate_bench,
        write_bench,
    )

    if args.targets == "all":
        targets = list(available_targets())
    else:
        targets = [t.strip() for t in args.targets.split(",") if t.strip()]
        unknown = [t for t in targets if t not in available_targets()]
        if unknown:
            print(f"unknown targets: {', '.join(unknown)}; available: "
                  f"{', '.join(available_targets())}", file=sys.stderr)
            return 2

    kernel_names = None
    if args.kernel:
        kernel_names = list(args.kernel)
    elif args.kernels is not None:
        kernel_names = sorted(all_kernels())[:args.kernels]

    progress = None
    if not args.quiet:
        progress = lambda msg: print(msg, file=sys.stderr)  # noqa: E731
    try:
        doc = run_bench(kernel_names=kernel_names, targets=targets,
                        beam_width=args.beam_width, progress=progress,
                        jobs=args.jobs, profile_top=args.profile,
                        verify=not args.no_verify,
                        gap_node_budget=args.gap_budget)
    except KeyError as exc:
        print(f"bench: {exc.args[0]}", file=sys.stderr)
        return 2
    validate_bench(doc)
    # Read the baseline before writing: ``--compare`` may name the
    # ``--out`` file itself (regenerating the committed trajectory).
    old = load_bench(args.compare) if args.compare else None
    write_bench(doc, args.out)
    render_bench_summary(doc)
    print(f"wrote {args.out}")

    if old is not None:
        regressions, notes = compare_bench(
            old, doc, cost_tolerance=args.tolerance
        )
        for note in notes:
            print(f"note: {note}")
        for regression in regressions:
            print(f"REGRESSION: {regression}")
        if regressions:
            print(f"{len(regressions)} regression(s) vs {args.compare}")
            return 1
        print(f"no regressions vs {args.compare}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    import os

    from repro.target.artifact import (
        dumps_artifact,
        generate_artifact,
        load_artifact,
        spec_content_hash,
        write_artifact,
    )
    from repro.target.registry import DEFAULT_ARTIFACT_PATH

    path = args.out or DEFAULT_ARTIFACT_PATH
    if args.check:
        if not os.path.exists(path):
            print(f"gen --check: artifact missing at {path} "
                  f"(run `repro gen` and commit the result)",
                  file=sys.stderr)
            return 1
        try:
            committed = load_artifact(path, check_fresh=False)
        except Exception as exc:  # malformed artifact is a failure too
            print(f"gen --check: {exc}", file=sys.stderr)
            return 1
        if committed.get("spec_hash") != spec_content_hash():
            print(f"gen --check: artifact at {path} is STALE (spec "
                  f"inventory or target configs changed since it was "
                  f"generated); rerun `repro gen` and commit",
                  file=sys.stderr)
            return 1
        regenerated = dumps_artifact(generate_artifact())
        with open(path) as handle:
            on_disk = handle.read()
        if regenerated != on_disk:
            print(f"gen --check: artifact at {path} differs from a "
                  f"fresh regeneration; rerun `repro gen` and commit",
                  file=sys.stderr)
            return 1
        print(f"gen --check: {path} is fresh and byte-identical to a "
              f"regeneration")
        return 0
    doc = generate_artifact()
    write_artifact(doc, path)
    n_insts = len(doc["instructions"])
    n_bad = len(doc["unliftable"])
    print(f"wrote {path}: {n_insts} instructions "
          f"({n_bad} unliftable), spec hash {doc['spec_hash'][:12]}")
    return 0


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    from repro.vectorizer.context import (
        DEFAULT_EXACT_NODE_BUDGET,
        DEFAULT_GAP_NODE_BUDGET,
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="VeGen reproduction: vectorize mini-C kernels and "
                    "inspect generated target descriptions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vectorize", help="vectorize a mini-C file")
    p.add_argument("file")
    p.add_argument("--target", default="avx2",
                   choices=available_targets())
    p.add_argument("--beam-width", type=int, default=64)
    p.add_argument("--exact", action="store_true",
                   help="run pack selection to exhaustion (incumbent "
                        "branch and bound seeded by the beam) and report "
                        "whether the cost is provably optimal; bounded "
                        "by --exact-budget")
    p.add_argument("--exact-budget", type=int,
                   default=DEFAULT_EXACT_NODE_BUDGET, metavar="N",
                   help="node budget for --exact (default "
                        f"{DEFAULT_EXACT_NODE_BUDGET}, the proof "
                        "budget: sized to prove every cell the "
                        "admissible bound can close in seconds; 'repro "
                        "bench --gap-budget' probes at a smaller "
                        "default, see there); when exhausted the best "
                        "incumbent is returned without an optimality "
                        "proof")
    p.add_argument("--dump-ir", action="store_true",
                   help="also print the scalar IR")
    p.add_argument("--report", action="store_true",
                   help="print a pack-selection report")
    p.add_argument("--reassociate", action="store_true",
                   help="balance reduction chains first (clang -O3 "
                        "-ffast-math behaviour)")
    p.add_argument("--compare-baseline", action="store_true",
                   help="also run the LLVM-style baseline")
    p.add_argument("--passes", default=None, metavar="P1,P2,...",
                   help="run a custom pass pipeline instead of the "
                        "default (see repro.passes.available_passes)")
    p.add_argument("--trace", action="store_true",
                   help="run with tracing/counters on and print the "
                        "phase-timing report")
    p.add_argument("--emit-c", action="store_true",
                   help="print the vectorized program as compilable C "
                        "intrinsics source instead of the IR dump")
    p.set_defaults(func=_cmd_vectorize)

    p = sub.add_parser("describe",
                       help="show an instruction's generated description")
    p.add_argument("instruction")
    p.add_argument("--target", default="avx512_vnni",
                   choices=available_targets())
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("targets", help="list targets")
    p.set_defaults(func=_cmd_targets)

    p = sub.add_parser("validate",
                       help="re-run the §6.1 semantics validation")
    p.add_argument("--target", default="avx512_vnni",
                   choices=available_targets())
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("lint",
                       help="run the sanitizer suite over vectorization "
                            "results")
    p.add_argument("file", nargs="?", default=None,
                   help="mini-C file to lint (omit with --kernel/--all)")
    p.add_argument("--kernel", default=None,
                   help="lint one bundled kernel by name")
    p.add_argument("--all", action="store_true",
                   help="lint every bundled kernel")
    p.add_argument("--target", default="avx2",
                   choices=available_targets() + ["all"])
    p.add_argument("--beam-width", type=int, default=4,
                   help="pack-selection beam width (small by default: "
                        "lint favours coverage over best packing)")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("verify",
                       help="prove emitted vector programs equivalent "
                            "to their scalar inputs (TransVal)")
    p.add_argument("file", nargs="?", default=None,
                   help="mini-C file to verify (omit with "
                        "--kernel/--all)")
    p.add_argument("--kernel", action="append", default=None,
                   help="verify one bundled kernel by name (repeatable)")
    p.add_argument("--all", action="store_true",
                   help="verify every bundled kernel")
    p.add_argument("--target", default="avx2",
                   choices=available_targets() + ["all"])
    p.add_argument("--beam-width", type=int, default=8,
                   help="pack-selection beam width (default 8, matching "
                        "the bench matrix)")
    p.add_argument("--enum-bits", type=int, default=12,
                   help="exhaustively enumerate fallback goals with at "
                        "most this many free input bits (default 12)")
    p.add_argument("--report", default=None, metavar="FILE.json",
                   help="write the per-cell verification report as JSON")
    p.add_argument("--quiet", action="store_true",
                   help="only print failures and the summary line")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench",
                       help="benchmark the kernel x target matrix and "
                            "write the BENCH_vegen.json trajectory")
    p.add_argument("--kernel", action="append", default=None,
                   help="bench one kernel by name (repeatable; default: "
                        "all bundled kernels)")
    p.add_argument("--kernels", type=int, default=None, metavar="N",
                   help="bench only the first N kernels (sorted by name)")
    p.add_argument("--targets",
                   default="sse4,avx2,avx512_vnni,neon128",
                   help="comma-separated target list, or 'all' "
                        "(default: sse4,avx2,avx512_vnni,neon128)")
    p.add_argument("--beam-width", type=int, default=8,
                   help="pack-selection beam width (default 8: wide "
                        "enough to exercise the search, fast enough for "
                        "the full matrix)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="fan the kernel x target cells over N worker "
                        "processes (default 1: serial); the merged "
                        "document is identical apart from wall times")
    p.add_argument("--profile", type=int, nargs="?", const=15, default=0,
                   metavar="N",
                   help="run each cell under cProfile and record its top "
                        "N functions by cumulative time in the bench "
                        "document (default N: 15); profiled wall times "
                        "carry tracing overhead")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the per-cell TransVal verification column")
    p.add_argument("--gap-budget", type=int,
                   default=DEFAULT_GAP_NODE_BUDGET, metavar="N",
                   help="node budget for the per-cell exact pass behind "
                        "the optimality_gap column (default "
                        f"{DEFAULT_GAP_NODE_BUDGET}, the quick probe "
                        "budget: bounds the full-matrix pass to "
                        "seconds per cell, so heavy cells report null "
                        "here and get their proof attempts from "
                        "'repro vectorize --exact' at its larger "
                        "default; 0 disables the pass, reporting null "
                        "everywhere)")
    p.add_argument("--out", default="BENCH_vegen.json",
                   help="output path (default: BENCH_vegen.json)")
    p.add_argument("--compare", default=None, metavar="OLD.json",
                   help="compare against an older bench file; exit 1 on "
                        "cost regressions")
    p.add_argument("--tolerance", type=float, default=0.01,
                   help="cost-ratio regression tolerance (default 0.01)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-kernel progress on stderr")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "serve",
        help="run the long-lived compile server (repro.serve)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="listen port (0: pick a free port; default 8787)")
    p.add_argument("--workers", type=_at_least_one, default=2,
                   help="compile worker processes (at least 1; "
                        "default 2)")
    p.add_argument("--beam-width", type=int, default=8,
                   help="default pack-selection beam width (requests "
                        "may override via config.beam_width)")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="per-worker inbox bound (default 64)")
    p.add_argument("--max-pending", type=int, default=256,
                   help="global in-flight bound; above it requests get "
                        "429 (default 256)")
    p.add_argument("--max-batch", type=int, default=8,
                   help="max requests per worker IPC round-trip "
                        "(default 8)")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="default per-request deadline in seconds "
                        "(default 30)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persistent on-disk result cache directory "
                        "(default: in-memory only)")
    p.add_argument("--cache-entries", type=int, default=1024,
                   help="in-memory LRU capacity (default 1024)")
    p.add_argument("--allow-faults", action="store_true",
                   help="enable the fault-injection request fields "
                        "(test harness only; never in production)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "gen",
        help="run the offline generator and serialize the target "
             "artifact (repro.target.artifact)")
    p.add_argument("--out", default=None, metavar="FILE.json",
                   help="artifact path (default: the committed "
                        "src/repro/target/vegen_targets.json)")
    p.add_argument("--check", action="store_true",
                   help="verify the committed artifact is present, "
                        "fresh, and byte-identical to a regeneration; "
                        "exit 1 otherwise")
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
