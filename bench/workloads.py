"""The five workloads.  Each runs inside a fresh child process (see
``child.py``) in three phases: ``setup`` (inputs built, targets loaded,
server healthy and warm), the timed ``measure`` phase, and ``check``,
which verifies every output outside the timed region.  A traced run
(``--trace 1``) also records the per-layer metrics in ``traced``."""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import measure as M
import serveload
import speed
import tables as T

Cell = Tuple[str, str]

#: Per-layer names that come straight from program counters.
COUNTER_METRICS = (
    "beam.states_expanded", "beam.children_generated",
    "beam.candidates_pruned", "beam.rollouts", "beam.tt_hits",
    "beam.bound_evals", "beam.exact_nodes", "beam.exact_proved",
    "producers.packs_enumerated", "producers.cache_hits",
    "producers.cache_misses", "slp.estimate_hits", "canon.rewrites",
    "matcher.matches_found", "codegen.packs_lowered",
    "codegen.gathers_emitted", "transval.goals",
)

CLI_TIMEOUT_S = 60.0
IMPORT_PROBES = 3
CHECK_SAMPLE = 24  # serve misses re-compiled in process and compared

#: Idle time between a serve workload's set-up and its open loop.
#: Started right after the warm-up, the first ~20 misses of 2-3 runs in
#: 8 took 20-30 ms longer, as if the server or worker stalled for a few
#: hundred ms (the cause was not found); after a 1.5 s pause, none did.
SETTLE_S = 1.5


class Run:
    """State of one workload run in the child process."""

    def __init__(self, workload: str, root: str, seed: int, seconds: float,
                 traced: bool, smoke: bool, env: Dict[str, str],
                 nproc: int, speed_log: str):
        self.workload = workload
        self.root = root
        self.seconds = seconds
        self.smoke = smoke
        self.env = env
        self.nproc = nproc  # CPUs the benchmark may use
        self.speed_log = speed_log
        self.rng = random.Random(f"{workload}/{seed}")
        self.layer = M.LayerTrace() if traced else None
        self.gc = M.GcMonitor() if traced else None
        self.out_dir = os.path.join(root, "bench", "out")
        self.metrics: Dict[str, float] = {}
        self.notes: Dict[str, str] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.digest = ""
        self.server: Optional[serveload.Server] = None
        self.calls = 0      # in-process program calls behind the layers
        self.call_ms = 0.0  # their total wall time

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def scaler(self) -> speed.Scaler:
        """Puts intervals measured so far at the reference speed."""
        return speed.read_log(self.speed_log)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


# -- inputs -------------------------------------------------------------------

def kernel_sources() -> Dict[str, str]:
    """Every bundled kernel's mini-C source, by ``all_kernels()`` name."""
    from repro.kernels import (COMPLEX_MUL_SOURCE, DSP_SOURCES,
                               ISEL_TEST_SOURCES, OPENCV_SOURCES,
                               TVM_DOT_SOURCE)

    sources = {f"isel_{name}": src for name, src, _ in ISEL_TEST_SOURCES}
    sources["complex_mul"] = COMPLEX_MUL_SOURCE
    sources["tvm_dot"] = TVM_DOT_SOURCE
    sources.update({f"opencv_{k}": v for k, v in OPENCV_SOURCES.items()})
    sources.update({f"dsp_{k}": v for k, v in DSP_SOURCES.items()})
    return sources


class Inputs:
    """Kernels compiled from their mini-C sources, timed by layer."""

    def __init__(self, kernels: Sequence[str]):
        from repro.frontend import compile_c

        start = time.perf_counter()
        sources = kernel_sources()
        self.source = {k: sources[k] for k in sorted(set(kernels))}
        self.function = {}
        frontend_s = 0.0
        for kernel, source in self.source.items():
            t0 = time.perf_counter()
            (self.function[kernel],) = compile_c(source)
            frontend_s += time.perf_counter() - t0
        self.frontend_ms = frontend_s * 1e3 / len(self.source)
        self.build_ms = (time.perf_counter() - start) * 1e3
        self._ir_text: Dict[str, str] = {}

    def ir_text(self, kernel: str) -> str:
        from repro.ir.printer import print_function

        if kernel not in self._ir_text:
            self._ir_text[kernel] = print_function(self.function[kernel])
        return self._ir_text[kernel]


def load_targets(run: Run) -> None:
    """Load every target; the first load (artifact read plus one target)
    is what each fresh process pays."""
    from repro.target import get_target

    start = time.perf_counter()
    get_target(T.TARGETS[0])
    run.metrics["target.load_ms"] = (time.perf_counter() - start) * 1e3
    for target in T.TARGETS[1:]:
        get_target(target)


def session(run: Run, target: str, **config):
    """A session on ``target``; traced runs give it the wrapped passes."""
    from repro.session import VectorizationSession
    from repro.vectorizer.context import VectorizerConfig

    sess = VectorizationSession(
        target=target, beam_width=T.BEAM_WIDTH,
        config=(VectorizerConfig(beam_width=T.BEAM_WIDTH, **config)
                if config else None),
        pipeline=run.layer.pipeline() if run.layer else None,
    )
    sess.target  # resolve now: the offline phase is set-up, not the op
    return sess


def transval(run: Run, result):
    from repro.analysis.transval import validate_result

    if run.layer is None:
        return validate_result(result)
    with run.layer.tracer.span(M.TRANSVAL_LAYER):
        return validate_result(result, counters=run.layer.counters)


def call(run: Run, sess, function, name: str, with_transval=False,
         collect=False):
    """One program call timed from the outside (into ``run.call_ms``);
    returns the result and the TransVal report or None.  With
    ``collect`` the call ends with a full collection, which it pays for:
    the search runs with the collector paused and leaves its garbage
    behind, so the op that made the garbage is billed for it rather than
    whichever op runs next.  Traced runs wrap the call in an op span
    named after the cell, pass the counters and watch the collector."""
    start = time.perf_counter()
    if run.layer is None:
        result = sess.vectorize(function)
        report = transval(run, result) if with_transval else None
        if collect:
            gc.collect()
    else:
        with run.gc, run.layer.tracer.span(M.OP_SPAN, cell=name):
            result = sess.vectorize(function, counters=run.layer.counters)
            report = transval(run, result) if with_transval else None
            if collect:
                with run.layer.tracer.span(M.GC_LAYER):
                    gc.collect()
    run.calls += 1
    run.call_ms += (time.perf_counter() - start) * 1e3
    return result, report


def label(cell: Cell) -> str:
    return f"{cell[0]}/{cell[1]}"


def rounds(run: Run, cells: Sequence[Cell]) -> List[Cell]:
    """The op order: enough seed-shuffled rounds of ``cells`` to fill
    ``--seconds`` at the workload's nominal round length."""
    count = 1 if run.smoke else max(
        1, round(run.seconds / T.NOMINAL_ROUND_S[run.workload]))
    order: List[Cell] = []
    for _ in range(count):
        batch = list(cells)
        run.rng.shuffle(batch)
        order.extend(batch)
    return order


# -- shared metrics and checks ---------------------------------------------

def latency_metrics(run: Run, latencies: Sequence[float],
                    wall: Sequence[float], where: str = "") -> None:
    """Median and tail of ``latencies`` (ms at the reference speed);
    the notes give their sample count and the same statistics of the
    ``wall`` times."""
    n = len(latencies)
    run.metrics["latency_p50_ms"] = M.median(latencies)
    run.metrics["latency_tail_ms"] = M.tail(latencies)
    run.notes["latency_p50_ms"] = (f"n={n}{where}; wall "
                                   f"{M.median(wall):.4g} ms")
    run.notes["latency_tail_ms"] = (f"n={n}{where}, {M.tail_label(n)}; "
                                    f"wall {M.tail(wall):.4g} ms")


def closed_loop_metrics(run: Run, spans: Sequence[Tuple[float, float]],
                        loop: Tuple[float, float]) -> None:
    """Latency of each op and throughput over the loop's wall time,
    everything in it included, at the reference speed of the main CPU.
    Times are ``time.monotonic()`` pairs."""
    scaler = run.scaler()
    loop_s = scaler.seconds(*loop)
    run.metrics["throughput_ops_s"] = len(spans) / loop_s
    run.notes["throughput_ops_s"] = (
        f"{len(spans)} ops in {loop_s:.2f} s ({loop[1] - loop[0]:.2f} s "
        f"wall)")
    latency_metrics(run, [scaler.seconds(a, b) * 1e3 for a, b in spans],
                    [(b - a) * 1e3 for a, b in spans])


def cost_metrics(run: Run, results: Dict[Cell, object]) -> None:
    ratios = [r.cost.total / r.scalar_cost for r in results.values()
              if r.scalar_cost > 0]
    run.metrics["geomean_cost_ratio"] = M.geomean(ratios)
    run.notes["geomean_cost_ratio"] = f"{len(ratios)} cells"
    run.digest = M.digest([f"{label(c)}\n{results[c].program.dump()}"
                           for c in sorted(results)])


def check_programs(run: Run, inputs: Inputs,
                   results: Dict[Cell, object]) -> None:
    for cell, result in sorted(results.items()):
        run.check(M.program_matches(inputs.function[cell[0]],
                                    result.program, run.rng),
                  f"{label(cell)}: program differs from the interpreter")


def import_probe_ms(run: Run) -> float:
    """Wall time of a fresh interpreter importing the CLI (what every
    ``repro vectorize`` and ``repro serve`` process pays first)."""
    samples = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"],
                       cwd=run.root, env=run.env, check=True,
                       timeout=CLI_TIMEOUT_S)
        samples.append((time.perf_counter() - start) * 1e3)
    return M.median(samples)


def layer_metrics(run: Run, inputs: Inputs, results: Dict[Cell, object],
                  metrics_doc: Optional[Dict] = None,
                  requests: Sequence[Tuple[serveload.Request,
                                           serveload.Record]] = ()) -> None:
    """The per-layer metrics every traced run reports, from its spans,
    counters, the serve read path timed in process on its own inputs,
    and, when the workload ran a server, the server's ``/metrics`` and
    its answered open-loop ``requests``."""
    from repro.obs import Counters
    from repro.serve.protocol import build_response_body
    from repro.vectorizer.context import VectorizerConfig

    m = run.metrics
    calls = max(1, run.calls)
    times = run.layer.layer_ms()
    pass_layers = list(M.PASS_LAYERS.values()) + [M.CONTEXT_LAYER]
    m["startup.import_ms"] = import_probe_ms(run)
    m["kernels.build_ms"] = inputs.build_ms
    m["frontend.compile_c_ms"] = inputs.frontend_ms
    m["session.overhead_ms"] = times.get(M.OP_SPAN, 0.0) / calls
    for name in pass_layers:
        m[name + "_ms"] = times.get(name, 0.0) / calls
    transvals = max(1, run.layer.count(M.TRANSVAL_LAYER))
    m["analysis.transval_ms"] = times.get(M.TRANSVAL_LAYER, 0.0) / transvals
    select_ms = times.get("vectorizer.select_packs", 0.0)
    m["vectorizer.select_packs_share"] = select_ms / run.call_ms
    # The collection that ends an op frees what select_packs left behind
    # with the collector paused.
    with_gc = select_ms + times.get(M.GC_LAYER, 0.0)
    covered = run.call_ms - times.get(M.OP_SPAN, 0.0)
    run.notes["vectorizer.select_packs_share"] = (
        f"of {run.call_ms:.0f} ms in {calls} calls; with the collection "
        f"that ends each op {100 * with_gc / run.call_ms:.1f}%; the layer "
        f"spans cover {100 * covered / run.call_ms:.1f}%")
    run.notes["session.overhead_ms"] = ("per call: the call minus its layer "
                                        "spans")
    c = run.layer.counters
    for name in COUNTER_METRICS:
        m[name] = c.get(name)
    children = c.get("beam.children_generated")
    m["beam.prune_ratio"] = c.get("beam.candidates_pruned") / max(1, children)
    run.notes["beam.prune_ratio"] = f"base: {children} children"
    lookups = c.get("producers.cache_hits") + c.get("producers.cache_misses")
    m["producers.hit_ratio"] = c.get("producers.cache_hits") / max(1, lookups)
    run.notes["producers.hit_ratio"] = f"base: {lookups} lookups"
    nodes = c.get("beam.states_expanded") + c.get("beam.exact_nodes")
    m["beam.nodes_per_s"] = nodes / max(1e-9, select_ms / 1e3)
    run.notes["beam.nodes_per_s"] = (
        f"base: {c.get('beam.states_expanded')} beam states + "
        f"{c.get('beam.exact_nodes')} exact nodes in {select_ms:.0f} ms "
        f"select_packs")
    exact_runs = c.get("beam.exact_runs")
    m["beam.optimal_frac"] = c.get("beam.exact_proved") / max(1, exact_runs)
    run.notes["beam.optimal_frac"] = f"base: {exact_runs} exact passes"
    m["python.gc_pause_ms"] = run.gc.pause_s * 1e3
    m["python.gc_gen2_collections"] = run.gc.gen2
    run.notes["python.gc_pause_ms"] = (
        f"all collections during {calls} calls; the forced ones at the end "
        f"of each op take {times.get(M.GC_LAYER, 0.0):.0f} ms")
    payloads = [{"source": text, "lang": lang, "target": target}
                for kernel, target in sorted(results)
                for lang, text in (("c", inputs.source[kernel]),
                                   ("ir", inputs.ir_text(kernel)))]
    config = VectorizerConfig(beam_width=T.BEAM_WIDTH)
    bodies = [build_response_body(target, config, "0" * 64, result,
                                  Counters())
              for (_, target), result in sorted(results.items())]
    m.update(M.protocol_timings(payloads, bodies))
    server_layers(run, metrics_doc)
    request_layers(run, requests)


def server_layers(run: Run, metrics_doc: Optional[Dict]) -> None:
    """Counts from the server's ``/metrics``: zero, and noted so, in the
    workloads that run no server."""
    m = run.metrics
    counters = metrics_doc["counters"] if metrics_doc else {}
    for name in ("serve.cache_hits", "serve.compiles", "serve.errors"):
        m[name] = counters.get(name, 0)
    requests = counters.get("serve.requests", 0)
    m["serve.hit_ratio"] = m["serve.cache_hits"] / max(1, requests)
    batches = counters.get("serve.batches", 0)
    m["serve.batch_fill"] = m["serve.compiles"] / max(1, batches)
    if metrics_doc is None:
        run.notes["serve.cache_hits"] = "no server in this workload"
    else:
        run.notes["serve.hit_ratio"] = f"base: {requests} requests"
        run.notes["serve.batch_fill"] = f"base: {batches} batches"


#: Per-layer latency of each request kind: (name, kind, percentile).
KIND_LAYERS = (
    ("serve.hit_p50_ms", "hit", 50), ("serve.hit_p99_ms", "hit", 99),
    ("serve.miss_p50_ms", "miss", 50), ("serve.miss_p90_ms", "miss", 90),
    ("serve.bad_request_p50_ms", "bad", 50),
)


def request_layers(run: Run, requests) -> None:
    """Wall latency of the open loop's requests split by kind (the
    ``X-Repro-Cache`` header and status the checks confirm), and how late
    the generator sent; 0 for a kind the workload does not send."""
    for name, kind, q in KIND_LAYERS:
        ms = [record.latency_s * 1e3 for request, record in requests
              if request.kind == kind]
        run.metrics[name] = M.percentile(ms, q)
        run.notes[name] = f"n={len(ms)}"
    late = [record.late_s * 1e3 for _, record in requests]
    run.metrics["loadgen.late_p99_ms"] = M.percentile(late, 99)
    run.notes["loadgen.late_p99_ms"] = f"n={len(late)}"


# -- serve traffic ------------------------------------------------------------

def _payload(source: str, lang: str, target: str) -> bytes:
    return json.dumps({"source": source, "lang": lang,
                       "target": target}).encode("utf-8")


def _malformed(run: Run, inputs: Inputs, cell: Cell) -> bytes:
    """A request whose source is cut short so that it cannot parse."""
    from repro.frontend import compile_c
    from repro.ir.parser import parse_function

    kernel, target = cell
    lang = run.rng.choice(("c", "ir"))
    text = inputs.source[kernel] if lang == "c" else inputs.ir_text(kernel)
    cut = int(len(text.rstrip()) * run.rng.uniform(0.3, 0.9))
    parse = compile_c if lang == "c" else parse_function
    while True:
        try:
            parse(text[:cut])
        except Exception:  # the program rejects it: malformed as intended
            return _payload(text[:cut], lang, target)
        cut -= 1


class Traffic:
    """Warm keys, miss keys and the requests of one serve run: an open
    loop at the workload's rate and a closed-loop burst.

    A key is a cell plus the name its function is sent under: warm keys
    keep the kernel's name, and each miss renames a cell of
    ``tables.MISS_CELLS`` to a name the server has never seen, which
    gives a new key and a compile of that cell's fixed work.

    The schedule (when each request is due, whether it is a hit, a miss
    or malformed, and which key or cell it asks for) is the frozen trace
    ``tables.TRACE_SEED`` draws; the run's seed writes each request:
    mini-C or IR, and where a malformed source is cut."""

    def __init__(self, run: Run, inputs: Inputs, load: T.ServeLoad,
                 open_s: float):
        self.inputs = inputs
        self.load = load
        self.warm = list(load.warm)
        self.keys: List[Tuple[Cell, Optional[str]]] = [
            (cell, None) for cell in self.warm]
        trace = random.Random(T.TRACE_SEED)
        n = int(round(load.rate * open_s))
        dues = sorted(trace.uniform(0.0, open_s) for _ in range(n))
        self.open_loop = self._requests(run, trace, dues)
        self.burst = self._requests(run, trace, [0.0] * load.burst)

    def _requests(self, run: Run, trace: random.Random,
                  dues: Sequence[float]) -> List[serveload.Request]:
        n, mix = len(dues), self.load.mix
        n_miss = int(round(n * mix["miss"]))
        n_bad = max(1, int(round(n * mix["bad"])))
        kinds = (["miss"] * n_miss + ["bad"] * n_bad
                 + ["hit"] * (n - n_miss - n_bad))
        trace.shuffle(kinds)
        misses = [T.MISS_CELLS[i % len(T.MISS_CELLS)] for i in range(n_miss)]
        trace.shuffle(misses)
        langs = (["c", "ir"] * (n // 2 + 1))[:n]
        run.rng.shuffle(langs)
        requests = []
        for due, kind, lang in zip(dues, kinds, langs):
            if kind == "bad":
                key, body = -1, _malformed(run, self.inputs,
                                           run.rng.choice(self.warm))
            else:
                if kind == "hit":
                    key = trace.randrange(len(self.warm))
                else:
                    key = len(self.keys)
                    cell = misses.pop()
                    name = self.inputs.function[cell[0]].name
                    self.keys.append((cell, f"{name}_{key}"))
                body = _payload(self.text(key, lang), lang,
                                self.keys[key][0][1])
            requests.append(serveload.Request(due, kind, key, body))
        return requests

    def text(self, key: int, lang: str) -> str:
        (kernel, _), name = self.keys[key]
        text = (self.inputs.source[kernel] if lang == "c"
                else self.inputs.ir_text(kernel))
        if name is None:
            return text
        return text.replace(self.inputs.function[kernel].name + "(",
                            name + "(", 1)

    def fill(self, run: Run, server: serveload.Server) -> List[bytes]:
        """Compile every warm key once (closed loop, one connection)."""
        bodies = []
        for key, cell in enumerate(self.warm):
            status, cache, body = server.post(
                _payload(self.text(key, "c"), "c", cell[1]))
            run.check(status == 200 and cache == "miss",
                      f"warm {label(cell)}: {status} {cache}")
            bodies.append(body)
        return bodies


def check_records(run: Run, requests: Sequence[serveload.Request], records,
                  warm_bodies: Sequence[bytes]) -> Dict[int, bytes]:
    """Every hit replays its key's first body byte for byte, every miss
    compiles, every malformed request gets a structured 400.  Returns
    the miss bodies by key."""
    miss_bodies: Dict[int, bytes] = {}
    for request, record in zip(requests, records):
        where = f"request at {request.due_s:.3f}s ({request.kind})"
        if record is None:
            run.check(False, f"{where}: no response")
        elif request.kind == "hit":
            same = record.body == warm_bodies[request.key]
            run.check(record.status == 200 and record.cache == "hit" and same,
                      f"{where}: {record.status} {record.cache}, body "
                      f"{'equal' if same else 'differs'}")
        elif request.kind == "miss":
            run.check(record.status == 200 and record.cache == "miss",
                      f"{where}: {record.status} {record.cache}")
            miss_bodies[request.key] = record.body
        else:
            try:
                error = json.loads(record.body).get("error")
            except ValueError:
                error = None
            run.check(record.status == 400 and error == "bad-request",
                      f"{where}: {record.status} {error}")
    return miss_bodies


def check_bodies(run: Run, traffic: Traffic,
                 keyed: Sequence[Tuple[int, bytes]]) -> Dict[Cell, object]:
    """Re-compile each key in process: the served program text must be
    the in-process program's, and that program must match the
    interpreter.  Returns the in-process results by cell."""
    from repro.frontend import compile_c

    sessions: Dict[str, object] = {}
    results: Dict[Cell, object] = {}
    for key, body in keyed:
        cell, name = traffic.keys[key]
        (function,) = compile_c(traffic.text(key, "c"))
        if cell[1] not in sessions:
            sessions[cell[1]] = session(run, cell[1])
        result, _ = call(run, sessions[cell[1]], function,
                         f"{name or cell[0]}/{cell[1]}")
        results.setdefault(cell, result)
        run.check(json.loads(body).get("program") == result.program.dump(),
                  f"{name or cell[0]}/{cell[1]}: served program differs "
                  f"from the in-process compile")
        run.check(M.program_matches(function, result.program, run.rng),
                  f"{name or cell[0]}/{cell[1]}: program differs from the "
                  f"interpreter")
    return results


def request_events(run: Run, requests, records, dues) -> None:
    """One trace event per request, at its due time, a row per
    connection (process 2 of the trace file)."""
    for request, record, due in zip(requests, records, dues):
        if record is not None:
            run.layer.events.append({
                "name": f"request.{request.kind}", "ph": "X",
                "ts": (due - dues[0]) * 1e6, "dur": record.latency_s * 1e6,
                "pid": 2, "tid": record.connection,
                "args": {"status": record.status, "cache": record.cache,
                         "late_ms": record.late_s * 1e3},
            })


def connections(run: Run) -> int:
    return min(T.CONNECTIONS, run.nproc)


# -- the workloads ------------------------------------------------------------

class InProcess:
    """A closed loop of compiles in this process, one warm session per
    target; ``search_heavy`` and ``prove`` differ in cells and config."""

    config: Dict[str, object] = {}
    with_transval = False

    def setup(self, run: Run) -> None:
        self.inputs = Inputs([k for k, _ in self.cells])
        load_targets(run)
        self.sessions = {t: session(run, t, **self.config)
                         for t in T.TARGETS}
        self.order = rounds(run, self.cells)
        gc.collect()  # set-up's garbage is not the first op's

    def measure(self, run: Run) -> None:
        self.results: Dict[Cell, object] = {}
        self.reports: Dict[Cell, object] = {}
        spans = []
        start = time.monotonic()
        for cell in self.order:
            op_start = time.monotonic()
            result, report = call(run, self.sessions[cell[1]],
                                  self.inputs.function[cell[0]],
                                  label(cell), self.with_transval,
                                  collect=True)
            spans.append((op_start, time.monotonic()))
            self.results.setdefault(cell, result)
            self.reports.setdefault(cell, report)
        closed_loop_metrics(run, spans, (start, time.monotonic()))
        run.metrics["peak_rss_mb"] = M.peak_rss_mb()

    def check(self, run: Run) -> None:
        cost_metrics(run, self.results)
        check_programs(run, self.inputs, self.results)
        if self.with_transval:
            for cell, report in sorted(self.reports.items()):
                run.check(report.status == "proved",
                          f"{label(cell)}: TransVal {report.status}")

    def traced(self, run: Run) -> None:
        if not self.with_transval:
            for result in self.results.values():
                transval(run, result)
        layer_metrics(run, self.inputs, self.results)


class SearchHeavy(InProcess):
    def __init__(self, run: Run):
        self.cells = T.SMOKE["search_heavy"] if run.smoke else T.HEAVY_CELLS


class Prove(InProcess):
    config = {"exact": True, "exact_node_budget": T.EXACT_NODE_BUDGET}
    with_transval = True

    def __init__(self, run: Run):
        self.cells = T.SMOKE["prove"] if run.smoke else T.PROVE_CELLS


class CliLight:
    def __init__(self, run: Run):
        self.cells = T.SMOKE["cli_light"] if run.smoke else T.CLI_CELLS

    def setup(self, run: Run) -> None:
        self.inputs = Inputs([k for k, _ in self.cells])
        load_targets(run)
        src_dir = os.path.join(run.out_dir, "cli")
        os.makedirs(src_dir, exist_ok=True)
        self.files = {}
        for kernel, source in self.inputs.source.items():
            self.files[kernel] = os.path.join(src_dir, f"{kernel}.c")
            with open(self.files[kernel], "w") as handle:
                handle.write(source)
        self.order = rounds(run, self.cells)

    def measure(self, run: Run) -> None:
        """One CLI process at a time, on the main CPU like this one."""
        spans, self.outputs = [], []
        loop_start = time.monotonic()
        for cell in self.order:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "vectorize",
                 self.files[cell[0]], "--target", cell[1],
                 "--beam-width", str(T.BEAM_WIDTH)],
                cwd=run.root, env=run.env, capture_output=True, text=True,
                timeout=CLI_TIMEOUT_S)
            spans.append((start, time.monotonic()))
            self.outputs.append((cell, proc))
        self.wall_ms = [(b - a) * 1e3 for a, b in spans]
        closed_loop_metrics(run, spans, (loop_start, time.monotonic()))
        run.metrics["peak_rss_mb"] = M.peak_rss_mb(resource.RUSAGE_CHILDREN)

    def check(self, run: Run) -> None:
        """Each run exits 0 and prints the program the same cell compiles
        to in process."""
        sessions = {t: session(run, t) for t in T.TARGETS}
        self.results = {}
        for cell, proc in self.outputs:
            if cell not in self.results:
                self.results[cell], _ = call(
                    run, sessions[cell[1]], self.inputs.function[cell[0]],
                    label(cell))
            result = self.results[cell]
            run.check(proc.returncode == 0 and
                      _cli_program(proc.stdout) == result.program.dump(),
                      f"{label(cell)}: CLI exit {proc.returncode} or "
                      f"program differs from the in-process compile")
        cost_metrics(run, self.results)
        check_programs(run, self.inputs, self.results)

    def traced(self, run: Run) -> None:
        for result in self.results.values():
            transval(run, result)
        layer_metrics(run, self.inputs, self.results)
        # A CLI run is one process: start-up plus one in-process compile.
        m = run.metrics
        mean = sum(self.wall_ms) / len(self.wall_ms)
        startup = m["startup.import_ms"] + m["target.load_ms"]
        compile_ms = run.call_ms / run.calls
        run.notes["startup.import_ms"] = (
            f"with the first target load: {100 * startup / mean:.0f}% of "
            f"a {mean:.0f} ms CLI run")
        run.notes["vectorizer.select_packs_ms"] = (
            f"{100 * m['vectorizer.select_packs_ms'] / mean:.0f}% of a CLI "
            f"run; start-up, front end and compile cover "
            f"{100 * (startup + m['frontend.compile_c_ms'] + compile_ms) / mean:.0f}%")


def _cli_program(stdout: str) -> Optional[str]:
    """The vector program ``repro vectorize`` printed for its one
    function: the lines between the header and the cost lines."""
    lines = stdout.splitlines()
    try:
        first = next(i for i, ln in enumerate(lines) if ln.startswith("==="))
        last = next(i for i, ln in enumerate(lines)
                    if ln.startswith("scalar cost"))
    except StopIteration:
        return None
    return "\n".join(lines[first + 1:last])


class Serve:
    """``repro serve`` under an open loop at the workload's rate (the
    latency), then a closed-loop burst of the same mix over the same
    number of connections (the throughput: what the server sustains).
    The burst comes last so that its queue and garbage never reach the
    open loop: run in turns, a quarter of each at a time, the misses'
    median moved twice as much between runs (5.5% against 2.8%)."""

    def __init__(self, run: Run):
        tables = T.SMOKE_SERVE if run.smoke else T.SERVE
        self.load = tables[run.workload]

    def setup(self, run: Run) -> None:
        kernels = [k for k, _ in self.load.warm]
        if self.load.mix["miss"]:
            kernels += [k for k, _ in T.MISS_CELLS]
        self.inputs = Inputs(kernels)
        load_targets(run)
        self.traffic = Traffic(run, self.inputs, self.load,
                               T.OPEN_SHARE * run.seconds)
        run.server = serveload.Server(run.root, run.env)
        run.server.start()
        self.warm_bodies = self.traffic.fill(run, run.server)

    def measure(self, run: Run) -> None:
        port, conns = run.server.port, connections(run)
        time.sleep(SETTLE_S)
        self.records, start, _ = serveload.run_open_loop(
            port, self.traffic.open_loop, conns)
        # time.monotonic() each open-loop request was due
        self.dues = [start + r.due_s for r in self.traffic.open_loop]
        self.burst_records, *burst = serveload.run_open_loop(
            port, self.traffic.burst, conns)
        self.metrics_doc = run.server.metrics()
        run.metrics["peak_rss_mb"] = run.server.peak_rss_mb(self.metrics_doc)
        run.close()
        scaler = run.scaler()
        n = len(self.traffic.burst)
        burst_s = scaler.seconds(*burst)
        run.metrics["throughput_ops_s"] = n / burst_s
        run.notes["throughput_ops_s"] = (
            f"closed-loop burst: {n} requests in {burst_s:.2f} s "
            f"({burst[1] - burst[0]:.2f} s wall)")
        self.answered = []  # (request, record, latency in reference ms)
        for request, record, due in zip(self.traffic.open_loop, self.records,
                                        self.dues):
            if record is not None:
                self.answered.append((request, record, 1e3 * scaler.seconds(
                    due, due + record.latency_s)))
        latency_metrics(run, [ms for _, _, ms in self.answered],
                        [r.latency_s * 1e3 for _, r, _ in self.answered],
                        f" at {self.load.rate} req/s")
        by_kind = []
        for kind in ("hit", "miss", "bad"):
            ms = [ms for request, _, ms in self.answered
                  if request.kind == kind]
            if ms:
                by_kind.append(f"{kind} p50 {M.median(ms):.4g} ms "
                               f"(n={len(ms)})")
        late = [r.late_s * 1e3 for _, r, _ in self.answered]
        run.notes["latency_p50_ms"] += "; " + ", ".join(by_kind)
        run.notes["latency_tail_ms"] += (
            f"; generator sent p99 {M.percentile(late, 99):.3g} ms late")

    def check(self, run: Run) -> None:
        miss_bodies = check_records(
            run, self.traffic.open_loop + self.traffic.burst,
            self.records + self.burst_records, self.warm_bodies)
        sample = sorted(run.rng.sample(sorted(miss_bodies),
                                       min(CHECK_SAMPLE, len(miss_bodies))))
        keyed = (list(enumerate(self.warm_bodies))
                 + [(key, miss_bodies[key]) for key in sample])
        self.results = check_bodies(run, self.traffic, keyed)
        ratios = [json.loads(body)["cost_ratio"] for body in self.warm_bodies]
        run.metrics["geomean_cost_ratio"] = M.geomean(ratios)
        run.notes["geomean_cost_ratio"] = f"{len(ratios)} warm keys"
        run.digest = M.digest([body.decode("utf-8")
                               for body in self.warm_bodies])

    def traced(self, run: Run) -> None:
        for result in self.results.values():
            transval(run, result)
        layer_metrics(run, self.inputs, self.results, self.metrics_doc,
                      [(request, record)
                       for request, record, _ in self.answered])
        request_events(run, self.traffic.open_loop, self.records, self.dues)


WORKLOADS = {
    "search_heavy": SearchHeavy,
    "cli_light": CliLight,
    "serve_hits": Serve,
    "serve_misses": Serve,
    "prove": Prove,
}
