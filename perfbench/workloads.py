"""The benchmark's workloads: seeded input generators, runs and checks.

Every workload builds its inputs from the ``--seed`` it is given; the program
under test only ever sees the generated inputs.  Each run measures in one
process with at most two client threads, because the reference machine has
two cores; set-up also times a fresh import in a short-lived interpreter, and
``service_mix`` drives a ``repro serve`` subprocess.  Why each workload exists
is recorded next to its generator (``WHY``).

Timed regions contain only calls into the program.  Output checks
(:mod:`checks`) and the machine-speed probes (:mod:`speed`) run outside them;
a failing output counts into ``failed``.
"""

from __future__ import annotations

import gc
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import checks
import speed
from repro.core.compile_cache import reset_process_cache
from repro.core.compiler import compile_graph
from repro.core.strategies import greedy_reduce
from repro.core.streaming import compile_stream
from repro.graphs.lazy import make_stream_spec
from repro.pipeline.jobs import BatchJob, GraphSpec, run_job
from repro.service.client import ServiceClient, ServiceError
from tracer import RESET_HEADER, Tracer, delta, install_library

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Per-layer metrics of the traced run, with units.  Library layers are per
#: pass over the workload's inputs; service layers are per request.  A layer
#: a workload does not exercise reads 0.
PER_LAYER = {
    "core.compiler.s": "s/pass",
    "core.compiler.self_s": "s/pass",
    "core.subgraph_compiler.s": "s/pass",
    "core.subgraph_compiler.calls": "count/pass",
    "core.compile_cache.hits": "count/pass",
    "core.compile_cache.misses": "count/pass",
    "core.compile_cache.hit_rate": "ratio",
    "core.partition.s": "s/pass",
    "core.partition.blocks": "count/pass",
    "core.partition.stem_edges": "count/pass",
    "core.partition.lc_ops": "count/pass",
    "circuit.validation.s": "s/pass",
    "core.strategies.reduce_photon.s": "s/pass",
    "core.strategies.reduce_photon.calls": "count/pass",
    "core.plan_scoring.s": "s/pass",
    "core.plan_scoring.candidates": "count/pass",
    "graphs.entanglement.min_emitters.s": "s/pass",
    "core.scheduler.s": "s/pass",
    "graphs.local_complementation.s": "s/pass",
    "circuit.timing.s": "s/pass",
    "circuit.metrics.s": "s/pass",
    "core.streaming.s": "s/pass",
    "core.streaming.reduce.s": "s/pass",
    "core.streaming.admit.s": "s/pass",
    "core.streaming.peak_window_photons": "count",
    "core.streaming.peak_traced_bytes": "bytes",
    "service.server.handle.s": "s/req",
    "service.batcher.wait.s": "s/req",
    "service.batcher.batch_size": "count/batch",
    "pipeline.runner.run.s": "s/req",
    "pipeline.cache.get.s": "s/req",
    "pipeline.cache.put.s": "s/req",
    "pipeline.cache.hits": "1/req",
    "pipeline.jobs.run_job.s": "s/req",
    "service.http.s": "s/req",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "trace.coverage": "ratio",
}

#: End-to-end metrics every workload reports (tracing off), with units.
END_TO_END = {
    "setup_s": "s",
    "vertices_per_s": "vertex/s",
    "req_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ee_cnots": "count",
    "emitters": "count",
}


@dataclass
class Metric:
    value: float | None
    unit: str
    samples: int


@dataclass
class Outcome:
    """What one run measured and found."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    #: Printed but not part of the result line (they do not apply to every
    #: workload, or a percentile lacks the samples to be reported).
    extra: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None
    #: Raw timings (seconds) behind the metrics, for the results record.
    samples: dict = field(default_factory=dict)

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def percentile(values, q: float) -> float | None:
    """The ``q``-quantile, or ``None`` unless ten samples lie beyond it."""
    values = sorted(values)
    if len(values) * (1.0 - q) < 10:
        return None
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 1000) - 1]


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def fresh_import(modules: str) -> None:
    """Import the program in a new interpreter (part of every set-up)."""
    subprocess.run([sys.executable, "-c", f"import {modules}"], env=program_env(),
                   cwd=ROOT, check=True)


def probed_set_up(build):
    """``(result, (raw seconds, corrected seconds))`` of one set-up; the
    probes around it correct it to the reference machine speed (speed.py)."""
    before = speed.probe()
    started = time.perf_counter()
    result = build()
    took = time.perf_counter() - started
    after = speed.probe()
    return result, (took, took / ((before + after) / 2.0))


def report_setup(outcome: Outcome, setups: list[tuple[float, float]]) -> None:
    """``setup_s`` is the median corrected set-up time; the raw one is printed."""
    outcome.metrics["setup_s"] = Metric(median(c for _, c in setups), "s", len(setups))
    outcome.extra["setup_s.raw"] = Metric(median(r for r, _ in setups), "s", len(setups))


def layer_figures(traced: dict, root: str, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced pass (``traced`` is a tracer delta)."""
    seconds, calls, counts = traced["seconds"], traced["calls"], traced["counts"]
    figures = {f"{name}.s": value for name, value in seconds.items() if name != root}
    figures[f"{root}.s"] = seconds.get(root, 0.0)
    figures["core.compiler.self_s"] = traced["self_seconds"].get("core.compiler", 0.0)
    figures["core.subgraph_compiler.calls"] = calls.get("core.subgraph_compiler", 0)
    figures["core.strategies.reduce_photon.calls"] = calls.get(
        "core.strategies.reduce_photon", 0)
    figures["core.plan_scoring.candidates"] = calls.get("core.plan_scoring", 0)
    figures.update(counts)
    # Every layer time plus the root's self time must account for the wall
    # time the benchmark measured around the root calls: more means a layer
    # was counted twice, less means time escaped the root span.
    covered = sum(v for k, v in seconds.items() if k != root)
    covered += traced["self_seconds"].get(root, 0.0)
    figures["trace.coverage"] = covered / wall if wall > 0 else 0.0
    return figures


# --------------------------------------------------------------------------- #
# Library workloads: compile passes over a fixed input list
# --------------------------------------------------------------------------- #


class LibraryWorkload:
    """Repeated passes over seeded inputs, each input compiled once per pass."""

    name = ""
    WHY = ""
    #: Name of the span around each timed call in the traced run.
    root = ""
    modules = ""

    def inputs(self, rng: random.Random) -> list:
        raise NotImplementedError

    def prepare(self, spec):
        return spec

    def warm_up(self, inputs) -> None:
        raise NotImplementedError

    def compile(self, prepared):
        raise NotImplementedError

    def vertices(self, prepared, result) -> int:
        raise NotImplementedError

    def check(self, key, prepared, result) -> list[str]:
        raise NotImplementedError

    def quality(self, results: list, extra: dict[str, Metric]) -> dict[str, Metric]:
        """Summed quality metrics; ones that are not end-to-end go to ``extra``."""
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Checks run once after the passes."""
        return []

    def result_figures(self, results: list) -> dict[str, float]:
        """Per-layer figures read from the outputs of one traced pass."""
        return {}

    def run_figures(self, items) -> dict[str, float]:
        """Per-layer figures measured once per traced run, after the passes."""
        return {}

    # ------------------------------------------------------------------ #

    def set_up(self, seed: int):
        def build():
            fresh_import(self.modules)
            specs = self.inputs(random.Random(seed))
            items = [(index, self.prepare(spec)) for index, spec in enumerate(specs)]
            self.warm_up(specs)
            return items

        return probed_set_up(build)

    def one_pass(self, items, outcome: Outcome, tracer: Tracer | None,
                 speeds: speed.SpeedLog | None = None) -> dict:
        """Compile every input once: ``key -> (seconds, vertices, result)``.

        With ``speeds``, each compile is bracketed by machine-speed probes.
        """
        done = {}
        for key, prepared in items:
            self.before_each()
            outcome.attempted += 1
            before = speeds.probe(key) if speeds is not None else None
            frame = tracer.enter(self.root) if tracer is not None else None
            start = time.perf_counter()
            try:
                result = self.compile(prepared)
            except Exception as exc:  # noqa: BLE001 - a failed compile is a counted failure
                outcome.fail([f"input {key}: {type(exc).__name__}: {exc}"])
                continue
            finally:
                elapsed = time.perf_counter() - start
                if frame is not None:
                    tracer.exit(frame)
                if speeds is not None:
                    speeds.add(key, before, speeds.probe(key), elapsed)
            done[key] = (elapsed, self.vertices(prepared, result), result)
            outcome.fail(self.check(key, prepared, result))
        return done

    @staticmethod
    def drop_results(done: dict) -> dict:
        """Keep only the timings, so kept outputs do not grow the heap."""
        return {key: (elapsed, vertices, None) for key, (elapsed, vertices, _) in done.items()}

    def before_each(self) -> None:
        # Untimed: garbage left by the checks or the previous compile is not
        # collected inside the next timed call.
        gc.collect()

    def run(self, seed: int, seconds: float, trace: bool) -> Outcome:
        outcome = Outcome()
        setups = []
        for _ in range(SETUP_REPEATS):
            items, took = self.set_up(seed)
            setups.append(took)
        speeds = speed.SpeedLog()

        # Passes alternate untraced/traced in the traced run; the end-to-end
        # figures come from untraced passes only.
        untraced: list[dict] = []
        traced: list[dict] = []
        tracer = Tracer() if trace else None
        layers: list[dict[str, float]] = []
        measured = 0.0  # timed seconds so far; untimed checks do not count
        rss = None
        while True:
            if trace and len(traced) < len(untraced):
                patches = install_library(tracer)
                before = tracer.snapshot()
                try:
                    done = self.one_pass(items, outcome, tracer)
                finally:
                    patches.restore()
                wall = sum(elapsed for elapsed, _, _ in done.values())
                figures = layer_figures(delta(tracer.snapshot(), before), self.root, wall)
                figures.update(self.result_figures([r for _, _, r in done.values()]))
                layers.append(figures)
                traced.append(self.drop_results(done))
            else:
                done = self.one_pass(items, outcome, None, speeds)
                # The first pass's outputs are kept for the quality metrics.
                untraced.append(done if not untraced else self.drop_results(done))
                if rss is None:
                    # Read after a fixed amount of work, so the figure does
                    # not grow with the number of passes that fit in a run.
                    rss = peak_rss_mb()
            last = sum(elapsed for elapsed, _, _ in done.values())
            measured += last
            balanced = not trace or len(traced) == len(untraced)
            if balanced and measured + last > seconds:
                break

        # Each input's time is its median over passes, which keeps one slow
        # pass (a collection, a noisy neighbour) from moving the figures.
        per_input = {key: [p[key][0] for p in untraced if key in p] for key, _ in items}
        per_input = {key: times for key, times in per_input.items() if times}
        if not per_input:
            outcome.fail(["no input compiled"])
            return outcome
        outcome.samples = {str(key): times for key, times in per_input.items()}
        total = sum(median(times) for times in per_input.values())
        vertices = sum(untraced[0][key][1] for key in per_input if key in untraced[0])
        outcome.fail(self.final_checks())
        report_setup(outcome, setups)
        # Throughput at the reference machine speed (see speed.py); the raw
        # figures are printed beside it.
        slowdown = speeds.slowdown()
        outcome.extra["speed.slowdown"] = Metric(slowdown, "ratio", speeds.probes)
        for name, part in zip(("interpreter", "memory"), speeds.parts()):
            outcome.extra[f"speed.{name}"] = Metric(part, "ratio", speeds.probes)
        outcome.extra["vertices_per_s.raw"] = Metric(vertices / total, "vertex/s", len(untraced))
        outcome.extra["req_per_s.raw"] = Metric(len(per_input) / total, "1/s", len(untraced))
        total /= slowdown
        outcome.metrics["vertices_per_s"] = Metric(vertices / total, "vertex/s", len(untraced))
        outcome.metrics["req_per_s"] = Metric(len(per_input) / total, "1/s", len(untraced))
        outcome.metrics["peak_rss_mb"] = Metric(rss, "MB", 1)
        outcome.metrics.update(
            self.quality([r for _, _, r in untraced[0].values()], outcome.extra))
        samples = [t for times in per_input.values() for t in times]
        outcome.extra["compile_s.p50"] = Metric(percentile(samples, 0.5), "s", len(samples))
        if trace:
            figures = {name: median(f.get(name, 0.0) for f in layers) for name in PER_LAYER}
            figures.update(self.run_figures(items))
            plain = median(sum(t for t, _, _ in p.values()) for p in untraced)
            figures["trace.overhead_s"] = median(
                sum(t for t, _, _ in p.values()) for p in traced) - plain
            figures["trace.overhead_pct"] = 100.0 * figures["trace.overhead_s"] / plain
            outcome.trace = {"passes": layers, "tracer": tracer.as_record()}
            for figure in layers:
                if abs(figure["trace.coverage"] - 1.0) > 0.02:
                    outcome.fail([f"traced layers cover {figure['trace.coverage']:.3f} "
                                  "of the traced compile time"])
            outcome.extra.update(outcome.metrics)
            outcome.metrics = {
                name: Metric(figures.get(name, 0.0), unit, len(layers))
                for name, unit in PER_LAYER.items()
            }
        return outcome

class CompileWorkload(LibraryWorkload):
    """Graph in, verified circuit out: ``compile_graph(graph, verify=True)``."""

    root = "core.compiler"
    modules = "repro.core.compiler, repro.pipeline.jobs"

    def __init__(self) -> None:
        self.ledger = checks.CircuitLedger()

    def prepare(self, spec):
        return spec.build()

    def warm_up(self, specs) -> None:
        for family in sorted({spec.family for spec in specs}):
            reset_process_cache()
            compile_graph(GraphSpec(family, 5 if family == "surface" else 16).build(),
                          verify=True)

    def before_each(self) -> None:
        reset_process_cache()
        super().before_each()

    def compile(self, graph):
        return compile_graph(graph, verify=True)

    def vertices(self, graph, result) -> int:
        return graph.num_vertices

    def check(self, key, graph, result) -> list[str]:
        return self.ledger.check(key, graph, result)

    def quality(self, results, extra) -> dict[str, Metric]:
        n = len(results)
        losses = [r.metrics.photon_loss_probability or 0.0 for r in results]
        extra["circuit_duration"] = Metric(sum(r.metrics.duration for r in results), "ns", n)
        extra["photon_loss"] = Metric(sum(losses) / n if n else None, "prob", n)
        return {
            "ee_cnots": Metric(sum(r.metrics.num_emitter_emitter_cnots for r in results),
                               "count", n),
            "emitters": Metric(sum(r.metrics.num_emitters for r in results), "count", n),
        }

    def result_figures(self, results) -> dict[str, float]:
        hits = sum((r.subgraph_cache_stats or {}).get("hits", 0) for r in results)
        misses = sum((r.subgraph_cache_stats or {}).get("misses", 0) for r in results)
        return {
            "core.compile_cache.hits": hits,
            "core.compile_cache.misses": misses,
            "core.compile_cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }


class ZooCold(CompileWorkload):
    name = "zoo_cold"
    WHY = ("zoo graphs at 64 and 128 vertices with the leaf cache reset per compile: "
           "little leaf sharing, so the leaf ordering search dominates")
    FAMILIES = ("tree", "waxman", "regular", "smallworld", "erdos", "percolated")
    #: Each family and size is drawn twice, so one unusually easy or hard
    #: draw moves a run less.
    INSTANCES = 2

    def inputs(self, rng):
        return [GraphSpec(family, size, rng.randrange(1, 10**9))
                for family in self.FAMILIES for size in (64, 128)
                for _ in range(self.INSTANCES)]


class LargeStructured(CompileWorkload):
    name = "large_structured"
    WHY = ("structured graphs of about 400 vertices with heavy leaf sharing: partition, "
           "tableau verification and global reduction dominate")
    #: ``(family, size, instances)``: the seeded families are drawn twice, so
    #: one unusually easy or hard draw moves a run less.  Surface size is the
    #: code distance (337 vertices); lattice and surface do not use the seed.
    GRAPHS = (("lattice", 400, 1), ("surface", 15, 1), ("percolated", 400, 2),
              ("tree", 400, 2), ("regular", 400, 2))

    def inputs(self, rng):
        return [GraphSpec(family, size, rng.randrange(1, 10**9))
                for family, size, instances in self.GRAPHS for _ in range(instances)]


class StreamHuge(LibraryWorkload):
    name = "stream_huge"
    WHY = ("region-by-region streamed compiles of 5x10^4-vertex lattice and 10^5-vertex GHZ "
           "states and a percolated lattice whose emitter count grows with n")
    STREAMS = (("lattice", 51200), ("ghz", 102400), ("percolated", 6400))
    #: Sizes of the small specs checked bit for bit against the whole-graph
    #: reduction.
    ORACLE_SIZES = {"lattice": 400, "ghz": 300, "percolated": 400}
    root = "core.streaming"
    modules = "repro.core.streaming, repro.graphs.lazy"

    def __init__(self) -> None:
        self.summaries: dict[object, tuple] = {}
        self.seeds: dict[str, int] = {}

    def inputs(self, rng):
        self.seeds = {family: rng.randrange(1, 10**9) for family, _ in self.STREAMS}
        return [(family, size, self.seeds[family]) for family, size in self.STREAMS]

    def prepare(self, spec):
        family, size, seed = spec
        return make_stream_spec(family, size, seed=seed)

    def warm_up(self, specs) -> None:
        for family, _, seed in specs:
            compile_stream(make_stream_spec(family, 256, seed=seed))

    def compile(self, spec):
        return compile_stream(spec)

    def vertices(self, spec, result) -> int:
        return result.num_vertices

    def check(self, key, spec, result) -> list[str]:
        problems = [f"stream {key}: {p}" for p in checks.check_stream(spec, result)]
        summary = checks.stream_summary(result)
        if self.summaries.setdefault(key, summary) != summary:
            problems.append(f"stream {key}: differs from the first compile of the same spec")
        return problems

    def final_checks(self) -> list[str]:
        problems = []
        for family, size in self.ORACLE_SIZES.items():
            spec = make_stream_spec(family, size, seed=self.seeds[family])
            problems += checks.check_stream_oracle(
                compile_stream(spec, collect_operations=True),
                greedy_reduce(spec.materialize()),
            )
        return problems

    def quality(self, results, extra) -> dict[str, Metric]:
        n = len(results)
        return {
            "ee_cnots": Metric(sum(r.num_emitter_emitter_gates for r in results), "count", n),
            "emitters": Metric(sum(r.num_emitters for r in results), "count", n),
        }

    def result_figures(self, results) -> dict[str, float]:
        return {"core.streaming.peak_window_photons":
                max((r.peak_window_photons for r in results), default=0)}

    def run_figures(self, items) -> dict[str, float]:
        # tracemalloc slows the stream about ninefold, so only the percolated
        # stream (the one whose memory grows with n) is measured under it.
        spec = next(spec for _, spec in items if spec.family == "percolated")
        tracemalloc.start()
        try:
            self.compile(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return {"core.streaming.peak_traced_bytes": peak}


# --------------------------------------------------------------------------- #
# Service workload: closed loop against a `repro serve` subprocess
# --------------------------------------------------------------------------- #


class Server:
    """One ``repro serve`` process with default settings and a fresh cache."""

    def __init__(self, workdir: Path, trace_path: Path | None = None):
        self.workdir = Path(tempfile.mkdtemp(prefix="server-", dir=workdir))
        args = ["--port", "0", "--cache-dir", str(self.workdir / "cache")]
        if trace_path is None:
            command = [sys.executable, "-m", "repro.cli", "serve", *args]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), str(trace_path), *args]
        self.log = open(self.workdir / "server.log", "w+")
        self.process = subprocess.Popen(command, stdout=self.log, stderr=subprocess.STDOUT,
                                        env=program_env(), cwd=ROOT)
        self.url = self._wait_for_address()

    def _wait_for_address(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.log.seek(0)
            found = re.search(r"listening on (http://[\d.]+:\d+)", self.log.read())
            if found:
                return found.group(1)
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise RuntimeError("repro serve did not come up")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


class ServiceMix:
    name = "service_mix"
    WHY = ("2 closed-loop clients against repro serve: 90% repeats of 24 pre-warmed "
           "payloads (cache reads), 10% unique seeds (compile plus cache write)")
    FAMILIES = ("lattice", "tree", "waxman", "regular", "smallworld", "erdos")
    HOT, SIZE, MISS_SHARE, CLIENTS = 24, 24, 0.10, 2

    def payload(self, family: str, seed: int) -> dict:
        return {"family": family, "size": self.SIZE, "seed": seed, "kind": "compile"}

    def hot_payloads(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        return [self.payload(self.FAMILIES[i % len(self.FAMILIES)], rng.randrange(1, 10**9))
                for i in range(self.HOT)]

    def set_up(self, workdir: Path, hot: list[dict], trace_path: Path | None = None):
        """Start a server and warm its cache with the hot payloads."""
        def build():
            server = Server(workdir, trace_path)
            try:
                client = ServiceClient(server.url, timeout=60)
                client.wait_until_ready(timeout=60)
                return server, [client.compile_payload(payload) for payload in hot]
            except BaseException:
                server.stop()
                raise

        (server, warm), took = probed_set_up(build)
        return server, warm, took

    def closed_loop(self, url: str, hot: list[dict], seconds: float, label: str,
                    mark_first: bool = False) -> tuple[list, float]:
        """Two clients, each sending its next request when the last returns."""
        records: list[tuple[float, dict, object]] = []
        lock = threading.Lock()
        used_seeds: set[int] = set()
        if mark_first:
            # Sent alone, so the traced server drops its set-up traffic
            # before any measured request arrives.
            ServiceClient(url, timeout=60).compile_payload(hot[0], headers={RESET_HEADER: "1"})
        stop_at = time.perf_counter() + seconds

        def client_loop(index: int) -> None:
            rng = random.Random(f"{label}-{index}")
            client = ServiceClient(url, timeout=60)
            while time.perf_counter() < stop_at:
                if rng.random() < self.MISS_SHARE:
                    # Miss seeds lie above every hot seed and are never reused.
                    seed = 10**9 + rng.randrange(10**9)
                    with lock:
                        if seed in used_seeds:
                            continue
                        used_seeds.add(seed)
                    payload = self.payload(rng.choice(self.FAMILIES), seed)
                else:
                    payload = rng.choice(hot)
                headers = {"X-Request-Id": uuid.uuid4().hex}
                start = time.perf_counter()
                try:
                    body = client.compile_payload(payload, headers=headers)
                except ServiceError as exc:
                    body = {"ok": False, "error": str(exc)}
                latency = time.perf_counter() - start
                with lock:
                    records.append((latency, payload, body))

        started = time.perf_counter()
        threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return records, time.perf_counter() - started

    def run(self, seed: int, seconds: float, trace: bool) -> Outcome:
        outcome = Outcome()
        hot = self.hot_payloads(seed)
        workdir = Path(tempfile.mkdtemp(prefix="service_mix-", dir=output_dir()))
        try:
            return self._run(outcome, workdir, hot, seed, seconds, trace)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _run(self, outcome, workdir, hot, seed, seconds, trace) -> Outcome:
        setups = []
        for repeat in range(SETUP_REPEATS):
            server, warm, took = self.set_up(workdir, hot)
            setups.append(took)
            if repeat < SETUP_REPEATS - 1:
                server.stop()
        phase = seconds / 2 if trace else seconds
        try:
            records, elapsed = self.closed_loop(server.url, hot, phase, f"{seed}-plain")
            rss = peak_rss_mb(server.process.pid)
        finally:
            server.stop()
        all_records = list(records)
        traced_records = server_trace = None
        if trace:
            trace_path = workdir / "server-trace.json"
            traced_server, _, _ = self.set_up(workdir, hot, trace_path)
            try:
                traced_records, _ = self.closed_loop(
                    traced_server.url, hot, phase, f"{seed}-traced", mark_first=True)
            finally:
                traced_server.stop()
            server_trace = json.loads(trace_path.read_text())
            all_records += traced_records

        self.check(outcome, hot, warm, all_records)
        latencies = [latency for latency, _, _ in records]
        outcome.samples = {"latency_s": latencies}
        vertices = sum((body.get("result") or {}).get("num_qubits", 0)
                       for _, _, body in records if body.get("ok"))
        report_setup(outcome, setups)
        # Not speed-corrected: the request rate is set by the 20 ms batch
        # window rather than by CPU speed.
        outcome.metrics["vertices_per_s"] = Metric(vertices / elapsed, "vertex/s", len(records))
        outcome.metrics["req_per_s"] = Metric(len(records) / elapsed, "1/s", len(records))
        outcome.metrics["peak_rss_mb"] = Metric(rss, "MB", 1)
        quality = [checks.response_quality(body) or {} for body in warm]
        n = len(quality)
        extra = outcome.extra
        outcome.metrics["ee_cnots"] = Metric(
            sum(q.get("num_emitter_emitter_cnots", 0) for q in quality), "count", n)
        outcome.metrics["emitters"] = Metric(sum(q.get("num_emitters", 0) for q in quality),
                                             "count", n)
        extra["latency_ms.p50"] = Metric(_ms(percentile(latencies, 0.5)), "ms", len(latencies))
        extra["latency_ms.p99"] = Metric(_ms(percentile(latencies, 0.99)), "ms", len(latencies))
        extra["circuit_duration"] = Metric(sum(q.get("duration", 0.0) for q in quality), "ns", n)
        extra["photon_loss"] = Metric(
            sum(q.get("photon_loss_probability") or 0.0 for q in quality) / n, "prob", n)
        if trace:
            extra.update(outcome.metrics)
            outcome.metrics = self.layer_metrics(records, traced_records, server_trace)
            outcome.trace = {"server": server_trace}
        return outcome

    def check(self, outcome: Outcome, hot, warm, records) -> None:
        references: dict[str, dict] = {}

        def reference(payload: dict) -> dict:
            key = repr(sorted(payload.items()))
            if key not in references:
                ours = dict(run_job(BatchJob.from_dict(payload))["ours"])
                ours.pop("compile_time_seconds", None)
                references[key] = ours
            return references[key]

        for payload, body in [*zip(hot, warm), *((p, b) for _, p, b in records)]:
            outcome.attempted += 1
            outcome.fail([f"{payload}: {p}"
                          for p in checks.check_response(body, reference(payload))])

    def layer_metrics(self, plain, traced, server_trace) -> dict[str, Metric]:
        seconds, counts = server_trace["seconds"], server_trace["counts"]
        handled = server_trace["calls"].get("service.server.handle", 0) or 1
        mean_plain = statistics.fmean(latency for latency, _, _ in plain)
        mean_traced = statistics.fmean(latency for latency, _, _ in traced)
        handle = seconds.get("service.server.handle", 0.0) / handled
        figures = {
            "service.server.handle.s": handle,
            "service.batcher.wait.s": counts.get("service.batcher.wait_s", 0.0) / handled,
            "service.batcher.batch_size": counts.get("service.batcher.batched_jobs", 0.0)
            / max(counts.get("service.batcher.batches", 0.0), 1.0),
            "pipeline.runner.run.s": seconds.get("pipeline.runner.run", 0.0) / handled,
            "pipeline.cache.get.s": seconds.get("pipeline.cache.get", 0.0) / handled,
            "pipeline.cache.put.s": seconds.get("pipeline.cache.put", 0.0) / handled,
            "pipeline.cache.hits": counts.get("pipeline.cache.hits", 0.0) / handled,
            "pipeline.jobs.run_job.s": seconds.get("pipeline.jobs.run_job", 0.0) / handled,
            "service.http.s": mean_traced - handle,
            "trace.overhead_s": mean_traced - mean_plain,
            "trace.overhead_pct": 100.0 * (mean_traced - mean_plain) / mean_plain,
        }
        return {name: Metric(figures.get(name, 0.0), unit, len(traced))
                for name, unit in PER_LAYER.items()}


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1000.0


def output_dir() -> Path:
    """Where a run keeps its temporary files and results (inside the checkout)."""
    path = ROOT / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


WORKLOADS = {w.name: w for w in (ZooCold, LargeStructured, ServiceMix, StreamHuge)}
