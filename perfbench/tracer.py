"""In-memory span tracer for the benchmark's traced run.

Spans are recorded only from the benchmark's own files: :func:`install_library`
and :func:`install_service` replace the public entry points of each layer *as
they are bound in the calling module* (``repro.core.compiler.score_sequence``,
not ``repro.core.plan_scoring.score_sequence``), so a leaf-level call made
from inside the subgraph compiler is not counted as a global-level one.  The
program's source is never modified; :meth:`Patches.restore` puts every
original back.

Every span updates per-name totals (inclusive seconds, self seconds, calls)
under a lock.  Spans of low-frequency layers are also kept as records
``(trace_id, span_id, parent_id, name, start, end)`` and written out when the
run ends; per-photon layers (``reduce_photon`` is called once per photon) are
aggregated only.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    """Span stacks per thread plus per-name aggregates."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, trace_id: str | None = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace_id is None:
            trace_id = parent[4] if parent is not None else None
        frame = [name, time.perf_counter(), 0.0, next(self._ids), trace_id,
                 parent[3] if parent is not None else None]
        stack.append(frame)
        return frame

    def exit(self, frame: list, keep: bool = True) -> float:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, start, child, span_id, trace_id, parent_id = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.seconds[name] += duration
            self.self_seconds[name] += duration - child
            self.calls[name] += 1
            if keep:
                self.spans.append((trace_id, span_id, parent_id, name, start, end))
        return duration

    def reset(self) -> None:
        """Forget everything recorded so far (call with no span open)."""
        with self._lock:
            for table in (self.seconds, self.self_seconds, self.calls, self.counts):
                table.clear()
            self.spans.clear()

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, name: str, fn, keep: bool = True):
        """``fn`` with every call recorded as a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame, keep)

        return traced

    def snapshot(self) -> dict:
        """Copies of the aggregates (for per-pass differences)."""
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "self_seconds": dict(self.self_seconds),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    def as_record(self) -> dict:
        record = self.snapshot()
        with self._lock:
            record["spans"] = [list(span) for span in self.spans]
        return record


def delta(after: dict, before: dict) -> dict:
    """Per-name differences of two :meth:`Tracer.snapshot` results."""
    return {
        kind: {
            name: value - before[kind].get(name, 0)
            for name, value in values.items()
        }
        for kind, values in after.items()
    }


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def method(self, tracer: Tracer, owner, attr: str, name: str, keep=True, after=None):
        """Trace ``owner.attr``; ``after(tracer, result)`` records counts."""
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, keep)
        if after is not None:
            @functools.wraps(original)
            def counted(*args, **kwargs):
                result = traced(*args, **kwargs)
                after(tracer, result)
                return result

            self.set(owner, attr, counted)
        else:
            self.set(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


#: Module-level functions called by ``EmitterCompiler._compile``, traced as
#: bound in ``repro.core.compiler``: ``attribute -> (layer name, keep spans)``.
COMPILER_FUNCTIONS = {
    "minimum_emitters": ("graphs.entanglement.min_emitters", True),
    "score_sequence": ("core.plan_scoring", True),
    "reduce_photon": ("core.strategies.reduce_photon", False),
    "verify_circuit_generates": ("circuit.validation", True),
    "lc_correction_gates": ("graphs.local_complementation", True),
    "schedule_circuit": ("circuit.timing", True),
    "compute_metrics": ("circuit.metrics", True),
}


def _count_partition(tracer: Tracer, result) -> None:
    tracer.count("core.partition.blocks", result.num_blocks)
    tracer.count("core.partition.stem_edges", result.num_stem_edges)
    tracer.count("core.partition.lc_ops", len(result.lc_operations))


def install_library(tracer: Tracer) -> Patches:
    """Trace the compiler's and the streaming compiler's layers."""
    from repro.core import compiler, streaming

    patches = Patches()
    for attr, (name, keep) in COMPILER_FUNCTIONS.items():
        patches.set(compiler, attr, tracer.wrap(name, getattr(compiler, attr), keep))
    # Methods of the classes the compiler instantiates; patched on the class,
    # which in the benchmark only the compiler calls.
    patches.method(tracer, compiler.GraphPartitioner, "partition", "core.partition",
                   after=_count_partition)
    patches.method(tracer, compiler.SubgraphCompiler, "compile_flexible",
                   "core.subgraph_compiler")
    patches.method(tracer, compiler.SubgraphScheduler, "schedule", "core.scheduler")
    patches.set(streaming, "reduce_photon",
                tracer.wrap("core.streaming.reduce", streaming.reduce_photon, keep=False))
    patches.method(tracer, streaming.StreamingReductionState, "admit_photon",
                   "core.streaming.admit", keep=False)
    return patches


#: Request header that makes the traced server forget its set-up traffic.
RESET_HEADER = "X-Trace-Reset"


def install_service(tracer: Tracer) -> Patches:
    """Trace the single-process server's request path (inside its process).

    Queue wait is the part of ``MicroBatcher.submit`` not spent in the
    ``BatchRunner.run`` call that executed the request's batch.
    """
    from repro.pipeline import runner
    from repro.pipeline.cache import ResultCache
    from repro.service import batcher, server

    patches = Patches()
    run_seconds: dict[int, float] = {}
    lock = threading.Lock()

    original_post = server._Handler._do_post

    def do_post(handler):
        # The client sends one marked request after its set-up traffic (cache
        # warm-up); everything recorded up to its end is forgotten.
        if handler.headers.get(RESET_HEADER):
            try:
                return original_post(handler)
            finally:
                tracer.reset()
        frame = tracer.enter("service.server.handle",
                             trace_id=handler.headers.get("X-Request-Id"))
        try:
            return original_post(handler)
        finally:
            tracer.exit(frame)

    patches.set(server._Handler, "_do_post", do_post)

    original_submit = batcher.MicroBatcher.submit

    def submit(self, job, timeout_seconds=None):
        frame = tracer.enter("service.batcher.submit")
        try:
            return original_submit(self, job, timeout_seconds)
        finally:
            spent = tracer.exit(frame)
            with lock:
                ran = run_seconds.pop(id(job), 0.0)
            tracer.count("service.batcher.wait_s", spent - ran)

    patches.set(batcher.MicroBatcher, "submit", submit)

    original_run = runner.BatchRunner.run

    def run(self, jobs):
        frame = tracer.enter("pipeline.runner.run")
        try:
            return original_run(self, jobs)
        finally:
            spent = tracer.exit(frame)
            tracer.count("service.batcher.batches", 1)
            tracer.count("service.batcher.batched_jobs", len(jobs))
            with lock:
                for job in jobs:
                    run_seconds[id(job)] = spent

    patches.set(runner.BatchRunner, "run", run)

    original_get = ResultCache.get

    def get(self, key):
        frame = tracer.enter("pipeline.cache.get")
        try:
            found = original_get(self, key)
        finally:
            tracer.exit(frame)
        if found is not None:
            tracer.count("pipeline.cache.hits", 1)
        return found

    patches.set(ResultCache, "get", get)
    patches.method(tracer, ResultCache, "put", "pipeline.cache.put")
    patches.set(runner, "run_job", tracer.wrap("pipeline.jobs.run_job", runner.run_job))
    return patches
