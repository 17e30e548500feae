"""The ``/compile`` request path: cache first, then single-flight compiles.

The HTTP server handles every request on its own thread
(:class:`http.server.ThreadingHTTPServer`).  :meth:`MicroBatcher.submit`
answers a request in one of three ways, none of which waits for a batching
window:

* **cache hit** — the runner's :class:`repro.pipeline.cache.ResultCache` is
  read on the request thread and a stored result returns at once;
* **leader** — the first request for a content hash that is not already
  being compiled is queued for the single compile thread;
* **follower** — a request identical to one already in flight waits on the
  leader's event and returns its outcome with ``coalesced=True``.

The compile thread takes everything queued so far (no waiting for
stragglers), executes it as one :meth:`repro.pipeline.runner.BatchRunner.run`
call — which keeps process-pool dispatch when the runner has more than one
worker — and then wakes each leader together with its followers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.pipeline.jobs import BatchJob
from repro.pipeline.runner import BatchRunner, JobOutcome

__all__ = ["BatcherStats", "MicroBatcher"]


@dataclass
class BatcherStats:
    """Counters of the request path so far (updated under the batcher lock)."""

    requests: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    batches: int = 0
    batched_jobs: int = 0
    largest_batch: int = 0

    def as_dict(self) -> dict:
        """JSON-serialisable snapshot (served by ``/healthz``)."""
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "mean_batch_size": self.batched_jobs / self.batches if self.batches else 0.0,
        }


@dataclass
class _Pending:
    """One job being compiled, shared by its leader and any followers."""

    job: BatchJob
    done: threading.Event = field(default_factory=threading.Event)
    outcome: JobOutcome | None = None


class MicroBatcher:
    """Answer jobs from the cache, or compile each distinct job once.

    Parameters
    ----------
    runner : BatchRunner
        Executes the queued jobs; its ``cache`` (``None`` when caching is
        off) is read on the request thread before anything is queued.
    """

    def __init__(self, runner: BatchRunner):
        self.runner = runner
        self.stats = BatcherStats()
        # Guards the queue, the in-flight map, the closed flag and stats.
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queue: list[_Pending] = []
        self._inflight: dict[str, _Pending] = {}
        self._closed = False
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-microbatcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #

    def submit(self, job: BatchJob, timeout_seconds: float | None = None) -> JobOutcome:
        """Answer ``job`` from the cache, or block until it has been compiled.

        Parameters
        ----------
        job : BatchJob
            The compilation job to run.
        timeout_seconds : float | None, optional
            Per-request watchdog bound: when the outcome is not available
            within this many wall-clock seconds, return a structured
            timeout outcome (``error_kind="timeout"``) instead of blocking
            forever.  The compile keeps running to completion — Python
            threads cannot be interrupted — but the caller's thread (and
            its HTTP connection) is released immediately.

        Returns
        -------
        JobOutcome
            The job's outcome; failures are captured in ``outcome.error``
            rather than raised (matching the pipeline's semantics).
        """
        key = job.content_hash
        cache = self.runner.cache
        cached = cache.get(key) if cache is not None else None
        with self._lock:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            self.stats.requests += 1
            if cached is not None:
                self.stats.cache_hits += 1
                return JobOutcome(job=job, result=cached, cache_hit=True)
            pending = self._inflight.get(key)
            leader = pending is None
            if leader:
                pending = self._inflight[key] = _Pending(job=job)
                self._queue.append(pending)
                self._wake.notify()
            else:
                self.stats.coalesced += 1
        if not pending.done.wait(timeout=timeout_seconds):
            return JobOutcome(
                job=job,
                result=None,
                error=(
                    f"compile watchdog: no outcome within {timeout_seconds:g}s "
                    f"for {job.label}"
                ),
                error_kind="timeout",
                elapsed_seconds=float(timeout_seconds),
            )
        outcome = pending.outcome
        assert outcome is not None
        if leader:
            return outcome
        return JobOutcome(
            job=job,
            result=outcome.result,
            error=outcome.error,
            error_kind=outcome.error_kind,
            coalesced=outcome.error is None,
        )

    def stats_snapshot(self) -> dict:
        """A consistent copy of :attr:`stats` (served by ``/healthz``)."""
        with self._lock:
            return self.stats.as_dict()

    def close(self, timeout: float = 5.0) -> None:
        """Stop the compile thread; jobs still queued are failed, not run."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wake.notify()
        self._thread.join(timeout=timeout)
        with self._lock:
            cancelled, self._queue = self._queue, []
        self._finish(
            cancelled,
            [JobOutcome(job=p.job, result=None, error="service shut down") for p in cancelled],
        )

    # ------------------------------------------------------------------ #

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._wake.wait()
                if self._closed:
                    return
                batch, self._queue = self._queue, []
                self.stats.batches += 1
                self.stats.batched_jobs += len(batch)
                self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
            try:
                outcomes = self.runner.run([pending.job for pending in batch]).outcomes
            except Exception as exc:  # noqa: BLE001 - fail the batch, not the server
                error = f"{type(exc).__name__}: {exc}"
                outcomes = [
                    JobOutcome(job=pending.job, result=None, error=error)
                    for pending in batch
                ]
            self._finish(batch, outcomes)

    def _finish(self, batch: list[_Pending], outcomes: list[JobOutcome]) -> None:
        """Publish outcomes, retire the in-flight entries, wake the waiters."""
        with self._lock:
            for pending, outcome in zip(batch, outcomes):
                pending.outcome = outcome
                del self._inflight[pending.job.content_hash]
                pending.done.set()
