"""The batch runner: fan jobs across processes, cache results, keep metrics.

:class:`BatchRunner` executes a list of :class:`repro.pipeline.jobs.BatchJob`
descriptions and returns a :class:`BatchReport`:

* with ``max_workers=1`` (the default) jobs run serially in-process, which is
  deterministic, picklable-free and what the figure sweeps use under pytest;
* with ``max_workers>1`` uncached jobs are dispatched to a
  :class:`concurrent.futures.ProcessPoolExecutor`, one future per job, and
  results are reassembled in submission order;
* a :class:`repro.pipeline.cache.ResultCache` (enabled by passing
  ``cache_dir``) is consulted before any work is dispatched and updated with
  every fresh result, so a repeated sweep only pays for jobs it has not seen.

A failing job never takes the batch down: its exception is captured in the
corresponding :class:`JobOutcome` and the remaining jobs keep running.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.pipeline.cache import ResultCache
from repro.pipeline.jobs import BatchJob, run_job

__all__ = ["BatchReport", "BatchRunner", "JobOutcome"]


@dataclass
class JobOutcome:
    """What happened to one job of a batch.

    ``cache_hit`` means the result came from the persistent cache;
    ``coalesced`` means the job was answered by another job's fresh
    execution: an in-batch duplicate, or a service request identical to one
    already in flight.  Both flavours cost no compilation, but
    only ``cache_hit`` implies a configured cache.  ``error_kind``
    classifies machine-readable failures (currently only ``"timeout"``,
    set by the service watchdog) so transports can map them to statuses.
    """

    job: BatchJob
    result: dict | None
    error: str | None = None
    error_kind: str | None = None
    cache_hit: bool = False
    coalesced: bool = False
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None


@dataclass
class BatchReport:
    """Outcomes of one :meth:`BatchRunner.run` call, in submission order."""

    outcomes: list[JobOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def num_jobs(self) -> int:
        return len(self.outcomes)

    @property
    def num_cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cache_hit)

    @property
    def num_coalesced(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.coalesced)

    @property
    def num_errors(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.error is not None)

    @property
    def results(self) -> list[dict | None]:
        """Per-job result records (``None`` where the job failed)."""
        return [outcome.result for outcome in self.outcomes]

    def summary(self) -> dict:
        """Aggregate numbers for logs, tables and the CLI."""
        compute_seconds = sum(
            outcome.elapsed_seconds
            for outcome in self.outcomes
            if not outcome.cache_hit
        )
        return {
            "num_jobs": self.num_jobs,
            "num_cache_hits": self.num_cache_hits,
            "num_coalesced": self.num_coalesced,
            "num_errors": self.num_errors,
            "wall_seconds": self.wall_seconds,
            "compute_seconds": compute_seconds,
        }

    def raise_first_error(self) -> None:
        """Re-raise the first captured job failure (no-op on a clean batch)."""
        for outcome in self.outcomes:
            if outcome.error is not None:
                raise RuntimeError(
                    f"job {outcome.job.label} failed: {outcome.error}"
                )


class BatchRunner:
    """Execute batches of compilation jobs, optionally parallel and cached.

    Parameters
    ----------
    max_workers : int, optional
        Process-pool width; ``1`` runs serially in-process.
    cache_dir : str | Path | None, optional
        Directory for the content-hash result cache; ``None`` disables
        caching.
    """

    def __init__(
        self,
        max_workers: int = 1,
        cache_dir: str | Path | None = None,
    ):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        # The process pool is created on first parallel use and reused across
        # run() calls: long-running callers (the compilation service) would
        # otherwise pay a full executor spawn per compile.  The lock
        # serialises create/discard against concurrent run() callers (the
        # service drives one runner from two threads).
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def close(self) -> None:
        """Shut down the reusable process pool, if one was created."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None

    def _get_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            return self._pool

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        """Retire a broken executor (only if it is still the current one)."""
        with self._pool_lock:
            if self._pool is pool:
                pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None

    # ------------------------------------------------------------------ #

    def run(self, jobs: Sequence[BatchJob]) -> BatchReport:
        """Run ``jobs`` and return their outcomes in submission order.

        Identical jobs within one batch (same content hash) are coalesced:
        the job is executed once and every duplicate shares the outcome with
        its ``coalesced`` flag set (``cache_hit`` stays reserved for the
        persistent cache).  ``POST /compile`` never queues two identical
        jobs at once (its request path coalesces them before they reach the
        runner), so this serves sweeps: ``repro batch`` and ``POST /batch``.
        """
        started = time.perf_counter()
        outcomes: list[JobOutcome | None] = [None] * len(jobs)

        pending: list[tuple[int, BatchJob]] = []
        duplicates: list[tuple[int, int]] = []  # (job index, position in pending)
        first_position: dict[str, int] = {}
        for index, job in enumerate(jobs):
            key = job.content_hash
            if key in first_position:
                duplicates.append((index, first_position[key]))
                continue
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                outcomes[index] = JobOutcome(job=job, result=cached, cache_hit=True)
            else:
                first_position[key] = len(pending)
                pending.append((index, job))

        fresh: list[JobOutcome] = []
        if pending:
            if self.max_workers == 1 or len(pending) == 1:
                fresh = [self._run_one(job) for _, job in pending]
            else:
                fresh = self._run_pool([job for _, job in pending])
            for (index, job), outcome in zip(pending, fresh):
                outcomes[index] = outcome
                if self.cache is not None and outcome.ok:
                    self.cache.put(job.content_hash, outcome.result)

        # Duplicates can only reference pending (to-be-run) jobs: when the
        # first occurrence was itself a cache hit, later occurrences take the
        # cache path above instead of registering as duplicates.
        for index, position in duplicates:
            primary = fresh[position]
            outcomes[index] = JobOutcome(
                job=jobs[index],
                result=primary.result,
                error=primary.error,
                coalesced=primary.error is None,
                elapsed_seconds=0.0,
            )

        report = BatchReport(
            outcomes=[outcome for outcome in outcomes if outcome is not None]
        )
        report.wall_seconds = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------ #

    @staticmethod
    def _run_one(job: BatchJob) -> JobOutcome:
        start = time.perf_counter()
        try:
            result = run_job(job)
        except Exception as exc:  # noqa: BLE001 - captured per job by design
            return JobOutcome(
                job=job,
                result=None,
                error=f"{type(exc).__name__}: {exc}",
                elapsed_seconds=time.perf_counter() - start,
            )
        return JobOutcome(
            job=job, result=result, elapsed_seconds=time.perf_counter() - start
        )

    def _run_pool(self, jobs: list[BatchJob]) -> list[JobOutcome]:
        pool = self._get_pool()
        outcomes: list[JobOutcome | None] = [None] * len(jobs)
        broken = False
        futures = {pool.submit(run_job, job): i for i, job in enumerate(jobs)}
        for future, index in futures.items():
            job = jobs[index]
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                broken = True
                outcomes[index] = JobOutcome(
                    job=job, result=None, error=f"{type(exc).__name__}: {exc}"
                )
                continue
            except Exception as exc:  # noqa: BLE001 - captured per job
                outcomes[index] = JobOutcome(
                    job=job, result=None, error=f"{type(exc).__name__}: {exc}"
                )
                continue
            # The in-worker timings are the honest per-job cost; waiting
            # on the future here mostly measures the other jobs.
            elapsed = sum(
                value
                for key, value in result.items()
                if key.startswith("seconds_") and isinstance(value, (int, float))
            )
            outcomes[index] = JobOutcome(
                job=job, result=result, elapsed_seconds=elapsed
            )
        if broken:
            # A crashed worker poisons the whole executor; discard it so the
            # next run() starts from a fresh pool instead of failing forever.
            self._discard_pool(pool)
        return [outcome for outcome in outcomes if outcome is not None]
