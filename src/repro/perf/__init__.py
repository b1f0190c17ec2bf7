"""Host-performance layer: parallel sweeps, result caching, profiling.

The simulator models *simulated* cycles; this package is about *host*
seconds. Three facts make sweeps fast without touching a single
simulated number:

* points are independent → :class:`~repro.perf.sweep.SweepRunner` fans
  them across worker processes and merges deterministically;
* the simulator is deterministic → :class:`~repro.perf.cache.ResultCache`
  replays previously computed points, keyed by arguments plus a
  :func:`~repro.perf.fingerprint.code_fingerprint` of the simulation
  sources;
* hot loops are measurable → :func:`~repro.perf.profiling.profile_call`
  backs the ``python -m repro profile`` verb.

Module-level configuration (:func:`configure`, :func:`overrides`,
:func:`default_runner`) lets entry points opt whole call trees into
parallelism and caching without threading ``jobs=`` through every
signature. The *library* default is serial and uncached — importing
``repro`` never forks processes or writes to ``~/.cache`` behind the
caller's back; the CLI and benchmark harness opt in explicitly.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry
from repro.perf.cache import ResultCache, default_cache_dir
from repro.perf.fingerprint import FINGERPRINT_PATHS, code_fingerprint
from repro.perf.profiling import profile_call
from repro.perf.sweep import SweepRunner, Task, resolve_jobs

__all__ = [
    "ResultCache",
    "SweepRunner",
    "Task",
    "code_fingerprint",
    "FINGERPRINT_PATHS",
    "default_cache_dir",
    "profile_call",
    "resolve_jobs",
    "configure",
    "overrides",
    "default_runner",
    "metrics",
]

#: Registry that aggregates sweep/cache counters across the process.
metrics = MetricsRegistry()


@dataclass
class _PerfConfig:
    """Process-wide defaults consumed by :func:`default_runner`."""

    jobs: int | None = None  # None → REPRO_JOBS env var, else 1
    cache: ResultCache | None = None


_config = _PerfConfig()


def configure(*, jobs: int | None = None, cache: ResultCache | None = None) -> None:
    """Set the process-wide sweep defaults (CLI / harness entry points)."""
    _config.jobs = jobs
    _config.cache = cache
    if cache is not None:
        cache.register_metrics(metrics)


def default_runner() -> SweepRunner:
    """Build a runner from the current process-wide configuration.

    A fresh runner per call keeps counters scoped to one sweep; the
    cache object (and therefore its hit/miss totals) is shared. Each
    runner re-mounts itself under ``perf.sweep`` in :data:`metrics`, so
    a snapshot reflects the most recent sweep.
    """
    runner = SweepRunner(jobs=_config.jobs, cache=_config.cache)
    runner.register_metrics(metrics)
    return runner


@contextmanager
def overrides(*, jobs: int | None = None, cache: ResultCache | None = None):
    """Temporarily replace the process-wide defaults that are passed.

    An argument left at ``None`` keeps its current value (facade helper).
    """
    previous = (_config.jobs, _config.cache)
    if jobs is not None:
        _config.jobs = jobs
    if cache is not None:
        _config.cache = cache
        cache.register_metrics(metrics)
    try:
        yield
    finally:
        _config.jobs, _config.cache = previous
