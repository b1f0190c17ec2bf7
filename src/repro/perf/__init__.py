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

import importlib as _importlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.perf.cache import ResultCache
    from repro.perf.sweep import SweepRunner

#: Module -> the names this package re-exports from it. They are imported
#: on first access, so ``from repro.perf import ResultCache`` loads no
#: process pool, multiprocessing or profiler machinery.
_EXPORTS = {
    "repro.perf.cache": ("ResultCache", "default_cache_dir"),
    "repro.perf.fingerprint": ("FINGERPRINT_PATHS", "code_fingerprint"),
    "repro.perf.profiling": ("profile_call",),
    "repro.perf.sweep": ("SweepRunner", "Task", "resolve_jobs"),
}

_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.perf' has no attribute {name!r}")
    value = getattr(_importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    *_LAZY,
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
    _mount_cache(cache)


def _mount_cache(cache: ResultCache | None) -> None:
    """Mount ``cache``'s counters as ``perf.cache`` in :data:`metrics`, or
    none: the section always shows the configured cache."""
    metrics.drop_source("perf.cache")
    if cache is not None:
        cache.register_metrics(metrics)


def default_runner() -> SweepRunner:
    """Build a runner from the current process-wide configuration.

    A fresh runner per call keeps counters scoped to one sweep; the
    cache object (and therefore its hit/miss totals) is shared. Each
    runner re-mounts itself under ``perf.sweep`` in :data:`metrics`, so
    a snapshot reflects the most recent sweep.
    """
    from repro.perf.sweep import SweepRunner

    runner = SweepRunner(jobs=_config.jobs, cache=_config.cache)
    runner.register_metrics(metrics)
    return runner


@contextmanager
def overrides(*, jobs: int | None = None, cache: ResultCache | None = None):
    """Temporarily replace the process-wide defaults that are passed.

    An argument left at ``None`` keeps its current value (facade helper).
    On exit the defaults are restored, and so is the ``perf.cache``
    section of :data:`metrics`, which shows the configured cache.
    """
    previous = (_config.jobs, _config.cache)
    if jobs is not None:
        _config.jobs = jobs
    if cache is not None:
        _config.cache = cache
        _mount_cache(cache)
    try:
        yield
    finally:
        _config.jobs, _config.cache = previous
        _mount_cache(previous[1])
