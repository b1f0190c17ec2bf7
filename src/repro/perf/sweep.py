"""Parallel sweep runner: fan experiment points across worker processes.

Every figure and table in the reproduction is a *sweep* — a grid of
independent (experiment, technique, scale, seed) points, each a pure
function of its arguments thanks to the simulator's determinism. That
independence is the whole optimisation opportunity: points can run in
any order on any process and the merged output is still bit-identical,
as long as results are keyed by their position in the request, never by
completion order.

:class:`SweepRunner` does exactly that:

* points are submitted to a ``ProcessPoolExecutor`` in chunks (one IPC
  round-trip amortised over several points; idle workers steal the next
  pending chunk, so a straggler point cannot serialise the sweep);
* results are merged back **by point index**, so ``jobs=1`` and
  ``jobs=N`` return the same list;
* with ``jobs=1``, a single point, or a pool that cannot start, the
  runner degrades to a plain in-process loop — same semantics, no
  subprocess machinery;
* a :class:`~repro.perf.cache.ResultCache` can be attached: hits are
  replayed without touching the pool, misses are computed and stored.

Worker failures never hang the parent. An exception raised *by* a point
function is pickled back and re-raised as-is; a worker process that
dies outright (crash, ``os._exit``) surfaces as
:class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.errors import PerfError, SimulationError

__all__ = ["Task", "SweepRunner", "resolve_jobs"]


@dataclass(frozen=True)
class Task:
    """One sweep point: a picklable function plus its arguments.

    ``fn`` must be importable by module path (a module-level function),
    because worker processes re-import it rather than receiving code.
    """

    fn: Callable
    args: tuple = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __call__(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a job count: ``None`` means ``REPRO_JOBS`` or 1."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        jobs = int(env) if env else 1
    if jobs < 1:
        raise PerfError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _run_chunk(chunk: list[tuple[int, Callable, tuple, dict]]) -> list[tuple[int, Any]]:
    """Worker entry point: execute one chunk of indexed points."""
    return [(index, fn(*args, **kwargs)) for index, fn, args, kwargs in chunk]


class SweepRunner:
    """Execute independent sweep points, optionally in parallel and cached."""

    def __init__(self, jobs: int | None = None, cache=None) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        # Counters for observability and the wallclock benchmark.
        self.points_run = 0
        self.points_replayed = 0
        self.chunks_submitted = 0
        self.fallbacks = 0

    # -- public API -----------------------------------------------------

    def map(
        self,
        fn: Callable,
        kwargs_list: Sequence[Mapping[str, Any]],
        *,
        common: Mapping[str, Any] | None = None,
    ) -> list[Any]:
        """Run ``fn(**kwargs)`` for every kwargs dict, in order."""
        shared = dict(common or {})
        return self.run(
            [Task(fn, kwargs={**shared, **kwargs}) for kwargs in kwargs_list]
        )

    def run(self, tasks: Sequence[Task]) -> list[Any]:
        """Execute every task; return results in task order."""
        tasks = list(tasks)
        results: list[Any] = [None] * len(tasks)

        # Replay cache hits first; only misses reach the pool.
        pending: list[tuple[int, Task, str | None]] = []
        cache = self.cache
        for index, task in enumerate(tasks):
            key = cache.key(task.fn, task.args, task.kwargs) if cache else None
            if key is not None:
                hit, value = cache.lookup(key)
                if hit:
                    results[index] = value
                    self.points_replayed += 1
                    continue
            pending.append((index, task, key))

        if not pending:
            return results

        if self.jobs == 1 or len(pending) == 1:
            computed = self._run_serial(pending)
        else:
            computed = self._run_parallel(pending)

        for (index, _task, key), value in zip(pending, computed):
            results[index] = value
            if cache is not None and key is not None:
                cache.put(key, value)
        self.points_run += len(pending)
        return results

    # -- execution strategies -------------------------------------------

    def _run_serial(
        self, pending: Sequence[tuple[int, Task, str | None]]
    ) -> list[Any]:
        return [task() for _index, task, _key in pending]

    def _run_parallel(
        self, pending: Sequence[tuple[int, Task, str | None]]
    ) -> list[Any]:
        # Imported here: a serial sweep never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        jobs = min(self.jobs, len(pending))
        payload = [
            (slot, task.fn, tuple(task.args), dict(task.kwargs))
            for slot, (_index, task, _key) in enumerate(pending)
        ]
        # Several points per chunk amortises process IPC; several chunks
        # per worker lets fast workers steal the remainder of a grid
        # whose points have wildly different costs (256 MB vs 1 MB).
        chunk_size = max(1, len(payload) // (jobs * 4))
        chunks = [
            payload[start : start + chunk_size]
            for start in range(0, len(payload), chunk_size)
        ]
        ordered: list[Any] = [None] * len(payload)
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
                self.chunks_submitted += len(futures)
                for future in futures:
                    for slot, value in future.result():
                        ordered[slot] = value
        except BrokenProcessPool as exc:
            raise SimulationError(
                "sweep worker process died before returning its chunk"
            ) from exc
        except (OSError, PermissionError):
            # No subprocess support in this environment: degrade to the
            # in-process path rather than failing the sweep.
            self.fallbacks += 1
            return self._run_serial(pending)
        return ordered

    # -- observability --------------------------------------------------

    def as_dict(self) -> dict:
        """Plain-dict view (metrics-registry source)."""
        return {
            "jobs": self.jobs,
            "points_run": self.points_run,
            "points_replayed": self.points_replayed,
            "chunks_submitted": self.chunks_submitted,
            "fallbacks": self.fallbacks,
        }

    def register_metrics(self, registry, prefix: str = "perf.sweep") -> None:
        """Mount sweep counters in a metrics registry."""
        registry.register_source(prefix, self.as_dict)
