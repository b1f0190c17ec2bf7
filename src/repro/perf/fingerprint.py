"""Code fingerprinting for the result cache.

A cached sweep point is only valid while the *simulation semantics* are
unchanged: the same (experiment function, parameters, seed) must map to
the same result document. Rather than guessing which edits are
semantics-preserving, the cache keys every entry by a digest of the
source files that define the simulator's behaviour. Any edit to those
files — even a comment — invalidates the cache, which errs on the side
of re-running; a stale hit would silently report numbers the current
code no longer produces.

Docs, tests, benchmarks, and the :mod:`repro.perf` layer itself are
deliberately excluded: changing how sweeps are *scheduled* must not
throw away correct results.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

__all__ = ["code_fingerprint", "FINGERPRINT_PATHS"]

#: Paths (relative to the ``repro`` package root) whose contents define
#: simulation semantics. Directories are walked recursively for ``.py``.
FINGERPRINT_PATHS = (
    "config.py",
    "errors.py",
    "sim",
    "interleaving",
    "indexes",
    "workloads",
    "columnstore",
    "query",
    "service",
    "faults",
    # measure_service_point drives the cluster server, the adaptive
    # controller and scenario specs.
    "cluster",
    "control",
    "scenario",
    "analysis/calibration.py",
    "analysis/experiments.py",
    "analysis/tracing.py",
    # The obs modules below shape cached outcomes (exemplar histograms,
    # burn analysis, span trees, metrics snapshots), so edits to them
    # must invalidate sweep entries. obs/export.py stays out: offline
    # trace export never enters the cache.
    "obs/hist.py",
    "obs/slo.py",
    "obs/rtrace.py",
    "obs/metrics.py",
    "obs/spans.py",
)


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def code_fingerprint(root: Path | None = None) -> str:
    """Return a hex digest over the simulation-semantics source files.

    ``root`` defaults to the installed ``repro`` package directory; tests
    point it at a synthetic tree to exercise invalidation.
    """
    base = Path(root) if root is not None else _package_root()
    digest = hashlib.sha256()
    for rel in FINGERPRINT_PATHS:
        path = base / rel
        if path.is_dir():
            files = sorted(p for p in path.rglob("*.py"))
        elif path.is_file():
            files = [path]
        else:
            continue
        for file in files:
            digest.update(str(file.relative_to(base)).encode())
            digest.update(b"\0")
            digest.update(file.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()
