"""The result-cache fingerprint covers every module a cached point loads.

A cached sweep point stays valid only while no source that shapes its
result changes, so :data:`repro.perf.FINGERPRINT_PATHS` must cover every
``repro`` module that a cached point function pulls in. Each function is
imported in a fresh interpreter, together with every module an
``import`` statement in its body names (point functions import some
layers lazily, to break import cycles), and every ``repro`` module
loaded then must lie under a fingerprinted path, under ``repro/perf/``
(how points are scheduled, never what they compute), or in the
allowlist below.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.perf import FINGERPRINT_PATHS

SRC = Path(__file__).resolve().parents[2] / "src"

#: Every point function the sweeps run through the result cache.
CACHED_POINTS = (
    "repro.analysis.experiments:measure_binary_search",
    "repro.analysis.experiments:measure_query",
    "repro.service.loadgen:measure_service_point",
    "repro.analysis.tracing:traced_point",
)

#: Loaded alongside a point function but never run inside one.
ALLOWLIST = {
    "__init__.py": "package root: lazy re-exports only",
    "analysis/__init__.py": "package init: re-exports only",
    "obs/__init__.py": "package init: re-exports only",
    "analysis/figures.py": "assembles documents from finished points",
    "analysis/loc.py": "Table 5 line counts, no simulation",
    "analysis/reporting.py": "text formatting of finished points",
    "analysis/results_io.py": "CSV export of finished points",
    "obs/export.py": "offline trace export, after a point returns",
}

_PROBE = """
import ast, importlib, importlib.util, inspect, json, pathlib, sys, textwrap
module, name = sys.argv[1].split(":")
function = getattr(importlib.import_module(module), name)
# The function body's own imports: what calling it would load lazily.
body = ast.parse(textwrap.dedent(inspect.getsource(function)))
for node in ast.walk(body):
    if isinstance(node, ast.Import):
        for alias in node.names:
            importlib.import_module(alias.name)
    elif isinstance(node, ast.ImportFrom):
        package = function.__module__.rpartition(".")[0]
        base = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
        importlib.import_module(base)
        for alias in node.names:
            try:  # "from package import submodule" loads the submodule
                importlib.import_module(base + "." + alias.name)
            except ImportError:
                pass
import repro
root = pathlib.Path(repro.__file__).resolve().parent
print(json.dumps(sorted(
    pathlib.Path(m.__file__).resolve().relative_to(root).as_posix()
    for n, m in list(sys.modules.items())
    if (n == "repro" or n.startswith("repro.")) and getattr(m, "__file__", None)
)))
"""


def _covered(path: str) -> bool:
    return any(
        path == rel or path.startswith(rel.rstrip("/") + "/")
        for rel in (*FINGERPRINT_PATHS, "perf")
    )


@pytest.mark.parametrize("point", CACHED_POINTS)
def test_loaded_modules_are_fingerprinted(point):
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, point],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout
    loaded = json.loads(out.splitlines()[-1])
    uncovered = [path for path in loaded if not _covered(path) and path not in ALLOWLIST]
    assert not uncovered, (
        f"{point} loads modules outside FINGERPRINT_PATHS: {uncovered}; "
        "fingerprint them (or allowlist a module that never runs inside a point)"
    )


def test_allowlist_is_not_fingerprinted():
    assert not [path for path in ALLOWLIST if _covered(path)]
