"""No module under ``src/repro`` issues a DeprecationWarning.

A deprecation shim keeps two spellings of one thing alive. This lint
flags every module whose code names ``DeprecationWarning`` or
``PendingDeprecationWarning`` — the category a ``warnings.warn`` shim
passes, or the exception it raises — so shims do not come back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
CATEGORIES = {"DeprecationWarning", "PendingDeprecationWarning"}


def names_a_deprecation(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in CATEGORIES:
            return True
        if isinstance(node, ast.Attribute) and node.attr in CATEGORIES:
            return True
    return False


def test_no_module_issues_a_deprecation_warning():
    flagged = sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if names_a_deprecation(path.read_text(encoding="utf-8"))
    )
    assert not flagged, f"modules issuing a DeprecationWarning: {flagged}"


def test_the_lint_sees_a_shim():
    assert names_a_deprecation(
        "import warnings\nwarnings.warn('old', DeprecationWarning)\n"
    )
    assert names_a_deprecation("import builtins\nbuiltins.DeprecationWarning\n")
    assert not names_a_deprecation('"""Mentions DeprecationWarning."""\n')
