"""Tooling guard: the package's only scipy use is the fit's scipy.optimize.

The oracle solvers are numpy only (no scipy.sparse.linalg.eigsh), so that
dropping scipy needs only a numpy fit.
"""

import ast

from conftest import REPO_ROOT

ALLOWED_SCIPY = {("sgs_pipeline.py", "scipy.optimize")}


def _scipy_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        yield from (name for name in names if name.split(".")[0] == "scipy")


def test_no_scipy_outside_the_fit():
    found = {
        (path.name, name)
        for path in sorted((REPO_ROOT / "src" / "sgslab").glob("*.py"))
        for name in _scipy_imports(path)
    }
    assert found <= ALLOWED_SCIPY, sorted(found - ALLOWED_SCIPY)
