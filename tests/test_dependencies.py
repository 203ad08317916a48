"""Tooling guard: the package runs on numpy and PyYAML; scipy is a test
dependency only (the oracle tests compare against it).

The oracle solvers are numpy only (no scipy.sparse.linalg.eigsh) and the
gap fit is a numpy variable projection (no scipy.optimize). Every gate
runs as Pauli rotations: the dense gate matrices and their tensor
contraction are a test oracle (conftest), not a second simulator. Noisy
states run in the Pauli-transfer basis, with no dense density kernel
beside it.
"""

import ast
import os
import subprocess
import sys

from conftest import REPO_ROOT

ALLOWED_SCIPY = set()


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


def _dense_gate_path(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.FunctionDef) and node.name == "gate_matrix":
            yield "defines gate_matrix"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "tensordot":
                yield "calls tensordot"


def test_one_gate_path():
    found = {
        (path.name, what)
        for path in sorted((REPO_ROOT / "src" / "sgslab").glob("*.py"))
        for what in _dense_gate_path(path)
    }
    assert not found, sorted(found)


def test_one_density_kernel():
    # noisy states run in the Pauli basis only; no dense density kernel
    found = {
        (path.name, node.name)
        for path in sorted((REPO_ROOT / "src" / "sgslab").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name in ("_depolarize", "evolve_density")
    }
    assert not found, sorted(found)


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: this one has scipy loaded by the oracle tests
    code = (
        "import sys; import sgslab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        cwd=REPO_ROOT, env=os.environ | {"PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
