"""Tooling guard: the package runs on numpy and PyYAML; scipy is a test
dependency only (the oracle tests compare against it).

The oracle solvers are numpy only (no scipy.sparse.linalg.eigsh) and the
gap fit is a numpy variable projection (no scipy.optimize). Every gate
runs as Pauli rotations: the dense gate matrices and their tensor
contraction are a test oracle (conftest), not a second simulator. Noisy
states run in the Pauli-transfer basis, with no dense density kernel
beside it, and the pipeline holds them in no dense form. The block
Lanczos basis grows in place, not by concatenation. Every function the
benchmark's tracer wraps still exists under its name.
"""

import ast
import importlib
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


def _identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.FunctionDef):
            yield node.name


def test_noisy_points_stay_in_the_pauli_basis():
    # a noisy point runs from |0...0>'s Pauli column to readout; the dense
    # form is only what run_noisy and sample_expectation_noisy take and give
    pipeline = REPO_ROOT / "src" / "sgslab" / "sgs_pipeline.py"
    dense = {"DensityMatrix", "density_from_pauli"} & set(
        _identifiers(ast.parse(pipeline.read_text(), filename=str(pipeline)))
    )
    assert not dense, sorted(dense)
    found = [
        path.name
        for path in sorted((REPO_ROOT / "src" / "sgslab").glob("*.py"))
        if "run_noisy_plan" in _identifiers(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, found


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


def _bench_targets():
    """(module, attribute) of every SPANS and COUNTED entry of
    bench/layers.py, read from its syntax tree without importing it."""
    path = REPO_ROOT / "bench" / "layers.py"
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTED") for t in node.targets
        ):
            for entry in node.value.elts:
                module, attr = entry.elts[:2]
                yield module.value, attr.value


def test_bench_span_targets_resolve():
    targets = list(_bench_targets())
    assert targets
    missing = []
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing


def test_block_lanczos_grows_its_basis_in_place():
    # regrowing the basis by concatenation copies it on every block
    path = REPO_ROOT / "src" / "sgslab" / "spectra_oracle.py"
    (solver,) = [
        node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "block_lanczos"
    ]
    found = {
        node.func.attr
        for node in ast.walk(solver)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
        and node.func.attr in ("hstack", "vstack", "block", "concatenate", "append")
    }
    assert not found, sorted(found)
