"""Shared test helpers: an independent dense-matrix oracle built from
literal 2x2 Pauli matrices (never from the package's own dense code),
plus random-instance factories."""

import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from sgslab.pauli_core import PauliString, QubitHamiltonian  # noqa: E402

DATA_DIR = REPO_ROOT / "data"
CONFIG_DIR = REPO_ROOT / "configs"

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
AXIS_TO_CHAR = "IXYZ"


def kron_chain(mats):
    return reduce(np.kron, mats)


def dense_word(word: str) -> np.ndarray:
    """Oracle: dense matrix of a Pauli word from literal 2x2 blocks."""
    return kron_chain([SIGMA[c] for c in word])


def dense_pauli(p: PauliString) -> np.ndarray:
    return p.phase_coeff * dense_word("".join(AXIS_TO_CHAR[a] for a in p.axes))


def dense_hamiltonian(h: QubitHamiltonian) -> np.ndarray:
    dim = 2**h.num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for axes, coeff in h.terms:
        out += coeff * dense_word("".join(AXIS_TO_CHAR[a] for a in axes))
    return out


def random_pauli_string(rng, num_qubits, complex_coeff=False) -> PauliString:
    axes = tuple(int(a) for a in rng.integers(0, 4, size=num_qubits))
    if complex_coeff:
        coeff = complex(rng.normal(), rng.normal())
    else:
        coeff = float(rng.normal())
    return PauliString(num_qubits, axes, coeff)


def random_hamiltonian(rng, num_qubits, num_terms=6, scale=1.0) -> QubitHamiltonian:
    terms = []
    for _ in range(num_terms):
        axes = tuple(int(a) for a in rng.integers(0, 4, size=num_qubits))
        if all(a == 0 for a in axes):
            continue
        terms.append((axes, float(rng.normal()) * scale))
    if not terms:
        terms = [(tuple([3] + [0] * (num_qubits - 1)), scale)]
    return QubitHamiltonian(num_qubits, tuple(terms))


def lstsq_tone_fit(times, values, weights, omega):
    """Oracle: weighted LSQ of c + a cos(wt) + b sin(wt) at a fixed w by
    lstsq; returns (c, a, b) and the weighted residual sum of squares."""
    design = np.column_stack([np.ones_like(times), np.cos(omega * times), np.sin(omega * times)])
    dw = design * weights[:, None]
    yw = values * weights
    sol, *_ = np.linalg.lstsq(dw, yw, rcond=None)
    resid = dw @ sol - yw
    return sol, float(resid @ resid)


def random_state(rng, num_qubits) -> np.ndarray:
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return amps / np.linalg.norm(amps)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
