"""Shared test helpers: an independent dense-matrix oracle built from
literal 2x2 Pauli matrices and written-out gate matrices (never from the
package's own dense code or rotation kernel), plus random-instance
factories."""

import math
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


def gate_matrix(g) -> np.ndarray:
    """Oracle: dense unitary of one gate on its target qubits, written out
    from the gate definitions (first target is the most significant bit
    of the local index)."""
    if g.name == "GPI2":
        (phi,) = g.angles
        return np.array(
            [[1.0, -1j * np.exp(-1j * phi)], [-1j * np.exp(1j * phi), 1.0]]
        ) / math.sqrt(2.0)
    if g.name == "RZ":
        (theta,) = g.angles
        return np.array(
            [[np.exp(-1j * theta / 2), 0.0], [0.0, np.exp(1j * theta / 2)]]
        )
    if g.name == "H":
        return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    if g.name == "X":
        return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    if g.name == "CNOT":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    if g.name == "MS":
        phi0, phi1, theta = g.angles
        c = math.cos(theta / 2)
        s = math.sin(theta / 2)
        return np.array(
            [
                [c, 0, 0, -1j * np.exp(-1j * (phi0 + phi1)) * s],
                [0, c, -1j * np.exp(-1j * (phi0 - phi1)) * s, 0],
                [0, -1j * np.exp(1j * (phi0 - phi1)) * s, c, 0],
                [-1j * np.exp(1j * (phi0 + phi1)) * s, 0, 0, c],
            ]
        )
    if g.name == "PROT":
        (theta,) = g.angles
        dense = dense_word("".join(AXIS_TO_CHAR[a] for a in g.axes))
        dim = dense.shape[0]
        return math.cos(theta / 2) * np.eye(dim) - 1j * math.sin(theta / 2) * dense
    raise ValueError(f"unknown gate {g.name!r}")


def dense_unitary(circuit) -> np.ndarray:
    """Oracle: dense unitary of a circuit, each ``gate_matrix`` contracted
    onto its target axes of the register tensor."""
    n = circuit.num_qubits
    dim = 1 << n
    arr = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    for g in circuit.gates:
        k = len(g.qubits)
        mat = gate_matrix(g).reshape((2,) * (2 * k))
        arr = np.tensordot(mat, arr, axes=(tuple(range(k, 2 * k)), g.qubits))
        arr = np.moveaxis(arr, tuple(range(k)), g.qubits)
    return arr.reshape(dim, dim)


def noiseless_model():
    """Perfect gates, zero durations, clean readout."""
    from sgslab.noise_engine import NoiseModel

    return NoiseModel(
        fidelity_1q=1.0, fidelity_2q=1.0, t_gate_1q=0.0, t_gate_2q=0.0, readout_flip=0.0
    )


def apply_gate_density(rho, g):
    """Oracle: U rho U^dag in place, with U the gate's ``dense_unitary``."""
    from sgslab.circuit_engine import Circuit

    u = dense_unitary(Circuit(rho.num_qubits, [g]))
    rho.matrix = u @ rho.matrix @ u.conj().T
    return rho


def apply_depolarizing(rho, qubit, p):
    """Oracle: (1 - p) rho + p (I/2 tensor Tr_q rho) in place, the partial
    trace and the embedding done by reshaping rho into one axis per bit."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability must be in [0, 1], got {p}")
    n = rho.num_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range")
    tensor = rho.matrix.reshape((2,) * (2 * n))
    reduced = np.trace(tensor, axis1=qubit, axis2=n + qubit)
    mixed = np.moveaxis(np.multiply.outer(np.eye(2) / 2.0, reduced), (0, 1), (qubit, n + qubit))
    rho.matrix = ((1.0 - p) * tensor + p * mixed).reshape(rho.matrix.shape)
    return rho


def noisy_superoperator(matrix, circuit, noise):
    """Oracle: each gate as a dense U rho U^dag, then one depolarizing
    channel per target with the model's one- or two-qubit probability."""
    from sgslab.noise_engine import DensityMatrix

    rho = DensityMatrix(circuit.num_qubits, matrix.copy())
    for g in circuit.gates:
        apply_gate_density(rho, g)
        p = noise.p_1q() if g.num_targets == 1 else noise.p_2q()
        for q in g.qubits:
            apply_depolarizing(rho, q, p)
    return rho.matrix


def add_term(h: QubitHamiltonian, p: PauliString) -> QubitHamiltonian:
    """Canonicalized sum H + p; p must carry a real coefficient."""
    from sgslab.pauli_core import HERMITICITY_TOL

    if p.num_qubits != h.num_qubits:
        raise ValueError("qubit-count mismatch")
    if abs(p.phase_coeff.imag) > HERMITICITY_TOL:
        raise ValueError(
            f"non-real coefficient {p.phase_coeff} would break Hermiticity"
        )
    return QubitHamiltonian(h.num_qubits, h.terms + ((p.axes, p.phase_coeff.real),))


def time_evolution_circuit(h, t, n_steps, native=False):
    """n_steps identical first-order steps approximating exp(-i H t)."""
    from sgslab.circuit_engine import Circuit, trotter_step

    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if t == 0.0:
        return Circuit(h.num_qubits)
    step = trotter_step(h, t / n_steps, native=native)
    out = Circuit(h.num_qubits)
    for _ in range(n_steps):
        out.extend(step.gates)
    return out


def exact_evolve(state, h, t):
    """Oracle: exp(-i H t)|state> through the eigendecomposition of
    ``dense_hamiltonian``."""
    from sgslab.circuit_engine import StateVector

    if state.num_qubits != h.num_qubits:
        raise ValueError("state/Hamiltonian qubit-count mismatch")
    energies, vectors = np.linalg.eigh(dense_hamiltonian(h))
    coeffs = (vectors.conj().T @ state.amplitudes) * np.exp(-1j * energies * t)
    return StateVector(state.num_qubits, vectors @ coeffs)


def search_reference(h: QubitHamiltonian, i: int, j: int) -> np.ndarray:
    """Oracle: <level j| P |level i> for every Pauli word in lexicographic
    order, the levels from a complex ``np.linalg.eigh`` of
    ``dense_hamiltonian``. The outer product conj(v_j) v_i, with each
    qubit's row and column index paired, is contracted with the literal
    2x2 matrices one qubit at a time."""
    n = h.num_qubits
    _, vectors = np.linalg.eigh(dense_hamiltonian(h))
    assert vectors.dtype == complex
    pair = np.multiply.outer(vectors[:, j].conj(), vectors[:, i]).reshape((2,) * (2 * n))
    pair = pair.transpose([k for q in range(n) for k in (q, n + q)]).reshape((4,) * n)
    sigma = np.array([SIGMA[c].reshape(4) for c in AXIS_TO_CHAR])
    for q in range(n):
        pair = np.moveaxis(np.tensordot(sigma, pair, axes=([1], [q])), 0, q)
    return pair.reshape(-1)


def top_tied_words(records, rel_tol=1e-9) -> set[str]:
    """Words of search records whose rho ties the maximum within a
    relative tolerance."""
    if not records:
        return set()
    best = records[0].rho
    return {r.word for r in records if r.rho >= best - rel_tol * max(best, 1.0)}


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
