"""Density-matrix simulation under a hardware-inspired noise model.

Every gate of a native-compiled circuit is followed by single-qubit
depolarizing channels on its targets, with the depolarizing probability
derived from the average gate fidelity and the relaxation times; readout
applies independent symmetric bit flips per measured qubit.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, fields

import numpy as np
from numpy.random import default_rng

from .circuit_engine import (
    Circuit,
    ExpectationSample,
    StateVector,
    StepPlan,
    _rotate,
    basis_change_circuit,
    compile_gates,
    readout_word,
)
from .pauli_core import PauliString, pauli_plan

DEFAULT_DENSITY_QUBIT_LIMIT = 8
# Size of the (2^n, 2^n, T) batch of density columns a series evolves at
# once: all 25 times of a 4-qubit study fit, 4 times at the 8-qubit limit.
DENSITY_BATCH_BYTES = 4 << 20

# Datasheet-style device defaults; gate fidelities have no universal
# value and must be chosen explicitly.
DEFAULT_T1 = 100.0
DEFAULT_T2 = 1.0
DEFAULT_T_GATE_1Q = 135e-6
DEFAULT_T_GATE_2Q = 600e-6
DEFAULT_READOUT_FLIP = 0.0039

ARIA_FIDELITY_1Q = 0.9998
ARIA_FIDELITY_2Q = 0.99


def _coherence(t_gate: float, t1: float, t2: float, gate: str = "t_gate") -> float:
    """d = exp(-T_g/T1) + 2 exp(-T_g/T2). Raises ValueError naming the time
    (``gate`` names T_g) that is NaN or out of range, or T_g when d
    underflows to 0."""
    # every comparison below is False for NaN
    if not 0.0 <= t_gate < math.inf:
        raise ValueError(f"{gate} must be finite and >= 0, got {t_gate!r}")
    for name, t in (("t1", t1), ("t2", t2)):
        if not t > 0.0:
            raise ValueError(f"{name} must be > 0, got {t!r}")
    d = math.exp(-t_gate / t1) + 2.0 * math.exp(-t_gate / t2)
    if d == 0.0:
        raise ValueError(
            f"{gate} = {t_gate!r} leaves no coherence at t1 = {t1!r}, t2 = {t2!r}"
        )
    return d


def depolarizing_param(fidelity: float, t_gate: float, t1: float, t2: float) -> float:
    """Depolarizing probability p = 1 + 3(2 eps - 1)/d for eps = 1 - F and
    d = exp(-T_g/T1) + 2 exp(-T_g/T2); clamped to [0, 1] with a warning."""
    if not 0.0 < fidelity <= 1.0:
        raise ValueError(f"fidelity must be in (0, 1], got {fidelity}")
    eps = 1.0 - fidelity
    p = 1.0 + 3.0 * (2.0 * eps - 1.0) / _coherence(t_gate, t1, t2)
    if p < 0.0 or p > 1.0:
        warnings.warn(
            f"depolarizing probability {p:.6g} clamped to [0, 1]", stacklevel=2
        )
        p = min(max(p, 0.0), 1.0)
    return p


@dataclass(frozen=True)
class NoiseModel:
    """Gate fidelities, relaxation times, gate durations, readout flip."""

    fidelity_1q: float
    fidelity_2q: float
    t1: float = DEFAULT_T1
    t2: float = DEFAULT_T2
    t_gate_1q: float = DEFAULT_T_GATE_1Q
    t_gate_2q: float = DEFAULT_T_GATE_2Q
    readout_flip: float = DEFAULT_READOUT_FLIP

    def __post_init__(self):
        # YAML 1.1 reads 1e9 (no decimal point) as a string and true as a
        # bool; name the field rather than fail, or run, on such a value
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
        if not 0.0 < self.fidelity_1q <= 1.0 or not 0.0 < self.fidelity_2q <= 1.0:
            raise ValueError("gate fidelities must be in (0, 1]")
        _coherence(self.t_gate_1q, self.t1, self.t2, "t_gate_1q")
        _coherence(self.t_gate_2q, self.t1, self.t2, "t_gate_2q")
        if not 0.0 <= self.readout_flip <= 1.0:
            raise ValueError("readout_flip must be a probability")

    def p_1q(self) -> float:
        return depolarizing_param(self.fidelity_1q, self.t_gate_1q, self.t1, self.t2)

    def p_2q(self) -> float:
        return depolarizing_param(self.fidelity_2q, self.t_gate_2q, self.t1, self.t2)


def aria_noise_model() -> NoiseModel:
    """Aria-inspired preset: datasheet timing/readout figures plus the
    documented fidelity choices (0.9998 one-qubit, 0.99 two-qubit)."""
    return NoiseModel(fidelity_1q=ARIA_FIDELITY_1Q, fidelity_2q=ARIA_FIDELITY_2Q)


def noiseless_model() -> NoiseModel:
    """Degenerate model: perfect gates, zero durations, clean readout."""
    return NoiseModel(
        fidelity_1q=1.0,
        fidelity_2q=1.0,
        t_gate_1q=0.0,
        t_gate_2q=0.0,
        readout_flip=0.0,
    )


@dataclass
class DensityMatrix:
    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        dim = 1 << self.num_qubits
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {self.matrix.shape}")

    @classmethod
    def zero_state(cls, num_qubits: int) -> "DensityMatrix":
        dim = 1 << num_qubits
        m = np.zeros((dim, dim), dtype=complex)
        m[0, 0] = 1.0
        return cls(num_qubits, m)

    @classmethod
    def from_pure(cls, state: StateVector) -> "DensityMatrix":
        amps = state.amplitudes
        return cls(state.num_qubits, np.outer(amps, amps.conj()))

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.num_qubits, self.matrix.copy())

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def expectation(self, o: PauliString) -> float:
        """Tr(O rho) = sum_i O[i, src_i] rho[src_i, i], exact."""
        src, factor = pauli_plan(o.axes)
        diagonal = self.matrix[src, np.arange(src.size)]
        return float((o.phase_coeff * np.sum(factor * diagonal)).real)


def _depolarize(batch: np.ndarray, qubit: int, p: float) -> None:
    """(1 - p) rho + p (I/2 tensor Tr_q rho) in place on every column of a
    (2^n, 2^n, T) batch, as index arithmetic: the (i, j) entries whose bit
    q agrees gain (p / 2) (rho[i, j] + rho[i ^ bit, j ^ bit])."""
    dim = batch.shape[0]
    bit = dim >> (qubit + 1)
    index = np.arange(dim)
    flip = index ^ bit
    mixed = batch[flip[:, None], flip]
    mixed += batch
    mixed *= np.where((index[:, None] ^ index) & bit, 0.0, p / 2.0)[:, :, None]
    batch *= 1.0 - p
    batch += mixed


def evolve_density(plan: StepPlan, batch: np.ndarray, dts, n_steps: int = 1) -> np.ndarray:
    """Advance column k of a (2^n, 2^n, T) density batch by ``n_steps``
    steps of length ``dts[k]``, in place.

    Each rotation U acts as U rho U^dag: ``_rotate`` on the rows, then on
    the columns with the conjugate phase. The plan's depolarizing
    channels follow the last rotation of their gate.
    """
    cos, sin = plan.half_angle_trig(dts, batch.shape[-1])
    by_column = batch.transpose(1, 0, 2)
    for _ in range(n_steps):
        for (src, phase), c, s, (targets, p) in zip(plan.plans, cos, sin, plan.channels):
            _rotate(batch, src, phase[:, None, None], c, s)
            _rotate(by_column, src, phase.conj()[:, None, None], c, s)
            for q in targets:
                _depolarize(batch, q, p)
    return batch


def _evolve_fixed(rho: DensityMatrix, gates, noise: NoiseModel | None = None) -> DensityMatrix:
    """Run a fixed gate list on ``rho`` as one T = 1 batch."""
    plan = compile_gates(gates, gates, rho.num_qubits, noise)
    rho.matrix = evolve_density(plan, rho.matrix[:, :, None].copy(), [0.0])[:, :, 0]
    return rho


def apply_gate_density(rho: DensityMatrix, g) -> DensityMatrix:
    """U rho U^dag, through the gate's Pauli rotations."""
    return _evolve_fixed(rho, [g])


def apply_depolarizing(rho: DensityMatrix, qubit: int, p: float) -> DensityMatrix:
    """(1 - p) rho + p (I/2 tensor Tr_q rho) on the target qubit."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability must be in [0, 1], got {p}")
    if not 0 <= qubit < rho.num_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    if p == 0.0:
        return rho
    batch = rho.matrix[:, :, None].copy()
    _depolarize(batch, qubit, p)
    rho.matrix = batch[:, :, 0]
    return rho


def run_noisy(
    circuit: Circuit,
    noise: NoiseModel,
    initial: DensityMatrix | None = None,
    max_qubits: int = DEFAULT_DENSITY_QUBIT_LIMIT,
) -> DensityMatrix:
    """Simulate a native-compiled circuit as a density matrix.

    Each 1-qubit gate is followed by one depolarizing channel on its
    target; each 2-qubit gate by one channel on each participant. Gates
    on three or more qubits are rejected (compile to natives first).
    """
    if circuit.num_qubits > max_qubits:
        raise ValueError(
            f"density-matrix simulation limited to {max_qubits} qubits "
            f"(circuit has {circuit.num_qubits}); memory grows as 4^n"
        )
    rho = DensityMatrix.zero_state(circuit.num_qubits) if initial is None else initial
    if rho.num_qubits != circuit.num_qubits:
        raise ValueError("initial state qubit-count mismatch")
    for g in circuit.gates:
        if g.num_targets > 2:
            raise ValueError(
                f"gate {g.name} acts on {g.num_targets} qubits; run_noisy needs "
                "a native-compiled circuit"
            )
    return _evolve_fixed(rho, circuit.gates, noise)


def sample_expectation_noisy(
    rho: DensityMatrix,
    o: PauliString,
    shots: int,
    readout_flip: float,
    seed,
) -> ExpectationSample:
    """Shot sampling from a density matrix with imperfect readout.

    The state is rotated into the measurement basis of O, bitstrings are
    drawn from the diagonal, each measured qubit's bit flips independently
    with probability ``readout_flip``, and the +-1 parity is recomputed.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not 0.0 <= readout_flip <= 1.0:
        raise ValueError("readout_flip must be a probability")
    n = rho.num_qubits
    if o.num_qubits != n:
        raise ValueError("observable qubit-count mismatch")
    rotated = _evolve_fixed(rho.copy(), basis_change_circuit(o).gates)
    probs = np.clip(np.diag(rotated.matrix).real, 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise ValueError("density matrix has no positive diagonal weight")
    probs = probs / total

    word = readout_word(o)
    sign = 1.0 if word.phase_coeff.real > 0 else -1.0
    measured = [q for q, a in enumerate(word.axes) if a == 3]
    zmask = 0
    for q in measured:
        zmask |= 1 << (n - 1 - q)

    rng = default_rng(seed)
    samples = rng.choice(probs.shape[0], size=shots, p=probs).astype(np.uint64)
    parity = (np.bitwise_count(samples & np.uint64(zmask)) & 1).astype(np.int64)
    if measured and readout_flip > 0.0:
        flips = rng.random((shots, len(measured))) < readout_flip
        parity ^= flips.sum(axis=1) & 1
    outcomes = sign * np.where(parity == 1, -1.0, 1.0)
    n_plus = int(np.count_nonzero(outcomes > 0))
    return ExpectationSample.from_plus_count(n_plus, shots)
