"""Mixed-state simulation under a hardware-inspired noise model.

Every gate of a native-compiled circuit is followed by single-qubit
depolarizing channels on its targets, with the depolarizing probability
derived from the average gate fidelity and the relaxation times; readout
applies independent symmetric bit flips per measured qubit. States are
real columns of 4^n Pauli coefficients; ``DensityMatrix`` is only the
dense form that ``run_noisy`` and ``sample_expectation_noisy`` take.
"""

from __future__ import annotations

import functools
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
    _batch_qubits,
    compile_gates,
    readout_word,
)
from .pauli_core import _MUL_PHASE, _SIGMA, PauliString, pauli_plan

DEFAULT_DENSITY_QUBIT_LIMIT = 8
# Size of the (4^n, P * T) batch of Pauli columns, 4^n x 8 bytes each,
# that the series of P points evolve at once: 2048 columns of 4 qubits fit
# (all 75 times of a 3-point sweep), 8 times at the 8-qubit limit.
DENSITY_BATCH_BYTES = 4 << 20
# Most shots per block of readout flips that _sample_parity draws at once.
# A block refills the buffer of the shots' uniforms, so it takes no memory
# of its own beyond one bool per shot; an 8192-shot series of a one-site
# observable draws its flips in one block. The blocks draw the same stream
# as one (shots, m) array.
READOUT_FLIP_BLOCK = 8192

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


# --- the Pauli-transfer kernel -------------------------------------------
#
# A noisy state is held as its 4^n real Pauli coefficients r_w = Tr(sigma_w
# rho), one column per state. Word w has base-4 digit a_q (0 = I, 1 = X,
# 2 = Y, 3 = Z) for qubit q, qubit 0 the most significant digit, so the
# product of two words is the XOR of their indices up to a phase i^k,
# with k summed over sites from _PHASE_POWER.

# _PHASE_POWER[a, b] = k with sigma_a sigma_b = i^k sigma_(a ^ b)
_PHASE_POWER = np.array([[{1: 0, 1j: 1, -1j: 3}[ph] for ph in row] for row in _MUL_PHASE])
# One qubit: r_a = sum_ij (sigma_a)_ji rho_ij over the digit 2 i + j of rho,
# and back rho_ij = sum_a (sigma_a)_ij r_a / 2; every entry of either matrix
# is 0, +-1 or +-i (halved), so each output is a sum of two exact terms.
_TO_PAULI = np.array([s.T.ravel() for s in _SIGMA])
_FROM_PAULI = np.array([s.ravel() for s in _SIGMA]).T / 2.0


def _per_qubit(x: np.ndarray, m: np.ndarray, num_qubits: int) -> np.ndarray:
    """The 4x4 ``m`` applied to every base-4 digit of a length-4^n vector:
    each pass transforms the leading digit and moves it last, so n passes
    restore the order. ``einsum`` keeps these small products off BLAS,
    whose first call alone grows the resident set by about 0.4 MB."""
    for _ in range(num_qubits):
        x = np.einsum("ab,bk->ka", m, x.reshape(4, -1))
    return x.reshape(-1)


def _interleave(num_qubits: int) -> list[int]:
    """Axes of a (2,) * 2n density tensor, ordered (i_0, j_0, i_1, j_1, ...)."""
    return [axis for q in range(num_qubits) for axis in (q, num_qubits + q)]


def pauli_coefficients(matrix: np.ndarray) -> np.ndarray:
    """The 4^n real coefficients r_w = Tr(sigma_w rho) of a density matrix."""
    n = matrix.shape[0].bit_length() - 1
    paired = matrix.reshape((2,) * (2 * n)).transpose(_interleave(n)).reshape(-1)
    return _per_qubit(paired, _TO_PAULI, n).real.copy()


def density_from_pauli(coeffs: np.ndarray) -> np.ndarray:
    """rho = 2^-n sum_w r_w sigma_w from its 4^n Pauli coefficients."""
    n = (coeffs.shape[0].bit_length() - 1) // 2
    paired = _per_qubit(coeffs.astype(complex), _FROM_PAULI, n)
    tensor = paired.reshape((2,) * (2 * n)).transpose(np.argsort(_interleave(n)))
    return tensor.reshape(1 << n, 1 << n)


def zero_state_coefficients(num_qubits: int) -> np.ndarray:
    """|0...0><0...0|'s Pauli coefficients: 1 on every word of I and Z only."""
    return functools.reduce(np.kron, [[1.0, 0.0, 0.0, 1.0]] * num_qubits, np.ones(1))


def word_index(axes) -> int:
    """Row of the Pauli word with these axes in a column of coefficients."""
    index = 0
    for a in axes:
        index = 4 * index + a
    return index


def _rotation_table(qubits, axes, num_qubits: int):
    """(anti, partner, eps) of exp(-i theta P / 2) in the Pauli basis.

    ``anti`` lists the words that anticommute with P; each becomes
    cos theta r_w + sin theta eps_w r_partner with partner = w P and
    eps_w = +-1 the sign of -i sigma_w P. Every other word is unchanged.
    """
    words = np.arange(4**num_qubits)
    power = np.zeros(words.size, dtype=np.int64)
    mask = 0
    for q, a in zip(qubits, axes):
        shift = 2 * (num_qubits - 1 - q)
        power += _PHASE_POWER[(words >> shift) & 3, a]
        mask |= a << shift
    anti = np.flatnonzero(power & 1)
    # sigma_w P = i^k sigma_(w P), so -i sigma_w P has sign +1 at k = 1, -1 at k = 3
    eps = np.where(power[anti] & 2, -1.0, 1.0)[:, None]
    return anti, anti ^ mask, eps


def evolve_transfer(plan: StepPlan, columns: np.ndarray, dts, n_steps: int = 1) -> np.ndarray:
    """Advance column k of a C-contiguous (4^n, T) array of Pauli
    coefficients by ``n_steps`` steps of length ``dts[k]``, in place, at
    column k's angles when the plan holds one column of them per column
    (``StepPlan.stack``).

    A rotation gathers the partners of its anticommuting words once
    (``_rotation_table``, built once per distinct word). The depolarizing
    channel on qubit q, (1 - p) rho + p (I/2 tensor Tr_q rho), scales the
    words that are not the identity on q by (1 - p): one strided multiply
    per target after the gate's last rotation.
    """
    n = _batch_qubits(columns, n_steps, radix=4)
    cos, sin = plan.half_angle_trig(dts, columns.shape[-1])
    cos, sin = (cos - sin) * (cos + sin), 2.0 * cos * sin
    tables = {word: _rotation_table(*word, n) for word in dict.fromkeys(plan.words)}
    # non-identity digits of qubit q, as a view of the columns
    off_identity = [columns.reshape(4**q, 4, -1)[:, 1:] for q in range(n)]
    for _ in range(n_steps):
        for word, c, s, (targets, p) in zip(plan.words, cos, sin, plan.channels):
            anti, partner, eps = tables[word]
            turned = np.take(columns, partner, axis=0)
            turned *= eps
            turned *= s
            kept = np.take(columns, anti, axis=0)
            kept *= c
            kept += turned
            columns[anti] = kept
            for q in targets:
                off_identity[q] *= 1.0 - p
    return columns


def measurement_probs(columns: np.ndarray, o: PauliString) -> np.ndarray:
    """(2^n, T) bitstring probabilities of every column measured in O's
    basis (``basis_change_circuit``), from the (4^n, T) Pauli columns.

    The basis change C maps Z_q back to O's own axis on its X and Y sites
    (C^dag Z C = X for H, Y for GPI2(0)) and leaves Z elsewhere. So P(b) is
    2^-n sum_s (-1)^popcount(b & s) r_(w_s) over the 2^n words w_s with
    that axis on the qubits of s: one Walsh-Hadamard transform, as n
    butterfly passes that each fold the leading bit and move it last.
    """
    readout_word(o)  # rejects a non-Hermitian or non-unit O
    n = o.num_qubits
    if columns.shape[0] != 4**n:
        raise ValueError(
            f"Pauli columns have {columns.shape[0]} rows, a {n}-qubit observable "
            f"needs 4^{n} = {4**n}"
        )
    words = np.zeros(1, dtype=np.intp)
    for a in o.axes:  # qubit 0 ends as the most significant bit of s
        words = (4 * words[:, None] + [0, a or 3]).ravel()
    probs = columns[words]
    for _ in range(n):
        lead = probs.reshape(2, -1, columns.shape[-1])
        probs = np.stack((lead[0] + lead[1], lead[0] - lead[1]), axis=1)
    return probs.reshape(-1, columns.shape[-1]) / (1 << n)


def run_noisy(
    circuit: Circuit, noise: NoiseModel, initial: DensityMatrix | None = None
) -> DensityMatrix:
    """Simulate a native-compiled circuit as a density matrix.

    Each 1-qubit gate is followed by one depolarizing channel on its
    target; each 2-qubit gate by one channel on each participant. Gates
    on three or more qubits are rejected (compile to natives first). The
    circuit runs as one plan on ``initial`` (|0...0> when None) in the
    Pauli basis (``evolve_transfer`` at dt = 0); ``initial`` is updated in
    place and returned.
    """
    check_density_size(circuit.num_qubits)
    for g in circuit.gates:
        if g.num_targets > 2:
            raise ValueError(
                f"gate {g.name} acts on {g.num_targets} qubits; run_noisy needs "
                "a native-compiled circuit"
            )
    rho = DensityMatrix.zero_state(circuit.num_qubits) if initial is None else initial
    if rho.num_qubits != circuit.num_qubits:
        raise ValueError("initial state qubit-count mismatch")
    columns = pauli_coefficients(rho.matrix)[:, None]
    evolve_transfer(compile_gates(circuit.gates, circuit.num_qubits, noise), columns, [0.0])
    rho.matrix = density_from_pauli(columns[:, 0])
    return rho


def check_density_size(num_qubits: int) -> None:
    """Refuse more qubits than DEFAULT_DENSITY_QUBIT_LIMIT."""
    if num_qubits > DEFAULT_DENSITY_QUBIT_LIMIT:
        raise ValueError(
            f"density-matrix simulation limited to {DEFAULT_DENSITY_QUBIT_LIMIT} qubits "
            f"(circuit has {num_qubits}); memory grows as 4^n"
        )


def _sample_parity(
    probs: np.ndarray, o: PauliString, shots: int, readout_flip: float, seed
) -> ExpectationSample:
    """Draw ``shots`` bitstrings from ``probs``, the distribution in O's
    measurement basis; flip each measured bit with probability
    ``readout_flip`` and count the +1 outcomes of O's signed parity.

    The draws are those of ``Generator.choice(probs.size, shots, p=probs)``
    followed by one (shots, m) array of uniforms for the m measured bits,
    without building either. ``choice`` draws u = ``random(shots)`` and
    returns the count of k with cdf[k] <= u. Only the parity of that
    outcome is kept, and it changes only where the parity of k + 1 differs
    from that of k, so each shot's parity is the first outcome's parity
    XOR ``u >= cdf[k]`` at those k: one compare for the single-site
    observable. The readout flips then refill u's buffer in row blocks of
    the one (shots, m) array, which the generator fills row-major.
    """
    if not np.isfinite(probs).all():
        raise ValueError("measurement probabilities must be finite")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise ValueError("density matrix has no positive diagonal weight")
    probs = probs / total
    cdf = probs.cumsum()
    cdf /= cdf[-1]

    word = readout_word(o)
    n = o.num_qubits
    measured = [q for q, a in enumerate(word.axes) if a == 3]
    zmask = sum(1 << (n - 1 - q) for q in measured)
    odd_parity = (np.bitwise_count(np.arange(probs.size) & zmask) & 1).astype(bool)

    rng = default_rng(seed)
    u = rng.random(shots)
    odd = np.full(shots, odd_parity[0])
    for threshold in cdf[:-1][odd_parity[:-1] != odd_parity[1:]]:
        odd ^= u >= threshold
    m = len(measured)
    if m and readout_flip > 0.0:
        rows = max(1, min(READOUT_FLIP_BLOCK, shots // m))
        flips = u if rows * m <= shots else np.empty(rows * m)
        for lo in range(0, shots, rows):
            block = flips[:min(rows, shots - lo) * m].reshape(-1, m)
            rng.random(out=block)
            for column in block.T:
                odd[lo:lo + len(block)] ^= column < readout_flip
    n_odd = int(np.count_nonzero(odd))
    n_plus = shots - n_odd if word.phase_coeff.real > 0 else n_odd
    return ExpectationSample.from_plus_count(n_plus, shots)


def sample_expectation_noisy(
    rho: DensityMatrix,
    o: PauliString,
    shots: int,
    readout_flip: float,
    seed,
) -> ExpectationSample:
    """Shot sampling from a density matrix with imperfect readout.

    Bitstrings are drawn from the state's distribution in the measurement
    basis of O (``measurement_probs``), each measured qubit's bit flips
    independently with probability ``readout_flip``, and the +-1 parity is
    recomputed (``_sample_parity``).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not 0.0 <= readout_flip <= 1.0:
        raise ValueError("readout_flip must be a probability")
    if o.num_qubits != rho.num_qubits:
        raise ValueError("observable qubit-count mismatch")
    columns = pauli_coefficients(rho.matrix)[:, None]
    return _sample_parity(measurement_probs(columns, o)[:, 0], o, shots, readout_flip, seed)
