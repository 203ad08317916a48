"""Statevector simulation with a trapped-ion native gate set.

Gates are either native (GPI2, RZ, MS) or convenience gates (H, X, CNOT,
multi-qubit Pauli rotations) that compile exactly onto the native set, up
to a global phase for H and X. First-order product-formula circuits,
linear-schedule adiabatic interpolation, a dense matrix-exponential
oracle, and shot sampling with the intrinsic +-1 measurement variance
live here as well.

Angle conventions: RZ(theta) = exp(-i theta Z / 2), GPI2(phi) is a pi/2
rotation about the axis (cos phi, sin phi, 0) of the Bloch sphere, and
MS(0, 0, theta) = exp(-i theta XX / 2). A PauliRotation with angle theta
applies exp(-i theta P / 2) for the unit Pauli word P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from numpy.random import default_rng

from .pauli_core import (
    PauliString,
    QubitHamiltonian,
    check_oracle_size,
    expectation,
    pauli_plan,
)
from .spectra_oracle import exact_spectrum

if TYPE_CHECKING:
    from .noise_engine import NoiseModel

NATIVE_GATE_NAMES = frozenset({"GPI2", "RZ", "MS"})


@dataclass(frozen=True)
class Gate:
    """One gate application: name, target qubits, angles.

    ``axes`` is set only for PauliRotation ("PROT") gates and is aligned
    with ``qubits``.
    """

    name: str
    qubits: tuple[int, ...]
    angles: tuple[float, ...] = ()
    axes: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated target qubit in {self.qubits}")

    @property
    def num_targets(self) -> int:
        return len(self.qubits)


def gpi2(qubit: int, phi: float) -> Gate:
    return Gate("GPI2", (qubit,), (phi,))


def rz(qubit: int, theta: float) -> Gate:
    return Gate("RZ", (qubit,), (theta,))


def ms(q0: int, q1: int, phi0: float = 0.0, phi1: float = 0.0, theta: float = math.pi / 2) -> Gate:
    return Gate("MS", (q0, q1), (phi0, phi1, theta))


def hadamard(qubit: int) -> Gate:
    return Gate("H", (qubit,))


def pauli_x(qubit: int) -> Gate:
    return Gate("X", (qubit,))


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def pauli_rotation(qubits, axes, angle: float) -> Gate:
    qubits = tuple(qubits)
    axes = tuple(axes)
    if len(qubits) != len(axes) or not qubits:
        raise ValueError("qubits and axes must be non-empty and aligned")
    if any(a not in (1, 2, 3) for a in axes):
        raise ValueError("rotation axes must be non-identity (1, 2 or 3)")
    order = np.argsort(qubits)
    return Gate(
        "PROT",
        tuple(qubits[i] for i in order),
        (float(angle),),
        tuple(axes[i] for i in order),
    )


def gate_matrix(g: Gate) -> np.ndarray:
    """Dense unitary of one gate on its target qubits (first target is
    the most significant bit of the local index)."""
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
        word = PauliString(len(g.qubits), g.axes)
        dense = word.to_dense()
        dim = dense.shape[0]
        return math.cos(theta / 2) * np.eye(dim) - 1j * math.sin(theta / 2) * dense
    raise ValueError(f"unknown gate {g.name!r}")


@dataclass
class CircuitMetadata:
    n_1q: int
    n_2q: int
    two_qubit_depth: int


@dataclass
class Circuit:
    """Ordered gate list over a fixed qubit register."""

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        for g in self.gates:
            self._check(g)

    def _check(self, g: Gate) -> None:
        if any(not 0 <= q < self.num_qubits for q in g.qubits):
            raise ValueError(
                f"gate {g.name} targets {g.qubits}, register has {self.num_qubits} qubits"
            )

    def add(self, g: Gate) -> "Circuit":
        self._check(g)
        self.gates.append(g)
        return self

    def extend(self, gates) -> "Circuit":
        for g in gates:
            self.add(g)
        return self

    def __len__(self) -> int:
        return len(self.gates)

    def __add__(self, other: "Circuit") -> "Circuit":
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit-count mismatch")
        return Circuit(self.num_qubits, list(self.gates) + list(other.gates))

    def is_native(self) -> bool:
        return all(g.name in NATIVE_GATE_NAMES for g in self.gates)

    def gate_counts(self) -> tuple[int, int]:
        """(1-qubit, 2-qubit) counts over the stored gates as-is."""
        n1 = sum(1 for g in self.gates if g.num_targets == 1)
        n2 = sum(1 for g in self.gates if g.num_targets == 2)
        return n1, n2

    @property
    def metadata(self) -> CircuitMetadata:
        """Gate counts and entangling depth of the native compilation."""
        native = self if self.is_native() else compile_native(self)
        n1, n2 = native.gate_counts()
        layer_of_qubit = [0] * self.num_qubits
        depth = 0
        for g in native.gates:
            if g.num_targets == 2:
                layer = max(layer_of_qubit[q] for q in g.qubits) + 1
                for q in g.qubits:
                    layer_of_qubit[q] = layer
                depth = max(depth, layer)
        return CircuitMetadata(n1, n2, depth)


# --- native compilation -------------------------------------------------
#
# Exact identities used (verified by the dense-unitary tests):
#   RX(t) = GPI2(pi/2) RZ(t) GPI2(-pi/2)
#   RY(t) = GPI2(pi)   RZ(t) GPI2(0)
#   H     = GPI2(pi/2) RZ(pi)            up to global phase -i
#   X     = GPI2(0)^2                    up to global phase i
#   CNOT  = RZ(pi/2)_c RX(pi/2)_t RY(-pi/2)_c MS(0,0,-pi/2) RY(pi/2)_c
#           up to global phase exp(i pi/4)
# Matrix products read right to left; gate lists below are in execution
# order (first gate first).

_BASIS_IN = {1: lambda q: gpi2(q, -math.pi / 2), 2: lambda q: gpi2(q, 0.0)}
_BASIS_OUT = {1: lambda q: gpi2(q, math.pi / 2), 2: lambda q: gpi2(q, math.pi)}


def _compile_prot(g: Gate) -> list[Gate]:
    (theta,) = g.angles
    qubits, axes = g.qubits, g.axes
    if len(qubits) == 1:
        q, a = qubits[0], axes[0]
        if a == 3:
            return [rz(q, theta)]
        return [_BASIS_IN[a](q), rz(q, theta), _BASIS_OUT[a](q)]
    if len(qubits) == 2 and axes == (1, 1):
        return [ms(qubits[0], qubits[1], 0.0, 0.0, theta)]
    out: list[Gate] = []
    for q, a in zip(qubits, axes):
        if a != 3:
            out.append(_BASIS_IN[a](q))
    ladder = [cnot(qubits[i], qubits[i + 1]) for i in range(len(qubits) - 1)]
    out += ladder
    out.append(rz(qubits[-1], theta))
    out += reversed(ladder)
    for q, a in zip(qubits, axes):
        if a != 3:
            out.append(_BASIS_OUT[a](q))
    return out


def _compile_gate(g: Gate) -> list[Gate]:
    if g.name in NATIVE_GATE_NAMES:
        return [g]
    if g.name == "H":
        q = g.qubits[0]
        return [rz(q, math.pi), gpi2(q, math.pi / 2)]
    if g.name == "X":
        q = g.qubits[0]
        return [gpi2(q, 0.0), gpi2(q, 0.0)]
    if g.name == "CNOT":
        c, t = g.qubits
        return [
            gpi2(c, math.pi / 2),
            ms(c, t, 0.0, 0.0, -math.pi / 2),
            gpi2(c, -math.pi / 2),
            gpi2(t, 0.0),
            rz(c, math.pi / 2),
        ]
    if g.name == "PROT":
        out: list[Gate] = []
        for sub in _compile_prot(g):
            out.extend(_compile_gate(sub))
        return out
    raise ValueError(f"cannot compile gate {g.name!r}")


def compile_native(circuit: Circuit) -> Circuit:
    """Rewrite onto {GPI2, RZ, MS}; equal to the input as a unitary up to
    a global phase."""
    out = Circuit(circuit.num_qubits)
    for g in circuit.gates:
        out.extend(_compile_gate(g))
    return out


# --- statevector simulation ----------------------------------------------


@dataclass
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes, "
                f"got shape {self.amplitudes.shape}"
            )

    @classmethod
    def zero_state(cls, num_qubits: int) -> "StateVector":
        amps = np.zeros(1 << num_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(num_qubits, amps)

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def expectation(self, p: PauliString) -> float:
        return expectation(p, self.amplitudes)

    def fidelity(self, other) -> float:
        amps = getattr(other, "amplitudes", other)
        return float(abs(np.vdot(np.asarray(amps), self.amplitudes)) ** 2)


def _apply_unitary_tensor(
    arr: np.ndarray, mat: np.ndarray, target_axes: tuple[int, ...]
) -> np.ndarray:
    """Contract a 2^k x 2^k matrix onto the given tensor axes of ``arr``."""
    k = len(target_axes)
    mat_t = mat.reshape((2,) * (2 * k))
    out = np.tensordot(mat_t, arr, axes=(tuple(range(k, 2 * k)), target_axes))
    return np.moveaxis(out, tuple(range(k)), target_axes)


def _rotation_plan(qubits, axes, num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(src, -i factor) of a Pauli word on the whole register."""
    full_axes = [0] * num_qubits
    for q, a in zip(qubits, axes):
        full_axes[q] = a
    src, factor = pauli_plan(full_axes)
    return src, -1j * factor


def _rotate(amps: np.ndarray, src: np.ndarray, phase: np.ndarray, cos, sin) -> None:
    """exp(-i theta P / 2) in place: amps <- cos amps + sin phase amps[src],
    where P v = factor v[src], phase = -i factor, cos/sin are of theta/2.

    ``amps`` may hold one state per column, with ``cos``/``sin`` one value
    per column, or a (2^n, 2^n, T) density batch acted on along its first
    axis; the gather is the only temporary.
    """
    rotated = amps[src]
    rotated *= phase
    rotated *= sin
    amps *= cos
    amps += rotated


def apply_gate(state: StateVector, g: Gate) -> StateVector:
    """Apply one gate in place and return the state."""
    n = state.num_qubits
    if any(not 0 <= q < n for q in g.qubits):
        raise ValueError(f"gate targets {g.qubits} out of range for {n} qubits")
    if g.name == "PROT":
        (theta,) = g.angles
        src, phase = _rotation_plan(g.qubits, g.axes, n)
        amps = state.amplitudes.copy()
        _rotate(amps, src, phase, math.cos(theta / 2), math.sin(theta / 2))
        state.amplitudes = amps
        return state
    mat = gate_matrix(g)
    tensor = state.amplitudes.reshape((2,) * n)
    tensor = _apply_unitary_tensor(tensor, mat, g.qubits)
    state.amplitudes = tensor.reshape(-1)
    return state


def run_circuit(circuit: Circuit, state: StateVector | None = None) -> StateVector:
    if state is None:
        state = StateVector.zero_state(circuit.num_qubits)
    elif state.num_qubits != circuit.num_qubits:
        raise ValueError("state/circuit qubit-count mismatch")
    for g in circuit.gates:
        apply_gate(state, g)
    return state


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (oracle-sized registers only)."""
    n = circuit.num_qubits
    check_oracle_size(n)
    dim = 1 << n
    arr = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    for g in circuit.gates:
        arr = _apply_unitary_tensor(arr, gate_matrix(g), g.qubits)
    return arr.reshape(dim, dim)


# --- product formulas and schedules ---------------------------------------


def trotter_term_order(h: QubitHamiltonian) -> list[tuple[tuple[int, ...], float]]:
    """The terms one product-formula step applies, in order.

    Canonical lexicographic order without identity terms, which only
    shift the global phase. In Ising form (every term a two-site XX
    coupling or a single-site Z, with at least one coupling) the mutually
    commuting couplings come first, scheduled into parallel entangling
    layers (two per step on an even periodic chain), then the fields;
    this reorder leaves the step unitary intact.
    """
    words = [tuple(a for a in axes if a != 0) for axes, _ in h.terms]
    if (1, 1) not in words or any(w not in ((1, 1), (3,)) for w in words):
        return [term for term, w in zip(h.terms, words) if w]
    couplings = {
        tuple(q for q, a in enumerate(term[0]) if a != 0): term
        for term, w in zip(h.terms, words) if w == (1, 1)
    }
    layered = [couplings[pair] for layer in _edge_layers(list(couplings)) for pair in layer]
    return layered + [term for term, w in zip(h.terms, words) if w == (3,)]


def _edge_layers(edges: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Greedy proper edge coloring; preserves input order within layers."""
    layers: list[list[tuple[int, int]]] = []
    busy: list[set[int]] = []
    for (i, j) in edges:
        for layer, occupied in zip(layers, busy):
            if i not in occupied and j not in occupied:
                layer.append((i, j))
                occupied.update((i, j))
                break
        else:
            layers.append([(i, j)])
            busy.append({i, j})
    return layers


def trotter_step(h: QubitHamiltonian, dt: float, native: bool = False) -> Circuit:
    """One first-order product-formula step: exp(-i c dt P) per term of
    ``trotter_term_order``, compiled onto {GPI2, RZ, MS} with
    ``native=True``."""
    if not math.isfinite(dt):
        raise ValueError("dt must be finite")
    circuit = Circuit(h.num_qubits)
    for axes, coeff in trotter_term_order(h):
        qubits = tuple(q for q, a in enumerate(axes) if a != 0)
        sub_axes = tuple(axes[q] for q in qubits)
        circuit.add(pauli_rotation(qubits, sub_axes, 2.0 * coeff * dt))
    return compile_native(circuit) if native else circuit


def time_evolution_circuit(
    h: QubitHamiltonian, t: float, n_steps: int, native: bool = False
) -> Circuit:
    """n_steps identical first-order steps approximating exp(-i H t)."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if t == 0.0:
        return Circuit(h.num_qubits)
    step = trotter_step(h, t / n_steps, native=native)
    out = Circuit(h.num_qubits)
    for _ in range(n_steps):
        out.extend(step.gates)
    return out


def interpolated_hamiltonian(
    h0: QubitHamiltonian, h: QubitHamiltonian, s: float
) -> QubitHamiltonian:
    """(1 - s) H0 + s H."""
    if h0.num_qubits != h.num_qubits:
        raise ValueError("qubit-count mismatch")
    return h0.scaled(1.0 - s) + h.scaled(s)


def adiabatic_circuit(
    h0: QubitHamiltonian,
    h: QubitHamiltonian,
    tau: float,
    n_steps: int,
    native: bool = False,
) -> Circuit:
    """Discretized linear-schedule interpolation from H0 to H.

    Step m of n applies one first-order step of the interpolated
    Hamiltonian at the midpoint fraction s = (m - 1/2)/n for time tau/n.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if tau <= 0:
        raise ValueError("tau must be positive")
    out = Circuit(h.num_qubits)
    dt = tau / n_steps
    for m in range(1, n_steps + 1):
        s = (m - 0.5) / n_steps
        out.extend(trotter_step(interpolated_hamiltonian(h0, h, s), dt, native=native).gates)
    return out


def exact_evolve(state: StateVector, h: QubitHamiltonian, t: float) -> StateVector:
    """exp(-i H t)|state> through the dense eigendecomposition (oracle)."""
    if state.num_qubits != h.num_qubits:
        raise ValueError("state/Hamiltonian qubit-count mismatch")
    spectrum = exact_spectrum(h)
    vectors = spectrum.eigenvectors
    coeffs = vectors.conj().T @ state.amplitudes
    coeffs = coeffs * np.exp(-1j * spectrum.eigenvalues * t)
    return StateVector(state.num_qubits, vectors @ coeffs)


# --- precompiled Pauli-rotation kernel ---------------------------------------
#
# Every gate is a product of rotations exp(-i theta P / 2) about unit Pauli
# words P, exactly or (H, X, CNOT, through compile_native) up to a global
# phase. Identities used, matrix products read right to left:
#   RZ(t)          = exp(-i t Z / 2)
#   MS(0, 0, t)    = exp(-i t XX / 2)
#   GPI2(0), GPI2(pi)          = rotations by pi/2, -pi/2 about X
#   GPI2(pi/2), GPI2(-pi/2)    = rotations by pi/2, -pi/2 about Y
#   GPI2(phi)      = RZ(phi) GPI2(0) RZ(-phi)
#   MS(p0, p1, t)  = RZ_0(p0) RZ_1(p1) MS(0, 0, t) RZ_0(-p0) RZ_1(-p1)

_GPI2_ROTATIONS = {
    0.0: (1, math.pi / 2),
    math.pi: (1, -math.pi / 2),
    math.pi / 2: (2, math.pi / 2),
    -math.pi / 2: (2, -math.pi / 2),
}


def _gate_rotations(g: Gate) -> list[tuple[tuple[int, ...], tuple[int, ...], float]]:
    """``g`` as (qubits, axes, theta) rotations in execution order."""
    if g.name == "PROT":
        return [(g.qubits, g.axes, g.angles[0])]
    if g.name == "RZ":
        return [(g.qubits, (3,), g.angles[0])]
    if g.name == "GPI2":
        (phi,) = g.angles
        if phi in _GPI2_ROTATIONS:
            axis, theta = _GPI2_ROTATIONS[phi]
            return [(g.qubits, (axis,), theta)]
        return [(g.qubits, (3,), -phi), (g.qubits, (1,), math.pi / 2), (g.qubits, (3,), phi)]
    if g.name == "MS":
        *phis, theta = g.angles
        frame = [((q,), (3,), phi) for q, phi in zip(g.qubits, phis) if phi != 0.0]
        unframe = [(q, a, -phi) for q, a, phi in frame]
        return unframe + [(g.qubits, (1, 1), theta)] + frame
    return [r for sub in _compile_gate(g) for r in _gate_rotations(sub)]


@dataclass(frozen=True)
class StepPlan:
    """A gate sequence compiled once into Pauli rotations.

    Rotation r turns by ``slopes[r] * dt + intercepts[r]`` at step length
    dt; ``plans[r]`` holds its gather index and phase (see ``_rotate``).
    ``channels[r]`` is ``(targets, p)``, the depolarizing channels that
    follow rotation r: the last rotation of each gate carries the gate's
    targets when the plan's noise model gives it p > 0, every other
    rotation ``((), 0.0)``.
    """

    slopes: np.ndarray
    intercepts: np.ndarray
    plans: tuple[tuple[np.ndarray, np.ndarray], ...]
    channels: tuple[tuple[tuple[int, ...], float], ...]

    def half_angle_trig(self, dts) -> tuple[np.ndarray, np.ndarray]:
        """(cos, sin) of every rotation's half angle, one column per dt.

        They go through ``math.cos``/``math.sin`` as in ``apply_gate``, so
        each column takes the same floating-point steps as the gate list.
        """
        angles = np.multiply.outer(self.slopes, np.asarray(dts, dtype=float))
        half = ((angles + self.intercepts[:, None]) / 2.0).tolist()
        cos = np.array([[math.cos(x) for x in row] for row in half])
        sin = np.array([[math.sin(x) for x in row] for row in half])
        return cos, sin


def compile_gates(
    at_one, at_zero, num_qubits: int, noise: NoiseModel | None = None
) -> StepPlan:
    """Plan of a gate sequence whose angles are linear in the step length.

    ``at_one``/``at_zero`` are the sequence at dt = 1 and dt = 0 (pass the
    same list twice for a fixed circuit); each rotation's slope and
    intercept are read from them. With ``noise``, every gate is followed
    by one depolarizing channel per target, with the model's one- or
    two-qubit probability.
    """
    p1, p2 = (noise.p_1q(), noise.p_2q()) if noise is not None else (0.0, 0.0)
    slopes, intercepts, plans, channels = [], [], [], []
    for g1, g0 in zip(at_one, at_zero, strict=True):
        rotations = list(zip(_gate_rotations(g1), _gate_rotations(g0), strict=True))
        p = p1 if g1.num_targets == 1 else p2
        for k, ((qubits, axes, theta1), (_, _, theta0)) in enumerate(rotations):
            slopes.append(theta1 - theta0)
            intercepts.append(theta0)
            plans.append(_rotation_plan(qubits, axes, num_qubits))
            last = k == len(rotations) - 1
            channels.append((g1.qubits, p) if last and p > 0.0 else ((), 0.0))
    return StepPlan(np.array(slopes), np.array(intercepts), tuple(plans), tuple(channels))


def compile_step(
    h: QubitHamiltonian, native: bool = False, noise: NoiseModel | None = None
) -> StepPlan:
    """Plan of ``trotter_step(h, dt, native)`` for any dt, compiled once."""
    return compile_gates(
        trotter_step(h, 1.0, native=native).gates,
        trotter_step(h, 0.0, native=native).gates,
        h.num_qubits,
        noise,
    )


def evolve_columns(
    plan: StepPlan, columns: np.ndarray, dts, n_steps: int = 1
) -> np.ndarray:
    """Advance column k of a (2^n, T) array by ``n_steps`` steps of length
    ``dts[k]``, in place, one rotation at a time across all columns.
    The plan's noise channels do not apply to pure states."""
    cos, sin = plan.half_angle_trig(dts)
    for _ in range(n_steps):
        for (src, phase), c, s in zip(plan.plans, cos, sin):
            _rotate(columns, src, phase[:, None], c, s)
    return columns


# --- measurement ----------------------------------------------------------


def _check_measurable(o: PauliString) -> float:
    """Validate Hermitian unit-modulus observable; return its sign."""
    if abs(o.phase_coeff.imag) > 1e-9 or abs(abs(o.phase_coeff.real) - 1.0) > 1e-9:
        raise ValueError(
            f"observable must be Hermitian with coefficient +-1, got {o.phase_coeff}"
        )
    return 1.0 if o.phase_coeff.real > 0 else -1.0


def basis_change_circuit(o: PauliString) -> Circuit:
    """Rotation C with C O C^dag diagonal: H for X sites, an axis swap
    (GPI2(0), exactly RX(pi/2)) for Y sites, nothing for Z or identity."""
    _check_measurable(o)
    circuit = Circuit(o.num_qubits)
    for q, a in enumerate(o.axes):
        if a == 1:
            circuit.add(hadamard(q))
        elif a == 2:
            circuit.add(gpi2(q, 0.0))
    return circuit


def readout_word(o: PauliString) -> PauliString:
    """Diagonal +-1 word measured after the basis change: Z on every
    non-identity site of O, carrying O's sign."""
    sign = _check_measurable(o)
    axes = tuple(3 if a != 0 else 0 for a in o.axes)
    return PauliString(o.num_qubits, axes, sign)


@dataclass(frozen=True)
class ExpectationSample:
    """Shot-averaged +-1 measurement record."""

    mean: float
    std_error: float
    shots: int
    n_plus: int
    n_minus: int

    @classmethod
    def from_plus_count(cls, n_plus: int, shots: int) -> "ExpectationSample":
        n_minus = shots - n_plus
        mean = (n_plus - n_minus) / shots
        std_error = math.sqrt(max(0.0, 1.0 - mean * mean) / shots)
        return cls(mean, std_error, shots, n_plus, n_minus)


def sample_expectation(
    state: StateVector, o: PauliString, shots: int, seed
) -> ExpectationSample:
    """Draw ``shots`` independent +-1 outcomes of O on a pure state.

    P(+1) is the exact weight of the +1 eigenspace, (1 + <O>)/2 for a
    unit Pauli word; outcomes follow the intrinsic binomial statistics
    with variance 1 - <O>^2 per shot.
    """
    _check_measurable(o)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    value = expectation(o, state.amplitudes)
    p_plus = min(max((1.0 + value) / 2.0, 0.0), 1.0)
    rng = default_rng(seed)
    n_plus = int(rng.binomial(shots, p_plus))
    return ExpectationSample.from_plus_count(n_plus, shots)
