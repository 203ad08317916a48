"""Statevector simulation with a trapped-ion native gate set.

Gates are either native (GPI2, RZ, MS) or convenience gates (H, X, CNOT,
multi-qubit Pauli rotations) that compile exactly onto the native set, up
to a global phase for H, X and CNOT. First-order product-formula circuits,
linear-schedule adiabatic interpolation, and shot sampling with the
intrinsic +-1 measurement variance live here as well.

Angle conventions: RZ(theta) = exp(-i theta Z / 2), GPI2(phi) is a pi/2
rotation about the axis (cos phi, sin phi, 0) of the Bloch sphere, and
MS(0, 0, theta) = exp(-i theta XX / 2). A PauliRotation with angle theta
applies exp(-i theta P / 2) for the unit Pauli word P.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from numpy.random import default_rng

from .pauli_core import (
    COEFF_PRUNE_TOL,
    PauliString,
    QubitHamiltonian,
    check_oracle_size,
    expectation,
    expectations,
    pauli_plan,
)

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
#   H     = i GPI2(pi/2) RZ(pi)
#   X     = i GPI2(0)^2
#   CNOT  = exp(i pi/4) RZ(pi/2)_c RX(pi/2)_t RY(-pi/2)_c MS(0,0,-pi/2) RY(pi/2)_c
# The compiled gates drop the global phase; _DROPPED_PHASE keeps it.
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


@lru_cache(maxsize=128)
def _rotation_plan(qubits, axes, num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(src, -i factor) of a Pauli word on the whole register, read-only.

    Cached, so a point derives each word once for its thermalization,
    window pilot and series. Only rotation words come here: a search over
    every word goes through ``pauli_plan`` and would fill the cache.
    """
    full_axes = [0] * num_qubits
    for q, a in zip(qubits, axes):
        if not 0 <= q < num_qubits:
            raise ValueError(f"gate targets qubit {q}, out of range for {num_qubits} qubits")
        full_axes[q] = a
    src, factor = pauli_plan(full_axes)
    phase = -1j * factor
    src.setflags(write=False)
    phase.setflags(write=False)
    return src, phase


def _rotate(amps: np.ndarray, src: np.ndarray, phase: np.ndarray, cos, sin) -> None:
    """exp(-i theta P / 2) in place: amps <- cos amps + sin phase amps[src],
    where P v = factor v[src], phase = -i factor, cos/sin are of theta/2.

    ``amps`` are (2^n, T) state columns with ``phase`` as a column;
    ``cos``/``sin`` are one scalar or one value per column. The gather is
    the only temporary.
    """
    rotated = amps[src]
    rotated *= phase
    rotated *= sin
    amps *= cos
    amps += rotated


def run_circuit(circuit: Circuit, state: StateVector | None = None) -> StateVector:
    """Run ``circuit`` on ``state`` (|0...0> when None), each gate exactly
    as its Pauli rotations (``_run_gates``); return the state with its
    amplitudes replaced."""
    if state is None:
        state = StateVector.zero_state(circuit.num_qubits)
    elif state.num_qubits != circuit.num_qubits:
        raise ValueError("state/circuit qubit-count mismatch")
    columns = state.amplitudes[:, None].copy()
    state.amplitudes = _run_gates(circuit.gates, columns)[:, 0]
    return state


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (oracle-sized registers only):
    the circuit run on the identity's columns."""
    n = circuit.num_qubits
    check_oracle_size(n)
    return _run_gates(circuit.gates, np.eye(1 << n, dtype=complex))


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
    return _term_order(h.terms)


def _term_order(terms) -> list[tuple[tuple[int, ...], float]]:
    """``trotter_term_order`` of a canonical term list."""
    words = [tuple(a for a in axes if a != 0) for axes, _ in terms]
    if (1, 1) not in words or any(w not in ((1, 1), (3,)) for w in words):
        return [term for term, w in zip(terms, words) if w]
    couplings = {
        tuple(q for q, a in enumerate(term[0]) if a != 0): term
        for term, w in zip(terms, words) if w == (1, 1)
    }
    layered = [couplings[pair] for layer in _edge_layers(list(couplings)) for pair in layer]
    return layered + [term for term, w in zip(terms, words) if w == (3,)]


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


def interpolated_hamiltonian(
    h0: QubitHamiltonian, h: QubitHamiltonian, s: float
) -> QubitHamiltonian:
    """(1 - s) H0 + s H."""
    if h0.num_qubits != h.num_qubits:
        raise ValueError("qubit-count mismatch")
    return h0.scaled(1.0 - s) + h.scaled(s)


def _check_schedule(tau: float, n_steps: int) -> None:
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if tau <= 0:
        raise ValueError("tau must be positive")


@lru_cache(maxsize=64)
def _adiabatic_schedule(
    h0: QubitHamiltonian, h: QubitHamiltonian, tau: float, n_steps: int
) -> tuple[tuple[tuple[tuple[tuple[int, ...], float], ...], ...], float]:
    """The ``trotter_term_order`` of every step of the linear schedule, and
    the step length: step m of n runs at the midpoint fraction
    s = (m - 1/2)/n for time tau/n.

    Cached, as tuples: a point's batch key, its noiseless and its noisy
    thermalization read one schedule. The endpoint terms are merged once.
    Each step's coefficients are those of ``interpolated_hamiltonian`` bit
    for bit: (0.0 + (1 - s) c0) + s c1, summed as ``QubitHamiltonian``
    merges terms, with each scaled part and the sum pruned at
    ``COEFF_PRUNE_TOL``, in canonical order.
    """
    if h0.num_qubits != h.num_qubits:
        raise ValueError("qubit-count mismatch")
    _check_schedule(tau, n_steps)
    ends = {axes: [c, None] for axes, c in h0.terms}
    for axes, c in h.terms:
        ends.setdefault(axes, [None, None])[1] = c
    merged = sorted(ends.items())
    # the term order depends only on a step's words: one permutation per set
    orders: dict[tuple, list[int]] = {}
    steps = []
    for m in range(1, n_steps + 1):
        s = (m - 0.5) / n_steps
        terms = []
        for axes, coeffs in merged:
            total = 0.0
            for factor, c in zip((1.0 - s, s), coeffs):
                if c is not None and abs(part := 0.0 + factor * c) > COEFF_PRUNE_TOL:
                    total += part
            if abs(total) > COEFF_PRUNE_TOL:
                terms.append((axes, total))
        key = tuple(axes for axes, _ in terms)
        if key not in orders:
            orders[key] = [k for _, k in _term_order([(axes, k) for k, axes in enumerate(key)])]
        steps.append(tuple(terms[k] for k in orders[key]))
    return tuple(steps), tau / n_steps


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
    _check_schedule(tau, n_steps)
    out = Circuit(h.num_qubits)
    for m in range(1, n_steps + 1):
        h_s = interpolated_hamiltonian(h0, h, (m - 0.5) / n_steps)
        out.extend(trotter_step(h_s, tau / n_steps, native=native).gates)
    return out


# --- precompiled Pauli-rotation kernel ---------------------------------------
#
# Every gate is a product of rotations exp(-i theta P / 2) about unit Pauli
# words P, exactly or (H, X, CNOT, through compile_native) times the global
# phase in _DROPPED_PHASE. Identities used, matrix products read right to
# left:
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

# The global phase of H, X and CNOT that their native compilation drops
_DROPPED_PHASE = {"H": 1j, "X": 1j, "CNOT": cmath.exp(1j * math.pi / 4)}


def _gate_rotations(g: Gate) -> list[tuple[tuple[int, ...], tuple[int, ...], float]]:
    """``g`` as (qubits, axes, theta) rotations in execution order; for H,
    X and CNOT their product is the gate over ``_DROPPED_PHASE``."""
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


def _run_gates(gates, columns: np.ndarray) -> np.ndarray:
    """Apply a fixed gate list to every column of a (2^n, T) array, in
    place, one Pauli rotation at a time; each gate is exact, the global
    phase its compilation drops restored."""
    n = columns.shape[0].bit_length() - 1
    for g in gates:
        for qubits, axes, theta in _gate_rotations(g):
            src, phase = _rotation_plan(qubits, axes, n)
            _rotate(columns, src, phase[:, None], math.cos(theta / 2), math.sin(theta / 2))
        if g.name in _DROPPED_PHASE:
            columns *= _DROPPED_PHASE[g.name]
    return columns


@dataclass(frozen=True)
class StepPlan:
    """A gate sequence compiled once into Pauli rotations.

    Rotation r turns by ``slopes[r] * dt + intercepts[r]`` at step length
    dt about the word ``words[r]``, given as (qubits, axes); each kernel
    derives its own per-word tables from ``words``. ``slopes`` and
    ``intercepts`` are (R,), the same angles for every column, or (R, W),
    one column of angles per column of a batch W wide (``stack``).
    ``channels[r]`` is ``(targets, p)``, the depolarizing channels that
    follow rotation r: the last rotation of each gate carries the gate's
    targets when the plan's noise model gives it p > 0, every other
    rotation ``((), 0.0)``.
    """

    slopes: np.ndarray
    intercepts: np.ndarray
    words: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    channels: tuple[tuple[tuple[int, ...], float], ...]

    def __add__(self, other: "StepPlan") -> "StepPlan":
        """This plan's rotations, then those of ``other``."""
        return StepPlan(
            np.concatenate((self.slopes, other.slopes)),
            np.concatenate((self.intercepts, other.intercepts)),
            self.words + other.words,
            self.channels + other.channels,
        )

    @classmethod
    def stack(cls, plans, repeats: int = 1) -> "StepPlan":
        """One plan for a batch of points whose plans share their words and
        channels: columns p * repeats to (p + 1) * repeats - 1 turn by the
        angles of ``plans[p]``. ValueError when the words or channels
        differ."""
        first = plans[0]
        if any(p.words != first.words or p.channels != first.channels for p in plans[1:]):
            raise ValueError("the points of a batch must share their rotation words and channels")
        slopes, intercepts = (
            np.repeat(np.column_stack([getattr(p, name) for p in plans]), repeats, axis=1)
            for name in ("slopes", "intercepts")
        )
        return cls(slopes, intercepts, first.words, first.channels)

    def half_angle_trig(self, dts, width: int) -> tuple[np.ndarray, np.ndarray]:
        """(cos, sin) of every rotation's half angle, one column per dt.

        ``dts`` must hold one step length per column of a batch ``width``
        columns wide, as must a plan of (R, W) angles. The values go through
        ``math.cos``/``math.sin`` as in ``_run_gates``.
        """
        dts = np.asarray(dts, dtype=float)
        plan_width = self.slopes.shape[1] if self.slopes.ndim == 2 else width
        if dts.shape != (width,) or plan_width != width:
            raise ValueError(
                f"dts must hold one step length per column: shape {dts.shape}, "
                f"{width} columns, plan angles for {plan_width}"
            )
        angles = _per_column(self.slopes) * dts
        half = ((angles + _per_column(self.intercepts)) / 2.0).tolist()
        cos = np.array([[math.cos(x) for x in row] for row in half])
        sin = np.array([[math.sin(x) for x in row] for row in half])
        return cos, sin


def _per_column(x: np.ndarray) -> np.ndarray:
    """(R,) angles as one (R, 1) column; (R, W) as they are."""
    return x[:, None] if x.ndim == 1 else x


def compile_gates(gates, num_qubits: int, noise: NoiseModel | None = None) -> StepPlan:
    """Plan of a fixed gate list: each gate becomes its ``_gate_rotations``,
    every slope 0. With ``noise``, every gate is followed by one
    depolarizing channel per target, with the model's one- or two-qubit
    probability. The rotations leave out the global phase of H, X and
    CNOT, which no density matrix or expectation value sees.
    """
    p1, p2 = (noise.p_1q(), noise.p_2q()) if noise is not None else (0.0, 0.0)
    angles, words, channels = [], [], []
    for g in gates:
        for q in g.qubits:
            if not 0 <= q < num_qubits:
                raise ValueError(f"gate targets qubit {q}, out of range for {num_qubits} qubits")
        rotations = _gate_rotations(g)
        p = p1 if g.num_targets == 1 else p2
        for k, (qubits, axes, theta) in enumerate(rotations):
            angles.append(theta)
            words.append((qubits, axes))
            last = k == len(rotations) - 1
            channels.append((g.qubits, p) if last and p > 0.0 else ((), 0.0))
    return StepPlan(np.zeros(len(angles)), np.array(angles), tuple(words), tuple(channels))


def compile_terms(
    terms, num_qubits: int, native: bool = False, noise: NoiseModel | None = None
) -> StepPlan:
    """Plan of the product formula that applies exp(-i c dt P) for each
    (axes, c) of ``terms`` in turn, for any step length dt.

    Each distinct word is compiled once (``compile_gates``), as the
    PauliRotation gate that ``trotter_step`` writes for it (through
    ``_compile_gate`` when ``native``), at a NaN angle that marks the one
    rotation carrying it. A term repeats its word's rotations and
    channels, with slope 2 c on that rotation. So at any dt the plan is,
    rotation for rotation, ``compile_gates`` of those gates.
    """
    compiled = {}  # by the term's axes: (marked rotation, angles, words, channels)
    slopes, intercepts, words, channels = [], [], [], []
    for axes, coeff in terms:
        if axes not in compiled:
            qubits = tuple(q for q, a in enumerate(axes) if a != 0)
            g = Gate("PROT", qubits, (math.nan,), tuple(axes[q] for q in qubits))
            part = compile_gates(_compile_gate(g) if native else [g], num_qubits, noise)
            angles = part.intercepts.tolist()
            marked = int(np.isnan(part.intercepts).argmax())
            angles[marked] = 0.0
            compiled[axes] = (marked, angles, part.words, part.channels)
        marked, angles, part_words, part_channels = compiled[axes]
        rates = [0.0] * len(angles)
        rates[marked] = 2.0 * coeff
        slopes += rates
        intercepts += angles
        words += part_words
        channels += part_channels
    return StepPlan(np.array(slopes), np.array(intercepts), tuple(words), tuple(channels))


def compile_step(
    h: QubitHamiltonian, native: bool = False, noise: NoiseModel | None = None
) -> StepPlan:
    """Plan of ``trotter_step(h, dt, native)`` for any dt (``compile_terms``)."""
    return compile_terms(trotter_term_order(h), h.num_qubits, native, noise)


def compile_adiabatic(
    h0: QubitHamiltonian,
    h: QubitHamiltonian,
    tau: float,
    n_steps: int,
    native: bool = False,
    noise: NoiseModel | None = None,
) -> StepPlan:
    """Plan of ``adiabatic_circuit(h0, h, tau, n_steps, native)``, with the
    ``compile_gates`` channels under ``noise``. Every slope is 0: run it at
    dt = 0, where each rotation turns by its intercept.

    It is ``compile_terms`` over every step's term order
    (``_adiabatic_schedule``) in turn, with each angle fixed at the
    schedule's step length, so no gate is built per step. Rotation for
    rotation, it is ``compile_gates`` of the circuit.
    """
    steps, dt = _adiabatic_schedule(h0, h, tau, n_steps)
    plan = compile_terms([term for terms in steps for term in terms], h.num_qubits, native, noise)
    return StepPlan(
        np.zeros_like(plan.slopes), plan.slopes * dt + plan.intercepts, plan.words, plan.channels
    )


def run_adiabatic(plan: StepPlan, columns: np.ndarray) -> np.ndarray:
    """Apply a plan of fixed angles to a (2^n, T) array in place, one
    rotation at a time: ``compile_adiabatic(h0, h, tau, n_steps)``, or a
    ``StepPlan.stack`` of such plans with one column of angles per column.

    No gate is built, and each rotation is applied as ``_run_gates``
    applies it, so every column is bit for bit that of ``run_circuit`` on
    its own point's ``adiabatic_circuit``.
    """
    n = columns.shape[0].bit_length() - 1
    for word, row in zip(plan.words, (_per_column(plan.intercepts) / 2).tolist()):
        src, phase = _rotation_plan(*word, n)
        if len(row) == 1:  # one angle: floats, which multiply faster than a (1,) array
            cos, sin = math.cos(row[0]), math.sin(row[0])
        else:
            cos = np.array([math.cos(x) for x in row])
            sin = np.array([math.sin(x) for x in row])
        _rotate(columns, src, phase[:, None], cos, sin)
    return columns


def _batch_qubits(columns: np.ndarray, n_steps: int, radix: int = 2) -> int:
    """The qubit count of a C-contiguous batch of ``radix``^n rows that a
    kernel advances by ``n_steps`` >= 0 steps; ValueError otherwise."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    rows = columns.shape[0]
    n = (rows.bit_length() - 1) // (radix.bit_length() - 1)
    if rows != radix**n:
        raise ValueError(f"columns have {rows} rows, not a power of {radix}")
    if not columns.flags.c_contiguous:
        raise ValueError("columns must be C-contiguous")
    return n


@lru_cache(maxsize=1024)
def _flip_index(mask: int, num_qubits: int) -> tuple[slice, ...]:
    """The basic index that reverses the axes of the (2,)*n + (T,) view of
    a batch set in flip mask ``mask``; qubit 0 is the most significant bit.
    Cached: a step's build takes hundreds of flipped views, and forming
    each index anew cost a third of the He2 build."""
    return tuple(
        slice(None, None, -1) if mask >> (num_qubits - 1 - q) & 1 else slice(None)
        for q in range(num_qubits)
    )


def _flipped(v: np.ndarray, mask: int) -> np.ndarray:
    """v[x ^ mask] of a (2,)*n + (T,) array, as a view."""
    return v[_flip_index(mask, v.ndim - 1)]


def _halves(v: np.ndarray, mask: int) -> tuple[np.ndarray, np.ndarray]:
    """The views of v whose leading bit of ``mask`` is 0 and 1, each keeping
    that axis at length 1, so ``_flipped`` by the whole mask flips the
    rest. Flipping by the mask maps each half onto the other."""
    axis = (v.ndim - 1) - mask.bit_length()
    lead = (slice(None),) * axis
    return v[lead + (slice(0, 1),)], v[lead + (slice(1, 2),)]


def _opens_block(masks) -> list[bool]:
    """For each rotation flip mask, whether its rotation opens a new block
    of ``_flip_mask_blocks``: a block takes a run of masks that are all 0
    or one a, and a leading diagonal run joins the first block."""
    opens, current = [], None
    for mask in masks:
        opens.append(current is None or bool(mask) and current not in (0, mask))
        current = mask if mask or opens[-1] else current
    return opens


def _flip_mask_blocks(plan: StepPlan, cos: np.ndarray, sin: np.ndarray, num_qubits: int):
    """The plan's rotations at the given ``half_angle_trig`` fused into
    blocks (a, A, B), each acting on (2,)*n + (T,) columns of
    ``num_qubits`` qubits as v <- A v + B v[x ^ a]; yielded one at a time,
    each run of rotations that ``_opens_block`` marks as one ``_block``.
    """
    words = [_rotation_plan(*word, num_qubits) for word in plan.words]
    masks = [int(src[0]) for src, _ in words]
    starts = [r for r, opens in enumerate(_opens_block(masks)) if opens] + [len(words)]
    for lo, hi in zip(starts, starts[1:]):
        phases = [phase for _, phase in words[lo:hi]]
        yield _block(masks[lo:hi], phases, cos[lo:hi], sin[lo:hi])


def _block(masks, phases, cos, sin) -> tuple[int, np.ndarray, np.ndarray]:
    """One block (a, A, B) from rotations whose flip masks are all 0 or a.

    A rotation with flip mask a is v <- c v + t v[x ^ a], t = s phase, and
    such operators compose in closed form because flipping twice is the
    identity: after (A, B) it gives A' = c A + t B[x ^ a],
    B' = c B + t A[x ^ a]. A diagonal rotation (a = 0) is one factor
    d = c + t on both A and B; a stays 0 only when every rotation is
    diagonal.

    Half h of A' reads only half h of A and half 1 - h of B (``_halves``),
    and so does half 1 - h of B'. So a rotation updates those two halves
    at a time, and the build needs one batch of scratch besides the block.
    Every entry is formed by the same products, in the same order, as
    whole arrays would give.
    """
    shape = (2,) * (phases[0].size.bit_length() - 1)
    a = np.ones(shape + (cos.shape[1],), complex)
    b = np.zeros_like(a)
    turn = np.empty_like(a)
    block_mask = 0
    for mask, phase, c, s in zip(masks, phases, cos, sin):
        phase = phase.reshape(shape + (1,))
        if mask == 0:
            _turn(turn, s, phase)
            turn += c
            a *= turn
            b *= turn
            continue
        block_mask = mask
        for h, (a_half, b_half) in enumerate(zip(_halves(a, mask), _halves(b, mask)[::-1])):
            # half h of A' and half 1 - h of B', their products formed in
            # the two halves of t
            t_a, t_b = _halves(_turn(turn, s, phase), mask)[:: 1 - 2 * h]
            t_a *= _flipped(b_half, mask)
            np.multiply(_flipped(a_half, mask), t_b, out=t_b)
            a_half *= c
            a_half += t_a
            b_half *= c
            b_half += t_b
    return block_mask, a, b


def _turn(out: np.ndarray, s: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """t = s phase into ``out``: s times the phase column, without numpy's
    double-broadcast buffers."""
    out[...] = s
    out *= phase
    return out


def _fold(op: dict[int, np.ndarray], mask: int, a: np.ndarray, b: np.ndarray) -> None:
    """``op`` followed by the block v <- a v + b v[x ^ mask], in place:
    C'_m = a C_m + b C_(m ^ mask)[x ^ mask] for every flip mask m. The mask
    is nonzero: a diagonal block is the whole step, never folded.

    A pair (C_m, C_(m ^ mask)) is updated as ``_block`` updates (A, B), two
    opposite halves at a time, with one batch of scratch.
    """
    scratch = np.empty_like(a)
    into_m, into_partner = _halves(scratch, mask)
    a_halves, b_halves = _halves(a, mask), _halves(b, mask)
    for m in list(op):
        partner = m ^ mask
        if partner in op and partner < m:
            continue  # folded with its partner
        c_m = op[m]
        if partner not in op:
            op[partner] = _flipped(c_m, mask) * b
            c_m *= a
            continue
        m_halves, partner_halves = _halves(c_m, mask), _halves(op[partner], mask)
        for h in (0, 1):
            x, y = m_halves[h], partner_halves[1 - h]
            np.multiply(_flipped(y, mask), b_halves[h], out=into_m)
            np.multiply(_flipped(x, mask), b_halves[1 - h], out=into_partner)
            x *= a_halves[h]
            x += into_m
            y *= a_halves[1 - h]
            y += into_partner


def _step_operators(
    plan: StepPlan, cos: np.ndarray, sin: np.ndarray, num_qubits: int
) -> list[dict[int, np.ndarray]]:
    """The step at the given ``half_angle_trig`` as operators applied in
    turn, each a map {flip mask m: C_m} acting on (2,)*n + (T,) columns as
    v <- sum_m C_m v[x ^ m].

    A block (a, A, B) of ``_flip_mask_blocks`` is the operator {0: A, a: B}
    ({0: A} when a = 0). Blocks fold into one operator over the group G
    that the words' flip masks generate (``_fold``), as soon as each is
    built. That operator costs 2|G| - 1 passes over the columns per step
    against 3 per block, so the step is folded only when that is no more.
    """
    masks = [int(_rotation_plan(*word, num_qubits)[0][0]) for word in plan.words]
    group = {0}
    for mask in masks:
        if mask not in group:
            group |= {g ^ mask for g in group}
    fuse = 2 * len(group) - 1 <= 3 * sum(_opens_block(masks))
    ops = []
    for mask, a, b in _flip_mask_blocks(plan, cos, sin, num_qubits):
        if fuse and ops:
            _fold(ops[0], mask, a, b)
        else:
            ops.append({0: a, mask: b} if mask else {0: a})
        del a, b  # a folded block is freed before the next is built
    return ops


def evolve_columns(
    plan: StepPlan, columns: np.ndarray, dts, n_steps: int = 1
) -> np.ndarray:
    """Advance column k of a C-contiguous (2^n, T) array by ``n_steps``
    steps of length ``dts[k]``, in place, at column k's angles when the
    plan holds one column of them per column (``StepPlan.stack``).

    The step is built once per call as flip-mask operators
    (``_step_operators``). Each step then applies every operator
    v <- C_0 v + sum_(m != 0) C_m v[x ^ m] in place: the flipped terms,
    read from views of the (2,)*n + (T,) reshape of the columns, are
    summed into a buffer before v is scaled, so an operator of k terms
    costs 2k - 1 passes. This is the same product of rotations that
    ``run_circuit`` applies one by one, regrouped, so the two agree to
    rounding (1e-12 in the tests), not bit for bit. The plan's noise
    channels do not apply to pure states.
    """
    n = _batch_qubits(columns, n_steps)
    cos, sin = plan.half_angle_trig(dts, columns.shape[-1])
    v = columns.reshape((2,) * n + (columns.shape[-1],))
    stages = []  # (C_0, first flipped view or None, its C, the other flipped terms)
    for op in _step_operators(plan, cos, sin, n):
        flips = [(_flipped(v, mask), c) for mask, c in op.items() if mask]
        stages.append((op[0], *(flips[0] if flips else (None, None)), flips[1:]))
    acc, term = np.empty_like(v), np.empty_like(v)
    for _ in range(n_steps):
        for diagonal, view, c, rest in stages:
            if view is None:
                v *= diagonal
                continue
            np.multiply(view, c, out=acc)
            for flipped, coeff in rest:
                np.multiply(flipped, coeff, out=term)
                acc += term
            v *= diagonal
            v += acc
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
    return sample_columns(state.amplitudes[:, None], o, shots, [seed])[0]


def sample_columns(
    columns: np.ndarray, o: PauliString, shots: int, seeds
) -> list[ExpectationSample]:
    """``sample_expectation`` of every column of a (2^n, T) array, column
    k drawn with ``seeds[k]``; <O> of all columns comes from one plan
    (``expectations``)."""
    _check_measurable(o)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    samples = []
    for value, seed in zip(expectations(o, columns), seeds, strict=True):
        p_plus = min(max((1.0 + value) / 2.0, 0.0), 1.0)
        n_plus = int(default_rng(seed).binomial(shots, p_plus))
        samples.append(ExpectationSample.from_plus_count(n_plus, shots))
    return samples
