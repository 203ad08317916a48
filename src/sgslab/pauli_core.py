"""Exact algebra over n-qubit Pauli strings and real-weighted sums of them.

Conventions used throughout the package:

* A Pauli word is a tuple of axis codes, one per qubit, with
  0 = identity, 1 = X, 2 = Y, 3 = Z.
* Qubit 0 is the leftmost character in string notation and the most
  significant bit of a computational-basis index.
* Hamiltonians keep only real coefficients (Hermiticity) in canonical
  form: terms sorted lexicographically by axes, duplicates merged,
  coefficients below ``COEFF_PRUNE_TOL`` dropped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

AXIS_CHARS = "IXYZ"
CHAR_TO_AXIS = {c: i for i, c in enumerate(AXIS_CHARS)}

COEFF_PRUNE_TOL = 1e-12
HERMITICITY_TOL = 1e-9
DEFAULT_ORACLE_LIMIT = 12

_SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# _MUL_AXIS[a][b] / _MUL_PHASE[a][b]: single-qubit product sigma^a sigma^b
# equals phase * sigma^axis, with phase in {1, i, -i}.
_MUL_AXIS = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
_MUL_PHASE = [
    [1, 1, 1, 1],
    [1, 1, 1j, -1j],
    [1, -1j, 1, 1j],
    [1, 1j, -1j, 1],
]


def oracle_limit() -> int:
    """Dense-oracle qubit ceiling, overridable via SGSLAB_ORACLE_LIMIT."""
    raw = os.environ.get("SGSLAB_ORACLE_LIMIT")
    if raw is None:
        return DEFAULT_ORACLE_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"SGSLAB_ORACLE_LIMIT must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"SGSLAB_ORACLE_LIMIT must be >= 1, got {value}")
    return value


def check_oracle_size(num_qubits: int) -> None:
    limit = oracle_limit()
    if num_qubits > limit:
        raise ValueError(
            f"{num_qubits} qubits exceeds the dense-oracle limit of {limit} "
            "(set SGSLAB_ORACLE_LIMIT to override)"
        )


def _coerce_axes(axes: Sequence[int] | str) -> tuple[int, ...]:
    if isinstance(axes, str):
        try:
            return tuple(CHAR_TO_AXIS[c] for c in axes)
        except KeyError as exc:
            raise ValueError(f"invalid Pauli character {exc.args[0]!r} in {axes!r}") from None
    out = tuple(int(a) for a in axes)
    if any(a not in (0, 1, 2, 3) for a in out):
        raise ValueError(f"axis codes must be in 0..3, got {out}")
    return out


def axes_to_word(axes: Sequence[int]) -> str:
    return "".join(AXIS_CHARS[a] for a in axes)


@dataclass(frozen=True)
class PauliString:
    """A scalar multiple of a tensor product of single-qubit Paulis."""

    num_qubits: int
    axes: tuple[int, ...]
    phase_coeff: complex = 1.0

    def __post_init__(self):
        axes = _coerce_axes(self.axes)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "phase_coeff", complex(self.phase_coeff))
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        if len(axes) != self.num_qubits:
            raise ValueError(
                f"axes length {len(axes)} does not match num_qubits {self.num_qubits}"
            )

    @classmethod
    def from_word(cls, word: str, coeff: complex = 1.0) -> "PauliString":
        axes = _coerce_axes(word)
        return cls(len(axes), axes, coeff)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse "<prefix> <word>" or a bare word with an optional sign,
        e.g. "-0.5 XXII", "1j XY", "-XX", "ZZ"."""
        parts = text.split()
        if len(parts) == 1:
            word = parts[0]
            coeff = 1.0
            while word and word[0] in "+-":
                if word[0] == "-":
                    coeff = -coeff
                word = word[1:]
            return cls.from_word(word, coeff)
        if len(parts) == 2:
            try:
                coeff = complex(parts[0])
            except ValueError:
                raise ValueError(f"invalid coefficient {parts[0]!r}") from None
            return cls.from_word(parts[1], coeff)
        raise ValueError(f"expected '<coefficient> <word>', got {text!r}")

    def to_text(self) -> str:
        coeff = self.phase_coeff
        if coeff == 1.0:
            return self.word
        if coeff.imag == 0.0:
            return f"{coeff.real:.17g} {self.word}"
        return f"{coeff:.17g} {self.word}"

    @property
    def word(self) -> str:
        return axes_to_word(self.axes)

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return sum(1 for a in self.axes if a != 0)

    def is_hermitian(self, tol: float = COEFF_PRUNE_TOL) -> bool:
        return abs(self.phase_coeff.imag) <= tol

    def is_diagonal(self) -> bool:
        return all(a in (0, 3) for a in self.axes)

    def with_coeff(self, coeff: complex) -> "PauliString":
        return PauliString(self.num_qubits, self.axes, coeff)

    def to_dense(self) -> np.ndarray:
        check_oracle_size(self.num_qubits)
        out = np.array([[self.phase_coeff]])
        for a in self.axes:
            out = np.kron(out, _SIGMA[a])
        return out

    def __repr__(self) -> str:
        return f"PauliString({self.phase_coeff:+g} {self.word})"


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Operator product a.b with the phase tracked exactly."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"qubit-count mismatch: {a.num_qubits} vs {b.num_qubits}"
        )
    phase = a.phase_coeff * b.phase_coeff
    axes = []
    for ax, bx in zip(a.axes, b.axes):
        axes.append(_MUL_AXIS[ax][bx])
        phase *= _MUL_PHASE[ax][bx]
    return PauliString(a.num_qubits, tuple(axes), phase)


_Y_PHASE = (1.0, 1j, -1.0, -1j)  # i^k for k = 0..3


def pauli_plan(axes: Sequence[int] | str) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and phase vector of a unit Pauli word: P v = factor * v[src].

    With qubit 0 as the most significant bit, P|b> = i^n_y (-1)^{#Y,Z sites
    set in b} |b XOR flip>, so row b of P v reads v[b XOR flip]. Every
    matrix-free use of a word (statevector action, dense assembly, density
    expectations, diagonal energies) derives it here.
    """
    axes = _coerce_axes(axes)
    n = len(axes)
    flip = 0
    minus = 0
    n_y = 0
    for q, a in enumerate(axes):
        bit = 1 << (n - 1 - q)
        if a in (1, 2):
            flip |= bit
        if a in (2, 3):
            minus |= bit
        n_y += a == 2
    src = np.arange(1 << n) ^ flip
    phase = _Y_PHASE[n_y % 4]
    factor = np.where(np.bitwise_count(src & minus) & 1, -phase, phase).astype(complex)
    return src, factor


def apply_pauli(p: PauliString, amplitudes: np.ndarray) -> np.ndarray:
    """Matrix-free action of a Pauli string on a statevector.

    ``amplitudes`` has length 2**n; returns a new array.
    """
    if amplitudes.shape[0] != 1 << p.num_qubits:
        raise ValueError(
            f"statevector length {amplitudes.shape[0]} != 2**{p.num_qubits}"
        )
    src, factor = pauli_plan(p.axes)
    return amplitudes[src] * (p.phase_coeff * factor)


def expectation(p: PauliString, state) -> float:
    """<v|P|v> for a Hermitian Pauli string and a normalized statevector.

    ``state`` may be a raw amplitude array or anything with an
    ``amplitudes`` attribute.
    """
    amps = getattr(state, "amplitudes", state)
    amps = np.asarray(amps)
    if not p.is_hermitian(HERMITICITY_TOL):
        raise ValueError(f"non-Hermitian Pauli string (coeff {p.phase_coeff})")
    value = np.vdot(amps, apply_pauli(p, amps))
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ValueError(f"expectation has a residual imaginary part: {value}")
    return float(value.real)


@dataclass(frozen=True)
class QubitHamiltonian:
    """Canonicalized real-weighted sum of Pauli words."""

    num_qubits: int
    terms: tuple[tuple[tuple[int, ...], float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        merged: dict[tuple[int, ...], float] = {}
        for axes, coeff in self.terms:
            axes = _coerce_axes(axes)
            if len(axes) != self.num_qubits:
                raise ValueError(
                    f"term {axes_to_word(axes)!r} has {len(axes)} qubits, "
                    f"expected {self.num_qubits}"
                )
            coeff = float(coeff)
            merged[axes] = merged.get(axes, 0.0) + coeff
        canon = tuple(
            (axes, c) for axes, c in sorted(merged.items()) if abs(c) > COEFF_PRUNE_TOL
        )
        object.__setattr__(self, "terms", canon)

    @classmethod
    def from_terms(
        cls, num_qubits: int, terms: Iterable[tuple[Sequence[int] | str, float]]
    ) -> "QubitHamiltonian":
        return cls(num_qubits, tuple((axes, c) for axes, c in terms))

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], float]]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def coeff(self, axes: Sequence[int] | str) -> float:
        axes = _coerce_axes(axes)
        for a, c in self.terms:
            if a == axes:
                return c
        return 0.0

    def coeff_one_norm(self) -> float:
        """Sum of term coefficient magnitudes (bounds the spectral width)."""
        return float(sum(abs(c) for _, c in self.terms))

    def pauli_strings(self) -> list[PauliString]:
        return [PauliString(self.num_qubits, axes, c) for axes, c in self.terms]

    def scaled(self, factor: float) -> "QubitHamiltonian":
        return QubitHamiltonian(
            self.num_qubits, tuple((a, factor * c) for a, c in self.terms)
        )

    def __add__(self, other: "QubitHamiltonian") -> "QubitHamiltonian":
        if not isinstance(other, QubitHamiltonian):
            return NotImplemented
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit-count mismatch")
        return QubitHamiltonian(self.num_qubits, self.terms + other.terms)

    def to_dense(self) -> np.ndarray:
        """Dense 2^n x 2^n Hermitian matrix (oracle use only)."""
        check_oracle_size(self.num_qubits)
        dim = 1 << self.num_qubits
        rows = np.arange(dim)
        out = np.zeros((dim, dim), dtype=complex)
        for axes, coeff in self.terms:
            src, factor = pauli_plan(axes)
            out[rows, src] += coeff * factor
        return out

    def expectation(self, state) -> float:
        amps = np.asarray(getattr(state, "amplitudes", state))
        total = 0.0
        for axes, coeff in self.terms:
            src, factor = pauli_plan(axes)
            total += coeff * np.vdot(amps, factor * amps[src]).real
        return float(total)

    def __repr__(self) -> str:
        body = " + ".join(f"({c:+g} {axes_to_word(a)})" for a, c in self.terms[:6])
        if len(self.terms) > 6:
            body += f" ... [{len(self.terms)} terms]"
        return f"QubitHamiltonian({self.num_qubits}q: {body})"


def add_term(h: QubitHamiltonian, p: PauliString) -> QubitHamiltonian:
    """Canonicalized sum H + p; p must carry a real coefficient."""
    if p.num_qubits != h.num_qubits:
        raise ValueError("qubit-count mismatch")
    if abs(p.phase_coeff.imag) > HERMITICITY_TOL:
        raise ValueError(
            f"non-real coefficient {p.phase_coeff} would break Hermiticity"
        )
    return QubitHamiltonian(h.num_qubits, h.terms + ((p.axes, p.phase_coeff.real),))


def diagonal_part(h: QubitHamiltonian) -> QubitHamiltonian:
    """Sub-sum of terms acting only with I and Z (the matrix diagonal)."""
    return QubitHamiltonian(
        h.num_qubits,
        tuple((axes, c) for axes, c in h.terms if all(a in (0, 3) for a in axes)),
    )


def diagonal_energies(h: QubitHamiltonian) -> np.ndarray:
    """Diagonal of the dense matrix, computed without building it.

    Only valid for diagonal Hamiltonians (axes in {I, Z}).
    """
    bad = [axes_to_word(a) for a, _ in h.terms if not all(x in (0, 3) for x in a)]
    if bad:
        raise ValueError(f"Hamiltonian is not diagonal; offending terms: {bad}")
    check_oracle_size(h.num_qubits)
    energies = np.zeros(1 << h.num_qubits)
    for axes, coeff in h.terms:
        energies += coeff * pauli_plan(axes)[1].real
    return energies
