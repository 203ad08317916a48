"""Model Hamiltonian constructors and file ingestion.

Covers the transverse-field Ising chain/lattice with periodic boundary
conditions, its interaction-only auxiliary Hamiltonian, Jordan-Wigner
mapping of fermionic one- and two-body terms, and the line-oriented
qubit/fermion Hamiltonian file formats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

from .pauli_core import (
    HERMITICITY_TOL,
    CHAR_TO_AXIS,
    PauliString,
    QubitHamiltonian,
    axes_to_word,
    multiply,
)


@dataclass(frozen=True)
class IsingSpec:
    """Geometry and couplings of a periodic Ising model.

    ``geometry`` is "chain" (length ``length``) or "lattice"
    (``rows`` x ``cols``, row-major site order). Couplings must be
    finite and non-negative.
    """

    geometry: Literal["chain", "lattice"]
    j1: float
    h3: float
    length: int = 0
    rows: int = 0
    cols: int = 0

    def __post_init__(self):
        if self.geometry == "chain":
            if self.length < 2:
                raise ValueError("chain length must be >= 2")
        elif self.geometry == "lattice":
            if self.rows < 1 or self.cols < 1 or self.rows * self.cols < 2:
                raise ValueError("lattice needs rows*cols >= 2")
        else:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if not (0 <= self.j1 < math.inf and 0 <= self.h3 < math.inf):
            raise ValueError(
                f"couplings j1, h3 must be finite and >= 0, got {self.j1!r}, {self.h3!r}"
            )

    @classmethod
    def chain(cls, length: int, j1: float, h3: float) -> "IsingSpec":
        return cls("chain", j1, h3, length=length)

    @classmethod
    def lattice(cls, rows: int, cols: int, j1: float, h3: float) -> "IsingSpec":
        return cls("lattice", j1, h3, rows=rows, cols=cols)

    @property
    def num_sites(self) -> int:
        return self.length if self.geometry == "chain" else self.rows * self.cols

    def edges(self) -> list[tuple[int, int]]:
        """Distinct undirected nearest-neighbour bonds.

        Periodic wrap-around duplicates (L=2 chain, width-2 lattice) are
        deduplicated so every physical bond appears exactly once;
        self-loops from width-1 directions are dropped.
        """
        pairs: set[tuple[int, int]] = set()
        if self.geometry == "chain":
            for i in range(self.length):
                j = (i + 1) % self.length
                if i != j:
                    pairs.add((min(i, j), max(i, j)))
        else:
            for r in range(self.rows):
                for c in range(self.cols):
                    site = r * self.cols + c
                    right = r * self.cols + (c + 1) % self.cols
                    down = ((r + 1) % self.rows) * self.cols + c
                    for other in (right, down):
                        if other != site:
                            pairs.add((min(site, other), max(site, other)))
        return sorted(pairs)


def build_ising(spec: IsingSpec) -> QubitHamiltonian:
    """H = -(J1/2) sum_<ij> X_i X_j  -  (h3/2) sum_i Z_i with PBC."""
    n = spec.num_sites
    terms: list[tuple[tuple[int, ...], float]] = []
    for (i, j) in spec.edges():
        axes = [0] * n
        axes[i] = 1
        axes[j] = 1
        terms.append((tuple(axes), -spec.j1 / 2.0))
    for i in range(n):
        axes = [0] * n
        axes[i] = 3
        terms.append((tuple(axes), -spec.h3 / 2.0))
    return QubitHamiltonian(n, tuple(terms))


def ising_auxiliary(spec: IsingSpec) -> QubitHamiltonian:
    """Interaction-only starting Hamiltonian: build_ising with h3 = 0."""
    zero_field = IsingSpec(
        spec.geometry, spec.j1, 0.0, length=spec.length, rows=spec.rows, cols=spec.cols
    )
    return build_ising(zero_field)


@dataclass(frozen=True)
class FermionHamiltonian:
    """One- and two-body fermionic coefficients over spin orbitals.

    ``one_body[(p, q)]`` multiplies c_p^dag c_q; ``two_body[(p, q, r, s)]``
    multiplies (1/2) c_p^dag c_q^dag c_r c_s, indices applied in exactly
    that operator order. Files are expected to carry already-symmetrized
    coefficients; no permutation completion is done here.
    """

    num_orbitals: int
    one_body: dict[tuple[int, int], float]
    two_body: dict[tuple[int, int, int, int], float]

    def __post_init__(self):
        if self.num_orbitals < 1:
            raise ValueError("num_orbitals must be positive")
        for (p, q) in self.one_body:
            if not (0 <= p < self.num_orbitals and 0 <= q < self.num_orbitals):
                raise ValueError(f"one-body index ({p},{q}) out of range")
        for idx in self.two_body:
            if any(not (0 <= k < self.num_orbitals) for k in idx):
                raise ValueError(f"two-body index {idx} out of range")
        for (p, q), v in self.one_body.items():
            w = self.one_body.get((q, p))
            if w is not None and abs(v - w) > 1e-9:
                raise ValueError(
                    f"one-body block not symmetric: h[{p},{q}]={v} vs h[{q},{p}]={w}"
                )


def _jw_ladder(p: int, n: int, dagger: bool) -> list[PauliString]:
    """Jordan-Wigner image of c_p (or c_p^dag): Z-string then (X -+ iY)/2."""
    x_axes = [3] * p + [1] + [0] * (n - p - 1)
    y_axes = [3] * p + [2] + [0] * (n - p - 1)
    sign = -1.0 if dagger else 1.0
    return [
        PauliString(n, tuple(x_axes), 0.5),
        PauliString(n, tuple(y_axes), sign * 0.5j),
    ]


def jw_annihilation(p: int, num_orbitals: int) -> list[PauliString]:
    """Pauli decomposition of the annihilation operator c_p."""
    if not 0 <= p < num_orbitals:
        raise ValueError(f"orbital {p} out of range")
    return _jw_ladder(p, num_orbitals, dagger=False)


def jw_creation(p: int, num_orbitals: int) -> list[PauliString]:
    """Pauli decomposition of the creation operator c_p^dag."""
    if not 0 <= p < num_orbitals:
        raise ValueError(f"orbital {p} out of range")
    return _jw_ladder(p, num_orbitals, dagger=True)


def _expand_product(factors: list[list[PauliString]]) -> dict[tuple[int, ...], complex]:
    """Multiply out a product of Pauli-string sums into a term dict."""
    acc: dict[tuple[int, ...], complex] = {}
    first = factors[0]
    partial = {ps.axes: ps.phase_coeff for ps in first}
    n = first[0].num_qubits
    for factor in factors[1:]:
        nxt: dict[tuple[int, ...], complex] = {}
        for axes, coeff in partial.items():
            left = PauliString(n, axes, coeff)
            for ps in factor:
                prod = multiply(left, ps)
                nxt[prod.axes] = nxt.get(prod.axes, 0j) + prod.phase_coeff
        partial = nxt
    for axes, coeff in partial.items():
        acc[axes] = acc.get(axes, 0j) + coeff
    return acc


def jordan_wigner(f: FermionHamiltonian) -> QubitHamiltonian:
    """Map a fermionic Hamiltonian onto qubits.

    Expands every h_pq c_p^dag c_q and (1/2) h_pqrs c_p^dag c_q^dag c_r c_s
    through the ladder-operator substitution and canonicalizes. A residual
    imaginary coefficient above tolerance flags a non-Hermitian input.
    """
    n = f.num_orbitals
    acc: dict[tuple[int, ...], complex] = {}

    def accumulate(scale: complex, factors: list[list[PauliString]]):
        for axes, coeff in _expand_product(factors).items():
            acc[axes] = acc.get(axes, 0j) + scale * coeff

    for (p, q), h_pq in f.one_body.items():
        if h_pq == 0.0:
            continue
        accumulate(h_pq, [jw_creation(p, n), jw_annihilation(q, n)])
    for (p, q, r, s), h_pqrs in f.two_body.items():
        if h_pqrs == 0.0:
            continue
        accumulate(
            0.5 * h_pqrs,
            [
                jw_creation(p, n),
                jw_creation(q, n),
                jw_annihilation(r, n),
                jw_annihilation(s, n),
            ],
        )

    terms = []
    for axes, coeff in acc.items():
        if abs(coeff.imag) > HERMITICITY_TOL:
            raise ValueError(
                f"non-Hermitian input: term {axes_to_word(axes)} has residual "
                f"imaginary coefficient {coeff.imag:g}"
            )
        terms.append((axes, coeff.real))
    return QubitHamiltonian(n, tuple(terms))


class HamiltonianFileError(ValueError):
    """Parse failure carrying the offending path and line number."""

    def __init__(self, path, lineno: int | None, message: str):
        loc = f"{path}" if lineno is None else f"{path}:{lineno}"
        super().__init__(f"{loc}: {message}")
        self.path = str(path)
        self.lineno = lineno


def _data_lines(path: Path):
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def load_qubit_hamiltonian(path) -> QubitHamiltonian:
    """Read "<coefficient> <pauli word>" lines into a canonical Hamiltonian."""
    path = Path(path)
    terms: list[tuple[tuple[int, ...], float]] = []
    width: int | None = None
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise HamiltonianFileError(
                path, lineno, f"expected '<coefficient> <pauli word>', got {line!r}"
            )
        coeff_text, word = parts
        try:
            coeff = float(coeff_text)
        except ValueError:
            raise HamiltonianFileError(
                path, lineno, f"non-real coefficient {coeff_text!r}"
            ) from None
        if not math.isfinite(coeff):
            raise HamiltonianFileError(path, lineno, f"non-finite coefficient {coeff_text!r}")
        if any(c not in CHAR_TO_AXIS for c in word):
            raise HamiltonianFileError(path, lineno, f"invalid Pauli word {word!r}")
        if width is None:
            width = len(word)
        elif len(word) != width:
            raise HamiltonianFileError(
                path,
                lineno,
                f"inconsistent word length {len(word)} (expected {width})",
            )
        terms.append((tuple(CHAR_TO_AXIS[c] for c in word), coeff))
    if width is None:
        raise HamiltonianFileError(path, None, "no Hamiltonian terms found")
    return QubitHamiltonian(width, tuple(terms))


def write_qubit_hamiltonian(h: QubitHamiltonian, path) -> None:
    """Write canonical-order terms with 17 significant digits."""
    path = Path(path)
    lines = [f"{c:.17g} {axes_to_word(axes)}" for axes, c in h.terms]
    path.write_text("\n".join(lines) + "\n")


def load_fermion_hamiltonian(path) -> FermionHamiltonian:
    """Read "1B p q value" / "2B p q r s value" lines."""
    path = Path(path)
    one_body: dict[tuple[int, int], float] = {}
    two_body: dict[tuple[int, int, int, int], float] = {}
    max_idx = -1
    for lineno, line in _data_lines(path):
        parts = line.split()
        kind = parts[0].upper()
        try:
            if kind == "1B" and len(parts) == 4:
                p, q = int(parts[1]), int(parts[2])
                value = float(parts[3])
                one_body[(p, q)] = one_body.get((p, q), 0.0) + value
                max_idx = max(max_idx, p, q)
            elif kind == "2B" and len(parts) == 6:
                idx = tuple(int(x) for x in parts[1:5])
                value = float(parts[5])
                two_body[idx] = two_body.get(idx, 0.0) + value
                max_idx = max(max_idx, *idx)
            else:
                raise HamiltonianFileError(
                    path, lineno, f"expected '1B p q v' or '2B p q r s v', got {line!r}"
                )
            if not math.isfinite(value):
                raise HamiltonianFileError(path, lineno, f"non-finite coefficient {parts[-1]!r}")
        except ValueError as exc:
            if isinstance(exc, HamiltonianFileError):
                raise
            raise HamiltonianFileError(path, lineno, str(exc)) from None
    if max_idx < 0:
        raise HamiltonianFileError(path, None, "no fermionic terms found")
    try:
        return FermionHamiltonian(max_idx + 1, one_body, two_body)
    except ValueError as exc:
        raise HamiltonianFileError(path, None, str(exc)) from None


def write_fermion_hamiltonian(f: FermionHamiltonian, path) -> None:
    path = Path(path)
    lines = [f"# orbitals: {f.num_orbitals}"]
    for (p, q) in sorted(f.one_body):
        lines.append(f"1B {p} {q} {f.one_body[(p, q)]:.17g}")
    for idx in sorted(f.two_body):
        p, q, r, s = idx
        lines.append(f"2B {p} {q} {r} {s} {f.two_body[idx]:.17g}")
    path.write_text("\n".join(lines) + "\n")
