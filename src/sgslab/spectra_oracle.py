"""Ground-truth machinery: exact diagonalization, closed-form observable
oscillations on eigenstate superpositions, coherence amplitudes, and the
brute-force observable search."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli_core import (
    PauliString,
    QubitHamiltonian,
    apply_pauli,
    axes_to_word,
    check_oracle_size,
)

DEGENERACY_REL_TOL = 1e-10
EXHAUSTIVE_WORD_LIMIT = 4**7


class DegenerateLevelsError(ValueError):
    """Raised where a coherence amplitude would be basis-dependent."""


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenvalues and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def state(self, level: int) -> np.ndarray:
        return self.eigenvectors[:, level]

    @property
    def num_levels(self) -> int:
        return self.eigenvalues.shape[0]

    def scale(self) -> float:
        """Spectral scale used for degeneracy tolerances."""
        return float(max(np.max(np.abs(self.eigenvalues)), 1e-300))

    def is_degenerate_pair(self, i: int, j: int) -> bool:
        return abs(self.eigenvalues[j] - self.eigenvalues[i]) < (
            DEGENERACY_REL_TOL * self.scale()
        )


@lru_cache(maxsize=128)
def exact_spectrum(h: QubitHamiltonian) -> SpectrumResult:
    """Full Hermitian eigendecomposition of the dense Hamiltonian."""
    check_oracle_size(h.num_qubits)
    eigenvalues, eigenvectors = np.linalg.eigh(h.to_dense())
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return SpectrumResult(eigenvalues, eigenvectors)


def benchmark_gap(h: QubitHamiltonian, i: int = 0, j: int = 1) -> float:
    """E_j - E_i from exact diagonalization; >= 0 for j > i."""
    if not 0 <= i < j:
        raise ValueError(f"need j > i >= 0, got ({i}, {j})")
    spectrum = exact_spectrum(h)
    if j >= spectrum.num_levels:
        raise ValueError(f"level {j} out of range for {spectrum.num_levels} levels")
    return float(spectrum.eigenvalues[j] - spectrum.eigenvalues[i])


def _matrix_element(spectrum: SpectrumResult, o: PauliString, i: int, j: int) -> complex:
    return complex(np.vdot(spectrum.state(j), apply_pauli(o, spectrum.state(i))))


def _polar_ready(element: complex, tol: float = 1e-12) -> complex:
    """Suppress float-level parts so phases of real elements hit 0 or pi
    exactly; unit-norm observables keep matrix elements within [-1, 1]."""
    real = element.real if abs(element.real) > tol else 0.0
    imag = element.imag if abs(element.imag) > tol else 0.0
    return complex(real, imag)


def coherence(
    h: QubitHamiltonian, o: PauliString, i: int, j: int
) -> tuple[float, float]:
    """Polar form (rho, theta) of <level j| O |level i>.

    For a degenerate (i, j) pair the numerically returned eigenbasis is
    arbitrary, so the value is basis-dependent; a warning flags this.
    """
    spectrum = exact_spectrum(h)
    if not (0 <= i < spectrum.num_levels and 0 <= j < spectrum.num_levels):
        raise ValueError(f"levels ({i}, {j}) out of range")
    if i != j and spectrum.is_degenerate_pair(min(i, j), max(i, j)):
        warnings.warn(
            f"levels ({i}, {j}) are degenerate; coherence is basis-dependent",
            stacklevel=2,
        )
    element = _polar_ready(_matrix_element(spectrum, o, i, j))
    rho = abs(element)
    theta = math.atan2(element.imag, element.real) % (2.0 * math.pi)
    if rho == 0.0:
        theta = 0.0
    return rho, theta


def sgs_closed_form(
    h: QubitHamiltonian, o: PauliString, i: int, j: int, t
) -> float | np.ndarray:
    """Exact <O(t)> on the equal superposition of eigenstates i and j:
    (O_ii + O_jj)/2 + rho cos(dE t + theta)."""
    spectrum = exact_spectrum(h)
    o_ii = _matrix_element(spectrum, o, i, i).real
    o_jj = _matrix_element(spectrum, o, j, j).real
    rho, theta = coherence(h, o, i, j)
    gap = float(spectrum.eigenvalues[j] - spectrum.eigenvalues[i])
    t = np.asarray(t, dtype=float)
    values = 0.5 * (o_ii + o_jj) + rho * np.cos(gap * t + theta)
    return float(values) if values.ndim == 0 else values


def _structured_family_words(num_qubits: int) -> list[tuple[int, ...]]:
    """The two single-flavor families: one X with identities, and one Y
    with Z on every other site."""
    words = []
    for site in range(num_qubits):
        axes = [0] * num_qubits
        axes[site] = 1
        words.append(tuple(axes))
    for site in range(num_qubits):
        axes = [3] * num_qubits
        axes[site] = 2
        words.append(tuple(axes))
    return words


@dataclass(frozen=True)
class SearchRecord:
    word: str
    rho: float
    theta: float


def observable_search(
    h: QubitHamiltonian,
    i: int = 0,
    j: int = 1,
    family: str = "all",
) -> list[SearchRecord]:
    """Rank Pauli words by coherence amplitude between two levels.

    ``family`` is "all" (every one of the 4^n words; n capped so the scan
    stays exhaustive) or "structured" (the two conjectured single-flavor
    families). Results are sorted by descending rho, ties lexicographic.
    Degenerate level pairs are refused outright.
    """
    n = h.num_qubits
    if family == "all":
        if 4**n > EXHAUSTIVE_WORD_LIMIT:
            raise ValueError(
                f"4^{n} words exceed the exhaustive ceiling {EXHAUSTIVE_WORD_LIMIT}; "
                "use family='structured'"
            )
        words = itertools.product(range(4), repeat=n)
    elif family == "structured":
        words = _structured_family_words(n)
    else:
        raise ValueError(f"unknown family {family!r}")
    spectrum = exact_spectrum(h)
    if spectrum.is_degenerate_pair(min(i, j), max(i, j)):
        raise DegenerateLevelsError(
            f"levels ({i}, {j}) are degenerate; search results would be "
            "basis-dependent"
        )

    bra = spectrum.state(j).conj()
    ket = spectrum.state(i)
    records = []
    for axes in words:
        p = PauliString(n, tuple(axes))
        element = _polar_ready(complex(bra @ apply_pauli(p, ket)))
        rho = abs(element)
        theta = math.atan2(element.imag, element.real) % (2.0 * math.pi)
        if rho == 0.0:
            theta = 0.0
        records.append(SearchRecord(axes_to_word(p.axes), rho, theta))
    records.sort(key=lambda r: (-r.rho, r.word))
    return records


def top_tied_words(records: list[SearchRecord], rel_tol: float = 1e-9) -> set[str]:
    """Words whose rho ties the maximum within a relative tolerance."""
    if not records:
        return set()
    best = records[0].rho
    return {r.word for r in records if r.rho >= best - rel_tol * max(best, 1.0)}


def search_report_csv(records: list[SearchRecord]) -> str:
    lines = ["pauli_word,rho,theta"]
    lines += [f"{r.word},{r.rho:.17g},{r.theta:.17g}" for r in records]
    return "\n".join(lines) + "\n"
