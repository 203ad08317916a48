"""Ground-truth machinery: exact low levels (dense diagonalization or block
Lanczos), closed-form observable oscillations on eigenstate superpositions,
coherence amplitudes, and the exhaustive observable search."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import default_rng

from .pauli_core import (
    AXIS_CHARS,
    PauliString,
    QubitHamiltonian,
    apply_pauli,
    check_oracle_size,
)

DEGENERACY_REL_TOL = 1e-10
EXHAUSTIVE_WORD_LIMIT = 4**7
# Up to this many amplitudes the low levels are slices of the dense
# eigendecomposition; above it they come from block Lanczos.
DENSE_DIM_LIMIT = 256
# A Krylov pair is returned only when |H x - E x| is at most this times
# the coefficient 1-norm, which bounds the spectral radius.
KRYLOV_RESIDUAL_TOL = 1e-12
# Block directions at or below this times the 1-norm are rounding residue.
KRYLOV_RANK_TOL = 1e-14
# The start block comes from this seed, not from a study's --seed, so the
# oracle levels of a Hamiltonian never depend on the run.
KRYLOV_SEED = 20240811


class DegenerateLevelsError(ValueError):
    """Raised where a coherence amplitude would be basis-dependent."""


class SearchCeilingError(ValueError):
    """Raised when an exhaustive search would exceed EXHAUSTIVE_WORD_LIMIT."""


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenvalues and matching orthonormal eigenvector columns.

    ``scale`` sets the degeneracy tolerance: the largest |E| of the full
    spectrum for a dense decomposition, the coefficient 1-norm (a bound on
    it) for a Krylov one.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    scale: float

    def state(self, level: int) -> np.ndarray:
        return self.eigenvectors[:, level]

    def is_degenerate_pair(self, i: int, j: int) -> bool:
        return abs(self.eigenvalues[j] - self.eigenvalues[i]) < (
            DEGENERACY_REL_TOL * self.scale
        )


def _read_only(eigenvalues: np.ndarray, eigenvectors: np.ndarray, scale: float) -> SpectrumResult:
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return SpectrumResult(eigenvalues, eigenvectors, max(scale, 1e-300))


@lru_cache(maxsize=128)
def exact_spectrum(h: QubitHamiltonian) -> SpectrumResult:
    """Full Hermitian eigendecomposition of the dense Hamiltonian."""
    check_oracle_size(h.num_qubits)
    eigenvalues, eigenvectors = np.linalg.eigh(h.to_dense())
    return _read_only(eigenvalues, eigenvectors, float(np.max(np.abs(eigenvalues))))


@lru_cache(maxsize=128)
def low_spectrum(h: QubitHamiltonian, k: int) -> SpectrumResult:
    """The lowest k eigenpairs: a slice of ``exact_spectrum`` up to
    DENSE_DIM_LIMIT amplitudes, ``block_lanczos`` above it."""
    check_oracle_size(h.num_qubits)
    if 1 << h.num_qubits <= DENSE_DIM_LIMIT:
        full = exact_spectrum(h)
        return SpectrumResult(full.eigenvalues[:k], full.eigenvectors[:, :k], full.scale)
    return block_lanczos(h, k)


def _apply(plan: list[tuple[np.ndarray, np.ndarray]], block: np.ndarray) -> np.ndarray:
    """H applied to every column of ``block``, one gather per flip mask."""
    out = np.zeros_like(block)
    for src, diag in plan:
        out += diag[:, None] * block[src]
    return out


def _random_block(rng: np.random.Generator, dim: int, width: int, dtype) -> np.ndarray:
    block = rng.standard_normal((dim, width))
    if np.dtype(dtype).kind == "c":
        block = block + 1j * rng.standard_normal((dim, width))
    return block / np.linalg.norm(block, axis=0)


def _next_block(basis: np.ndarray, w: np.ndarray, floor: float, rng) -> np.ndarray:
    """Orthonormal columns orthogonal to ``basis`` that span the directions
    of ``w`` (already orthogonal to the basis) above ``floor``.

    Directions at or below the floor mean the block lost rank; fresh random
    columns take their place, so the basis keeps growing until the wanted
    pairs converge or it spans the whole space.
    """
    dim = basis.shape[0]
    width = min(w.shape[1], dim - basis.shape[1])
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    block = u[:, : np.count_nonzero(s[:width] > floor)]
    while True:
        block = np.hstack([block, _random_block(rng, dim, width - block.shape[1], w.dtype)])
        # normalising a small direction magnifies its rounding error along
        # the basis, so project the unit columns out twice more; a column
        # left shorter than 1e-3 lay inside the basis and is drawn again
        for _ in range(2):
            block -= basis @ (block.conj().T @ basis).conj().T
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        block = u[:, : np.count_nonzero(s > 1e-3)]
        if block.shape[1] == width:
            return block


def block_lanczos(h: QubitHamiltonian, k: int) -> SpectrumResult:
    """The lowest k eigenpairs by block Lanczos with full reorthogonalisation.

    The block is k + 1 columns wide, so a degenerate level at the edge of
    the window is still seen, and starts from KRYLOV_SEED. The projected
    matrix is formed from the projections of every new block onto the
    whole basis, so it stays exact when a lost direction is replaced. A
    pair is returned only when every one of the k residuals is at most
    KRYLOV_RESIDUAL_TOL times the coefficient 1-norm; at the full dimension
    Rayleigh-Ritz is exact.
    """
    dim = 1 << h.num_qubits
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= k <= {dim}, got {k}")
    plan = h.flip_plan()
    # a sum of words with even Y counts is a real matrix: work in real arithmetic
    dtype = complex if any(diag.imag.any() for _, diag in plan) else float
    plan = [(src, diag if dtype is complex else diag.real.copy()) for src, diag in plan]
    one_norm = h.coeff_one_norm()
    tol = KRYLOV_RESIDUAL_TOL * one_norm
    rng = default_rng(KRYLOV_SEED)
    basis = np.empty((dim, 0), dtype=dtype)
    proj = np.empty((0, 0), dtype=dtype)
    w = _random_block(rng, dim, min(k + 1, dim), dtype)
    check_at = k
    while True:
        block = _next_block(basis, w, KRYLOV_RANK_TOL * one_norm, rng)
        m, width = basis.shape[1], block.shape[1]
        basis = np.hstack([basis, block])
        w = _apply(plan, block)
        coeffs = np.zeros((m + width, width), dtype=dtype)
        for _ in range(2):
            c = (w.conj().T @ basis).conj().T
            w -= basis @ c
            coeffs += c
        coeffs[m:] = 0.5 * (coeffs[m:] + coeffs[m:].conj().T)
        proj = np.block([[proj, coeffs[:m]], [coeffs[:m].conj().T, coeffs[m:]]])
        m += width
        # the Ritz check costs O(m^3): run it once the basis grew by a tenth
        if m < check_at and m < dim:
            continue
        check_at = m + m // 10
        values, vectors = np.linalg.eigh(proj)
        estimate = np.linalg.norm(w @ vectors[m - width :, :k], axis=0)
        if m < dim and np.any(estimate > tol):
            continue
        states = basis @ vectors[:, :k]
        residual = np.linalg.norm(_apply(plan, states) - states * values[:k], axis=0)
        if np.all(residual <= tol):
            return _read_only(values[:k], states.astype(complex), one_norm)
        if m == dim:
            raise ArithmeticError(
                f"block Lanczos residual {residual.max():.3g} above {tol:.3g} at full dimension"
            )


def benchmark_gap(h: QubitHamiltonian, i: int = 0, j: int = 1) -> float:
    """E_j - E_i from the exact low levels; >= 0 for j > i."""
    if not 0 <= i < j:
        raise ValueError(f"need j > i >= 0, got ({i}, {j})")
    if j >= 1 << h.num_qubits:
        raise ValueError(f"level {j} out of range for {1 << h.num_qubits} levels")
    levels = low_spectrum(h, j + 1).eigenvalues
    return float(levels[j] - levels[i])


def _matrix_element(spectrum: SpectrumResult, o: PauliString, i: int, j: int) -> complex:
    return complex(np.vdot(spectrum.state(j), apply_pauli(o, spectrum.state(i))))


def _polar(element, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Polar form (rho, theta in [0, 2 pi)) of one matrix element or an
    array of them. Parts within ``tol`` of zero are dropped, so phases of
    real elements hit 0 or pi exactly (unit-norm observables keep elements
    within [-1, 1]), and theta is 0 where rho is 0."""
    element = np.asarray(element)
    real = np.where(np.abs(element.real) > tol, element.real, 0.0)
    imag = np.where(np.abs(element.imag) > tol, element.imag, 0.0)
    rho = np.hypot(real, imag)
    theta = np.where(rho == 0.0, 0.0, np.arctan2(imag, real) % (2.0 * np.pi))
    return rho, theta


def coherence(
    h: QubitHamiltonian, o: PauliString, i: int, j: int
) -> tuple[float, float]:
    """Polar form (rho, theta) of <level j| O |level i>.

    For a degenerate (i, j) pair the numerically returned eigenbasis is
    arbitrary, so the value is basis-dependent; a warning flags this.
    """
    dim = 1 << h.num_qubits
    if not (0 <= i < dim and 0 <= j < dim):
        raise ValueError(f"levels ({i}, {j}) out of range")
    spectrum = low_spectrum(h, max(i, j) + 1)
    if i != j and spectrum.is_degenerate_pair(min(i, j), max(i, j)):
        warnings.warn(
            f"levels ({i}, {j}) are degenerate; coherence is basis-dependent",
            stacklevel=2,
        )
    rho, theta = _polar(_matrix_element(spectrum, o, i, j))
    return float(rho), float(theta)


def sgs_closed_form(
    h: QubitHamiltonian, o: PauliString, i: int, j: int, t
) -> float | np.ndarray:
    """Exact <O(t)> on the equal superposition of eigenstates i and j:
    (O_ii + O_jj)/2 + rho cos(dE t + theta)."""
    spectrum = low_spectrum(h, max(i, j) + 1)
    o_ii = _matrix_element(spectrum, o, i, i).real
    o_jj = _matrix_element(spectrum, o, j, j).real
    rho, theta = coherence(h, o, i, j)
    gap = float(spectrum.eigenvalues[j] - spectrum.eigenvalues[i])
    t = np.asarray(t, dtype=float)
    values = 0.5 * (o_ii + o_jj) + rho * np.cos(gap * t + theta)
    return float(values) if values.ndim == 0 else values


_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


def pauli_transform(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """Every Pauli matrix element between two states in one transform.

    Entry [a, b] is <bra| P |ket> for the word with X where only flip mask
    a has the qubit's bit, Z where only b has it and Y where both do (qubit
    0 is the most significant bit). Row a Walsh-Hadamard-transforms
    w_a[y] = conj(bra[y ^ a]) ket[y] over y, which gives
    sum_y w_a[y] (-1)^popcount(y & b); the factor i^popcount(a & b) turns
    X^a Z^b into the word. O(n 4^n) work for all 4^n words.
    """
    dim = ket.shape[0]
    idx = np.arange(dim)
    table = bra.conj()[idx[:, None] ^ idx[None, :]] * ket[None, :]
    half = 1
    while half < dim:
        pairs = table.reshape(dim, dim // (2 * half), 2, half)
        table = np.stack((pairs[:, :, 0] + pairs[:, :, 1], pairs[:, :, 0] - pairs[:, :, 1]), axis=2)
        half *= 2
    table = table.reshape(dim, dim)
    return table * _I_POWERS[np.bitwise_count(idx[:, None] & idx[None, :]) & 3]


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

    ``family`` is "all" (every one of the 4^n words from one
    ``pauli_transform``; n capped so the scan stays exhaustive) or
    "structured" (the two conjectured single-flavor families, word by
    word). Results are sorted by descending rho, ties lexicographic.
    Degenerate level pairs are refused outright.
    """
    n = h.num_qubits
    if family == "all":
        if 4**n > EXHAUSTIVE_WORD_LIMIT:
            raise SearchCeilingError(
                f"4^{n} words exceed the exhaustive ceiling {EXHAUSTIVE_WORD_LIMIT}; "
                "use family='structured'"
            )
    elif family != "structured":
        raise ValueError(f"unknown family {family!r}")
    spectrum = low_spectrum(h, max(i, j) + 1)
    if spectrum.is_degenerate_pair(min(i, j), max(i, j)):
        raise DegenerateLevelsError(
            f"levels ({i}, {j}) are degenerate; search results would be "
            "basis-dependent"
        )

    if family == "all":
        # word w in lexicographic order has axis code (w >> 2(n-1-q)) & 3 on
        # qubit q; its flip bit is set for X and Y, its Z bit for Y and Z
        shifts = 2 * np.arange(n - 1, -1, -1)
        axes = (np.arange(4**n)[:, None] >> shifts) & 3
        weights = 1 << np.arange(n - 1, -1, -1)
        flips = ((axes ^ (axes >> 1)) & 1) @ weights
        zs = (axes >> 1) @ weights
        elements = pauli_transform(spectrum.state(j), spectrum.state(i))[flips, zs]
    else:
        axes = np.array(_structured_family_words(n))
        elements = [_matrix_element(spectrum, PauliString(n, tuple(a)), i, j) for a in axes]
    words = np.array(list(AXIS_CHARS))[axes].view(f"<U{n}").ravel()
    rho, theta = _polar(elements)
    order = np.lexsort((words, -rho))
    words, rho, theta = words[order].tolist(), rho[order].tolist(), theta[order].tolist()
    return [SearchRecord(*row) for row in zip(words, rho, theta)]


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
