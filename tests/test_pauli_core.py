import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import add_term, dense_hamiltonian, dense_pauli, random_pauli_string, random_state

from sgslab.pauli_core import (
    PauliString,
    QubitHamiltonian,
    apply_pauli,
    diagonal_energies,
    diagonal_part,
    expectation,
    expectations,
    multiply,
    oracle_limit,
    pauli_plan,
)


def ps(word, coeff=1.0):
    return PauliString.from_word(word, coeff)


class TestMultiply:
    def test_xy_gives_iz(self):
        out = multiply(ps("X"), ps("Y"))
        assert out.word == "Z"
        assert out.phase_coeff == 1j

    def test_zz_is_identity(self):
        out = multiply(ps("Z"), ps("Z"))
        assert out.word == "I"
        assert out.phase_coeff == 1

    def test_xz_times_zx(self):
        # oracle: dense 4x4 product; (X.Z) tensor (Z.X) = (-iY) tensor (+iY)
        out = multiply(ps("XZ"), ps("ZX"))
        expected = dense_pauli(ps("XZ")) @ dense_pauli(ps("ZX"))
        np.testing.assert_allclose(dense_pauli(out), expected, atol=1e-15)
        assert out.word == "YY"
        assert out.phase_coeff == 1

    def test_qubit_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            multiply(ps("X"), ps("XX"))

    def test_product_matches_dense_random(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 5))
            a = random_pauli_string(rng, n, complex_coeff=True)
            b = random_pauli_string(rng, n, complex_coeff=True)
            got = dense_pauli(multiply(a, b))
            want = dense_pauli(a) @ dense_pauli(b)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_associativity_random_triples(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 5))
            a, b, c = (random_pauli_string(rng, n, complex_coeff=True) for _ in range(3))
            left = multiply(multiply(a, b), c)
            right = multiply(a, multiply(b, c))
            assert left.axes == right.axes
            assert left.phase_coeff == pytest.approx(right.phase_coeff, abs=1e-12)
            np.testing.assert_allclose(
                dense_pauli(left), dense_pauli(a) @ dense_pauli(b) @ dense_pauli(c),
                atol=1e-12,
            )


@given(st.lists(st.integers(0, 3), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_hermitian_unit_string_squares_to_identity(axes):
    p = PauliString(len(axes), tuple(axes), 1.0)
    square = multiply(p, p)
    np.testing.assert_allclose(
        dense_pauli(square), np.eye(2 ** len(axes)), atol=1e-15
    )


class TestAddTerm:
    def test_add_to_empty(self):
        h = QubitHamiltonian(2)
        out = add_term(h, ps("ZI", -0.5))
        assert out.terms == (((3, 0), -0.5),)

    def test_add_then_subtract_is_identity(self):
        h = add_term(QubitHamiltonian(2), ps("ZI", -0.5))
        out = add_term(h, ps("ZI", +0.5))
        assert out.terms == ()

    def test_coefficient_merge(self):
        h = add_term(QubitHamiltonian(2), ps("XX", 1.0))
        out = add_term(h, ps("XX", 2.0))
        assert out.terms == (((1, 1), 3.0),)

    def test_non_real_coefficient_rejected(self):
        with pytest.raises(ValueError, match="Hermiticity"):
            add_term(QubitHamiltonian(1), ps("X", 1j))


class TestToDense:
    def test_single_z(self):
        h = QubitHamiltonian.from_terms(1, [("Z", 1.0)])
        np.testing.assert_allclose(h.to_dense(), np.diag([1.0, -1.0]), atol=1e-15)

    def test_single_x(self):
        h = QubitHamiltonian.from_terms(1, [("X", 1.0)])
        np.testing.assert_allclose(h.to_dense(), [[0, 1], [1, 0]], atol=1e-15)

    def test_two_site_chain_spectrum(self):
        # periodic two-site chain keeps its single bond once, so the
        # spectrum of -(1/2) X0 X1 is {-1/2, -1/2, +1/2, +1/2}
        h = QubitHamiltonian.from_terms(2, [("XX", -0.5)])
        eigs = np.linalg.eigvalsh(h.to_dense())
        np.testing.assert_allclose(eigs, [-0.5, -0.5, 0.5, 0.5], atol=1e-12)

    def test_matches_oracle_on_random(self, rng):
        from conftest import random_hamiltonian

        for _ in range(10):
            h = random_hamiltonian(rng, 3)
            np.testing.assert_allclose(h.to_dense(), dense_hamiltonian(h), atol=1e-12)
            dense = h.to_dense()
            np.testing.assert_allclose(dense, dense.conj().T, atol=1e-12)

    def test_y_and_multi_site_terms_match_kron_sum(self, rng):
        from conftest import random_hamiltonian

        h = random_hamiltonian(rng, 4, num_terms=40)
        np.testing.assert_allclose(h.to_dense(), dense_hamiltonian(h), rtol=0, atol=1e-14)

    def test_flip_plan_is_bitwise_a_term_by_term_scatter(self, rng):
        # reference: one scatter per term, in term order; 40 terms on 3
        # qubits make every flip mask carry several terms
        from conftest import random_hamiltonian

        h = random_hamiltonian(rng, 3, num_terms=40)
        rows = np.arange(8)
        want = np.zeros((8, 8), dtype=complex)
        for axes, coeff in h.terms:
            src, factor = pauli_plan(axes)
            want[rows, src] += coeff * factor
        assert len(h.flip_plan()) < len(h.terms)
        assert h.to_dense().tobytes() == want.tobytes()
        v = random_state(rng, 3)
        got = sum(diag * v[src] for src, diag in h.flip_plan())
        np.testing.assert_allclose(got, want @ v, rtol=0, atol=1e-13)

    def test_oracle_limit(self, monkeypatch):
        monkeypatch.setenv("SGSLAB_ORACLE_LIMIT", "2")
        assert oracle_limit() == 2
        h = QubitHamiltonian.from_terms(3, [("ZZZ", 1.0)])
        with pytest.raises(ValueError, match="oracle"):
            h.to_dense()


class TestDiagonalPart:
    def test_drops_x_strings(self):
        h = QubitHamiltonian.from_terms(2, [("XX", 1.0), ("ZZ", 2.0)])
        assert diagonal_part(h).terms == (((3, 3), 2.0),)

    def test_keeps_diagonal(self):
        h = QubitHamiltonian.from_terms(2, [("ZI", 1.0), ("IZ", 1.0)])
        assert diagonal_part(h) == h

    def test_matches_dense_diagonal(self, rng):
        from conftest import random_hamiltonian

        for _ in range(10):
            h = random_hamiltonian(rng, 3, num_terms=10)
            got = np.diag(dense_hamiltonian(diagonal_part(h)))
            want = np.diag(dense_hamiltonian(h))
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_idempotent(self, rng):
        from conftest import random_hamiltonian

        for _ in range(10):
            h = random_hamiltonian(rng, 3, num_terms=10)
            once = diagonal_part(h)
            assert diagonal_part(once) == once

    def test_diagonal_energies_match_dense(self, rng):
        from conftest import random_hamiltonian

        for _ in range(5):
            h = diagonal_part(random_hamiltonian(rng, 3, num_terms=12))
            if not h.terms:
                continue
            np.testing.assert_allclose(
                diagonal_energies(h), np.diag(dense_hamiltonian(h)).real, atol=1e-12
            )


class TestExpectation:
    def test_z_on_zero(self):
        assert expectation(ps("Z"), np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_z_on_plus(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        assert expectation(ps("Z"), plus) == pytest.approx(0.0, abs=1e-12)

    def test_xi_on_bell(self):
        bell = np.zeros(4)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        # oracle: dense matrix-vector product
        want = bell @ dense_pauli(ps("XI")) @ bell
        assert expectation(ps("XI"), bell) == pytest.approx(want.real, abs=1e-12)
        assert expectation(ps("XI"), bell) == pytest.approx(0.0, abs=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expectation(ps("X", 1j), np.array([1.0, 0.0]))

    def test_bounded_by_coeff(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            axes = tuple(int(a) for a in rng.integers(0, 4, size=n))
            p = PauliString(n, axes, 1.0)
            value = expectation(p, random_state(rng, n))
            assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


    def test_columns_match_dense(self, rng):
        columns = np.column_stack([random_state(rng, 3) for _ in range(4)])
        p = ps("XZY", -1.0)
        dense = dense_pauli(p)
        want = [np.vdot(v, dense @ v).real for v in columns.T]
        np.testing.assert_allclose(expectations(p, columns), want, atol=1e-12)
        assert [expectation(p, v) for v in columns.T] == list(expectations(p, columns))

    def test_columns_rejected_like_one_state(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expectations(ps("X", 1j), np.ones((2, 3)))
        with pytest.raises(ValueError, match="statevector length 4"):
            expectations(ps("X"), np.ones((4, 3)))


def test_apply_pauli_matches_dense(rng):
    for _ in range(25):
        n = int(rng.integers(1, 5))
        p = random_pauli_string(rng, n, complex_coeff=True)
        v = random_state(rng, n)
        np.testing.assert_allclose(apply_pauli(p, v), dense_pauli(p) @ v, atol=1e-12)


def test_pauli_plan_matches_dense_for_every_3_qubit_word():
    rows = np.arange(8)
    for axes in itertools.product(range(4), repeat=3):
        src, factor = pauli_plan(axes)
        dense = np.zeros((8, 8), dtype=complex)
        dense[rows, src] = factor
        np.testing.assert_array_equal(dense, PauliString(3, axes).to_dense())


def test_canonical_ordering_and_pruning():
    h = QubitHamiltonian.from_terms(
        2, [("ZI", 1.0), ("IX", 2.0), ("ZI", -1.0), ("XX", 1e-15)]
    )
    assert h.terms == (((0, 1), 2.0),)
    h2 = QubitHamiltonian.from_terms(2, [("ZZ", 1.0), ("IX", 2.0), ("XI", 3.0)])
    words = [axes for axes, _ in h2.terms]
    assert words == sorted(words)


def test_invalid_construction():
    with pytest.raises(ValueError):
        PauliString(2, (1,))
    with pytest.raises(ValueError):
        PauliString(1, (5,))
    with pytest.raises(ValueError):
        QubitHamiltonian.from_terms(2, [("XXX", 1.0)])
    # a NaN fails the pruning comparison, so it must not reach the sum
    for coeff in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="'ZI' has a non-finite coefficient"):
            QubitHamiltonian.from_terms(2, [("XX", 0.5), ("ZI", coeff)])


class TestTextForm:
    def test_file_style_line(self):
        p = PauliString.from_text("-0.5 XXII")
        assert p.word == "XXII"
        assert p.phase_coeff == -0.5

    def test_bare_word_with_sign(self):
        assert PauliString.from_text("-XX").phase_coeff == -1.0
        assert PauliString.from_text("ZZ").phase_coeff == 1.0

    def test_complex_prefix(self):
        p = PauliString.from_text("1j XY")
        assert p.phase_coeff == 1j

    def test_roundtrip(self):
        for text in ("XX", "-0.25 ZIZ", "0.5 Y"):
            p = PauliString.from_text(text)
            assert PauliString.from_text(p.to_text()) == p

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            PauliString.from_text("q XX")
        with pytest.raises(ValueError):
            PauliString.from_text("0.5 XX extra")
