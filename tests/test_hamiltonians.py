import numpy as np
import pytest

from conftest import DATA_DIR, dense_hamiltonian, dense_pauli, kron_chain, SIGMA

from sgslab.hamiltonians import (
    FermionHamiltonian,
    HamiltonianFileError,
    IsingSpec,
    build_ising,
    ising_auxiliary,
    jordan_wigner,
    jw_annihilation,
    jw_creation,
    load_fermion_hamiltonian,
    load_qubit_hamiltonian,
    write_fermion_hamiltonian,
    write_qubit_hamiltonian,
)

def dense_sum(strings):
    return sum(dense_pauli(p) for p in strings)


class TestIsingSpec:
    def test_chain_edges_dedupe_two_sites(self):
        assert IsingSpec.chain(2, 1.0, 0.0).edges() == [(0, 1)]

    def test_chain_edges(self):
        assert IsingSpec.chain(4, 1.0, 1.0).edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_lattice_2x2_has_four_bonds(self):
        assert IsingSpec.lattice(2, 2, 1.0, 1.0).edges() == [
            (0, 1), (0, 2), (1, 3), (2, 3),
        ]

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            IsingSpec.chain(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            IsingSpec.lattice(1, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            IsingSpec.chain(4, -1.0, 1.0)
        for j1, h3 in ((float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0)):
            with pytest.raises(ValueError, match="finite"):
                IsingSpec.chain(4, j1, h3)
            with pytest.raises(ValueError, match="finite"):
                IsingSpec.lattice(2, 2, j1, h3)


class TestBuildIsing:
    def test_two_site_single_bond(self):
        h = build_ising(IsingSpec.chain(2, 1.0, 0.0))
        assert h.terms == (((1, 1), -0.5),)
        # twofold-degenerate ground space -> zero gap
        eigs = np.linalg.eigvalsh(dense_hamiltonian(h))
        assert eigs[1] - eigs[0] == pytest.approx(0.0, abs=1e-12)

    def test_field_only_gap_is_field(self):
        h = build_ising(IsingSpec.chain(4, 0.0, 2.0))
        eigs = np.linalg.eigvalsh(dense_hamiltonian(h))
        assert eigs[1] - eigs[0] == pytest.approx(2.0, abs=1e-10)

    def test_lattice_2x2_gap_matches_dense_oracle(self):
        h = build_ising(IsingSpec.lattice(2, 2, 1.0, 1.0))
        eigs = np.linalg.eigvalsh(dense_hamiltonian(h))
        from sgslab.spectra_oracle import benchmark_gap

        assert benchmark_gap(h, 0, 1) == pytest.approx(eigs[1] - eigs[0], abs=1e-10)

    def test_term_counts(self):
        h = build_ising(IsingSpec.chain(5, 1.0, 1.0))
        assert len(h.terms) == 5 + 5
        h2 = build_ising(IsingSpec.lattice(3, 3, 1.0, 1.0))
        couplings = [t for t in h2.terms if sum(1 for a in t[0] if a) == 2]
        assert len(couplings) == 2 * 9
        assert len(h2.terms) == 2 * 9 + 9

    @pytest.mark.parametrize(
        "spec",
        [
            IsingSpec.chain(2, 1.0, 0.7),
            IsingSpec.chain(3, 0.8, 1.3),
            IsingSpec.chain(5, 1.0, 2.0),
            IsingSpec.lattice(2, 2, 1.0, 1.5),
            IsingSpec.lattice(2, 3, 1.0, 0.5),
        ],
    )
    def test_z_product_symmetry_commutes(self, spec):
        n = spec.num_sites
        r = (-1j) ** n * kron_chain([SIGMA["Z"]] * n)
        dense = dense_hamiltonian(build_ising(spec))
        np.testing.assert_allclose(r @ dense, dense @ r, atol=1e-12)


class TestIsingAuxiliary:
    def test_four_site_terms(self):
        h0 = ising_auxiliary(IsingSpec.chain(4, 2.0, 5.0))
        assert len(h0.terms) == 4
        assert all(c == -1.0 for _, c in h0.terms)

    def test_equals_zero_field_build(self):
        spec = IsingSpec.chain(4, 1.3, 2.0)
        assert ising_auxiliary(spec) == build_ising(
            IsingSpec.chain(4, 1.3, 0.0)
        )

    def test_ground_space_spanned_by_plus_minus(self):
        length = 4
        h0 = ising_auxiliary(IsingSpec.chain(length, 1.0, 3.0))
        dense = dense_hamiltonian(h0)
        eigs, vecs = np.linalg.eigh(dense)
        assert eigs[1] - eigs[0] == pytest.approx(0.0, abs=1e-12)
        assert eigs[2] - eigs[0] > 0.1
        plus = kron_chain([np.array([1, 1]) / np.sqrt(2)] * length)
        minus = kron_chain([np.array([1, -1]) / np.sqrt(2)] * length)
        ground = vecs[:, :2]
        for v in (plus, minus):
            proj = ground @ (ground.conj().T @ v)
            np.testing.assert_allclose(proj, v, atol=1e-9)


class TestJordanWigner:
    def test_number_operator(self):
        f = FermionHamiltonian(1, {(0, 0): 2.5}, {})
        h = jordan_wigner(f)
        assert h.coeff("I") == pytest.approx(1.25)
        assert h.coeff("Z") == pytest.approx(-1.25)

    def test_hopping_term(self):
        t = 0.7
        f = FermionHamiltonian(2, {(0, 1): t, (1, 0): t}, {})
        h = jordan_wigner(f)
        # oracle: dense 4x4 ladder-operator product
        c0 = dense_sum(jw_annihilation(0, 2))
        c1 = dense_sum(jw_annihilation(1, 2))
        want = t * (c0.conj().T @ c1 + c1.conj().T @ c0)
        np.testing.assert_allclose(dense_hamiltonian(h), want, atol=1e-12)
        assert h.coeff("XX") == pytest.approx(t / 2)
        assert h.coeff("YY") == pytest.approx(t / 2)

    def test_ladder_anticommutation(self):
        n = 3
        for p in range(n):
            for q in range(n):
                cp = dense_sum(jw_annihilation(p, n))
                cq = dense_sum(jw_annihilation(q, n))
                cq_dag = dense_sum(jw_creation(q, n))
                np.testing.assert_allclose(cp @ cq + cq @ cp, 0, atol=1e-12)
                want = np.eye(2**n) if p == q else np.zeros((2**n, 2**n))
                np.testing.assert_allclose(
                    cp @ cq_dag + cq_dag @ cp, want, atol=1e-12
                )

    def test_random_hermitian_input_gives_hermitian_output(self, rng):
        for n in (2, 4, 6):
            one = {}
            for p in range(n):
                for q in range(p, n):
                    v = float(rng.normal())
                    one[(p, q)] = v
                    one[(q, p)] = v
            two = {}
            for _ in range(4):
                p, q, r, s = (int(x) for x in rng.integers(0, n, size=4))
                v = float(rng.normal())
                two[(p, q, r, s)] = two.get((p, q, r, s), 0.0) + v
                two[(s, r, q, p)] = two.get((s, r, q, p), 0.0) + v
            h = jordan_wigner(FermionHamiltonian(n, one, two))
            dense = dense_hamiltonian(h)
            np.testing.assert_allclose(dense, dense.conj().T, atol=1e-9)

    def test_non_hermitian_input_detected(self):
        f = FermionHamiltonian(2, {(0, 1): 1.0}, {})
        with pytest.raises(ValueError, match="[Nn]on-Hermitian"):
            jordan_wigner(f)

    def test_two_body_matches_dense_ladder_product(self, rng):
        n = 3
        two = {(0, 1, 1, 2): 0.9, (2, 1, 1, 0): 0.9}
        h = jordan_wigner(FermionHamiltonian(n, {}, two))
        ops = {}
        for p in range(n):
            ops[p] = dense_sum(jw_annihilation(p, n))
        want = np.zeros((2**n, 2**n), dtype=complex)
        for (p, q, r, s), v in two.items():
            want += 0.5 * v * (
                ops[p].conj().T @ ops[q].conj().T @ ops[r] @ ops[s]
            )
        np.testing.assert_allclose(dense_hamiltonian(h), want, atol=1e-12)


class TestQubitFiles:
    def test_parse_two_terms(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# comment\n-0.5 XXII\n-0.5 IXXI\n")
        h = load_qubit_hamiltonian(path)
        assert h.num_qubits == 4
        assert len(h.terms) == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(HamiltonianFileError, match="no Hamiltonian terms"):
            load_qubit_hamiltonian(path)

    def test_duplicate_lines_merge(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0.3 XY\n0.3 XY\n")
        h = load_qubit_hamiltonian(path)
        assert h.terms == (((1, 2), 0.6),)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0.5 XX\nnot-a-number YY\n")
        with pytest.raises(HamiltonianFileError, match=":2"):
            load_qubit_hamiltonian(path)

    @pytest.mark.parametrize("coeff", ["nan", "inf", "-inf"])
    def test_non_finite_coefficient_reports_line(self, tmp_path, coeff):
        path = tmp_path / "h.txt"
        path.write_text(f"0.5 XX\n{coeff} ZZ\n")
        with pytest.raises(HamiltonianFileError, match=f":2: non-finite coefficient '{coeff}'"):
            load_qubit_hamiltonian(path)

    def test_inconsistent_length_rejected(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0.5 XX\n0.5 XXX\n")
        with pytest.raises(HamiltonianFileError, match="length"):
            load_qubit_hamiltonian(path)

    def test_bad_word_rejected(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0.5 XA\n")
        with pytest.raises(HamiltonianFileError, match="invalid Pauli word"):
            load_qubit_hamiltonian(path)

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        from conftest import random_hamiltonian

        h = random_hamiltonian(rng, 4, num_terms=8)
        path = tmp_path / "h.txt"
        write_qubit_hamiltonian(h, path)
        assert load_qubit_hamiltonian(path) == h
        write_qubit_hamiltonian(load_qubit_hamiltonian(path), tmp_path / "h2.txt")
        assert path.read_text() == (tmp_path / "h2.txt").read_text()


class TestFermionFiles:
    def test_parse_one_body(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1B 0 0 -1.25\n")
        f = load_fermion_hamiltonian(path)
        assert f.one_body == {(0, 0): -1.25}

    def test_negative_index_rejected(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1B 0 -1 0.5\n")
        with pytest.raises(HamiltonianFileError, match="out of range"):
            load_fermion_hamiltonian(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("2B 0 1 0.5\n")
        with pytest.raises(HamiltonianFileError, match=":1"):
            load_fermion_hamiltonian(path)

    @pytest.mark.parametrize("line", ["1B 0 1 nan", "2B 0 1 1 0 inf"])
    def test_non_finite_coefficient_reports_line(self, tmp_path, line):
        path = tmp_path / "f.txt"
        path.write_text(f"1B 0 0 -1.0\n{line}\n")
        with pytest.raises(HamiltonianFileError, match=":2: non-finite coefficient"):
            load_fermion_hamiltonian(path)

    def test_roundtrip(self, tmp_path):
        f = FermionHamiltonian(
            3, {(0, 0): -1.0, (1, 1): -0.5}, {(0, 1, 1, 0): 0.3, (0, 1, 1, 2): 0.1}
        )
        path = tmp_path / "f.txt"
        write_fermion_hamiltonian(f, path)
        back = load_fermion_hamiltonian(path)
        assert back.one_body == f.one_body
        assert back.two_body == f.two_body

    def test_h2_fixture_maps_to_hermitian_qubit_hamiltonian(self):
        f = load_fermion_hamiltonian(DATA_DIR / "molecules" / "h2_r0735.fermion.txt")
        h = jordan_wigner(f)
        assert h.num_qubits == 4
        dense = dense_hamiltonian(h)
        assert dense.shape == (16, 16)
        np.testing.assert_allclose(dense, dense.conj().T, atol=1e-12)

    def test_fixture_file_pair_consistent(self):
        f = load_fermion_hamiltonian(DATA_DIR / "molecules" / "h2_r050.fermion.txt")
        h_file = load_qubit_hamiltonian(DATA_DIR / "molecules" / "h2_r050.qubits.txt")
        np.testing.assert_allclose(
            dense_hamiltonian(jordan_wigner(f)), dense_hamiltonian(h_file), atol=1e-12
        )


def test_phi_states_are_symmetry_eigenvectors():
    # R = tensor of z-axis pi-rotations; (|+...+> +- |-...->)/sqrt(2) are
    # its eigenvectors with eigenvalues +-(-i)^L
    for length in (2, 3, 4, 5):
        r = (-1j) ** length * kron_chain([SIGMA["Z"]] * length)
        plus = kron_chain([np.array([1, 1]) / np.sqrt(2)] * length)
        minus = kron_chain([np.array([1, -1]) / np.sqrt(2)] * length)
        phi_plus = (plus + minus) / np.sqrt(2)
        phi_minus = (plus - minus) / np.sqrt(2)
        np.testing.assert_allclose(
            r @ phi_plus, (-1j) ** length * phi_plus, atol=1e-12
        )
        np.testing.assert_allclose(
            r @ phi_minus, -((-1j) ** length) * phi_minus, atol=1e-12
        )


from hypothesis import given, settings
from hypothesis import strategies as st

from sgslab.pauli_core import QubitHamiltonian


@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 3), min_size=3, max_size=3),
            st.floats(-10, 10, allow_nan=False).filter(lambda x: abs(x) > 1e-9),
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=40, deadline=None)
def test_qubit_file_roundtrip_property(tmp_path_factory, terms):
    h = QubitHamiltonian(3, tuple((tuple(axes), c) for axes, c in terms))
    if not h.terms:
        return
    path = tmp_path_factory.mktemp("rt") / "h.txt"
    write_qubit_hamiltonian(h, path)
    assert load_qubit_hamiltonian(path) == h
