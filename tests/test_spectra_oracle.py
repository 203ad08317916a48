import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    DATA_DIR,
    dense_hamiltonian,
    dense_pauli,
    random_hamiltonian,
    random_state,
    search_reference,
    top_tied_words,
)

from sgslab.hamiltonians import IsingSpec, build_ising, load_qubit_hamiltonian
from sgslab.pauli_core import PauliString, QubitHamiltonian, apply_pauli
from sgslab.spectra_oracle import (
    DegenerateLevelsError,
    SearchRecord,
    benchmark_gap,
    block_lanczos,
    coherence,
    exact_spectrum,
    low_spectrum,
    observable_search,
    pauli_transform,
    search_report_csv,
    sgs_closed_form,
)


def _spy_eigh(monkeypatch) -> list:
    """Record the dtype of every matrix ``np.linalg.eigh`` is given."""
    solved = []
    eigh = np.linalg.eigh

    def spy(matrix):
        solved.append(matrix.dtype.type)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return solved


class TestExactSpectrum:
    def test_single_z(self):
        h = QubitHamiltonian.from_terms(1, [("Z", 1.0)])
        spectrum = exact_spectrum(h)
        np.testing.assert_allclose(spectrum.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_interaction_only_chain_is_degenerate(self):
        h = build_ising(IsingSpec.chain(4, 1.0, 0.0))
        spectrum = exact_spectrum(h)
        assert spectrum.eigenvalues[1] - spectrum.eigenvalues[0] == pytest.approx(
            0.0, abs=1e-12
        )
        assert spectrum.is_degenerate_pair(0, 1)

    def test_reconstruction(self, rng):
        h = random_hamiltonian(rng, 3, num_terms=8)
        spectrum = exact_spectrum(h)
        rebuilt = (
            spectrum.eigenvectors
            @ np.diag(spectrum.eigenvalues)
            @ spectrum.eigenvectors.conj().T
        )
        np.testing.assert_allclose(rebuilt, dense_hamiltonian(h), atol=1e-9)
        gram = spectrum.eigenvectors.conj().T @ spectrum.eigenvectors
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-9)

    @pytest.mark.parametrize("case", ["chain6", "he2"])
    def test_real_matrix_in_real_arithmetic(self, monkeypatch, case):
        h = (build_ising(IsingSpec.chain(6, 1.0, 2.4)) if case == "chain6"
             else load_qubit_hamiltonian(DATA_DIR / "molecules" / "he2_r100.qubits.txt"))
        solved = _spy_eigh(monkeypatch)
        spectrum = exact_spectrum.__wrapped__(h)
        assert solved == [np.float64]
        want = np.linalg.eigvalsh(dense_hamiltonian(h))
        np.testing.assert_allclose(spectrum.eigenvalues, want, rtol=0, atol=1e-12 * spectrum.scale)
        vectors = spectrum.eigenvectors
        assert vectors.dtype == complex
        residual = dense_hamiltonian(h) @ vectors - vectors * spectrum.eigenvalues
        assert np.abs(residual).max() <= 1e-12

    def test_odd_y_word_stays_complex(self, monkeypatch):
        h = QubitHamiltonian.from_terms(3, [("ZZI", 1.0), ("IXX", 0.5), ("YZI", 0.4)])
        solved = _spy_eigh(monkeypatch)
        spectrum = exact_spectrum.__wrapped__(h)
        assert solved == [np.complex128]
        rebuilt = spectrum.eigenvectors * spectrum.eigenvalues @ spectrum.eigenvectors.conj().T
        np.testing.assert_allclose(rebuilt, dense_hamiltonian(h), atol=1e-12)

    def test_oracle_limit_respected(self, monkeypatch):
        monkeypatch.setenv("SGSLAB_ORACLE_LIMIT", "2")
        h = QubitHamiltonian.from_terms(3, [("ZZZ", 1.0)])
        with pytest.raises(ValueError, match="oracle"):
            exact_spectrum(h)


class TestBenchmarkGap:
    def test_field_only_gap(self):
        for length in (2, 3, 4):
            h = build_ising(IsingSpec.chain(length, 0.0, 2.0))
            assert benchmark_gap(h, 0, 1) == pytest.approx(2.0, abs=1e-10)

    def test_degenerate_levels_give_zero(self):
        h = build_ising(IsingSpec.chain(4, 1.0, 0.0))
        assert benchmark_gap(h, 0, 1) == pytest.approx(0.0, abs=1e-10)

    def test_hardware_operating_point_fixture(self):
        # frozen from this oracle at the hardware-comparison operating
        # point of the 4-site chain
        h = build_ising(IsingSpec.chain(4, 1.0, 7.257))
        assert benchmark_gap(h, 0, 1) == pytest.approx(6.257812217473532, abs=1e-9)

    def test_level_validation(self):
        h = QubitHamiltonian.from_terms(1, [("Z", 1.0)])
        with pytest.raises(ValueError):
            benchmark_gap(h, 1, 0)
        with pytest.raises(ValueError):
            benchmark_gap(h, 0, 5)

    def test_nonnegative(self, rng):
        for _ in range(5):
            h = random_hamiltonian(rng, 3)
            assert benchmark_gap(h, 0, 1) >= 0.0


class TestCoherence:
    def test_observable_diagonal_in_eigenbasis(self):
        h = QubitHamiltonian.from_terms(1, [("Z", 1.0)])
        rho, _ = coherence(h, PauliString.from_word("Z"), 0, 1)
        assert rho == pytest.approx(0.0, abs=1e-12)

    def test_same_level_phase_is_zero_or_pi(self, rng):
        h = random_hamiltonian(rng, 2, num_terms=6)
        o = PauliString.from_word("XY")
        rho, theta = coherence(h, o, 1, 1)
        assert theta in (0.0, pytest.approx(math.pi, abs=1e-9))
        spectrum = exact_spectrum(h)
        v = spectrum.state(1)
        want = abs(np.vdot(v, dense_pauli(o) @ v))
        assert rho == pytest.approx(want, abs=1e-10)

    def test_single_x_connects_lowest_levels(self):
        h = build_ising(IsingSpec.chain(4, 1.0, 5.0))
        rho, _ = coherence(h, PauliString.from_word("XIII"), 0, 1)
        assert rho > 0.5

    def test_single_z_is_blocked_by_parity(self):
        # the Z-product symmetry splits the two lowest levels into
        # opposite sectors, and a lone Z preserves the sector exactly
        h = build_ising(IsingSpec.chain(4, 1.0, 5.0))
        rho, _ = coherence(h, PauliString.from_word("ZIII"), 0, 1)
        assert rho == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_pair_warns(self):
        h = build_ising(IsingSpec.chain(4, 1.0, 0.0))
        with pytest.warns(UserWarning, match="degenerate"):
            coherence(h, PauliString.from_word("XIII"), 0, 1)

    def test_sign_flip_keeps_rho(self, rng):
        h = random_hamiltonian(rng, 2)
        o = PauliString.from_word("XZ")
        rho_plus, _ = coherence(h, o, 0, 1)
        rho_minus, _ = coherence(h, PauliString.from_word("XZ", -1.0), 0, 1)
        assert rho_plus == pytest.approx(rho_minus, abs=1e-12)


class TestObservableSearch:
    def test_two_site_top_set(self):
        h = build_ising(IsingSpec.chain(2, 1.0, 2.0))
        records = observable_search(h, 0, 1, family="all")
        top = top_tied_words(records)
        assert top == {"IX", "XI", "YZ", "ZY"}

    def test_structured_family_matches_exhaustive_values(self):
        h = build_ising(IsingSpec.chain(3, 1.0, 2.0))
        exhaustive = {r.word: r.rho for r in observable_search(h, 0, 1, family="all")}
        for record in observable_search(h, 0, 1, family="structured"):
            assert record.rho == pytest.approx(exhaustive[record.word], abs=1e-12)

    def test_ties_break_lexicographically(self):
        h = build_ising(IsingSpec.chain(2, 1.0, 2.0))
        records = observable_search(h, 0, 1, family="all")
        rhos = [r.rho for r in records]
        for a, b in zip(records, records[1:]):
            if abs(a.rho - b.rho) < 1e-12:
                assert a.word < b.word
        assert rhos == sorted(rhos, reverse=True)

    def test_degenerate_levels_rejected(self):
        h = build_ising(IsingSpec.chain(3, 1.0, 0.0))
        with pytest.raises(DegenerateLevelsError):
            observable_search(h, 0, 1)

    def test_exhaustive_ceiling(self, monkeypatch):
        h = QubitHamiltonian.from_terms(8, [("ZZZZZZZZ", 1.0), ("XIIIIIII", 0.3)])
        with pytest.raises(ValueError, match="exhaustive"):
            observable_search(h, 0, 1, family="all")

    def test_real_solver_matches_complex_reference(self):
        # the dense levels of a real H come from a real eigh; the search
        # sees them only through the gauge of level i and level j
        h = build_ising(IsingSpec.chain(7, 1.0, 2.4))
        records = observable_search(h, 0, 1, family="all")
        got = {r.word: (r.rho, r.theta) for r in records}
        words = ["".join(w) for w in itertools.product("IXYZ", repeat=7)]
        want = search_reference(h, 0, 1)
        rho = np.array([got[w][0] for w in words])
        np.testing.assert_allclose(rho, np.abs(want), rtol=0, atol=1e-12)
        coherent = np.abs(want) > 1e-9
        theta = np.array([got[w][1] for w in words])[coherent]
        shift = (theta - np.angle(want[coherent])) % (2 * np.pi)
        gauge = min((0.0, np.pi, 2 * np.pi), key=lambda g: abs(shift[0] - g))
        np.testing.assert_allclose(shift, gauge, rtol=0, atol=1e-9)

    def test_report_csv_shape(self):
        h = build_ising(IsingSpec.chain(2, 1.0, 2.0))
        records = observable_search(h, 0, 1, family="structured")
        text = search_report_csv(records)
        lines = text.strip().splitlines()
        assert lines[0] == "pauli_word,rho,theta"
        assert len(lines) == 1 + len(records)


_SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                   -2.5e-320, 2.2250738585072009e-308, 1.0, math.pi]


@given(st.lists(st.tuples(
    st.text(alphabet="IXYZ", min_size=1, max_size=4),
    st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()),
    st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()),
), max_size=40))
@example([])
@example([("XI", 0.0, -0.0), ("IX", -0.0, 0.0), ("XX", 0.0, -0.0)])
@settings(max_examples=200, deadline=None)
def test_report_csv_matches_per_row_formatting(rows):
    # the writer formats each distinct value once; the text must be what
    # formatting every row on its own gives
    records = [SearchRecord(*row) for row in rows]
    want = ["pauli_word,rho,theta"] + [f"{w},{rho:.17g},{theta:.17g}" for w, rho, theta in rows]
    assert search_report_csv(records) == "\n".join(want) + "\n"


class TestClosedForm:
    def test_value_at_zero_time(self, rng):
        h = random_hamiltonian(rng, 2)
        o = PauliString.from_word("XY")
        spectrum = exact_spectrum(h)
        v0, v1 = spectrum.state(0), spectrum.state(1)
        o_mat = dense_pauli(o)
        want = 0.5 * np.real(v0.conj() @ o_mat @ v0 + v1.conj() @ o_mat @ v1)
        rho, theta = coherence(h, o, 0, 1)
        got = sgs_closed_form(h, o, 0, 1, 0.0)
        assert got == pytest.approx(want + rho * math.cos(theta), abs=1e-10)

    def test_periodicity(self, rng):
        h = random_hamiltonian(rng, 2)
        o = PauliString.from_word("ZX")
        gap = benchmark_gap(h, 0, 1)
        if gap < 1e-6:
            pytest.skip("degenerate draw")
        t = 0.83
        a = sgs_closed_form(h, o, 0, 1, t)
        b = sgs_closed_form(h, o, 0, 1, t + 2 * math.pi / gap)
        assert a == pytest.approx(b, abs=1e-10)

    def test_matches_dense_evolution_pointwise(self, rng):
        # oracle: explicit dense evolution of the built superposition
        for _ in range(6):
            n = int(rng.integers(2, 4))
            h = random_hamiltonian(rng, n, num_terms=6)
            axes = tuple(int(a) for a in rng.integers(0, 4, size=n))
            if all(a == 0 for a in axes):
                axes = (1,) + axes[1:]
            o = PauliString(n, axes)
            i, j = 0, int(rng.integers(1, 2**n))
            spectrum = exact_spectrum(h)
            psi0 = (spectrum.state(i) + spectrum.state(j)) / math.sqrt(2)
            dense_h = dense_hamiltonian(h)
            dense_o = dense_pauli(o)
            eigs, vecs = np.linalg.eigh(dense_h)
            times = np.linspace(0.0, 6.0, 50)
            for t in times:
                u = vecs @ np.diag(np.exp(-1j * eigs * t)) @ vecs.conj().T
                psi_t = u @ psi0
                want = float(np.real(psi_t.conj() @ dense_o @ psi_t))
                got = sgs_closed_form(h, o, i, j, float(t))
                assert got == pytest.approx(want, abs=1e-9)

    def test_one_krylov_solve_above_256_amplitudes(self, monkeypatch):
        import sgslab.spectra_oracle as oracle

        solves = []
        monkeypatch.setattr(
            oracle, "block_lanczos", lambda h, k: solves.append(k) or block_lanczos(h, k)
        )
        h = build_ising(IsingSpec.chain(9, 1.0, 1.7))
        o = PauliString.from_word("X" + "I" * 8)
        value = sgs_closed_form(h, o, 0, 1, 0.0)
        assert solves == [2]
        rho, theta = coherence(h, o, 0, 1)
        assert value == pytest.approx(rho * math.cos(theta), abs=1e-10)

    def test_degenerate_pair_warns(self):
        h = build_ising(IsingSpec.chain(4, 1.0, 0.0))
        with pytest.warns(UserWarning, match="degenerate"):
            sgs_closed_form(h, PauliString.from_word("XIII"), 0, 1, 0.0)

    def test_vectorized_times(self, rng):
        h = random_hamiltonian(rng, 2)
        o = PauliString.from_word("XI")
        times = np.linspace(0, 3, 7)
        arr = sgs_closed_form(h, o, 0, 1, times)
        assert arr.shape == times.shape
        for k, t in enumerate(times):
            assert arr[k] == pytest.approx(sgs_closed_form(h, o, 0, 1, float(t)))


# --- the Krylov levels against dense eigh -------------------------------------


def _random_y_hamiltonian(rng, n, num_terms):
    """A random Pauli sum whose odd-Y terms make the matrix complex."""
    h = random_hamiltonian(rng, n, num_terms=num_terms)
    odd_y = (("Y" + "X" * (n - 2) + "Z", 0.7), ("I" * (n - 1) + "Y", 0.3))
    return h + QubitHamiltonian.from_terms(n, odd_y)


def _krylov_cases():
    return [
        build_ising(IsingSpec.chain(10, 1.0, 0.5)),
        build_ising(IsingSpec.chain(10, 1.0, 1.0)),
        build_ising(IsingSpec.chain(10, 1.0, 7.257)),
        build_ising(IsingSpec.lattice(3, 3, 1.0, 1.0)),
        _random_y_hamiltonian(np.random.default_rng(99), 9, 24),
    ]


class TestBlockLanczos:
    @pytest.mark.parametrize("case", range(5), ids=[
        "chain10-h0.5", "chain10-h1.0", "chain10-h7.257", "torus3x3", "random9-y"])
    def test_levels_match_dense_eigh(self, case):
        h = _krylov_cases()[case]
        want = np.linalg.eigvalsh(dense_hamiltonian(h))[:3]
        got = block_lanczos(h, 3)
        np.testing.assert_allclose(got.eigenvalues, want, rtol=0, atol=1e-10)
        vectors = got.eigenvectors
        np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(3), atol=1e-12)
        if case == 0:
            # the ground pair at h3 = 0.5 is split by about 1.6e-4
            assert 1e-4 < want[1] - want[0] < 2e-4

    def test_y_terms_make_the_matrix_complex(self):
        h = _krylov_cases()[4]
        assert np.abs(dense_hamiltonian(h).imag).max() > 0.1

    @pytest.mark.parametrize("h3", [0.0, 1.0, 5.0, 7.257])
    def test_four_site_chain_four_levels(self, h3):
        # 16 amplitudes with blocks of 5: the block loses rank before the
        # four levels converge (levels 2 and 3 are degenerate)
        h = build_ising(IsingSpec.chain(4, 1.0, h3))
        dense = dense_hamiltonian(h)
        got = block_lanczos(h, 4)
        np.testing.assert_allclose(
            got.eigenvalues, np.linalg.eigvalsh(dense)[:4], rtol=0, atol=1e-10
        )
        residual = dense @ got.eigenvectors - got.eigenvectors * got.eigenvalues
        assert np.abs(residual).max() < 1e-10

    def test_interaction_only_nine_chain(self):
        h = build_ising(IsingSpec.chain(9, 1.0, 0.0))
        assert benchmark_gap(h, 0, 1) == pytest.approx(0.0, abs=1e-10)
        want = np.linalg.eigvalsh(dense_hamiltonian(h))
        assert benchmark_gap(h, 0, 2) == pytest.approx(want[2] - want[0], abs=1e-10)

    def test_degenerate_pair_refused(self):
        h = build_ising(IsingSpec.chain(9, 1.0, 0.0))
        with pytest.raises(DegenerateLevelsError):
            observable_search(h, 0, 1, family="structured")

    def test_bitwise_repeatable(self):
        h = _krylov_cases()[4]
        a, b = block_lanczos(h, 2), block_lanczos(h, 2)
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()

    def test_huge_coefficients_do_not_overflow(self, tmp_path):
        # |H x| of a unit column is about 1e301 here: its squared norm
        # overflows unless the solver works on a rescaled H
        from sgslab.cli import main

        h = build_ising(IsingSpec.chain(9, 1.0, 1e300))
        want = np.linalg.eigvalsh(dense_hamiltonian(h))[:2]
        got = block_lanczos(h, 2)
        np.testing.assert_allclose(got.eigenvalues, want, rtol=1e-14, atol=0)
        out = tmp_path / "bench"
        assert main(["benchmark", "--chain", "9", "--h3", "1e300", "--out", str(out)]) == 0
        gap = json.loads((out / "result.json").read_text())["gap_exact"]
        assert gap == pytest.approx(want[1] - want[0], rel=1e-12)

    def test_power_of_two_rescaling_is_exact(self):
        # the solver runs on H / 2^e, so H and 2^40 H take the same steps
        h = _krylov_cases()[4]
        a, b = block_lanczos(h, 2), block_lanczos(h.scaled(2.0**40), 2)
        assert np.ldexp(a.eigenvalues, 40).tobytes() == b.eigenvalues.tobytes()
        assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()

    def test_dense_path_is_a_slice_of_exact_spectrum(self):
        h = build_ising(IsingSpec.chain(8, 1.0, 2.8))
        full, low = exact_spectrum(h), low_spectrum(h, 3)
        assert low.eigenvalues.tobytes() == full.eigenvalues[:3].tobytes()
        assert low.eigenvectors.tobytes() == full.eigenvectors[:, :3].tobytes()
        assert low.scale == full.scale

    def test_no_dense_work_above_256_amplitudes(self, monkeypatch, tmp_path):
        import sgslab.spectra_oracle as oracle
        from sgslab.cli import main

        def guarded(fn):
            def call(h, *args):
                if h.num_qubits > 8:
                    raise AssertionError("dense diagonalization above 8 qubits")
                return fn(h, *args)
            return call

        monkeypatch.setattr(QubitHamiltonian, "to_dense", guarded(QubitHamiltonian.to_dense))
        monkeypatch.setattr(oracle, "exact_spectrum", guarded(oracle.exact_spectrum))
        h = build_ising(IsingSpec.chain(9, 1.0, 1.7))
        gap = benchmark_gap(h, 0, 1)
        rho, _ = coherence(h, PauliString.from_word("X" + "I" * 8), 0, 1)
        assert gap > 0 and rho > 0.1
        out = tmp_path / "bench"
        assert main(["benchmark", "--chain", "9", "--h3", "1.7", "--out", str(out)]) == 0
        assert json.loads((out / "result.json").read_text())["gap_exact"] == gap


# --- the search transform against a per-word apply_pauli loop -----------------


def _reference_elements(bra, ket, n):
    """<bra|P|ket> for every word, one apply_pauli call per word."""
    return {
        "".join(w): complex(np.vdot(bra, apply_pauli(PauliString.from_word("".join(w)), ket)))
        for w in itertools.product("IXYZ", repeat=n)
    }


def _reference_polar(element):
    real = element.real if abs(element.real) > 1e-12 else 0.0
    imag = element.imag if abs(element.imag) > 1e-12 else 0.0
    rho = math.hypot(real, imag)
    return rho, (math.atan2(imag, real) % (2 * math.pi)) if rho else 0.0


def _assert_matches_reference(records, reference):
    assert sorted(r.word for r in records) == sorted(reference)
    polar = {word: _reference_polar(e) for word, e in reference.items()}
    got = {r.word: r for r in records}
    for word, (rho, theta) in polar.items():
        assert got[word].rho == pytest.approx(rho, abs=1e-12)
        assert (got[word].rho == 0.0) == (rho == 0.0), word
        if rho > 1e-9:
            turn = (got[word].theta - theta + math.pi) % (2 * math.pi) - math.pi
            assert abs(turn) < 1e-9 / rho, word
    ranked = sorted(polar, key=lambda w: (-polar[w][0], w))
    want = [SearchRecord(w, *polar[w]) for w in ranked]
    assert top_tied_words(records) == top_tied_words(want)
    rhos = [r.rho for r in records]
    assert rhos == sorted(rhos, reverse=True)
    for a, b in zip(records, records[1:]):
        if a.rho == b.rho:
            assert a.word < b.word


class TestPauliTransform:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_apply_pauli_on_random_states(self, rng, n):
        bra, ket = random_state(rng, n), random_state(rng, n)
        reference = _reference_elements(bra, ket, n)
        table = pauli_transform(bra, ket)
        for word, element in reference.items():
            flip = int("".join("1" if c in "XY" else "0" for c in word), 2)
            zs = int("".join("1" if c in "YZ" else "0" for c in word), 2)
            assert abs(table[flip, zs] - element) < 1e-12, word

    @pytest.mark.parametrize("n", range(1, 7))
    def test_search_matches_apply_pauli(self, rng, n):
        # Ising chains carry exact zeros (parity) and rho ties; random sums
        # with Y terms carry complex elements
        chain = build_ising(IsingSpec.chain(max(n, 2), 1.0, 2.0)) if n > 1 else (
            QubitHamiltonian.from_terms(1, [("X", 1.0), ("Z", 0.4)]))
        for h in (chain, random_hamiltonian(rng, n, num_terms=3 * n + 2)):
            spectrum = exact_spectrum(h)
            if spectrum.is_degenerate_pair(0, 1):
                continue
            reference = _reference_elements(spectrum.state(1), spectrum.state(0), n)
            _assert_matches_reference(observable_search(h, 0, 1), reference)

    def test_structured_family_uses_the_same_polar_form(self):
        h = build_ising(IsingSpec.chain(5, 1.0, 3.0))
        spectrum = exact_spectrum(h)
        reference = _reference_elements(spectrum.state(1), spectrum.state(0), 5)
        for record in observable_search(h, 0, 1, family="structured"):
            rho, theta = _reference_polar(reference[record.word])
            assert record.rho == pytest.approx(rho, abs=1e-12)
            assert record.theta == pytest.approx(theta, abs=1e-9)
