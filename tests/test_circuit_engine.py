import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (
    dense_hamiltonian,
    dense_pauli,
    dense_word,
    random_hamiltonian,
    random_state,
)

from sgslab.circuit_engine import (
    Circuit,
    StateVector,
    adiabatic_circuit,
    apply_gate,
    basis_change_circuit,
    circuit_unitary,
    cnot,
    compile_native,
    compile_step,
    evolve_columns,
    exact_evolve,
    gate_matrix,
    gpi2,
    hadamard,
    interpolated_hamiltonian,
    ms,
    pauli_rotation,
    pauli_x,
    readout_word,
    run_circuit,
    rz,
    sample_expectation,
    time_evolution_circuit,
    trotter_step,
)
from sgslab.hamiltonians import IsingSpec, build_ising, ising_auxiliary
from sgslab.pauli_core import PauliString, QubitHamiltonian


def equal_up_to_phase(a, b, tol=1e-12):
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    phase = a[idx] / b[idx]
    return abs(abs(phase) - 1.0) < tol and np.allclose(a, phase * b, atol=tol)


class TestGateMatrices:
    @pytest.mark.parametrize("builder", [
        lambda a: gpi2(0, a),
        lambda a: rz(0, a),
        lambda a: ms(0, 1, a, 0.4, 1.1),
        lambda a: pauli_rotation((0, 1), (2, 3), a),
        lambda a: hadamard(0),
        lambda a: pauli_x(0),
        lambda a: cnot(0, 1),
    ])
    def test_unitarity(self, builder, rng):
        for angle in rng.uniform(-np.pi, np.pi, size=4):
            mat = gate_matrix(builder(float(angle)))
            np.testing.assert_allclose(
                mat @ mat.conj().T, np.eye(mat.shape[0]), atol=1e-12
            )

    def test_ms_is_xx_rotation(self, rng):
        xx = dense_word("XX")
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=20):
            got = gate_matrix(ms(0, 1, 0.0, 0.0, float(theta)))
            np.testing.assert_allclose(got, expm(-1j * theta / 2 * xx), atol=1e-12)

    def test_ms_on_zero_state(self):
        state = run_circuit(Circuit(2, [ms(0, 1, 0.0, 0.0, math.pi / 2)]))
        want = np.zeros(4, dtype=complex)
        want[0] = 1 / math.sqrt(2)
        want[3] = -1j / math.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, want, atol=1e-12)

    def test_gpi2_zero_on_zero_state(self):
        state = run_circuit(Circuit(1, [gpi2(0, 0.0)]))
        want = np.array([1.0, -1j]) / math.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, want, atol=1e-12)

    def test_rz_changes_no_populations(self):
        state = run_circuit(Circuit(1, [rz(0, 1.3)]))
        np.testing.assert_allclose(np.abs(state.amplitudes), [1.0, 0.0], atol=1e-12)


class TestApplyGate:
    def test_matches_dense_on_random_states(self, rng):
        gates = [
            gpi2(1, 0.7),
            rz(2, -1.1),
            ms(0, 2, 0.3, -0.2, 1.9),
            hadamard(0),
            pauli_x(2),
            cnot(2, 0),
            pauli_rotation((0, 1, 2), (1, 2, 3), 0.9),
        ]
        n = 3
        for gate in gates:
            amps = random_state(rng, n)
            got = apply_gate(StateVector(n, amps.copy()), gate).amplitudes
            # oracle: explicit kron embedding of the gate matrix
            mat = gate_matrix(gate)
            perm = list(gate.qubits) + [q for q in range(n) if q not in gate.qubits]
            big = np.kron(mat, np.eye(2 ** (n - len(gate.qubits))))
            p_mat = np.zeros((2**n, 2**n))
            for idx in range(2**n):
                bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
                new_bits = [bits[q] for q in perm]
                jdx = sum(b << (n - 1 - k) for k, b in enumerate(new_bits))
                p_mat[jdx, idx] = 1.0
            want = p_mat.T @ big @ p_mat @ amps
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_out_of_range_target(self):
        state = StateVector.zero_state(2)
        with pytest.raises(ValueError, match="range"):
            apply_gate(state, rz(5, 0.1))

    def test_norm_preserved_long_random_circuit(self, rng):
        n = 4
        circuit = Circuit(n)
        for _ in range(40):
            kind = rng.integers(0, 3)
            if kind == 0:
                circuit.add(gpi2(int(rng.integers(n)), float(rng.uniform(-3, 3))))
            elif kind == 1:
                q0, q1 = rng.choice(n, size=2, replace=False)
                circuit.add(ms(int(q0), int(q1), 0.0, 0.0, float(rng.uniform(-3, 3))))
            else:
                circuit.add(rz(int(rng.integers(n)), float(rng.uniform(-3, 3))))
        state = run_circuit(circuit)
        assert state.norm() == pytest.approx(1.0, abs=1e-9)


class TestNativeCompilation:
    @pytest.mark.parametrize("gate,n", [
        (hadamard(0), 1),
        (pauli_x(0), 1),
        (cnot(0, 1), 2),
        (cnot(1, 0), 2),
    ])
    def test_clifford_helpers_up_to_phase(self, gate, n):
        circuit = Circuit(n, [gate])
        native = compile_native(circuit)
        assert native.is_native()
        assert equal_up_to_phase(circuit_unitary(native), circuit_unitary(circuit))

    def test_rotations_compile_exactly(self, rng):
        for axis in (1, 2, 3):
            for theta in rng.uniform(-3, 3, size=3):
                circuit = Circuit(1, [pauli_rotation((0,), (axis,), float(theta))])
                native = compile_native(circuit)
                np.testing.assert_allclose(
                    circuit_unitary(native), circuit_unitary(circuit), atol=1e-12
                )

    def test_multi_qubit_rotation_compiles(self, rng):
        circuit = Circuit(3, [pauli_rotation((0, 1, 2), (2, 1, 3), 0.77)])
        native = compile_native(circuit)
        assert native.is_native()
        assert equal_up_to_phase(circuit_unitary(native), circuit_unitary(circuit))


class TestTrotterStep:
    def test_single_term_exact(self):
        h = QubitHamiltonian.from_terms(2, [("ZZ", 0.8)])
        step = trotter_step(h, 0.37)
        want = expm(-1j * 0.8 * 0.37 * dense_word("ZZ"))
        np.testing.assert_allclose(circuit_unitary(step), want, atol=1e-12)

    def test_step_equals_ordered_term_product(self, rng):
        h = random_hamiltonian(rng, 3, num_terms=5)
        dt = 0.21
        step = trotter_step(h, dt)
        from sgslab.circuit_engine import trotter_term_order

        want = np.eye(8, dtype=complex)
        for axes, coeff in trotter_term_order(h):
            word = "".join("IXYZ"[a] for a in axes)
            want = expm(-1j * coeff * dt * dense_word(word)) @ want
        np.testing.assert_allclose(circuit_unitary(step), want, atol=1e-12)

    def test_native_ising_step_matches_ideal_exactly(self):
        h = build_ising(IsingSpec.chain(4, 1.0, 2.3))
        ideal = trotter_step(h, 0.17)
        native = trotter_step(h, 0.17, native=True)
        assert native.is_native()
        np.testing.assert_allclose(
            circuit_unitary(native), circuit_unitary(ideal), atol=1e-12
        )

    def test_ising_chain_entangling_depth(self):
        h = build_ising(IsingSpec.chain(4, 1.0, 2.0))
        step = trotter_step(h, 0.1, native=True)
        assert step.metadata.two_qubit_depth == 2
        circuit = time_evolution_circuit(h, 4.0, 40, native=True)
        assert circuit.metadata.two_qubit_depth == 80
        assert circuit.metadata.n_2q == 160

    def test_metadata_reflects_native_compilation(self):
        h = build_ising(IsingSpec.chain(4, 1.0, 2.0))
        ideal = trotter_step(h, 0.1)
        native = trotter_step(h, 0.1, native=True)
        assert ideal.metadata.n_2q == native.metadata.n_2q
        assert ideal.metadata.two_qubit_depth == native.metadata.two_qubit_depth

    def test_per_step_error_is_second_order(self):
        h = build_ising(IsingSpec.chain(4, 1.0, 1.7))
        dense = dense_hamiltonian(h)
        errors = []
        dts = [0.2, 0.1, 0.05]
        for dt in dts:
            got = circuit_unitary(trotter_step(h, dt))
            want = expm(-1j * dense * dt)
            errors.append(np.linalg.norm(got - want, ord=2))
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)

    def test_global_error_first_order_in_steps(self, rng):
        h = random_hamiltonian(rng, 3, num_terms=5, scale=0.5)
        dense = dense_hamiltonian(h)
        t = 1.2
        want = expm(-1j * dense * t)
        steps_list = [4, 8, 16, 32, 64]
        errors = []
        for n_steps in steps_list:
            got = circuit_unitary(time_evolution_circuit(h, t, n_steps))
            errors.append(np.linalg.norm(got - want, ord=2))
        slope = np.polyfit(np.log(steps_list), np.log(errors), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)


class TestTimeEvolution:
    def test_zero_time_is_identity(self):
        h = QubitHamiltonian.from_terms(2, [("XX", 1.0)])
        circuit = time_evolution_circuit(h, 0.0, 10)
        assert len(circuit) == 0

    def test_diagonal_exact_any_steps(self):
        h = QubitHamiltonian.from_terms(3, [("ZII", 0.4), ("IZZ", -0.9), ("ZZZ", 0.2)])
        want = expm(-1j * dense_hamiltonian(h) * 2.0)
        for n_steps in (1, 7):
            got = circuit_unitary(time_evolution_circuit(h, 2.0, n_steps))
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_four_site_ising_fidelity(self):
        h = build_ising(IsingSpec.chain(4, 1.0, 1.0))
        plus = np.full(16, 0.25, dtype=complex)
        want = expm(-1j * dense_hamiltonian(h) * 1.0) @ plus
        state = run_circuit(
            time_evolution_circuit(h, 1.0, 25),
            StateVector(4, plus.copy()),
        )
        fidelity = abs(np.vdot(want, state.amplitudes)) ** 2
        assert fidelity >= 0.99

    def test_invalid_steps(self):
        h = QubitHamiltonian.from_terms(1, [("Z", 1.0)])
        with pytest.raises(ValueError):
            time_evolution_circuit(h, 1.0, 0)


class TestAdiabatic:
    def test_constant_schedule_equals_time_evolution(self):
        h = build_ising(IsingSpec.chain(3, 1.0, 1.4))
        got = circuit_unitary(adiabatic_circuit(h, h, 2.0, 6))
        want = circuit_unitary(time_evolution_circuit(h, 2.0, 6))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_interpolated_hamiltonian(self):
        spec = IsingSpec.chain(3, 1.0, 2.0)
        h0, h = ising_auxiliary(spec), build_ising(spec)
        mid = interpolated_hamiltonian(h0, h, 0.5)
        np.testing.assert_allclose(
            dense_hamiltonian(mid),
            0.5 * dense_hamiltonian(h0) + 0.5 * dense_hamiltonian(h),
            atol=1e-12,
        )

    def test_more_steps_approach_fine_oracle(self):
        spec = IsingSpec.chain(3, 1.0, 2.0)
        h0, h = ising_auxiliary(spec), build_ising(spec)
        tau = 3.0
        d0, d1 = dense_hamiltonian(h0), dense_hamiltonian(h)
        # oracle: midpoint-sampled product of exact exponentials, 1000 slices
        fine = np.eye(8, dtype=complex)
        n_fine = 1000
        for m in range(1, n_fine + 1):
            s = (m - 0.5) / n_fine
            fine = expm(-1j * ((1 - s) * d0 + s * d1) * (tau / n_fine)) @ fine
        dists = []
        for n_steps in (5, 10, 20, 40):
            got = circuit_unitary(adiabatic_circuit(h0, h, tau, n_steps))
            dists.append(np.linalg.norm(got - fine, ord=2))
        assert dists[-1] < dists[0] * 0.5
        assert all(b <= a * 1.05 for a, b in zip(dists, dists[1:]))


class TestExactEvolve:
    def test_identity_at_zero_time(self, rng):
        h = random_hamiltonian(rng, 3)
        amps = random_state(rng, 3)
        out = exact_evolve(StateVector(3, amps.copy()), h, 0.0)
        np.testing.assert_allclose(out.amplitudes, amps, atol=1e-12)

    def test_energy_conserved(self, rng):
        h = random_hamiltonian(rng, 3)
        amps = random_state(rng, 3)
        e0 = h.expectation(amps)
        for t in (0.3, 1.7, 4.0):
            out = exact_evolve(StateVector(3, amps.copy()), h, t)
            assert h.expectation(out.amplitudes) == pytest.approx(e0, abs=1e-10)
            assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_trotter_converges_to_exact(self, rng):
        h = random_hamiltonian(rng, 3, scale=0.7)
        amps = random_state(rng, 3)
        want = exact_evolve(StateVector(3, amps.copy()), h, 1.0).amplitudes
        errs = []
        for n_steps in (10, 100):
            state = run_circuit(
                time_evolution_circuit(h, 1.0, n_steps), StateVector(3, amps.copy())
            )
            errs.append(np.linalg.norm(state.amplitudes - want))
        assert errs[1] < errs[0] * 0.2


class TestStepKernel:
    """The precompiled step kernel against the gate-by-gate trotter_step run."""

    @staticmethod
    def hamiltonian(kind, rng):
        if kind == "ising":
            return build_ising(IsingSpec.chain(5, 1.0, 2.3))
        words = ("YIIII", "IYZII", "XYIZY", "ZZZZZ", "IIXXY", "YYIII", "IIIIX", "ZIIYI")
        return QubitHamiltonian.from_terms(5, [(w, float(rng.normal())) for w in words])

    @pytest.mark.parametrize("kind", ["y_multi_site", "ising"])
    def test_batch_matches_gate_loop(self, rng, kind):
        h = self.hamiltonian(kind, rng)
        dts = np.array([0.05, 0.13, 0.31, 0.02])
        start = np.column_stack([random_state(rng, 5) for _ in dts])
        columns = evolve_columns(compile_step(h), start.copy(), dts, n_steps=4)
        for k, dt in enumerate(dts):
            step = trotter_step(h, dt)
            state = StateVector(5, start[:, k].copy())
            for _ in range(4):
                run_circuit(step, state)
            np.testing.assert_allclose(columns[:, k], state.amplitudes, atol=1e-12)


class TestMeasurement:
    def test_basis_change_for_z_word_is_empty(self):
        assert len(basis_change_circuit(PauliString.from_word("ZZI"))) == 0

    def test_basis_change_for_x_is_hadamard(self):
        circuit = basis_change_circuit(PauliString.from_word("X"))
        assert [g.name for g in circuit.gates] == ["H"]

    def test_basis_change_conjugation_reproduces_observable(self):
        o = PauliString.from_word("XYZ", -1.0)
        circuit = basis_change_circuit(o)
        c_mat = circuit_unitary(circuit)
        z_word = readout_word(o)
        got = c_mat.conj().T @ dense_pauli(z_word) @ c_mat
        np.testing.assert_allclose(got, dense_pauli(o), atol=1e-12)

    def test_non_hermitian_observable_rejected(self):
        with pytest.raises(ValueError):
            basis_change_circuit(PauliString.from_word("X", 1j))
        with pytest.raises(ValueError):
            sample_expectation(
                StateVector.zero_state(1), PauliString.from_word("X", 2.0), 10, 0
            )

    def test_sample_z_on_zero_state(self):
        sample = sample_expectation(
            StateVector.zero_state(1), PauliString.from_word("Z"), 1000, seed=3
        )
        assert sample.mean == 1.0
        assert sample.std_error == 0.0
        assert sample.n_plus == 1000

    def test_sample_z_on_plus_state(self):
        plus = StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
        sample = sample_expectation(plus, PauliString.from_word("Z"), 8192, seed=5)
        assert abs(sample.mean) <= 5 / math.sqrt(8192)
        assert sample.std_error == pytest.approx(
            math.sqrt((1 - sample.mean**2) / 8192)
        )

    def test_plus_probability_matches_projector(self, rng):
        # oracle: eigenprojector of the dense observable
        for _ in range(10):
            n = int(rng.integers(1, 4))
            axes = tuple(int(a) for a in rng.integers(0, 4, size=n))
            if all(a == 0 for a in axes):
                axes = (3,) + axes[1:]
            o = PauliString(n, axes)
            amps = random_state(rng, n)
            eigs, vecs = np.linalg.eigh(dense_pauli(o))
            plus_proj = vecs[:, eigs > 0] @ vecs[:, eigs > 0].conj().T
            p_plus = float(np.real(amps.conj() @ plus_proj @ amps))
            value = StateVector(n, amps.copy()).expectation(o)
            assert (1 + value) / 2 == pytest.approx(p_plus, abs=1e-10)

    def test_sampler_deterministic_under_seed(self, rng):
        amps = random_state(rng, 2)
        o = PauliString.from_word("XZ")
        a = sample_expectation(StateVector(2, amps.copy()), o, 500, seed=42)
        b = sample_expectation(StateVector(2, amps.copy()), o, 500, seed=42)
        assert a == b

    def test_sampler_variance_scaling(self):
        # empirical variance over repeats ~ (1 - <O>^2)/shots within 20%
        shots = 256
        repeats = 1000
        for target in (0.0, 0.5, 0.9):
            angle = math.acos(target) / 2
            amps = np.array([math.cos(angle), math.sin(angle)])
            state = StateVector(1, amps.astype(complex))
            o = PauliString.from_word("Z")
            rng_seed = np.random.SeedSequence(77).spawn(repeats)
            means = [
                sample_expectation(state, o, shots, seed=s).mean for s in rng_seed
            ]
            want = (1 - target**2) / shots
            assert np.var(means) == pytest.approx(want, rel=0.2)


def test_circuit_validates_targets():
    with pytest.raises(ValueError):
        Circuit(2, [rz(3, 0.1)])
    circuit = Circuit(2)
    with pytest.raises(ValueError):
        circuit.add(ms(0, 2, 0.0, 0.0, 0.1))


def test_ms_general_phase_convention(rng):
    # MS(p0, p1, th) = exp(-i th/2 sigma_p0 x sigma_p1) with
    # sigma_p = cos(p) X + sin(p) Y; pins the phase-argument convention
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    for _ in range(12):
        p0, p1, theta = rng.uniform(-np.pi, np.pi, 3)
        s0 = math.cos(p0) * x + math.sin(p0) * y
        s1 = math.cos(p1) * x + math.sin(p1) * y
        want = expm(-1j * theta / 2 * np.kron(s0, s1))
        got = gate_matrix(ms(0, 1, float(p0), float(p1), float(theta)))
        np.testing.assert_allclose(got, want, atol=1e-12)
