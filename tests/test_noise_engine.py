import json
import math
from itertools import product

import numpy as np
import pytest

from conftest import (
    CONFIG_DIR,
    SIGMA,
    apply_depolarizing,
    apply_gate_density,
    dense_pauli,
    dense_unitary,
    dense_word,
    kron_chain,
    noiseless_model,
    noisy_superoperator,
    random_state,
    time_evolution_circuit,
)

from sgslab.circuit_engine import (
    Circuit,
    StateVector,
    basis_change_circuit,
    cnot,
    compile_gates,
    compile_native,
    compile_step,
    gpi2,
    hadamard,
    ms,
    pauli_rotation,
    pauli_x,
    run_circuit,
    rz,
    sample_expectation,
    trotter_step,
)
from sgslab.cli import main
from sgslab.hamiltonians import IsingSpec, build_ising
from sgslab.noise_engine import (
    READOUT_FLIP_BLOCK,
    DensityMatrix,
    _sample_parity,
    NoiseModel,
    aria_noise_model,
    density_from_pauli,
    depolarizing_param,
    evolve_transfer,
    measurement_probs,
    pauli_coefficients,
    run_noisy,
    sample_expectation_noisy,
    zero_state_coefficients,
)
from sgslab.pauli_core import PauliString, QubitHamiltonian


class TestDepolarizingParam:
    def test_perfect_gate_is_zero(self):
        assert depolarizing_param(1.0, 0.0, 100.0, 1.0) == 0.0

    def test_half_fidelity_is_one(self):
        assert depolarizing_param(0.5, 0.0, 100.0, 1.0) == 1.0

    def test_aria_two_qubit_value(self):
        # oracle: direct arithmetic evaluation of the formula
        eps = 1.0 - 0.99
        d = math.exp(-600e-6 / 100.0) + 2.0 * math.exp(-600e-6 / 1.0)
        want = 1.0 + 3.0 * (2.0 * eps - 1.0) / d
        got = depolarizing_param(0.99, 600e-6, 100.0, 1.0)
        assert got == pytest.approx(want, abs=1e-15)
        assert got == pytest.approx(0.019606, abs=1e-6)

    def test_clamps_with_warning(self):
        with pytest.warns(UserWarning, match="clamped"):
            p = depolarizing_param(1.0, 50.0, 1.0, 1.0)
        assert p == 0.0

    def test_monotone_decreasing_in_fidelity(self):
        values = [
            depolarizing_param(f, 600e-6, 100.0, 1.0)
            for f in (0.90, 0.95, 0.99, 0.999)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_relaxation_contribution_small_at_device_values(self):
        base = depolarizing_param(0.99, 0.0, 100.0, 1.0)
        with_times = depolarizing_param(0.99, 600e-6, 100.0, 1.0)
        assert abs(with_times - base) / base < 0.05

    def test_nonphysical_inputs(self):
        with pytest.raises(ValueError):
            depolarizing_param(1.2, 0.0, 100.0, 1.0)
        with pytest.raises(ValueError):
            depolarizing_param(0.99, -1.0, 100.0, 1.0)
        for args, name in (
            ((0.99, 0.0, math.nan, 1.0), "t1"),
            ((0.99, 0.0, 100.0, math.nan), "t2"),
            ((0.99, math.nan, 100.0, 1.0), "t_gate"),
            ((0.99, math.inf, 100.0, 1.0), "t_gate"),
            ((0.99, 135e-6, 1e-9, 1e-9), "no coherence"),
        ):
            with pytest.raises(ValueError, match=name):
                depolarizing_param(*args)


class TestNoiseModel:
    def test_defaults_are_device_values(self):
        model = NoiseModel(fidelity_1q=0.999, fidelity_2q=0.99)
        assert model.t1 == 100.0
        assert model.t2 == 1.0
        assert model.t_gate_1q == 135e-6
        assert model.t_gate_2q == 600e-6
        assert model.readout_flip == 0.0039

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(fidelity_1q=0.0, fidelity_2q=0.99)
        with pytest.raises(ValueError):
            NoiseModel(fidelity_1q=0.99, fidelity_2q=0.99, readout_flip=1.5)

    @pytest.mark.parametrize("timings, field", [
        ({"t1": math.nan}, "t1"),
        ({"t2": math.nan}, "t2"),
        ({"t_gate_2q": math.nan}, "t_gate_2q"),
        ({"t_gate_1q": math.inf}, "t_gate_1q"),
        ({"t1": 1e-9, "t2": 1e-9}, "t_gate_1q"),
        ({"t1": 5e-7, "t2": 5e-7}, "t_gate_2q"),
    ], ids=["t1-nan", "t2-nan", "t-gate-2q-nan", "t-gate-inf", "underflow-1q", "underflow-2q"])
    def test_rejects_timing_that_leaves_p_undefined(self, timings, field):
        # NaN would make p NaN, so compile_gates would drop every channel;
        # d = 0 would divide by zero in depolarizing_param
        with pytest.raises(ValueError, match=field):
            NoiseModel(fidelity_1q=0.99, fidelity_2q=0.99, **timings)

    @pytest.mark.parametrize("field, value", [
        ("t1", "1e9"), ("fidelity_2q", True), ("readout_flip", None), ("t_gate_2q", [6e-4]),
    ], ids=["t1-string", "fidelity-bool", "readout-none", "t-gate-list"])
    def test_rejects_non_numbers(self, field, value):
        # a bool passed the range check as 1.0, a string failed a comparison
        # without naming the field
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            NoiseModel(**{"fidelity_1q": 0.99, "fidelity_2q": 0.99, field: value})

    def test_aria_preset(self):
        model = aria_noise_model()
        assert model.fidelity_2q == 0.99
        assert model.readout_flip == 0.0039


class TestDepolarizingChannel:
    """The conftest channel oracle against hand arithmetic."""

    def test_zero_probability_is_identity(self, rng):
        amps = random_state(rng, 2)
        rho = DensityMatrix.from_pure(StateVector(2, amps))
        before = rho.matrix.copy()
        apply_depolarizing(rho, 0, 0.0)
        np.testing.assert_allclose(rho.matrix, before, atol=0)

    def test_full_depolarization_single_qubit(self):
        rho = DensityMatrix.zero_state(1)
        apply_depolarizing(rho, 0, 1.0)
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)

    def test_partial_on_plus_state(self):
        # oracle: 2x2 arithmetic, <X> -> (1 - p) <X>
        plus = StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
        rho = DensityMatrix.from_pure(plus)
        apply_depolarizing(rho, 0, 0.1)
        assert rho.expectation(PauliString.from_word("X")) == pytest.approx(0.9)

    def test_trace_and_hermiticity_preserved(self, rng):
        amps = random_state(rng, 3)
        rho = DensityMatrix.from_pure(StateVector(3, amps))
        for q, p in ((0, 0.3), (1, 0.7), (2, 0.05)):
            apply_depolarizing(rho, q, p)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho.matrix, rho.matrix.conj().T, atol=1e-12)

    def test_invalid_probability(self):
        rho = DensityMatrix.zero_state(1)
        with pytest.raises(ValueError):
            apply_depolarizing(rho, 0, 1.5)


class TestRunNoisy:
    def test_noiseless_model_matches_pure_state(self, rng):
        circuit = Circuit(3)
        circuit.add(hadamard(0)).add(ms(0, 1, 0.0, 0.0, 0.8)).add(rz(2, 0.4))
        circuit.add(ms(1, 2, 0.0, 0.0, -0.5)).add(gpi2(1, 0.9))
        native = compile_native(circuit)
        rho = run_noisy(native, noiseless_model())
        pure = run_circuit(native)
        np.testing.assert_allclose(
            rho.matrix,
            np.outer(pure.amplitudes, pure.amplitudes.conj()),
            atol=1e-9,
        )

    def test_single_ms_xx_suppression(self):
        # oracle: 4x4 channel composition built by hand; |++> is an XX
        # eigenstate, so the ideal circuit keeps <XX> = 1 and each
        # depolarizing factor multiplies it by (1 - p)
        model = NoiseModel(
            fidelity_1q=1.0, fidelity_2q=0.7, t_gate_1q=0.0, t_gate_2q=0.0
        )
        plus2 = np.full(4, 0.5, dtype=complex)
        circuit = Circuit(2, [ms(0, 1, 0.0, 0.0, math.pi / 2)])
        rho = run_noisy(circuit, model, initial=DensityMatrix(2, np.outer(plus2, plus2.conj())))
        theta = math.pi / 2
        u = np.array(
            [
                [math.cos(theta / 2), 0, 0, -1j * math.sin(theta / 2)],
                [0, math.cos(theta / 2), -1j * math.sin(theta / 2), 0],
                [0, -1j * math.sin(theta / 2), math.cos(theta / 2), 0],
                [-1j * math.sin(theta / 2), 0, 0, math.cos(theta / 2)],
            ]
        )
        want = u @ np.outer(plus2, plus2.conj()) @ u.conj().T
        p = 1.0 + 3.0 * (2.0 * 0.3 - 1.0) / 3.0  # = 0.6
        for q in (0, 1):
            t = want.reshape(2, 2, 2, 2)
            reduced = np.trace(t, axis1=q, axis2=2 + q)
            emb = np.zeros((2, 2, 2, 2), dtype=complex)
            for b in (0, 1):
                idx = [slice(None)] * 4
                idx[q] = b
                idx[2 + q] = b
                emb[tuple(idx)] += reduced / 2
            want = ((1 - p) * t + p * emb).reshape(4, 4)
        np.testing.assert_allclose(rho.matrix, want, atol=1e-12)
        got_xx = rho.expectation(PauliString.from_word("XX"))
        assert got_xx == pytest.approx((1 - p) ** 2, abs=1e-12)
        assert abs(got_xx) < 1.0

    def test_forty_step_circuit_keeps_invariants(self):
        h = build_ising(IsingSpec.chain(3, 1.0, 2.0))
        circuit = time_evolution_circuit(h, 2.0, 40, native=True)
        rho = run_noisy(circuit, aria_noise_model())
        assert rho.trace() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(rho.matrix, rho.matrix.conj().T, atol=1e-9)
        eigs = np.linalg.eigvalsh(rho.matrix)
        assert eigs.min() >= -1e-8

    def test_rejects_wide_gates(self):
        circuit = Circuit(3, [pauli_rotation((0, 1, 2), (1, 1, 1), 0.3)])
        with pytest.raises(ValueError, match="native"):
            run_noisy(circuit, aria_noise_model())

    def test_qubit_ceiling(self):
        circuit = Circuit(9)
        with pytest.raises(ValueError, match="limited"):
            run_noisy(circuit, aria_noise_model())


class TestNoisySampling:
    def test_zero_flip_matches_ideal_statistics(self, rng):
        amps = random_state(rng, 2)
        state = StateVector(2, amps.copy())
        rho = DensityMatrix.from_pure(state)
        o = PauliString.from_word("XZ")
        noisy = sample_expectation_noisy(rho, o, 200000, 0.0, seed=1)
        ideal = sample_expectation(state, o, 200000, seed=2)
        assert noisy.mean == pytest.approx(ideal.mean, abs=0.01)

    def test_fully_scrambled_readout(self):
        rho = DensityMatrix.zero_state(1)
        sample = sample_expectation_noisy(
            rho, PauliString.from_word("Z"), 100000, 0.5, seed=0
        )
        assert abs(sample.mean) < 0.02

    def test_single_qubit_readout_bias(self):
        # oracle: closed-form bit-flip bias E[mean] = (1 - 2f) <Z>
        f = 0.0039
        rho = DensityMatrix.zero_state(1)
        sample = sample_expectation_noisy(
            rho, PauliString.from_word("Z"), 400000, f, seed=9
        )
        want = 1.0 - 2.0 * f
        assert sample.mean == pytest.approx(want, abs=4 * 1.0 / math.sqrt(400000))

    def test_parity_bias_scales_with_measured_qubits(self):
        f = 0.05
        n = 3
        rho = DensityMatrix.zero_state(n)
        o = PauliString.from_word("ZZZ")
        shots = 400000
        sample = sample_expectation_noisy(rho, o, shots, f, seed=11)
        want = (1.0 - 2.0 * f) ** 3
        assert sample.mean == pytest.approx(want, abs=4 / math.sqrt(shots))

    def test_deterministic_under_seed(self, rng):
        amps = random_state(rng, 2)
        rho = DensityMatrix.from_pure(StateVector(2, amps))
        o = PauliString.from_word("XY")
        a = sample_expectation_noisy(rho, o, 1000, 0.01, seed=123)
        b = sample_expectation_noisy(rho, o, 1000, 0.01, seed=123)
        assert a == b

    def test_flip_blocks_draw_the_one_array_stream(self, rng):
        # shots not a multiple of the flip block; the oracle draws every
        # flip as one (shots, m) array from the same generator
        shots = 2 * READOUT_FLIP_BLOCK + 37
        rho = DensityMatrix(3, random_density(rng, 3))
        o = PauliString.from_word("XZY", -1.0)
        got = sample_expectation_noisy(rho, o, shots, 0.2, seed=5)
        probs = measurement_probs(pauli_coefficients(rho.matrix)[:, None], o)[:, 0]
        probs = np.clip(probs, 0.0, None)
        gen = np.random.default_rng(5)
        bits = gen.choice(probs.size, size=shots, p=probs / probs.sum())
        flips = gen.random((shots, 3)) < 0.2
        odd = (np.bitwise_count(bits) + flips.sum(axis=1)) & 1
        assert got.n_plus == int(np.count_nonzero(odd))  # O = -ZZZ after the basis change

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("flip", [0.0, 0.2])
    @pytest.mark.parametrize("shots", [1, 37, 2 * READOUT_FLIP_BLOCK + 37])
    def test_parity_draws_the_choice_stream(self, rng, shots, flip, sign):
        # oracle: Generator.choice over the bitstrings, then one (shots, m)
        # array of flips, from the same generator
        for n in (1, 2, 3):
            for m in range(1, n + 1):
                sites = rng.choice(n, size=m, replace=False)
                axes = [0] * n
                for q in sites:
                    axes[q] = int(rng.integers(1, 4))
                o = PauliString(n, tuple(axes), sign)
                # small integers: zero weights and tied cumulative sums
                probs = rng.integers(0, 3, 1 << n).astype(float)
                probs[rng.integers(1 << n)] += 1.0
                seed = int(rng.integers(1 << 30))
                got = _sample_parity(probs, o, shots, flip, seed)

                gen = np.random.default_rng(seed)
                bits = gen.choice(probs.size, size=shots, p=probs / probs.sum())
                zmask = sum(1 << (n - 1 - q) for q in sites)
                flipped = (gen.random((shots, m)) < flip).sum(axis=1) if flip > 0.0 else 0
                n_odd = int(np.count_nonzero((np.bitwise_count(bits & zmask) + flipped) & 1))
                assert got.n_plus == (shots - n_odd if sign > 0 else n_odd), (n, axes, probs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_probabilities(self, bad):
        # a threshold compare would count such shots silently
        o = PauliString.from_word("ZI")
        with pytest.raises(ValueError, match="finite"):
            _sample_parity(np.array([0.5, bad, 0.25, 0.25]), o, 100, 0.0, seed=1)

    def test_sign_carrying_observable(self):
        rho = DensityMatrix.zero_state(1)
        sample = sample_expectation_noisy(
            rho, PauliString.from_word("Z", -1.0), 1000, 0.0, seed=4
        )
        assert sample.mean == -1.0


def test_gate_application_on_density_matches_pure(rng):
    amps = random_state(rng, 2)
    rho = DensityMatrix.from_pure(StateVector(2, amps.copy()))
    gate = ms(0, 1, 0.2, -0.7, 1.1)
    run_noisy(Circuit(2, [gate]), noiseless_model(), initial=rho)
    pure = run_circuit(Circuit(2, [gate]), StateVector(2, amps.copy()))
    np.testing.assert_allclose(
        rho.matrix, np.outer(pure.amplitudes, pure.amplitudes.conj()), atol=1e-12
    )


@pytest.mark.parametrize("qubit", [-1, 2])
def test_gate_out_of_range_on_density(qubit):
    # -1 would otherwise index the last qubit, 2 raise a bare IndexError
    circuit = Circuit(2)
    circuit.gates.append(gpi2(qubit, 0.0))  # past Circuit's own check
    with pytest.raises(ValueError, match=f"qubit {qubit}, out of range for 2 qubits"):
        run_noisy(circuit, aria_noise_model())


def test_density_expectation_matches_trace(rng):
    weights = rng.dirichlet(np.ones(3))
    pure = [random_state(rng, 3) for _ in weights]
    rho = DensityMatrix(3, sum(w * np.outer(v, v.conj()) for w, v in zip(weights, pure)))
    for word in ("ZII", "XYZ", "YYI", "IXX", "III"):
        for coeff in (1.0, -1.0):
            o = PauliString.from_word(word, coeff)
            want = np.trace(dense_pauli(o) @ rho.matrix).real
            assert rho.expectation(o) == pytest.approx(want, abs=1e-14)


# --- the Pauli-transfer kernel against a gate-by-gate dense oracle ---------


def random_density(rng, num_qubits, rank=3):
    weights = rng.dirichlet(np.ones(rank))
    pure = [random_state(rng, num_qubits) for _ in weights]
    return sum(w * np.outer(v, v.conj()) for w, v in zip(weights, pure))


def depolarize_oracle(matrix, num_qubits, qubit, p):
    """(1 - p) rho + (p / 4) sum_P P_q rho P_q, which equals
    (1 - p) rho + p (I/2 tensor Tr_q rho)."""
    out = (1.0 - p) * matrix
    for c in "IXYZ":
        pq = kron_chain([SIGMA[c] if q == qubit else SIGMA["I"] for q in range(num_qubits)])
        out = out + (p / 4.0) * pq @ matrix @ pq
    return out


def kernel_gates(matrix, gates, noise=None):
    """A fixed gate list through the Pauli-transfer kernel on one column."""
    n = matrix.shape[0].bit_length() - 1
    columns = pauli_coefficients(matrix)[:, None]
    evolve_transfer(compile_gates(gates, n, noise), columns, [0.0])
    return density_from_pauli(columns[:, 0])


def one_qubit_model(p):
    """Zero durations make p = 2 (1 - F): one-qubit gates depolarize by p."""
    return NoiseModel(fidelity_1q=1.0 - p / 2.0, fidelity_2q=1.0, t_gate_1q=0.0, t_gate_2q=0.0)


class TestDensityKernel:
    @pytest.mark.parametrize("qubit", [0, 1, 2])
    def test_depolarizing_matches_pauli_twirl(self, rng, qubit):
        # the kernel's channel after an identity gate, and the conftest oracle
        matrix = random_density(rng, 3)
        noise = one_qubit_model(0.3)
        want = depolarize_oracle(matrix, 3, qubit, noise.p_1q())
        got = kernel_gates(matrix, [rz(qubit, 0.0)], noise)
        np.testing.assert_allclose(got, want, atol=1e-15)
        rho = apply_depolarizing(DensityMatrix(3, matrix.copy()), qubit, noise.p_1q())
        np.testing.assert_allclose(rho.matrix, want, atol=1e-15)

    @pytest.mark.parametrize("gate", [
        gpi2(1, 0.37),
        ms(0, 2, 0.4, -1.3, 0.8),
        ms(2, 1, 0.0, 0.9, -0.6),
        gpi2(0, math.pi / 2),
        gpi2(2, -math.pi),
        rz(1, 2.1),
        hadamard(2),
        pauli_x(0),
        cnot(2, 0),
        pauli_rotation((0, 1, 2), (2, 1, 3), 0.7),
    ], ids=["gpi2-0.37", "ms-phases", "ms-one-phase", "gpi2-y", "gpi2-minus-pi",
            "rz", "h", "x", "cnot", "prot-3site"])
    def test_gate_matches_conjugation(self, rng, gate):
        matrix = random_density(rng, 3)
        u = dense_unitary(Circuit(3, [gate]))
        want = u @ matrix @ u.conj().T
        np.testing.assert_allclose(kernel_gates(matrix, [gate]), want, atol=1e-14)

    def test_batch_equals_run_noisy(self, rng):
        # run_noisy returns to the dense matrix after every step, the batch
        # stays in the Pauli basis: equal to rounding
        h = build_ising(IsingSpec.chain(3, 1.0, 2.3))
        noise = aria_noise_model()
        dts = np.array([0.07, 0.21, 0.4])
        start = random_density(rng, 3)
        batch = np.repeat(pauli_coefficients(start)[:, None], len(dts), axis=1)
        evolve_transfer(compile_step(h, native=True, noise=noise), batch, dts, n_steps=3)
        for k, dt in enumerate(dts):
            rho = DensityMatrix(3, start.copy())
            for _ in range(3):
                run_noisy(trotter_step(h, dt, native=True), noise, initial=rho)
            np.testing.assert_allclose(density_from_pauli(batch[:, k]), rho.matrix, atol=1e-14)

    def test_batch_equals_one_column_runs(self, rng):
        h = QubitHamiltonian.from_terms(3, [("XXI", 0.8), ("IYZ", -0.5), ("ZIZ", 0.3)])
        plan = compile_step(h, native=True, noise=NoiseModel(0.995, 0.97))
        dts = np.array([0.05, 0.3, -0.2])
        start = pauli_coefficients(random_density(rng, 3))
        batch = np.repeat(start[:, None], len(dts), axis=1)
        evolve_transfer(plan, batch, dts, n_steps=4)
        for k, dt in enumerate(dts):
            column = evolve_transfer(plan, start[:, None].copy(), [dt], n_steps=4)
            np.testing.assert_array_equal(batch[:, k], column[:, 0])

    def test_rejects_dts_not_one_per_column(self):
        # one dt would otherwise be broadcast over every column
        h = build_ising(IsingSpec.chain(2, 1.0, 2.3))
        plan = compile_step(h, native=True, noise=aria_noise_model())
        with pytest.raises(ValueError, match="one step length per column"):
            evolve_transfer(plan, np.zeros((16, 3)), [0.1], n_steps=2)

    def test_rejects_columns_it_cannot_view(self):
        # a channel is a strided multiply on a view of the columns
        plan = compile_gates([rz(0, 0.3)], 2, aria_noise_model())
        with pytest.raises(ValueError, match="C-contiguous"):
            evolve_transfer(plan, np.zeros((16, 4))[:, ::2], [0.0, 0.0])

    def test_rejects_negative_steps(self):
        plan = compile_gates([rz(0, 0.3)], 2, aria_noise_model())
        with pytest.raises(ValueError, match="n_steps must be >= 0, got -1"):
            evolve_transfer(plan, np.zeros((16, 2)), [0.1, 0.2], n_steps=-1)

    def test_rejects_rows_not_power_of_four(self):
        plan = compile_gates([rz(0, 0.3)], 1, aria_noise_model())
        with pytest.raises(ValueError, match="8 rows, not a power of 4"):
            evolve_transfer(plan, np.zeros((8, 2)), [0.1, 0.2])

    def test_native_step_with_y_and_three_site_terms(self, rng):
        h = QubitHamiltonian.from_terms(
            3, [("YIZ", 0.6), ("XYX", -0.45), ("IZZ", 0.3), ("YII", 0.25), ("XXI", 0.8)]
        )
        noise = NoiseModel(fidelity_1q=0.999, fidelity_2q=0.98)
        step = trotter_step(h, 1.0, native=True)
        assert {g.name for g in step.gates} == {"GPI2", "RZ", "MS"}
        dts = np.array([0.05, 0.3])
        start = random_density(rng, 3)
        batch = np.repeat(pauli_coefficients(start)[:, None], len(dts), axis=1)
        evolve_transfer(compile_step(h, native=True, noise=noise), batch, dts, n_steps=2)
        for k, dt in enumerate(dts):
            want = start
            for _ in range(2):
                want = noisy_superoperator(want, trotter_step(h, dt, native=True), noise)
            np.testing.assert_allclose(density_from_pauli(batch[:, k]), want, atol=1e-14)

    def test_run_noisy_with_multi_rotation_gates(self, rng):
        # GPI2 off the axes, a phased MS, H and CNOT are several rotations
        # each; the channels follow the whole gate
        circuit = Circuit(3, [gpi2(1, 0.37), ms(0, 2, 0.4, -1.3, 0.8), hadamard(2),
                              cnot(1, 0), rz(2, 0.5), pauli_x(1)])
        noise = NoiseModel(fidelity_1q=0.99, fidelity_2q=0.95)
        start = random_density(rng, 3)
        rho = run_noisy(circuit, noise, initial=DensityMatrix(3, start.copy()))
        np.testing.assert_allclose(
            rho.matrix, noisy_superoperator(start, circuit, noise), atol=1e-14
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_run_noisy_matches_dense_superoperator(self, seed):
        rng = np.random.default_rng(seed)
        wide = Circuit(3, [pauli_rotation((0, 1, 2), (1, 2, 3), float(rng.normal()))])
        circuit = Circuit(3, [
            gpi2(2, float(rng.uniform(-math.pi, math.pi))),
            ms(1, 0, float(rng.normal()), float(rng.normal()), float(rng.normal())),
            rz(1, float(rng.normal())),
        ]) + compile_native(wide)
        noise = NoiseModel(fidelity_1q=0.97, fidelity_2q=0.9)
        assert noise.p_1q() != noise.p_2q()
        start = random_density(rng, 3)
        rho = run_noisy(circuit, noise, initial=DensityMatrix(3, start.copy()))
        np.testing.assert_allclose(
            rho.matrix, noisy_superoperator(start, circuit, noise), atol=1e-12
        )


class TestPauliBasis:
    def test_round_trip(self, rng):
        for n in (1, 2, 3, 4):
            matrix = random_density(rng, n)
            np.testing.assert_allclose(
                density_from_pauli(pauli_coefficients(matrix)), matrix, atol=1e-14
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_zero_state_coefficients(self, n):
        want = pauli_coefficients(DensityMatrix.zero_state(n).matrix)
        assert np.array_equal(zero_state_coefficients(n), want)

    def test_coefficients_are_traces(self, rng):
        matrix = random_density(rng, 3)
        # qubit 0 the most significant base-4 digit of the word index
        want = [np.trace(dense_word("".join(w)) @ matrix).real for w in product("IXYZ", repeat=3)]
        np.testing.assert_allclose(pauli_coefficients(matrix), want, atol=1e-15)

    @pytest.mark.parametrize("word, coeff", [
        ("XYZ", 1.0), ("YIX", -1.0), ("IZI", 1.0), ("ZXY", -1.0), ("III", 1.0),
    ])
    def test_measurement_probs_match_basis_change(self, rng, word, coeff):
        o = PauliString.from_word(word, coeff)
        c = dense_unitary(basis_change_circuit(o))
        matrices = [random_density(rng, 3) for _ in range(2)]
        columns = np.column_stack([pauli_coefficients(m) for m in matrices])
        probs = measurement_probs(columns, o)
        for k, m in enumerate(matrices):
            np.testing.assert_allclose(probs[:, k], np.diag(c @ m @ c.conj().T).real, atol=1e-15)

    @pytest.mark.parametrize("word", ["XI", "XIIZ"], ids=["fewer-qubits", "more-qubits"])
    def test_measurement_probs_rejects_columns_of_another_size(self, word):
        # |000> columns: a 2-qubit XI would read rows of other words
        columns = pauli_coefficients(DensityMatrix.zero_state(3).matrix)[:, None]
        n = len(word)
        with pytest.raises(ValueError, match=f"64 rows, a {n}-qubit observable needs 4\\^{n}"):
            measurement_probs(columns, PauliString.from_word(word))


# Recorded from the dense density-matrix engine this kernel replaced: the
# n_plus count of each of the 25 times, h3/J1 = 7.257 of ising_1d_aria, seed 7.
ARIA_7257_N_PLUS = [
    4114, 4122, 4235, 4142, 4193, 4052, 4005, 4130, 4125, 4202, 4161, 4033, 3989,
    4224, 4151, 4031, 4030, 4181, 4135, 4144, 3978, 4063, 4074, 4089, 4078,
]


def test_aria_point_counts_pinned(tmp_path):
    text = (CONFIG_DIR / "ising_1d_aria.yaml").read_text()
    config = tmp_path / "aria.yaml"
    config.write_text(text.replace("sweep: [2.4, 2.8, 7.257]", "sweep: [7.257]"))
    assert main(["ising", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "series_7.257.csv").read_text().split()[1:]
    means = np.array([float(row.split(",")[1]) for row in rows])
    assert list(np.rint((means + 1.0) * 8192 / 2).astype(int)) == ARIA_7257_N_PLUS


# Recorded before the noisy preparation ran from the term lists, ising_1d_aria
# at seed 7: the n_plus counts of h3/J1 = 2.4, and the reprs of the fitted
# gap and of the noiseless reference's gap at 7.257.
ARIA_24_N_PLUS = [
    3877, 3870, 4079, 4104, 4304, 4196, 4109, 4140, 4015, 4114, 4183, 4213, 4025,
    4074, 4070, 4134, 4145, 4166, 4072, 4056, 3959, 4075, 4115, 4144, 4126,
]
ARIA_7257_GAPS = ("7.789518780309146", "8.542406202235659")


def test_aria_fit_pinned(tmp_path):
    text = (CONFIG_DIR / "ising_1d_aria.yaml").read_text()
    config = tmp_path / "aria.yaml"
    config.write_text(text.replace("sweep: [2.4, 2.8, 7.257]", "sweep: [2.4, 7.257]"))
    assert main(["ising", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "series_2.4.csv").read_text().split()[1:]
    means = np.array([float(row.split(",")[1]) for row in rows])
    assert list(np.rint((means + 1.0) * 8192 / 2).astype(int)) == ARIA_24_N_PLUS
    points = json.loads((tmp_path / "out" / "result.json").read_text())["points"]
    (point,) = [p for p in points if p["label"] == "7.257"]
    gaps = (repr(point["fit"]["gap"]), repr(point["noiseless_reference"]["gap"]))
    assert gaps == ARIA_7257_GAPS
