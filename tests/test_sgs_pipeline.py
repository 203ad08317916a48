import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_hamiltonian, lstsq_tone_fit

from sgslab import sgs_pipeline
from sgslab.circuit_engine import (
    StateVector,
    compile_step,
    evolve_columns,
    run_circuit,
    trotter_step,
)
from sgslab.hamiltonians import IsingSpec, build_ising, ising_auxiliary
from sgslab.noise_engine import DensityMatrix, NoiseModel, aria_noise_model, run_noisy
from sgslab.pauli_core import PauliString, QubitHamiltonian, diagonal_part
from sgslab.sgs_pipeline import (
    ExperimentConfig,
    FitError,
    StepBudgetError,
    TimeSeries,
    _measure_series,
    chebyshev_times,
    default_sgs0_circuit,
    fit_gap,
    frequency_grid_search,
    ising_experiment_config,
    molecule_experiment_config,
    prepare_sgs0_basis_pair,
    prepare_sgs0_ising,
    run_experiment,
    select_aux_pair,
)
from sgslab.spectra_oracle import benchmark_gap, exact_spectrum, sgs_closed_form


class TestChebyshevTimes:
    def test_three_nodes_on_symmetric_interval(self):
        # classic first-kind nodes: cos(pi/6), cos(pi/2), cos(5 pi/6)
        got = chebyshev_times(3, -1.0, 1.0)
        np.testing.assert_allclose(
            got, [-math.sqrt(3) / 2, 0.0, math.sqrt(3) / 2], atol=1e-15
        )

    def test_25_nodes_properties(self):
        t = chebyshev_times(25, 0.0, 4.0)
        assert len(t) == 25
        assert np.all(np.diff(t) > 0)
        assert t.min() > 0.0 and t.max() < 4.0
        np.testing.assert_allclose(t + t[::-1], 4.0, atol=1e-12)

    def test_endpoint_clustering(self):
        t = chebyshev_times(25, 0.0, 1.0)
        gaps = np.diff(t)
        assert gaps.min() < gaps.max()
        assert np.argmax(gaps) in (11, 12)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            chebyshev_times(5, 1.0, 1.0)
        with pytest.raises(ValueError):
            chebyshev_times(2, 0.0, 1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(tau=1.0, time_window=(-1.0, 1.0))


class TestPreparation:
    def test_single_site_plus(self):
        state = run_circuit(prepare_sgs0_ising(1))
        np.testing.assert_allclose(
            state.amplitudes, np.array([1, 1]) / math.sqrt(2), atol=1e-12
        )

    def test_four_site_uniform_amplitudes(self):
        state = run_circuit(prepare_sgs0_ising(4))
        np.testing.assert_allclose(state.amplitudes, np.full(16, 0.25), atol=1e-12)

    def test_reaches_auxiliary_ground_energy(self):
        spec = IsingSpec.chain(4, 1.3, 2.0)
        h0 = ising_auxiliary(spec)
        state = run_circuit(prepare_sgs0_ising(4))
        # oracle: dense ground energy of the interaction-only Hamiltonian
        ground = np.linalg.eigvalsh(dense_hamiltonian(h0))[0]
        assert h0.expectation(state.amplitudes) == pytest.approx(ground, abs=1e-10)
        assert ground == pytest.approx(-1.3 / 2 * 4, abs=1e-10)

    def test_basis_pair_single_qubit(self):
        state = run_circuit(prepare_sgs0_basis_pair("0", "1"))
        np.testing.assert_allclose(
            state.amplitudes, np.array([1, 1]) / math.sqrt(2), atol=1e-12
        )

    def test_basis_pair_bell(self):
        state = run_circuit(prepare_sgs0_basis_pair("00", "11"))
        want = np.zeros(4)
        want[0] = want[3] = 1 / math.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, want, atol=1e-12)

    def test_basis_pair_generic(self):
        state = run_circuit(prepare_sgs0_basis_pair("0101", "0110"))
        amps = state.amplitudes
        ia, ib = int("0101", 2), int("0110", 2)
        assert amps[ia] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert amps[ib] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        others = np.delete(np.abs(amps), [ia, ib])
        np.testing.assert_allclose(others, 0.0, atol=1e-12)

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=30, deadline=None)
    def test_basis_pair_random(self, n, data):
        a = data.draw(st.integers(0, 2**n - 1))
        b = data.draw(st.integers(0, 2**n - 1).filter(lambda x: x != a))
        sa, sb = format(a, f"0{n}b"), format(b, f"0{n}b")
        amps = run_circuit(prepare_sgs0_basis_pair(sa, sb)).amplitudes
        assert amps[a] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert amps[b] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_equal_strings_rejected(self):
        with pytest.raises(ValueError):
            prepare_sgs0_basis_pair("01", "01")


class TestSelectAuxPair:
    def test_single_qubit(self):
        h0 = QubitHamiltonian.from_terms(1, [("Z", -1.0)])
        assert select_aux_pair(h0) == ("0", "1")

    def test_tie_breaks_to_smallest_index(self):
        h0 = QubitHamiltonian.from_terms(2, [("ZI", -1.0), ("IZ", -1.0)])
        assert select_aux_pair(h0) == ("00", "01")

    def test_matches_exhaustive_scan_on_fixture(self):
        from conftest import DATA_DIR
        from sgslab.hamiltonians import load_qubit_hamiltonian

        h = load_qubit_hamiltonian(DATA_DIR / "molecules" / "h2_r0735.qubits.txt")
        h0 = diagonal_part(h)
        a, b = select_aux_pair(h0)
        # oracle: brute-force scan over the dense diagonal
        diag = np.real(np.diag(dense_hamiltonian(h0)))
        order = np.argsort(diag, kind="stable")
        n = h0.num_qubits
        assert a == format(int(order[0]), f"0{n}b")
        assert b == format(int(order[1]), f"0{n}b")

    def test_non_diagonal_rejected(self):
        h0 = QubitHamiltonian.from_terms(2, [("XX", 1.0)])
        with pytest.raises(ValueError, match="diagonal"):
            select_aux_pair(h0)


class TestDefaultPrep:
    def test_diagonal_gets_basis_pair(self):
        h0 = QubitHamiltonian.from_terms(2, [("ZI", -1.0), ("IZ", -0.5)])
        circuit = default_sgs0_circuit(h0)
        amps = run_circuit(circuit).amplitudes
        assert amps[int("00", 2)] == pytest.approx(1 / math.sqrt(2))
        assert amps[int("01", 2)] == pytest.approx(1 / math.sqrt(2))

    def test_interaction_only_gets_plus_state(self):
        h0 = ising_auxiliary(IsingSpec.chain(3, 1.0, 2.0))
        amps = run_circuit(default_sgs0_circuit(h0)).amplitudes
        np.testing.assert_allclose(amps, np.full(8, 8**-0.5), atol=1e-12)

    def test_mixed_structure_rejected(self):
        h0 = QubitHamiltonian.from_terms(2, [("XY", 1.0)])
        with pytest.raises(ValueError, match="prep"):
            default_sgs0_circuit(h0)


class TestExperimentConfig:
    def test_budget_enforced(self):
        with pytest.raises(StepBudgetError):
            ExperimentConfig(tau=1.0, therm_steps=20, evo_steps=25)

    def test_budget_override(self):
        cfg = ExperimentConfig(
            tau=1.0, therm_steps=20, evo_steps=25, override_step_budget=True
        )
        assert cfg.therm_steps + cfg.evo_steps == 45

    def test_presets(self):
        ising = ising_experiment_config()
        assert (ising.therm_steps, ising.evo_steps) == (15, 25)
        mol = molecule_experiment_config()
        assert (mol.therm_steps, mol.evo_steps) == (5, 35)
        assert ising.therm_steps + ising.evo_steps <= 40
        assert mol.therm_steps + mol.evo_steps <= 40

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(tau=-1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(tau=1.0, shots=0)
        with pytest.raises(ValueError):
            ExperimentConfig(tau=1.0, step_allocation="bogus")
        with pytest.raises(ValueError):
            ExperimentConfig(tau=1.0, time_window=(2.0, 1.0))
        for field, value in (
            ("evo_steps", 10.5), ("evo_steps", 4), ("evo_steps", 3), ("shots", 64.7),
            ("seed", 1.5), ("therm_steps", "5"), ("shots", True), ("tau", "abc"),
            ("tau", float("nan")), ("time_window", ("a", 1.0)), ("time_window", (1.0,)),
        ):
            with pytest.raises(ValueError, match=field):
                ExperimentConfig(**{"tau": 1.0, field: value})

    def test_time_window_list_becomes_float_tuple(self):
        cfg = ExperimentConfig(tau=1.0, time_window=[0, 4])
        assert cfg.time_window == (0.0, 4.0)
        assert all(isinstance(t, float) for t in cfg.time_window)


class TestEvolutionSteps:
    """How _measure_series spends the evolution budget, seen through the
    step lengths it hands the kernel."""

    @staticmethod
    def kernel_calls(monkeypatch, cfg, times):
        calls = []

        def record(plan, columns, dts, n_steps=1):
            calls.append((np.asarray(dts, dtype=float).copy(), n_steps, columns.shape[-1]))
            return evolve_columns(plan, columns, dts, n_steps)

        monkeypatch.setattr(sgs_pipeline, "evolve_columns", record)
        h = QubitHamiltonian.from_terms(2, [("XX", 0.6), ("ZI", -0.3)])
        prefix = StateVector(2, np.full(4, 0.5, dtype=complex))
        _measure_series(h, PauliString.from_word("XI"), prefix, times, cfg, shots=None)
        return calls

    def test_cumulative_allocation(self, monkeypatch):
        cfg = ExperimentConfig(tau=1.0, therm_steps=0, evo_steps=5)
        times = np.array([0.1, 0.4, 0.9, 1.4, 2.0])
        calls = self.kernel_calls(monkeypatch, cfg, times)
        # one column, one step per time: the k-th time is reached after k + 1
        # steps, never more than evo_steps
        assert [(len(dts), n_steps, width) for dts, n_steps, width in calls] == [(1, 1, 1)] * 5
        reached = np.cumsum([dts[0] for dts, _, _ in calls])
        np.testing.assert_allclose(reached, times, rtol=1e-15)

    def test_per_point_allocation(self, monkeypatch):
        cfg = ExperimentConfig(
            tau=1.0, therm_steps=0, evo_steps=5, step_allocation="per_point"
        )
        times = np.array([0.1, 0.4, 0.9, 1.4, 2.0])
        ((dts, n_steps, width),) = self.kernel_calls(monkeypatch, cfg, times)
        # every time its own column of exactly evo_steps equal steps
        assert (n_steps, width) == (cfg.evo_steps, len(times))
        np.testing.assert_allclose(dts * n_steps, times, rtol=1e-15)


class TestTimeSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries([0.0, 0.0], [1.0, 1.0], [0.1, 0.1])
        with pytest.raises(ValueError):
            TimeSeries([0.0, 1.0], [1.0, 1.0], [-0.1, 0.1])

    def test_csv_roundtrip(self, tmp_path):
        series = TimeSeries([0.1, 0.5, 0.9], [0.3, -0.2, 0.8], [0.01, 0.02, 0.0])
        path = tmp_path / "series.csv"
        series.to_csv(path)
        assert path.read_text().splitlines()[0] == "t,mean,sigma"
        back = TimeSeries.from_csv(path)
        np.testing.assert_array_equal(back.times, series.times)
        np.testing.assert_array_equal(back.values, series.values)
        np.testing.assert_array_equal(back.sigmas, series.sigmas)

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, column, bad):
        cols = [[0.0, 1.0, 2.0], [0.5, 0.1, -0.2], [0.01, 0.01, 0.01]]
        cols[column][-1] = bad
        with pytest.raises(ValueError, match="finite"):
            TimeSeries(*cols)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            TimeSeries.from_csv(path)


def synthetic_series(c, rho, omega, theta, times, sigma=0.0, seed=None):
    values = c + rho * np.cos(omega * times + theta)
    sigmas = np.full_like(times, sigma)
    if sigma > 0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, sigma, size=times.shape)
    return TimeSeries(times, values, sigmas)


class TestGridSearch:
    def test_single_tone_found_within_grid_cell(self):
        times = chebyshev_times(25, 0.0, 8.0)
        series = synthetic_series(0.2, 0.5, 1.3, 0.7, times)
        result = frequency_grid_search(series)
        assert result.significant
        window = times[-1] - times[0]
        assert abs(result.candidates[0] - 1.3) <= math.pi / (window * 16)

    def test_constant_series_not_significant(self):
        times = chebyshev_times(25, 0.0, 8.0)
        series = TimeSeries(times, np.full_like(times, 0.37), np.zeros_like(times))
        result = frequency_grid_search(series)
        assert not result.significant

    def test_two_tones_both_reported(self):
        times = chebyshev_times(40, 0.0, 20.0)
        values = 0.4 * np.cos(1.1 * times + 0.3) + 0.35 * np.cos(2.9 * times - 0.5)
        series = TimeSeries(times, values, np.zeros_like(times))
        result = frequency_grid_search(series, n_candidates=3)
        found = sorted(result.candidates[:2])
        assert abs(found[0] - 1.1) < 0.1
        assert abs(found[1] - 2.9) < 0.1

    def test_needs_five_points(self):
        with pytest.raises(ValueError):
            frequency_grid_search(
                TimeSeries([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], [0.1, 0.1, 0.1])
            )

    @staticmethod
    def lstsq_scan(series):
        """The scan as one lstsq per omega: residuals, candidates, flag."""
        times, values = series.times, series.values
        weights = 1.0 / np.maximum(series.sigmas, sgs_pipeline.SIGMA_FLOOR)
        window = float(times[-1] - times[0])
        omegas = np.arange(
            math.pi / (2.0 * window), math.pi / float(np.min(np.diff(times))),
            math.pi / (window * 16),
        )
        residuals = np.array([lstsq_tone_fit(times, values, weights, w)[1] for w in omegas])
        yw = values * weights
        flat = float(np.sum(((weights @ yw) / (weights @ weights) * weights - yw) ** 2))
        interior = np.arange(1, len(omegas) - 1)
        is_min = (residuals[interior] <= residuals[interior - 1]) & (
            residuals[interior] <= residuals[interior + 1]
        )
        minima = interior[is_min]
        minima = minima[np.argsort(residuals[minima], kind="stable")][:3]
        return omegas, residuals, omegas[minima], residuals[minima[0]] < flat * 0.99 - 1e-300

    @pytest.mark.parametrize("shots", [None, 512], ids=["shot-free", "noisy"])
    def test_matches_lstsq_per_omega(self, shots):
        # shots=None: exact values with sigma 0, floored like the pilot's
        h = build_ising(IsingSpec.chain(3, 1.0, 2.6))
        cfg = ExperimentConfig(tau=3.0, therm_steps=5, evo_steps=30, seed=3,
                               step_allocation="per_point")
        prefix = run_circuit(prepare_sgs0_ising(3))
        times = chebyshev_times(cfg.evo_steps, 0.0, 6.0)
        values, sigmas = _measure_series(
            h, PauliString.from_word("XII"), prefix, times, cfg, shots)
        series = TimeSeries(times, values, sigmas)
        omegas, residuals, candidates, significant = self.lstsq_scan(series)
        result = frequency_grid_search(series)
        np.testing.assert_array_equal(result.omegas, omegas)
        assert len(omegas) > sgs_pipeline.GRID_BLOCK  # more than one block
        np.testing.assert_allclose(result.residuals, residuals, rtol=1e-12)
        np.testing.assert_array_equal(result.candidates, candidates)
        assert result.significant == significant


class TestFitGap:
    @pytest.mark.parametrize("hint", [math.nan, math.inf, 0.0, -1.3])
    def test_bad_freq_hint_rejected(self, hint):
        series = synthetic_series(0.2, 0.5, 1.3, 0.7, chebyshev_times(25, 0.0, 9.0))
        with pytest.raises(ValueError, match="freq_hint must be a finite number > 0"):
            fit_gap(series, freq_hint=hint)

    def test_exact_recovery(self):
        times = chebyshev_times(25, 0.0, 9.0)
        series = synthetic_series(0.2, 0.5, 1.3, 0.7, times)
        fit = fit_gap(series)
        assert fit.gap == pytest.approx(1.3, abs=1e-6)
        assert fit.rho == pytest.approx(0.5, abs=1e-6)
        assert fit.theta == pytest.approx(0.7, abs=1e-6)
        assert fit.offset == pytest.approx(0.2, abs=1e-6)
        assert fit.rho_significant

    def test_monte_carlo_coverage(self):
        times = chebyshev_times(25, 0.0, 9.0)
        hits = 0
        for seed in range(100):
            series = synthetic_series(0.2, 0.5, 1.3, 0.7, times, sigma=0.02, seed=seed)
            fit = fit_gap(series)
            if abs(fit.gap - 1.3) <= 3.0 * fit.gap_err:
                hits += 1
        assert hits >= 95

    def test_exact_dynamics_series(self, rng):
        # oracle series straight from diagonalization; no Trotter, no shots
        h = build_ising(IsingSpec.chain(4, 1.0, 3.0))
        o = PauliString.from_word("XIII")
        gap = benchmark_gap(h, 0, 1)
        times = chebyshev_times(25, 0.0, 3.0 * 2 * math.pi / gap)
        values = sgs_closed_form(h, o, 0, 1, times)
        fit = fit_gap(TimeSeries(times, values, np.zeros_like(times)))
        assert abs(fit.gap - gap) / gap < 1e-3

    def test_canonicalization(self):
        times = chebyshev_times(25, 0.0, 9.0)
        series = synthetic_series(0.1, 0.4, 1.7, 4.0, times)
        fit = fit_gap(series)
        assert fit.gap > 0
        assert fit.rho >= 0
        assert 0.0 <= fit.theta < 2 * math.pi
        # refitting the model's own prediction reproduces the parameters
        refit = fit_gap(
            TimeSeries(times, fit.predict(times), np.zeros_like(times)),
            freq_hint=fit.gap,
        )
        assert refit.gap == pytest.approx(fit.gap, abs=1e-8)
        assert refit.rho == pytest.approx(fit.rho, abs=1e-8)
        assert refit.theta == pytest.approx(fit.theta, abs=1e-8)
        assert refit.offset == pytest.approx(fit.offset, abs=1e-8)

    def test_flat_series_flagged(self):
        times = chebyshev_times(25, 0.0, 9.0)
        rng = np.random.default_rng(5)
        values = 0.3 + rng.normal(0, 0.01, size=times.shape)
        series = TimeSeries(times, values, np.full_like(times, 0.01))
        fit = fit_gap(series)
        assert not fit.rho_significant

    @pytest.mark.filterwarnings("error")
    def test_constant_series_raises(self):
        times = chebyshev_times(25, 0.0, 9.0)
        series = TimeSeries(times, np.full_like(times, 0.3), np.full_like(times, 0.01))
        with pytest.raises(FitError, match="standard error"):
            fit_gap(series)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_gap(TimeSeries([0, 1, 2, 3], [0, 1, 0, 1], [0.1] * 4))

    def test_covariance_shape_and_errors(self):
        times = chebyshev_times(25, 0.0, 9.0)
        series = synthetic_series(0.2, 0.5, 1.3, 0.7, times, sigma=0.02, seed=1)
        fit = fit_gap(series)
        assert fit.covariance.shape == (4, 4)
        assert fit.gap_err > 0
        assert fit.reduced_chi_square == pytest.approx(1.0, rel=0.6)
        d = fit.to_dict()
        assert d["covariance_order"] == ["offset", "rho", "gap", "theta"]


class TestRunExperiment:
    def test_diagonal_hamiltonian_matches_closed_form(self):
        # diagonal evolution is product-formula-exact, so the measured
        # series equals the closed form up to shot noise
        h = QubitHamiltonian.from_terms(
            3, [("ZII", -1.1), ("IZI", -0.6), ("IIZ", -0.35), ("ZZI", 0.2)]
        )
        h0 = h
        a, b = select_aux_pair(h0)
        o = PauliString(3, tuple(1 if x != y else 0 for x, y in zip(a, b)))
        cfg = ExperimentConfig(
            tau=1.0, therm_steps=0, evo_steps=12, shots=4096, seed=3,
            time_window=(0.0, 6.0),
        )
        series = run_experiment(h, h0, o, cfg, prep=prepare_sgs0_basis_pair(a, b))
        spectrum = exact_spectrum(h)
        ia, ib = int(a, 2), int(b, 2)
        diag = np.real(np.diag(dense_hamiltonian(h)))
        gap = abs(diag[ib] - diag[ia])
        # identify the eigenlevels of the two basis states
        levels = [int(np.argmax(np.abs(spectrum.eigenvectors[idx, :]))) for idx in (ia, ib)]
        closed = sgs_closed_form(h, o, levels[0], levels[1], series.times)
        sigma_floor = np.maximum(series.sigmas, 1e-3)
        assert np.all(np.abs(series.values - closed) <= 4.0 * sigma_floor)

    def test_deterministic_under_seed(self):
        spec = IsingSpec.chain(3, 1.0, 2.5)
        h, h0 = build_ising(spec), ising_auxiliary(spec)
        o = PauliString.from_word("XII")
        cfg = ExperimentConfig(tau=3.0, therm_steps=5, evo_steps=8, shots=256, seed=11)
        a = run_experiment(h, h0, o, cfg)
        b = run_experiment(h, h0, o, cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_noisy_path_deterministic_and_damped(self):
        spec = IsingSpec.chain(3, 1.0, 2.5)
        h, h0 = build_ising(spec), ising_auxiliary(spec)
        o = PauliString.from_word("XII")
        noise = NoiseModel(fidelity_1q=0.999, fidelity_2q=0.98)
        base = dict(tau=3.0, therm_steps=5, evo_steps=8, shots=2048, seed=11,
                    time_window=(0.0, 2.0))
        noisy1 = run_experiment(h, h0, o, ExperimentConfig(**base, noise=noise))
        noisy2 = run_experiment(h, h0, o, ExperimentConfig(**base, noise=noise))
        np.testing.assert_array_equal(noisy1.values, noisy2.values)
        clean = run_experiment(h, h0, o, ExperimentConfig(**base))
        assert np.max(np.abs(noisy1.values)) < np.max(np.abs(clean.values)) + 0.05

    def test_qubit_count_mismatch(self):
        h = build_ising(IsingSpec.chain(3, 1.0, 2.0))
        h0 = ising_auxiliary(IsingSpec.chain(4, 1.0, 2.0))
        with pytest.raises(ValueError, match="qubit"):
            run_experiment(h, h0, PauliString.from_word("XII"),
                           ExperimentConfig(tau=1.0))

    def test_initial_state_bypasses_preparation(self):
        h = build_ising(IsingSpec.chain(3, 1.0, 2.5))
        spectrum = exact_spectrum(h)
        sgs = (spectrum.state(0) + spectrum.state(1)) / math.sqrt(2)
        o = PauliString.from_word("XII")
        cfg = ExperimentConfig(tau=1.0, therm_steps=0, evo_steps=10, shots=8192,
                               seed=2, time_window=(0.0, 4.0))
        series = run_experiment(
            h, h, o, cfg, initial_state=StateVector(3, sgs.astype(complex))
        )
        fit = fit_gap(series)
        gap = benchmark_gap(h, 0, 1)
        assert abs(fit.gap - gap) / gap < 0.05


def reference_steps(times, cfg):
    """Step lengths that reach each time from the prepared state: evo_steps
    equal steps per point, or every gap between the times so far when
    cumulative."""
    if cfg.step_allocation == "per_point":
        return [[t / cfg.evo_steps] * cfg.evo_steps for t in times]
    return [[times[0]] + [times[i] - times[i - 1] for i in range(1, k + 1)]
            for k in range(len(times))]


class TestSeriesKernel:
    """Batched series against a gate-by-gate run of every trotter_step."""

    @pytest.mark.parametrize(
        "allocation", ["per_point", "cumulative"], ids=["per_point-False", "cumulative-False"]
    )
    def test_matches_gate_loop(self, rng, allocation):
        from conftest import random_state

        h = QubitHamiltonian.from_terms(
            4, [("XYIZ", 0.7), ("IYYI", -0.4), ("ZIIZ", 0.9), ("IIXI", 0.3), ("YZXX", 0.2)]
        )
        o = PauliString.from_word("XIIY")
        prefix = StateVector(4, random_state(rng, 4))
        cfg = ExperimentConfig(tau=1.0, therm_steps=0, evo_steps=9, step_allocation=allocation)
        times = chebyshev_times(cfg.evo_steps, 0.0, 2.5)
        values, sigmas = _measure_series(h, o, prefix, times, cfg, shots=None)
        for k, steps in enumerate(reference_steps(times, cfg)):
            state = prefix.copy()
            for dt in steps:
                run_circuit(trotter_step(h, dt), state)
            assert values[k] == pytest.approx(state.expectation(o), abs=1e-12)
        np.testing.assert_array_equal(sigmas, 0.0)


    @pytest.mark.parametrize(
        "allocation,batch_bytes",
        [("per_point", None), ("per_point", 3 * 64 * 16), ("cumulative", None)],
        ids=["per_point", "per_point-blocks-of-3", "cumulative"],
    )
    def test_noisy_matches_run_noisy_loop(self, rng, monkeypatch, allocation, batch_bytes):
        from conftest import random_state

        if batch_bytes is not None:
            monkeypatch.setattr(sgs_pipeline, "DENSITY_BATCH_BYTES", batch_bytes)
        h = build_ising(IsingSpec.chain(3, 1.0, 2.2))
        o = PauliString.from_word("XII")
        noise = aria_noise_model()
        prefix = DensityMatrix.from_pure(StateVector(3, random_state(rng, 3)))
        cfg = ExperimentConfig(tau=1.0, therm_steps=0, evo_steps=8, noise=noise,
                               step_allocation=allocation)
        times = chebyshev_times(cfg.evo_steps, 0.0, 2.5)
        values, _ = _measure_series(h, o, prefix, times, cfg, shots=None)
        for k, steps in enumerate(reference_steps(times, cfg)):
            rho = prefix.copy()
            for dt in steps:
                run_noisy(trotter_step(h, dt, native=True), noise, initial=rho)
            assert values[k] == rho.expectation(o)

    def test_native_matches_gate_loop(self, rng):
        # GPI2- and CNOT-rich native steps on statevector columns
        from conftest import random_state

        h = QubitHamiltonian.from_terms(
            4, [("XYIZ", 0.7), ("IYYI", -0.4), ("ZIIZ", 0.9), ("IIXI", 0.3), ("YZXX", 0.2)]
        )
        evo_steps = 9
        dts = chebyshev_times(evo_steps, 0.0, 2.5) / evo_steps
        start = np.column_stack([random_state(rng, 4) for _ in dts])
        columns = evolve_columns(compile_step(h, native=True), start.copy(), dts, evo_steps)
        for k, dt in enumerate(dts):
            step = trotter_step(h, dt, native=True)
            assert step.is_native()
            state = StateVector(4, start[:, k].copy())
            for _ in range(evo_steps):
                run_circuit(step, state)
            np.testing.assert_allclose(columns[:, k], state.amplitudes, atol=1e-12)


class TestMoreProperties:
    @given(
        st.integers(3, 40),
        st.floats(0.0, 5.0),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_chebyshev_nodes_properties(self, n, t_min, width):
        t_max = t_min + width
        nodes = chebyshev_times(n, t_min, t_max)
        assert len(nodes) == n
        assert np.all(np.diff(nodes) > 0)
        assert nodes[0] > t_min and nodes[-1] < t_max
        np.testing.assert_allclose(nodes + nodes[::-1], t_min + t_max, atol=1e-9)

    def test_select_aux_pair_respects_oracle_limit(self, monkeypatch):
        monkeypatch.setenv("SGSLAB_ORACLE_LIMIT", "3")
        h0 = QubitHamiltonian.from_terms(4, [("ZIII", -1.0)])
        with pytest.raises(ValueError, match="oracle"):
            select_aux_pair(h0)


def test_cumulative_mode_end_to_end_ising():
    # the default allocation also recovers the gap, just with a somewhat
    # larger product-formula bias than the per_point presets
    spec = IsingSpec.chain(4, 1.0, 2.8)
    h, h0 = build_ising(spec), ising_auxiliary(spec)
    o = PauliString.from_word("XIII")
    cfg = ExperimentConfig(tau=7.0, therm_steps=15, evo_steps=25, shots=8192,
                           seed=7, step_allocation="cumulative")
    fit = fit_gap(run_experiment(h, h0, o, cfg))
    gap = benchmark_gap(h, 0, 1)
    assert abs(fit.gap - gap) / gap < 0.1


def test_grid_search_resolves_fast_tone_near_sampling_limit():
    # Chebyshev nodes cluster at the window edges, so the admissible band
    # extends far beyond the uniform-sampling limit pi*n/T; a tone several
    # times that limit must still be located
    times = chebyshev_times(25, 0.0, 10.0)
    uniform_limit = math.pi * 25 / 10.0
    omega = 2.5 * uniform_limit
    values = 0.1 + 0.4 * np.cos(omega * times + 0.9)
    series = TimeSeries(times, values, np.zeros_like(times))
    result = frequency_grid_search(series)
    assert result.significant
    fit = fit_gap(series, freq_hint=float(result.candidates[0]))
    assert fit.gap == pytest.approx(omega, rel=1e-6)
