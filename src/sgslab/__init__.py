"""Classical simulation toolkit for spectral gap estimation via
time-oscillations of observables on eigenstate superpositions."""

__version__ = "0.1.0"

from .pauli_core import (
    PauliString,
    QubitHamiltonian,
    diagonal_part,
    expectation,
    multiply,
)
from .hamiltonians import (
    FermionHamiltonian,
    IsingSpec,
    build_ising,
    ising_auxiliary,
    jordan_wigner,
    load_fermion_hamiltonian,
    load_qubit_hamiltonian,
    write_fermion_hamiltonian,
    write_qubit_hamiltonian,
)
from .circuit_engine import (
    Circuit,
    ExpectationSample,
    Gate,
    StateVector,
    adiabatic_circuit,
    basis_change_circuit,
    circuit_unitary,
    compile_native,
    run_circuit,
    sample_expectation,
    trotter_step,
)
from .noise_engine import (
    DensityMatrix,
    NoiseModel,
    aria_noise_model,
    depolarizing_param,
    run_noisy,
    sample_expectation_noisy,
)
from .sgs_pipeline import (
    ExperimentConfig,
    FitError,
    FitResult,
    TimeSeries,
    chebyshev_times,
    fit_gap,
    frequency_grid_search,
    ising_experiment_config,
    molecule_experiment_config,
    prepare_sgs0_basis_pair,
    prepare_sgs0_ising,
    run_experiment,
    select_aux_pair,
)
from .spectra_oracle import (
    SpectrumResult,
    benchmark_gap,
    coherence,
    exact_spectrum,
    observable_search,
    sgs_closed_form,
)

__all__ = [name for name in dir() if not name.startswith("_")]
