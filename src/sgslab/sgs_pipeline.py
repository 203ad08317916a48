"""End-to-end gap-estimation pipeline.

Prepares the equal superposition of the starting Hamiltonian's two lowest
eigenstates, carries it through a discretized adiabatic interpolation to
the target Hamiltonian, records an observable's expectation value at
Chebyshev-distributed times under first-order Trotter evolution, and fits
offset + rho*cos(gap*t + theta) to extract the gap.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Literal, NamedTuple

import numpy as np
from numpy.random import SeedSequence

from .circuit_engine import (
    Circuit,
    StateVector,
    adiabatic_circuit,
    cnot,
    compile_native,
    compile_step,
    evolve_columns,
    hadamard,
    pauli_x,
    run_circuit,
    sample_expectation,
)
from .noise_engine import (
    DENSITY_BATCH_BYTES,
    DensityMatrix,
    NoiseModel,
    evolve_density,
    run_noisy,
    sample_expectation_noisy,
)
from .pauli_core import PauliString, QubitHamiltonian, diagonal_energies

# The paper's circuit budget: therm_steps + evo_steps, unless overridden.
MAX_TOTAL_STEPS = 40
DEFAULT_TARGET_PERIODS = 4.0
DEFAULT_MAX_STEP_NORM = 4.0
SIGMA_FLOOR = 1e-4
# The fewest points the frequency search and the 4-parameter fit accept.
MIN_FIT_POINTS = 5
# Omegas per stacked solve in frequency_grid_search; keeps its temporaries
# at a few hundred kB.
GRID_BLOCK = 256
# Grid points per pi/T_window in frequency_grid_search; the same spacing is
# the first bracket of a fit started from a caller's frequency hint.
OVERSAMPLE = 16
# The fit's profile minimization stops once a Newton step would lower the
# chi-square by at most FIT_CHI2_TOL, i.e. move omega by at most
# sqrt(FIT_CHI2_TOL) of its standard error (that last step is then taken
# without another evaluation), and fails after FIT_MAX_STEPS residual
# evaluations.
FIT_CHI2_TOL = 1e-8
FIT_MAX_STEPS = 100
# Minimum chi-square improvement of the oscillation fit over the weighted
# constant-only fit for the amplitude to count as detected (a roughly
# 5-sigma single-tone threshold, guarding against pure-noise tones that a
# free frequency can always soak up).
DETECTION_DELTA_CHI2 = 25.0
# What an ExperimentConfig field of each annotated type must hold.
_FIELD_KINDS = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a finite number"),
    "bool": (bool, "true or false"),
}

# Experiment presets of the two studies, the base that a config file's
# ``experiment:`` block overrides. The thermalization times tau are chosen
# so the two-branch preparation fidelity check passes at 15 steps in the
# middle of the coupling sweep.
STUDY_PRESETS = {
    "ising": {"tau": 7.0, "therm_steps": 15, "evo_steps": 25, "step_allocation": "per_point"},
    "molecule": {"tau": 2.0, "therm_steps": 5, "evo_steps": 35, "step_allocation": "per_point"},
}


class StepBudgetError(ValueError):
    """Trotter-step budget exceeded without an explicit override."""


class FitError(RuntimeError):
    """Oscillation fit failed to converge, or left the gap undetermined."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of one gap-estimation run.

    ``step_allocation`` picks how measurement times consume the evolution
    budget: "cumulative" reaches the k-th time with k variable-length
    steps (deepest circuit = therm_steps + evo_steps); "per_point" gives
    every time its own circuit of exactly evo_steps equal-length steps,
    keeping the same per-circuit depth bound. The deepest circuit may hold
    at most MAX_TOTAL_STEPS steps unless ``override_step_budget`` is set.
    """

    tau: float
    therm_steps: int = 15
    evo_steps: int = 25
    shots: int = 8192
    seed: int = 0
    time_window: tuple[float, float] | None = None
    noise: NoiseModel | None = None
    step_allocation: Literal["cumulative", "per_point"] = "cumulative"
    target_periods: float = DEFAULT_TARGET_PERIODS
    max_step_norm: float = DEFAULT_MAX_STEP_NORM
    override_step_budget: bool = False

    def __post_init__(self):
        for f in fields(self):
            kind, wanted = _FIELD_KINDS.get(f.type, (None, None))
            value = getattr(self, f.name)
            if kind and not (
                isinstance(value, kind)
                and isinstance(value, bool) == (kind is bool)
                and math.isfinite(value)
            ):
                raise ValueError(f"{f.name} must be {wanted}, got {value!r}")
        if self.therm_steps < 0:
            raise ValueError("therm_steps must be >= 0")
        if self.therm_steps > 0 and self.tau <= 0:
            raise ValueError("tau must be positive when thermalizing")
        if self.evo_steps < MIN_FIT_POINTS:
            raise ValueError(
                f"evo_steps must be >= {MIN_FIT_POINTS} (one series point per step, "
                "fitted with 4 parameters)"
            )
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.step_allocation not in ("cumulative", "per_point"):
            raise ValueError(f"unknown step_allocation {self.step_allocation!r}")
        if self.time_window is not None:
            try:
                t_min, t_max = (float(t) for t in self.time_window)
            except (TypeError, ValueError):
                t_min = t_max = math.nan
            if not (t_max > t_min >= 0.0):
                raise ValueError(f"time_window needs t_max > t_min >= 0, got {self.time_window!r}")
            object.__setattr__(self, "time_window", (t_min, t_max))
        if self.target_periods <= 0 or self.max_step_norm <= 0:
            raise ValueError("target_periods and max_step_norm must be positive")
        total = self.therm_steps + self.evo_steps
        if total > MAX_TOTAL_STEPS and not self.override_step_budget:
            raise StepBudgetError(
                f"therm_steps + evo_steps = {total} exceeds the "
                f"{MAX_TOTAL_STEPS}-step budget (set override_step_budget)"
            )


def ising_experiment_config(**overrides) -> ExperimentConfig:
    """Ising-study preset: 15 thermalization + 25 evolution steps."""
    return ExperimentConfig(**STUDY_PRESETS["ising"] | overrides)


def molecule_experiment_config(**overrides) -> ExperimentConfig:
    """Molecule-study preset: 5 thermalization + 35 evolution steps."""
    return ExperimentConfig(**STUDY_PRESETS["molecule"] | overrides)


@dataclass(frozen=True)
class TimeSeries:
    """Measured <O(t)> samples with per-point standard errors."""

    times: np.ndarray
    values: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        sigmas = np.asarray(self.sigmas, dtype=float)
        if not (times.shape == values.shape == sigmas.shape) or times.ndim != 1:
            raise ValueError("times, values and sigmas must be equal-length 1-D")
        for name, column in (("times", times), ("values", values), ("sigmas", sigmas)):
            if not np.all(np.isfinite(column)):
                raise ValueError(f"{name} must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(sigmas < 0):
            raise ValueError("sigmas must be >= 0")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sigmas", sigmas)

    def __len__(self) -> int:
        return self.times.shape[0]

    def to_csv(self, path) -> None:
        lines = ["t,mean,sigma"]
        for t, v, s in zip(self.times, self.values, self.sigmas):
            lines.append(f"{t:.17g},{v:.17g},{s:.17g}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "TimeSeries":
        rows = Path(path).read_text().splitlines()
        if not rows or rows[0].strip().lower() != "t,mean,sigma":
            raise ValueError(f"{path}: expected header 't,mean,sigma'")
        data = [tuple(float(x) for x in row.split(",")) for row in rows[1:] if row.strip()]
        if not data:
            raise ValueError(f"{path}: no data rows")
        arr = np.array(data)
        return cls(arr[:, 0], arr[:, 1], arr[:, 2])


def chebyshev_times(n: int, t_min: float, t_max: float) -> np.ndarray:
    """Ascending Chebyshev nodes of the first kind on [t_min, t_max]."""
    if n < 3:
        raise ValueError("need at least 3 sample times")
    if not t_max > t_min:
        raise ValueError("need t_max > t_min")
    k = np.arange(1, n + 1)
    nodes = 0.5 * (t_min + t_max) + 0.5 * (t_max - t_min) * np.cos(
        (2 * k - 1) * math.pi / (2 * n)
    )
    return np.sort(nodes)


# --- initial-state circuits ------------------------------------------------


def prepare_sgs0_ising(num_sites: int) -> Circuit:
    """|+>^L from |0>^L: the equal superposition of the interaction-only
    Hamiltonian's two degenerate ground states that thermalizes into the
    target's lowest two eigenstates."""
    if num_sites < 1:
        raise ValueError("need at least one site")
    circuit = Circuit(num_sites)
    for q in range(num_sites):
        circuit.add(hadamard(q))
    return circuit


def prepare_sgs0_basis_pair(a: str, b: str) -> Circuit:
    """(|a> + |b>)/sqrt(2) for computational-basis strings a != b.

    One superposition gate on the first differing qubit, a CNOT fan-out
    onto the remaining differing qubits, then X gates wherever a has a 1.
    """
    if len(a) != len(b):
        raise ValueError("bitstrings must have equal length")
    if a == b:
        raise ValueError("bitstrings must differ")
    if any(c not in "01" for c in a + b):
        raise ValueError("bitstrings must be over {0, 1}")
    n = len(a)
    diff = [q for q in range(n) if a[q] != b[q]]
    pivot = diff[0]
    circuit = Circuit(n)
    circuit.add(hadamard(pivot))
    for q in diff[1:]:
        circuit.add(cnot(pivot, q))
    for q in range(n):
        if a[q] == "1":
            circuit.add(pauli_x(q))
    return circuit


def select_aux_pair(h0: QubitHamiltonian) -> tuple[str, str]:
    """Lowest and second-lowest diagonal-energy basis states of a
    diagonal Hamiltonian; exact ties resolve to the smaller index."""
    energies = diagonal_energies(h0)
    order = np.argsort(energies, kind="stable")
    n = h0.num_qubits
    a, b = int(order[0]), int(order[1])
    return format(a, f"0{n}b"), format(b, f"0{n}b")


def _is_xx_only(h: QubitHamiltonian) -> bool:
    return len(h.terms) > 0 and all(
        sorted(a for a in axes if a != 0) == [1, 1] for axes, _ in h.terms
    )


def default_sgs0_circuit(h0: QubitHamiltonian) -> Circuit:
    """Starting-superposition circuit inferred from the structure of H0."""
    if all(all(a in (0, 3) for a in axes) for axes, _ in h0.terms):
        a, b = select_aux_pair(h0)
        return prepare_sgs0_basis_pair(a, b)
    if _is_xx_only(h0):
        return prepare_sgs0_ising(h0.num_qubits)
    raise ValueError(
        "cannot infer a starting superposition for this H0; pass prep explicitly"
    )


# --- series measurement ----------------------------------------------------


def _point_seed(seed: int, k: int) -> SeedSequence:
    return SeedSequence((int(seed) & 0xFFFFFFFF, k))


def _prepare(
    h: QubitHamiltonian,
    h0: QubitHamiltonian,
    cfg: ExperimentConfig,
    prep: Circuit | None,
    initial_state: StateVector | None,
) -> StateVector | DensityMatrix:
    """The state a series starts from: ``initial_state`` as given, or
    ``prep`` (inferred from H0 when None) followed by the thermalization.
    A noisy ``cfg`` runs native gates under its noise model and returns a
    DensityMatrix."""
    noisy = cfg.noise is not None
    if initial_state is not None:
        if initial_state.num_qubits != h.num_qubits:
            raise ValueError("initial_state qubit-count mismatch")
        state = initial_state.copy()
        return DensityMatrix.from_pure(state) if noisy else state
    prep = prep if prep is not None else default_sgs0_circuit(h0)
    circuit = Circuit(h.num_qubits, list(prep.gates))
    if noisy:
        circuit = compile_native(circuit)
    if cfg.therm_steps > 0:
        circuit += adiabatic_circuit(h0, h, cfg.tau, cfg.therm_steps, native=noisy)
    return run_noisy(circuit, cfg.noise) if noisy else run_circuit(circuit)


def _measure_series(
    h: QubitHamiltonian,
    o: PauliString,
    prefix: StateVector | DensityMatrix,
    times: np.ndarray,
    cfg: ExperimentConfig,
    shots: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve through the schedule and measure at each time.

    ``prefix`` is the prepared state, a DensityMatrix for a noisy series.
    ``shots=None`` records exact expectation values with zero sigma (used
    by the window pilot). The precompiled step (native for a noisy series,
    with each native gate's depolarizing channels) advances statevector
    (2^n, T) or density (2^n, 2^n, T) columns: ``per_point`` evolves all
    times at once, density times in blocks of at most
    ``DENSITY_BATCH_BYTES``; ``cumulative`` advances one column from each
    time to the next.
    """
    noisy = isinstance(prefix, DensityMatrix)
    plan = compile_step(h, native=noisy, noise=cfg.noise)
    if noisy:
        start, evolve, wrap = prefix.matrix, evolve_density, DensityMatrix
        block = max(1, DENSITY_BATCH_BYTES // start.nbytes)
    else:
        start, evolve, wrap = prefix.amplitudes, evolve_columns, StateVector
        block = len(times)
    values = np.empty(len(times))
    sigmas = np.zeros(len(times))

    def measure(k: int, column: np.ndarray) -> None:
        state = wrap(h.num_qubits, column)
        values[k], sigmas[k] = _measure_state(state, o, cfg, shots, k)

    if cfg.step_allocation == "per_point":
        for lo in range(0, len(times), block):
            chunk = times[lo:lo + block]
            batch = np.repeat(start[..., None], len(chunk), axis=-1)
            evolve(plan, batch, chunk / cfg.evo_steps, cfg.evo_steps)
            for k in range(len(chunk)):
                measure(lo + k, batch[..., k])
        return values, sigmas
    column = start[..., None].copy()
    for k, dt in enumerate(np.diff(times, prepend=0.0)):
        evolve(plan, column, [dt])
        measure(k, column[..., 0])
    return values, sigmas


def _measure_state(state, o: PauliString, cfg: ExperimentConfig, shots, k: int):
    if shots is None:
        return state.expectation(o), 0.0
    seed = _point_seed(cfg.seed, k)
    if isinstance(state, DensityMatrix):
        sample = sample_expectation_noisy(
            state, o, shots, cfg.noise.readout_flip, seed
        )
    else:
        sample = sample_expectation(state, o, shots, seed)
    return sample.mean, sample.std_error


def _max_step_of_window(times: np.ndarray, cfg: ExperimentConfig) -> float:
    if cfg.step_allocation == "cumulative":
        with_zero = np.concatenate([[0.0], times])
        return float(np.max(np.diff(with_zero)))
    return float(times.max() / cfg.evo_steps)


def auto_time_window(
    h: QubitHamiltonian,
    h0: QubitHamiltonian,
    o: PauliString,
    cfg: ExperimentConfig,
    prep: Circuit | None = None,
    initial_state: StateVector | None = None,
) -> tuple[float, float]:
    """Choose [0, t_max] covering ``target_periods`` oscillations.

    A shot-free pilot at the longest window allowed by the per-step size
    bound (dt * sum|coeff| <= max_step_norm) estimates the frequency with
    the linearized grid search; the window is then set from that guess and
    re-clamped. Noisy configurations run the pilot noiselessly.
    """
    norm1 = h.coeff_one_norm()
    if norm1 <= 0:
        raise ValueError("Hamiltonian has no terms")
    dt_max = cfg.max_step_norm / norm1

    def clamp_window(t_max: float) -> float:
        times = chebyshev_times(cfg.evo_steps, 0.0, t_max)
        step = _max_step_of_window(times, cfg)
        if step > dt_max:
            t_max *= dt_max / step
        return t_max

    # longest admissible window for the pilot
    if cfg.step_allocation == "per_point":
        t_pilot = dt_max * cfg.evo_steps
    else:
        probe = chebyshev_times(cfg.evo_steps, 0.0, 1.0)
        t_pilot = dt_max / _max_step_of_window(probe, cfg)

    pilot_cfg = replace(cfg, noise=None)
    prefix = _prepare(h, h0, pilot_cfg, prep, initial_state)
    pilot_times = chebyshev_times(cfg.evo_steps, 0.0, t_pilot)
    values, _ = _measure_series(h, o, prefix, pilot_times, pilot_cfg, shots=None)
    pilot = TimeSeries(pilot_times, values, np.zeros_like(values))
    search = frequency_grid_search(pilot)
    if search.significant and search.candidates.size:
        guess = float(search.candidates[0])
        t_max = clamp_window(cfg.target_periods * 2.0 * math.pi / guess)
    else:
        t_max = t_pilot
    return 0.0, float(min(t_max, t_pilot))


def run_experiment(
    h: QubitHamiltonian,
    h0: QubitHamiltonian,
    o: PauliString,
    cfg: ExperimentConfig,
    prep: Circuit | None = None,
    initial_state: StateVector | None = None,
) -> TimeSeries:
    """Full pipeline: prepare, thermalize, evolve, sample.

    ``prep`` overrides the inferred starting-superposition circuit;
    ``initial_state`` bypasses preparation and thermalization entirely
    (used to drive the pipeline from an exactly constructed superposition).
    """
    if h.num_qubits != h0.num_qubits or o.num_qubits != h.num_qubits:
        raise ValueError("Hamiltonians and observable must share the qubit count")
    if cfg.time_window is not None:
        t_min, t_max = cfg.time_window
    else:
        t_min, t_max = auto_time_window(h, h0, o, cfg, prep, initial_state)
    times = chebyshev_times(cfg.evo_steps, t_min, t_max)
    prefix = _prepare(h, h0, cfg, prep, initial_state)
    values, sigmas = _measure_series(h, o, prefix, times, cfg, cfg.shots)
    return TimeSeries(times, values, sigmas)


# --- frequency estimation --------------------------------------------------


@dataclass(frozen=True)
class GridSearchResult:
    candidates: np.ndarray
    candidate_residuals: np.ndarray
    omegas: np.ndarray
    residuals: np.ndarray
    significant: bool


def _tone_fits(
    omegas: np.ndarray, times: np.ndarray, ones: np.ndarray, yw: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weighted LSQ of c + a cos(wt) + b sin(wt) at every omega at once.

    ``ones`` holds the weights and ``yw`` the weighted values. One stacked
    3x3 normal-equation solve; returns the weighted design (B, n, 3), its
    Gram matrices, the coefficients (c, a, b) as (B, 3) and the residual
    design @ sol - yw (B, n), formed explicitly (y'y - b'x cancels on good
    fits).
    """
    phase = np.multiply.outer(omegas, times)
    design = np.empty(phase.shape + (3,))
    design[..., 0] = ones
    np.multiply(np.cos(phase), ones, out=design[..., 1])
    np.multiply(np.sin(phase), ones, out=design[..., 2])
    gram = np.matmul(design.transpose(0, 2, 1), design)
    sol = np.linalg.solve(gram, np.matmul(yw, design)[..., None])
    resid = np.matmul(design, sol)[..., 0] - yw
    return design, gram, sol[..., 0], resid


def _tone_residuals(
    omegas: np.ndarray, times: np.ndarray, ones: np.ndarray, yw: np.ndarray
) -> np.ndarray:
    """The weighted residual |resid|^2 of every omega's ``_tone_fits``."""
    *_, resid = _tone_fits(omegas, times, ones, yw)
    return np.vecdot(resid, resid)


def _profile(
    omegas: np.ndarray, times: np.ndarray, ones: np.ndarray, yw: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The profile residual r(w) of ``_tone_residuals``, its first and
    second derivatives in w, the coefficients and their derivative in w,
    at every omega.

    Variable projection (Golub and Pereyra 1973): the linear coefficients
    are re-solved at every w, so r depends on w alone. With m1 and m2 the
    first and second w-derivatives of design @ sol at fixed sol, and
    u = design' m1 + (d design/dw)' resid, d sol/dw = -gram^-1 u,
    r' = 2 m1.resid and r'' = 2 (|m1|^2 + m2.resid - u' gram^-1 u).
    """
    design, gram, sol, resid = _tone_fits(omegas, times, ones, yw)
    tcos, tsin = (times * design[..., k] for k in (1, 2))
    a, b = sol[:, 1:2], sol[:, 2:3]
    m1 = b * tcos - a * tsin
    m2 = -times * (a * tcos + b * tsin)
    u = np.matmul(m1[:, None, :], design)[:, 0]
    u[:, 1] -= np.vecdot(tsin, resid)
    u[:, 2] += np.vecdot(tcos, resid)
    dsol = -np.linalg.solve(gram, u[..., None])[..., 0]
    curvature = 2.0 * (np.vecdot(m1, m1) + np.vecdot(m2, resid) + np.vecdot(u, dsol))
    return np.vecdot(resid, resid), 2.0 * np.vecdot(m1, resid), curvature, sol, dsol


def frequency_grid_search(
    series: TimeSeries,
    n_candidates: int = 3,
    oversample: int = OVERSAMPLE,
    sigma_floor: float = SIGMA_FLOOR,
) -> GridSearchResult:
    """Scan the admissible frequency band for least-squares minima.

    The band is [pi/(2 T_window), pi/min(dt)] — from half an oscillation
    across the window up to the nonuniform sampling limit — with grid
    resolution pi/(T_window * oversample). Top local minima are returned
    as fit starting points; a series whose best tone does not beat the
    constant-only fit is flagged as not significant.
    """
    if len(series) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} points")
    times, values = series.times, series.values
    weights = 1.0 / np.maximum(series.sigmas, sigma_floor)
    window = float(times[-1] - times[0])
    omega_lo = math.pi / (2.0 * window)
    omega_hi = math.pi / float(np.min(np.diff(times)))
    domega = math.pi / (window * oversample)
    omegas = np.arange(omega_lo, omega_hi, domega)
    ones = np.ones_like(times) * weights
    yw = values * weights
    residuals = np.concatenate([
        _tone_residuals(omegas[lo:lo + GRID_BLOCK], times, ones, yw)
        for lo in range(0, len(omegas), GRID_BLOCK)
    ])

    c_flat = float((ones @ yw) / (ones @ ones))
    flat_residual = float(np.sum((c_flat * ones - yw) ** 2))

    interior = np.arange(1, len(omegas) - 1)
    is_min = (residuals[interior] <= residuals[interior - 1]) & (
        residuals[interior] <= residuals[interior + 1]
    )
    minima = interior[is_min]
    minima = minima[np.argsort(residuals[minima], kind="stable")][:n_candidates]
    if minima.size == 0:
        minima = np.array([int(np.argmin(residuals))])
    best = float(residuals[minima[0]])
    significant = best < flat_residual * 0.99 - 1e-300
    return GridSearchResult(
        candidates=omegas[minima],
        candidate_residuals=residuals[minima],
        omegas=omegas,
        residuals=residuals,
        significant=significant,
    )


@dataclass(frozen=True)
class FitResult:
    """Fitted oscillation parameters with 1-sigma errors.

    ``covariance`` rows/columns follow (offset, rho, gap, theta).
    """

    gap: float
    rho: float
    theta: float
    offset: float
    gap_err: float
    rho_err: float
    theta_err: float
    offset_err: float
    covariance: np.ndarray
    reduced_chi_square: float
    rho_significant: bool
    n_points: int

    def to_dict(self) -> dict:
        return asdict(self) | {
            "covariance": self.covariance.tolist(),
            "covariance_order": ["offset", "rho", "gap", "theta"],
        }

    def predict(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.offset + self.rho * np.cos(self.gap * t + self.theta)


def _oscillation(t, c, rho, omega, theta):
    return c + rho * np.cos(omega * t + theta)


def _tone_params(omega: float, sol: np.ndarray) -> np.ndarray:
    """(c, rho, omega, theta) of c + a cos(wt) + b sin(wt), rho >= 0 and
    theta in [0, 2pi)."""
    c, a, b = (float(x) for x in sol)
    theta = math.atan2(-b, a) % (2.0 * math.pi)  # a tiny negative angle rounds to 2pi
    return np.array([c, math.hypot(a, b), omega, theta if theta < 2.0 * math.pi else 0.0])


def _covariance(times: np.ndarray, weights: np.ndarray, popt: np.ndarray) -> np.ndarray:
    """(J'WJ)^-1 of the weighted Jacobian of all four parameters, through
    its SVD; infinite when a singular value is at or below
    scipy.optimize.curve_fit's cutoff, eps * max(J.shape) * the largest."""
    _, rho, omega, theta = popt
    phase = omega * times + theta
    sin = np.sin(phase)
    jac = weights[:, None] * np.column_stack(
        [np.ones_like(times), np.cos(phase), -rho * times * sin, -rho * sin]
    )
    _, sv, vt = np.linalg.svd(jac, full_matrices=False)
    if sv[-1] <= np.finfo(float).eps * max(jac.shape) * sv[0]:
        return np.full((4, 4), np.inf)
    return (vt.T / sv**2) @ vt


class _ProfilePoint(NamedTuple):
    """``_profile`` at one omega."""

    omega: float
    r: float
    grad: float
    curv: float
    sol: np.ndarray
    dsol: np.ndarray


def curve_fit(
    times: np.ndarray, values: np.ndarray, sigmas: np.ndarray, p0: float, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """Fit c + rho cos(omega t + theta) to ``values`` with standard errors
    ``sigmas``, starting from the frequency ``p0``.

    Variable projection: three omegas ``step`` apart around ``p0``, moved
    downhill with growing steps until the middle one has the lowest
    profile residual r (``_profile``), bracket a minimum of r; Newton
    steps on r then find it, each kept inside the bracket (a golden-section
    step where Newton's is not). Returns popt = (c, rho, omega, theta),
    with rho >= 0, omega > 0 and theta in [0, 2pi), and its covariance
    from ``_covariance``, which is scipy.optimize.curve_fit's with
    absolute_sigma=True. A start whose tone has a singular Jacobian (no
    amplitude, so r has nothing to minimize) is returned as it is, with
    an infinite covariance. Raises RuntimeError when FIT_MAX_STEPS
    residual evaluations neither bracket nor locate a minimum.

    The name and contract (a start in; popt and covariance out;
    RuntimeError on failure) are those of the scipy function this
    replaces, because the benchmark's tracer (bench/layers.py) counts fit
    starts by wrapping this module attribute.
    """
    weights = 1.0 / sigmas
    yw = values * weights

    def evaluate(*omegas: float) -> list[_ProfilePoint]:
        profile = _profile(np.array(omegas), times, weights, yw)
        return [_ProfilePoint(*point) for point in zip(omegas, *profile)]

    a, b, c = evaluate(max(p0 - step, 0.5 * p0), p0, p0 + step)
    popt = _tone_params(p0, b.sol)
    pcov = _covariance(times, weights, popt)
    if not np.all(np.isfinite(pcov)):
        return popt, pcov
    latest = b
    for _ in range(FIT_MAX_STEPS):
        if not (b.r <= a.r and b.r <= c.r):
            step *= 1.618  # golden-ratio growth, as in a downhill bracket search
            if a.r < c.r:
                a, b, c = *evaluate(max(a.omega - step, 0.5 * a.omega)), a, b
            else:
                a, b, c = b, c, *evaluate(c.omega + step)
            latest = b
            continue
        # Newton from the latest point: near the minimum r is flat to
        # rounding, so its slope, not its value, says where the minimum is
        newton = -float(latest.grad) / float(latest.curv) if latest.curv > 0 else math.nan
        if latest.curv > 0 and latest.grad**2 <= 2.0 * FIT_CHI2_TOL * latest.curv:
            popt = _tone_params(latest.omega + newton, latest.sol + newton * latest.dsol)
            return popt, _covariance(times, weights, popt)
        x = latest.omega + newton
        if not a.omega < x < c.omega:
            wide = c.omega - b.omega > b.omega - a.omega
            x = b.omega + 0.381966 * ((c.omega if wide else a.omega) - b.omega)
        (latest,) = evaluate(x)
        if latest.r <= b.r:
            a, b, c = (a, latest, b) if x < b.omega else (b, latest, c)
        else:
            a, c = (latest, c) if x < b.omega else (a, latest)
    raise RuntimeError(f"no minimum of the profile residual found from {p0:.6g}")


def fit_gap(
    series: TimeSeries,
    freq_hint: float | None = None,
    sigma_floor: float = SIGMA_FLOOR,
) -> FitResult:
    """Weighted least-squares fit of c + rho cos(gap t + theta).

    Runs ``curve_fit`` from each grid-search minimum (or from the caller's
    hint), keeps the lowest-chi-square converged fit, reported with
    rho >= 0, theta in [0, 2pi) and gap > 0. Raises ValueError for a hint
    that is not finite and positive, FitError when nothing converges or
    the best fit's covariance is not finite.
    """
    if len(series) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} points to fit 4 parameters")
    if freq_hint is not None and not 0.0 < freq_hint < math.inf:
        raise ValueError(f"freq_hint must be a finite number > 0, got {freq_hint!r}")
    times, values = series.times, series.values
    sigmas = np.maximum(series.sigmas, sigma_floor)
    if freq_hint is not None:
        starts = [float(freq_hint)]
    else:
        starts = [float(w) for w in frequency_grid_search(series, sigma_floor=sigma_floor).candidates]
    step = math.pi / (float(times[-1] - times[0]) * OVERSAMPLE)

    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for omega0 in starts:
        try:
            popt, pcov = curve_fit(times, values, sigmas, omega0, step)
        except RuntimeError:
            continue
        resid = (_oscillation(times, *popt) - values) / sigmas
        chi2 = float(resid @ resid)
        if best is None or chi2 < best[0]:
            best = (chi2, popt, pcov)
    if best is None:
        raise FitError(
            f"oscillation fit did not converge from any of {len(starts)} starts"
        )
    chi2, popt, pcov = best
    if not np.all(np.isfinite(pcov)):
        raise FitError("gap standard error is not finite: the series shows no tone")
    weights = 1.0 / sigmas
    w2 = weights * weights
    c_flat = float((w2 * values).sum() / w2.sum())
    flat_chi2 = float(np.sum(((values - c_flat) / sigmas) ** 2))
    detected = (flat_chi2 - chi2) >= DETECTION_DELTA_CHI2
    offset, rho, omega, theta = (float(x) for x in popt)
    errs = np.sqrt(np.diag(pcov))
    reduced = chi2 / max(len(series) - 4, 1)
    return FitResult(
        gap=omega,
        rho=rho,
        theta=theta,
        offset=offset,
        gap_err=float(errs[2]),
        rho_err=float(errs[1]),
        theta_err=float(errs[3]),
        offset_err=float(errs[0]),
        covariance=pcov,
        reduced_chi_square=reduced,
        rho_significant=bool(rho >= 2.0 * float(errs[1])) and detected,
        n_points=len(series),
    )
