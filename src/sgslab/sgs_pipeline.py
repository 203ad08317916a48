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
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Literal

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

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
    trotter_step,
)
from .noise_engine import (
    DensityMatrix,
    NoiseModel,
    run_noisy,
    sample_expectation_noisy,
)
from .pauli_core import PauliString, QubitHamiltonian, diagonal_energies

DEFAULT_MAX_TOTAL_STEPS = 40
DEFAULT_TARGET_PERIODS = 4.0
DEFAULT_MAX_STEP_NORM = 4.0
SIGMA_FLOOR = 1e-4
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
    keeping the same per-circuit depth bound.
    """

    tau: float
    therm_steps: int = 15
    evo_steps: int = 25
    shots: int = 8192
    seed: int = 0
    time_window: tuple[float, float] | None = None
    native_mode: bool = False
    noise: NoiseModel | None = None
    step_allocation: Literal["cumulative", "per_point"] = "cumulative"
    independent_points: bool = False
    target_periods: float = DEFAULT_TARGET_PERIODS
    max_step_norm: float = DEFAULT_MAX_STEP_NORM
    override_step_budget: bool = False
    max_total_steps: int = DEFAULT_MAX_TOTAL_STEPS

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
        if self.evo_steps < 3:
            raise ValueError("evo_steps must be >= 3 (one Chebyshev node per step)")
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
        if total > self.max_total_steps and not self.override_step_budget:
            raise StepBudgetError(
                f"therm_steps + evo_steps = {total} exceeds the "
                f"{self.max_total_steps}-step budget (set override_step_budget)"
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


def _point_seed(seed: int, k: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(seed) & 0xFFFFFFFF, k))


def _prefix_circuit(
    h: QubitHamiltonian,
    h0: QubitHamiltonian,
    cfg: ExperimentConfig,
    prep: Circuit,
    native: bool,
) -> Circuit:
    circuit = Circuit(h.num_qubits, list(prep.gates))
    if native:
        circuit = compile_native(circuit)
    if cfg.therm_steps > 0:
        circuit += adiabatic_circuit(h0, h, cfg.tau, cfg.therm_steps, native=native)
    return circuit


def _evolution_steps(times: np.ndarray, cfg: ExperimentConfig) -> list[list[float]]:
    """Per-point step durations; len(steps[k]) <= evo_steps always."""
    if cfg.step_allocation == "cumulative":
        prev = 0.0
        out = []
        acc: list[float] = []
        for t in times:
            acc = acc + [t - prev]
            prev = t
            out.append(list(acc))
        return out
    return [[t / cfg.evo_steps] * cfg.evo_steps for t in times]


def _measure_series(
    h: QubitHamiltonian,
    o: PauliString,
    prefix_pure: StateVector | None,
    prefix_rho: DensityMatrix | None,
    times: np.ndarray,
    cfg: ExperimentConfig,
    shots: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve through the schedule and measure at each time.

    ``shots=None`` records exact expectation values with zero sigma (used
    by the window pilot). Exactly one of the prefix states is set.
    Noiseless non-native series run on the precompiled step kernel, all
    times at once for ``per_point``; native and noisy series simulate the
    compiled native circuit gate by gate.
    """
    noisy = prefix_rho is not None
    values = np.empty(len(times))
    sigmas = np.zeros(len(times))

    if cfg.native_mode or noisy:
        # the native circuit (and its noise channels), gate by gate
        circuits: dict[float, Circuit] = {}

        def advance(state, dt: float):
            if dt not in circuits:
                circuits[dt] = trotter_step(h, dt, native=True)
            if noisy:
                return run_noisy(circuits[dt], cfg.noise, initial=state)
            return run_circuit(circuits[dt], state)

    else:
        plan = compile_step(h)
        if cfg.step_allocation == "per_point":
            columns = np.repeat(prefix_pure.amplitudes[:, None], len(times), axis=1)
            evolve_columns(plan, columns, times / cfg.evo_steps, cfg.evo_steps)
            for k in range(len(times)):
                state = StateVector(h.num_qubits, columns[:, k])
                values[k], sigmas[k] = _measure_state(state, o, cfg, shots, k)
            return values, sigmas

        def advance(state, dt: float):
            evolve_columns(plan, state.amplitudes[:, None], [dt])
            return state

    all_steps = _evolution_steps(times, cfg)
    start = prefix_rho if noisy else prefix_pure
    if cfg.step_allocation == "cumulative" and not cfg.independent_points:
        state = start.copy()
        prev_len = 0
        for k, steps in enumerate(all_steps):
            for dt in steps[prev_len:]:
                state = advance(state, dt)
            prev_len = len(steps)
            values[k], sigmas[k] = _measure_state(state, o, cfg, shots, k)
    else:
        for k, steps in enumerate(all_steps):
            state = start.copy()
            for dt in steps:
                state = advance(state, dt)
            values[k], sigmas[k] = _measure_state(state, o, cfg, shots, k)
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

    pilot_cfg = replace(cfg, noise=None, native_mode=False)
    if initial_state is not None:
        prefix = initial_state.copy()
    else:
        prep = prep if prep is not None else default_sgs0_circuit(h0)
        prefix = run_circuit(_prefix_circuit(h, h0, pilot_cfg, prep, native=False))
    pilot_times = chebyshev_times(cfg.evo_steps, 0.0, t_pilot)
    values, _ = _measure_series(h, o, prefix, None, pilot_times, pilot_cfg, shots=None)
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

    noisy = cfg.noise is not None
    native = cfg.native_mode or noisy
    if initial_state is not None:
        if initial_state.num_qubits != h.num_qubits:
            raise ValueError("initial_state qubit-count mismatch")
        prefix_pure = initial_state.copy()
    else:
        prep = prep if prep is not None else default_sgs0_circuit(h0)
        prefix_circuit = _prefix_circuit(h, h0, cfg, prep, native)
        prefix_pure = None if noisy else run_circuit(prefix_circuit)
    if noisy:
        if initial_state is not None:
            prefix_rho = DensityMatrix.from_pure(prefix_pure)
        else:
            prefix_rho = run_noisy(prefix_circuit, cfg.noise)
        values, sigmas = _measure_series(h, o, None, prefix_rho, times, cfg, cfg.shots)
    else:
        values, sigmas = _measure_series(h, o, prefix_pure, None, times, cfg, cfg.shots)
    return TimeSeries(times, values, sigmas)


# --- frequency estimation --------------------------------------------------


@dataclass(frozen=True)
class GridSearchResult:
    candidates: np.ndarray
    candidate_residuals: np.ndarray
    omegas: np.ndarray
    residuals: np.ndarray
    significant: bool


def _linear_tone_fit(
    times: np.ndarray, values: np.ndarray, weights: np.ndarray, omega: float
) -> tuple[np.ndarray, float]:
    """Weighted LSQ of c + a cos(wt) + b sin(wt) at fixed w."""
    design = np.column_stack(
        [np.ones_like(times), np.cos(omega * times), np.sin(omega * times)]
    )
    dw = design * weights[:, None]
    yw = values * weights
    sol, *_ = np.linalg.lstsq(dw, yw, rcond=None)
    resid = dw @ sol - yw
    return sol, float(resid @ resid)


def frequency_grid_search(
    series: TimeSeries,
    n_candidates: int = 3,
    oversample: int = 16,
    sigma_floor: float = SIGMA_FLOOR,
) -> GridSearchResult:
    """Scan the admissible frequency band for least-squares minima.

    The band is [pi/(2 T_window), pi/min(dt)] — from half an oscillation
    across the window up to the nonuniform sampling limit — with grid
    resolution pi/(T_window * oversample). Top local minima are returned
    as fit starting points; a series whose best tone does not beat the
    constant-only fit is flagged as not significant.
    """
    if len(series) < 5:
        raise ValueError("need at least 5 points")
    times, values = series.times, series.values
    weights = 1.0 / np.maximum(series.sigmas, sigma_floor)
    window = float(times[-1] - times[0])
    omega_lo = math.pi / (2.0 * window)
    omega_hi = math.pi / float(np.min(np.diff(times)))
    domega = math.pi / (window * oversample)
    omegas = np.arange(omega_lo, omega_hi, domega)
    residuals = np.array(
        [_linear_tone_fit(times, values, weights, w)[1] for w in omegas]
    )

    ones = np.ones_like(times) * weights
    yw = values * weights
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


def fit_gap(
    series: TimeSeries,
    freq_hint: float | None = None,
    sigma_floor: float = SIGMA_FLOOR,
) -> FitResult:
    """Weighted nonlinear fit of c + rho cos(gap t + theta).

    Starts from the grid-search minima (or the caller's hint), keeps the
    lowest-chi-square converged fit, and canonicalizes to rho >= 0,
    theta in [0, 2pi), gap > 0. Raises FitError when nothing converges or
    the best fit's covariance is not finite.
    """
    if len(series) < 5:
        raise ValueError("need at least 5 points to fit 4 parameters")
    times, values = series.times, series.values
    sigmas = np.maximum(series.sigmas, sigma_floor)
    if freq_hint is not None:
        starts = [float(freq_hint)]
    else:
        starts = [float(w) for w in frequency_grid_search(series, sigma_floor=sigma_floor).candidates]
    weights = 1.0 / sigmas

    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for omega0 in starts:
        (c0, a0, b0), _ = _linear_tone_fit(times, values, weights, omega0)
        rho0 = math.hypot(a0, b0)
        theta0 = math.atan2(-b0, a0)
        try:
            with warnings.catch_warnings():
                # a singular Jacobian leaves pcov infinite; refused below
                warnings.filterwarnings(
                    "ignore", "Covariance of the parameters", OptimizeWarning
                )
                popt, pcov = curve_fit(
                    _oscillation,
                    times,
                    values,
                    p0=[c0, rho0, omega0, theta0],
                    sigma=sigmas,
                    absolute_sigma=True,
                    maxfev=20000,
                )
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
    w2 = weights * weights
    c_flat = float((w2 * values).sum() / w2.sum())
    flat_chi2 = float(np.sum(((values - c_flat) / sigmas) ** 2))
    detected = (flat_chi2 - chi2) >= DETECTION_DELTA_CHI2
    offset, rho, omega, theta = (float(x) for x in popt)

    jac = np.eye(4)
    if rho < 0:
        rho = -rho
        theta += math.pi
        jac[1, 1] = -1.0
    if omega < 0:
        omega = -omega
        theta = -theta
        jac[2, 2] = -1.0
        jac[3, 3] = -1.0
    theta %= 2.0 * math.pi
    pcov = jac @ pcov @ jac.T
    errs = np.sqrt(np.abs(np.diag(pcov)))
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
