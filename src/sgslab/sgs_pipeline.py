"""End-to-end gap-estimation pipeline.

Prepares the equal superposition of the starting Hamiltonian's two lowest
eigenstates, carries it through a discretized adiabatic interpolation to
the target Hamiltonian, records an observable's expectation value at
Chebyshev-distributed times under first-order Trotter evolution, and fits
offset + rho*cos(gap*t + theta) to extract the gap. Under a noise model the
state is a column of Pauli coefficients from |0...0> to readout.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.random import SeedSequence

from .circuit_engine import (
    Circuit,
    StateVector,
    StepPlan,
    _adiabatic_schedule,
    cnot,
    compile_adiabatic,
    compile_gates,
    compile_native,
    compile_step,
    evolve_columns,
    hadamard,
    pauli_x,
    run_adiabatic,
    run_circuit,
    sample_columns,
    trotter_term_order,
)
from .noise_engine import (
    DENSITY_BATCH_BYTES,
    NoiseModel,
    _sample_parity,
    check_density_size,
    evolve_transfer,
    measurement_probs,
    pauli_coefficients,
    word_index,
    zero_state_coefficients,
)
from .pauli_core import PauliString, QubitHamiltonian, diagonal_energies, expectations

# The paper's circuit budget: therm_steps + evo_steps, unless overridden.
MAX_TOTAL_STEPS = 40
DEFAULT_TARGET_PERIODS = 4.0
DEFAULT_MAX_STEP_NORM = 4.0
SIGMA_FLOOR = 1e-4
# The fewest points the frequency search and the 4-parameter fit accept.
MIN_FIT_POINTS = 5
# Omegas per block of frequency_grid_search; keeps its temporaries, the
# (GRID_BLOCK, n) cos/sin table of the grid step among them, at a few
# hundred kB.
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
    "ising": {"tau": 7.0, "therm_steps": 15, "evo_steps": 25},
    "molecule": {"tau": 2.0, "therm_steps": 5, "evo_steps": 35},
}


class StepBudgetError(ValueError):
    """Trotter-step budget exceeded without an explicit override."""


class FitError(RuntimeError):
    """Oscillation fit failed to converge, or left the gap undetermined."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of one gap-estimation run.

    Every measurement time gets its own circuit: the preparation, then
    exactly evo_steps equal-length Trotter steps to that time. That circuit,
    therm_steps + evo_steps steps deep, may hold at most MAX_TOTAL_STEPS
    steps unless ``override_step_budget`` is set.
    """

    tau: float
    therm_steps: int = 15
    evo_steps: int = 25
    shots: int = 8192
    seed: int = 0
    time_window: tuple[float, float] | None = None
    noise: NoiseModel | None = None
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
        if self.time_window is not None:
            try:
                t_min, t_max = (float(t) for t in self.time_window)
            except (TypeError, ValueError):
                t_min = t_max = math.nan
            if not (math.inf > t_max > t_min >= 0.0):
                raise ValueError(
                    f"time_window needs finite t_max > t_min >= 0, got {self.time_window!r}"
                )
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
        data = []
        for line, row in enumerate(rows[1:], start=2):
            if not row.strip():
                continue
            cells = row.split(",")
            if len(cells) != 3:
                raise ValueError(f"{path}:{line}: expected 3 fields t,mean,sigma, got {len(cells)}")
            data.append([float(x) for x in cells])
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


def batch_key(
    h: QubitHamiltonian,
    h0: QubitHamiltonian,
    o: PauliString,
    cfg: ExperimentConfig,
    prep: Circuit | None = None,
) -> tuple:
    """What the points of one batch share: the qubit count, the words of
    the step and of every thermalization step, the start circuit (``prep``,
    inferred from H0 when None) and the observable. Points with equal keys
    differ only in their coefficients, so their compiled plans share words
    and channels under any noise model, and the batch forms below run them
    as one."""
    prep = prep if prep is not None else default_sgs0_circuit(h0)
    therm = ()
    if cfg.therm_steps > 0:
        steps, _ = _adiabatic_schedule(h0, h, cfg.tau, cfg.therm_steps)
        therm = tuple(tuple(axes for axes, _ in terms) for terms in steps)
    step = tuple(axes for axes, _ in trotter_term_order(h))
    return h.num_qubits, step, therm, tuple(prep.gates), o


def prepare_states(
    hs: list[QubitHamiltonian],
    h0s: list[QubitHamiltonian],
    cfg: ExperimentConfig,
    prep: Circuit | None = None,
    initial_states: np.ndarray | None = None,
) -> np.ndarray:
    """The start columns of a batch of P points (``batch_key``): the
    (2^n, P) amplitudes of ``initial_states`` as given, or of ``prep``
    (inferred from the first H0 when None) followed by each point's own
    thermalization.

    Noiseless, ``prep`` runs once through ``run_circuit`` and the stacked
    thermalization plans through one ``run_adiabatic`` call, every column
    bit for bit the state of ``run_circuit`` on ``prep`` + its point's
    ``adiabatic_circuit``. Under noise (within the density qubit limit,
    also for ``initial_states``) the columns are (4^n, P) Pauli columns:
    the native ``prep`` and the stacked thermalizations
    (``compile_adiabatic``) run as one plan from |0...0>'s column.
    """
    n = hs[0].num_qubits
    noisy = cfg.noise is not None
    if noisy:
        check_density_size(n)
    if initial_states is not None:
        if initial_states.shape[0] != 1 << n:
            raise ValueError("initial_state qubit-count mismatch")
        if noisy:
            return np.column_stack(
                [pauli_coefficients(np.outer(amps, amps.conj())) for amps in initial_states.T]
            )
        return initial_states.copy()
    prep = prep if prep is not None else default_sgs0_circuit(h0s[0])
    circuit = Circuit(n, list(prep.gates))
    therm = [
        compile_adiabatic(h0, h, cfg.tau, cfg.therm_steps, native=noisy, noise=cfg.noise)
        for h0, h in zip(h0s, hs) if cfg.therm_steps > 0
    ]
    if noisy:
        plan = compile_gates(compile_native(circuit).gates, n, cfg.noise)
        plan = StepPlan.stack([plan + part for part in therm]) if therm else plan
        columns = np.repeat(zero_state_coefficients(n)[:, None], len(hs), axis=1)
        return evolve_transfer(plan, columns, np.zeros(len(hs)))
    columns = np.repeat(run_circuit(circuit).amplitudes[:, None], len(hs), axis=1)
    if therm:
        run_adiabatic(StepPlan.stack(therm), columns)
    return columns


def prepare_state(
    h: QubitHamiltonian,
    h0: QubitHamiltonian,
    cfg: ExperimentConfig,
    prep: Circuit | None = None,
    initial_state: StateVector | None = None,
) -> StateVector | np.ndarray:
    """The state a series starts from: ``prepare_states`` of a batch of
    one, as a ``StateVector``, or under noise its (4^n,) Pauli column."""
    columns = prepare_states([h], [h0], cfg, prep, _as_columns(initial_state))
    return columns[:, 0] if cfg.noise is not None else StateVector(h.num_qubits, columns[:, 0])


def _as_columns(state: StateVector | None) -> np.ndarray | None:
    return None if state is None else state.amplitudes[:, None]


def _measure_batch(
    hs: list[QubitHamiltonian],
    o: PauliString,
    prefixes: np.ndarray,
    times: np.ndarray,
    cfg: ExperimentConfig,
    shots: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve point p's column of ``prefixes`` (``prepare_states``) to each
    time of row p of the (P, T) ``times`` and measure there; returns (P, T)
    values and standard errors.

    ``shots=None`` records exact expectation values with zero sigma (used
    by the window pilot). Every time gets its own column, advanced by
    evo_steps equal steps of its point's step: the P * T statevector
    columns in one ``evolve_columns`` call on the points' stacked
    ``compile_step`` plans; a noisy batch runs ``_measure_noisy_batch``.
    Column k of a point samples with ``_point_seed(cfg.seed, k)``.
    """
    if cfg.noise is not None:
        return _measure_noisy_batch(hs, o, prefixes, times, cfg, shots)
    points, width = times.shape
    plan = StepPlan.stack([compile_step(h) for h in hs], width)
    columns = np.repeat(prefixes, width, axis=1)
    evolve_columns(plan, columns, (times / cfg.evo_steps).ravel(), cfg.evo_steps)
    if shots is None:
        return expectations(o, columns).reshape(times.shape), np.zeros(times.shape)
    seeds = [_point_seed(cfg.seed, k) for _ in range(points) for k in range(width)]
    samples = sample_columns(columns, o, shots, seeds)
    values = np.array([sample.mean for sample in samples])
    sigmas = np.array([sample.std_error for sample in samples])
    return values.reshape(times.shape), sigmas.reshape(times.shape)


def _measure_noisy_batch(
    hs: list[QubitHamiltonian],
    o: PauliString,
    prefixes: np.ndarray,
    times: np.ndarray,
    cfg: ExperimentConfig,
    shots: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """``_measure_batch`` under ``cfg.noise``: Pauli-basis (4^n, P * T)
    columns (``evolve_transfer``) on the stacked native steps with each
    native gate's depolarizing channels, in blocks of at most
    ``DENSITY_BATCH_BYTES``. A block's measurement probabilities are taken
    at once and the block is released before its columns are sampled."""
    width = times.shape[1]
    plan = StepPlan.stack([compile_step(h, native=True, noise=cfg.noise) for h in hs], width)
    dts = (times / cfg.evo_steps).ravel()
    block = max(1, DENSITY_BATCH_BYTES // (prefixes.shape[0] * prefixes.itemsize))
    values = np.empty(dts.size)
    sigmas = np.zeros(dts.size)
    for lo in range(0, dts.size, block):
        hi = min(lo + block, dts.size)
        batch = np.take(prefixes, np.arange(lo, hi) // width, axis=1)
        part = replace(plan, slopes=plan.slopes[:, lo:hi], intercepts=plan.intercepts[:, lo:hi])
        evolve_transfer(part, batch, dts[lo:hi], cfg.evo_steps)
        if shots is None:
            values[lo:hi] = (o.phase_coeff * batch[word_index(o.axes)]).real
            continue
        probs = measurement_probs(batch, o)
        del batch
        for k in range(lo, hi):
            seed = _point_seed(cfg.seed, k % width)
            sample = _sample_parity(probs[:, k - lo], o, shots, cfg.noise.readout_flip, seed)
            values[k], sigmas[k] = sample.mean, sample.std_error
    return values.reshape(times.shape), sigmas.reshape(times.shape)


def _measure_series(
    h: QubitHamiltonian,
    o: PauliString,
    prefix: StateVector | np.ndarray,
    times: np.ndarray,
    cfg: ExperimentConfig,
    shots: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """``_measure_batch`` of one point from ``prepare_state``'s state, a
    Pauli column under noise."""
    column = prefix if cfg.noise is not None else prefix.amplitudes
    times = np.asarray(times, dtype=float)[None, :]
    values, sigmas = _measure_batch([h], o, column[:, None], times, cfg, shots)
    return values[0], sigmas[0]


def pilot_times(h: QubitHamiltonian, cfg: ExperimentConfig) -> np.ndarray:
    """The Chebyshev times of ``auto_time_window``'s pilot: evo_steps
    nodes on the longest window the per-step size bound allows. ValueError
    when H has no terms, or when its coefficients are so large that the
    spacing of those times underflows to subnormal numbers, where no
    frequency grid can be laid."""
    norm1 = h.coeff_one_norm()
    if norm1 <= 0:
        raise ValueError("Hamiltonian has no terms")
    times = chebyshev_times(cfg.evo_steps, 0.0, cfg.max_step_norm / norm1 * cfg.evo_steps)
    if not np.diff(times).min() >= np.finfo(float).tiny:
        raise ValueError(f"coefficient 1-norm {norm1:.6g} spaces the pilot's times subnormally")
    return times


def auto_time_windows(
    hs: list[QubitHamiltonian],
    h0s: list[QubitHamiltonian],
    o: PauliString,
    cfg: ExperimentConfig,
    prep: Circuit | None = None,
    initial_states: np.ndarray | None = None,
) -> list[tuple[float, float]]:
    """Choose [0, t_max] covering ``target_periods`` oscillations, for each
    point of a batch (``batch_key``).

    One shot-free pilot series per point at the longest window allowed by
    the per-step size bound (dt * sum|coeff| <= max_step_norm,
    ``pilot_times``), all measured in one ``_measure_batch`` call from
    ``prepare_states``, estimates each point's frequency with its own
    linearized grid search; its window is then set from that guess and
    re-clamped. Noisy configurations run the pilot noiselessly.
    """
    pilot_cfg = replace(cfg, noise=None)
    times = np.array([pilot_times(h, cfg) for h in hs])
    prefixes = prepare_states(hs, h0s, pilot_cfg, prep, initial_states)
    values, _ = _measure_batch(hs, o, prefixes, times, pilot_cfg, None)
    windows = []
    for h, point_times, point_values in zip(hs, times, values):
        dt_max = cfg.max_step_norm / h.coeff_one_norm()
        t_pilot = dt_max * cfg.evo_steps  # longest admissible window for the pilot
        search = frequency_grid_search(
            TimeSeries(point_times, point_values, np.zeros_like(point_values))
        )
        t_max = t_pilot
        if search.significant and search.candidates.size:
            t_max = cfg.target_periods * 2.0 * math.pi / float(search.candidates[0])
            step = float(chebyshev_times(cfg.evo_steps, 0.0, t_max).max() / cfg.evo_steps)
            if step > dt_max:
                t_max *= dt_max / step
        windows.append((0.0, float(min(t_max, t_pilot))))
    return windows


def auto_time_window(
    h: QubitHamiltonian,
    h0: QubitHamiltonian,
    o: PauliString,
    cfg: ExperimentConfig,
    prep: Circuit | None = None,
    initial_state: StateVector | None = None,
) -> tuple[float, float]:
    """``auto_time_windows`` of a batch of one."""
    return auto_time_windows([h], [h0], o, cfg, prep, _as_columns(initial_state))[0]


def run_experiments(
    hs: list[QubitHamiltonian],
    h0s: list[QubitHamiltonian],
    o: PauliString,
    cfg: ExperimentConfig,
    prep: Circuit | None = None,
    initial_states: np.ndarray | None = None,
    windows: list[tuple[float, float]] | None = None,
) -> list[TimeSeries]:
    """Full pipeline for a batch of points (``batch_key``): prepare,
    thermalize, evolve, sample, each stage one kernel call for the batch.

    ``prep`` overrides the inferred starting-superposition circuit;
    ``initial_states``, (2^n, P) amplitudes, bypass preparation and
    thermalization entirely (used to drive the pipeline from exactly
    constructed superpositions, or from noiseless states
    ``prepare_states`` already built; under noise they enter as Pauli
    columns). ``windows`` gives each point its time window; when None,
    every point takes ``cfg.time_window``, or ``auto_time_windows`` when
    that is None. A column's bits do not depend on the rest of its batch.
    """
    for h, h0 in zip(hs, h0s, strict=True):
        if h.num_qubits != h0.num_qubits or o.num_qubits != h.num_qubits:
            raise ValueError("Hamiltonians and observable must share the qubit count")
    if windows is None and cfg.time_window is not None:
        windows = [cfg.time_window] * len(hs)
    elif windows is None:
        windows = auto_time_windows(hs, h0s, o, cfg, prep, initial_states)
    times = np.array([chebyshev_times(cfg.evo_steps, *window) for window in windows])
    prefixes = prepare_states(hs, h0s, cfg, prep, initial_states)
    values, sigmas = _measure_batch(hs, o, prefixes, times, cfg, cfg.shots)
    return [TimeSeries(*row) for row in zip(times, values, sigmas)]


def run_experiment(
    h: QubitHamiltonian,
    h0: QubitHamiltonian,
    o: PauliString,
    cfg: ExperimentConfig,
    prep: Circuit | None = None,
    initial_state: StateVector | None = None,
) -> TimeSeries:
    """``run_experiments`` of a batch of one; ``initial_state`` bypasses
    preparation and thermalization."""
    return run_experiments([h], [h0], o, cfg, prep, _as_columns(initial_state))[0]


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


def _profile(
    omegas: np.ndarray, times: np.ndarray, ones: np.ndarray, yw: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The profile residual r(w) = |resid|^2 of ``_tone_fits``, its first and
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


def _scan_residuals(
    omegas: np.ndarray, times: np.ndarray, weights: np.ndarray, yw: np.ndarray
) -> np.ndarray:
    """The weighted residual |resid|^2 of the tone fit c + a cos(wt) +
    b sin(wt) at every omega of the uniform grid ``omegas``; ``yw`` holds
    the weighted values centred on the weighted constant.

    The rows follow by angle addition in blocks of GRID_BLOCK omegas: row
    k of every block is offset from the block's first omega by the grid's
    own k-th step, so one cos/sin table of those offsets serves every
    block, and each block takes the cos/sin of its first omega only.
    Projecting the constant out of the weighted cos and sin columns leaves
    a 2x2 normal-equation system per omega, solved in closed form.
    """
    centre = weights * weights / (weights @ weights)
    phases = np.multiply.outer(omegas[:GRID_BLOCK] - omegas[0], times)
    cos_k = np.cos(phases)
    sin_k = np.sin(phases, out=phases)
    residuals = np.empty(len(omegas))
    for lo in range(0, len(omegas), GRID_BLOCK):
        rows = min(GRID_BLOCK, len(omegas) - lo)
        cos_b, sin_b = np.cos(omegas[lo] * times), np.sin(omegas[lo] * times)
        cos = cos_k[:rows] * cos_b
        cos -= sin_k[:rows] * sin_b
        sin = sin_k[:rows] * cos_b
        sin += cos_k[:rows] * sin_b
        for col in (cos, sin):
            col -= (col @ centre)[:, None]
            col *= weights
        cc, ss, cs = np.vecdot(cos, cos), np.vecdot(sin, sin), np.vecdot(cos, sin)
        cy, sy = cos @ yw, sin @ yw
        det = cc * ss - cs * cs
        a = (ss * cy - cs * sy) / det
        b = (cc * sy - cs * cy) / det
        # the residual formed explicitly (y'y - b'x cancels on good fits),
        # in the cos column's place
        resid = cos
        resid *= a[:, None]
        resid += b[:, None] * sin
        resid -= yw
        residuals[lo:lo + rows] = np.vecdot(resid, resid)
    return residuals


def frequency_grid_search(series: TimeSeries) -> GridSearchResult:
    """Scan the admissible frequency band for least-squares minima.

    The band is [pi/(2 T_window), pi/min(dt)] — from half an oscillation
    across the window up to the nonuniform sampling limit — with grid
    resolution pi/(T_window * OVERSAMPLE). The three lowest local minima
    are returned as fit starting points; a series whose best tone does not
    beat the constant-only fit is flagged as not significant.
    """
    if len(series) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} points")
    times, values = series.times, series.values
    weights = 1.0 / np.maximum(series.sigmas, SIGMA_FLOOR)
    window = float(times[-1] - times[0])
    omega_lo = math.pi / (2.0 * window)
    omega_hi = math.pi / float(np.min(np.diff(times)))
    domega = math.pi / (window * OVERSAMPLE)
    omegas = np.arange(omega_lo, omega_hi, domega)
    # the constant-only fit: its weighted residual is the weighted values
    # centred on the weighted constant
    yw = values * weights
    yw -= (weights @ yw) / (weights @ weights) * weights
    flat_residual = float(yw @ yw)
    residuals = _scan_residuals(omegas, times, weights, yw)

    interior = np.arange(1, len(omegas) - 1)
    is_min = (residuals[interior] <= residuals[interior - 1]) & (
        residuals[interior] <= residuals[interior + 1]
    )
    minima = interior[is_min]
    minima = minima[np.argsort(residuals[minima], kind="stable")][:3]
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


def fit_gap(series: TimeSeries, freq_hint: float | None = None) -> FitResult:
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
    sigmas = np.maximum(series.sigmas, SIGMA_FLOOR)
    if freq_hint is not None:
        starts = [float(freq_hint)]
    else:
        starts = [float(w) for w in frequency_grid_search(series).candidates]
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
