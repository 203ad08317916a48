"""Command-line front end.

Subcommands: ``ising`` (1D/2D coupling sweeps), ``molecule`` (file-driven
gap estimation), ``search`` (observable ranking), ``benchmark`` (exact
gaps), ``fit`` (refit an externally measured series). All outputs are
CSV/JSON; re-running a command with the same config and seed reproduces
them byte for byte (the manifest carries the only run-varying field, its
timestamp).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import yaml

from . import __version__
from .hamiltonians import (
    IsingSpec,
    build_ising,
    ising_auxiliary,
    jordan_wigner,
    load_fermion_hamiltonian,
    load_qubit_hamiltonian,
)
from .noise_engine import NoiseModel, aria_noise_model
from .pauli_core import (
    PauliString,
    QubitHamiltonian,
    check_oracle_size,
    diagonal_part,
    oracle_limit,
)
from .sgs_pipeline import (
    MIN_FIT_POINTS,
    STUDY_PRESETS,
    ExperimentConfig,
    FitError,
    TimeSeries,
    auto_time_windows,
    batch_key,
    fit_gap,
    pilot_times,
    prepare_sgs0_basis_pair,
    prepare_states,
    run_experiments,
    select_aux_pair,
)
from .spectra_oracle import (
    DegenerateLevelsError,
    SearchCeilingError,
    benchmark_gap,
    observable_search,
    search_report_csv,
)

# The keys a config's ``experiment:`` block may set; noise has its own key.
EXPERIMENT_KEYS = {f.name for f in fields(ExperimentConfig)} - {"noise"}


class ConfigError(ValueError):
    """Configuration problem, annotated with the offending field path."""


def xstring_observable(a: str, b: str) -> PauliString:
    """X on every position where the two basis strings differ; satisfies
    |<b|O|a>| = 1 exactly."""
    if len(a) != len(b) or a == b:
        raise ValueError("need distinct equal-length bitstrings")
    axes = tuple(1 if x != y else 0 for x, y in zip(a, b))
    return PauliString(len(a), axes)


def ising_observable(num_sites: int, site: int = 0) -> PauliString:
    """Single X with identities elsewhere: the coupling-sweep observable
    with maximal coherence between the lowest two levels (it flips the
    Z-product parity that splits them)."""
    axes = tuple(1 if q == site else 0 for q in range(num_sites))
    return PauliString(num_sites, axes)


# --- manifest and deterministic writers ------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _out_dir(args) -> Path:
    """The --out directory, created with its parents when missing."""
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from None
    return Path(args.out)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass
class RunManifest:
    """Everything needed to reproduce a run; identical manifests (up to
    the timestamp) imply bit-identical outputs."""

    command: list[str]
    config: dict
    seed: int
    input_digests: dict[str, str]
    created_utc: str
    tool: str = "sgslab"
    version: str = __version__


def write_manifest(out_dir: Path, command: list[str], config: dict, seed: int,
                   input_paths: list[Path]) -> None:
    manifest = RunManifest(
        command=list(command),
        config=config,
        seed=seed,
        input_digests={str(p): _sha256(p) for p in sorted(set(input_paths))},
        created_utc=datetime.now(timezone.utc).isoformat(),
    )
    _write_atomic(out_dir / "manifest.json", _json_text(asdict(manifest)))


# --- config loading ---------------------------------------------------------


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}.{key}: missing required field")
    return mapping[key]


def _number(value, where: str) -> float:
    try:
        number = float(value)
        if math.isfinite(number):
            return number
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{where}: expected a finite number, got {value!r}")


def _experiment_config(loaded: LoadedConfig, args) -> ExperimentConfig:
    """The study's preset, overridden by the file's ``experiment:`` block,
    overridden by the command-line flags."""
    block = loaded.raw.get("experiment")
    if block is None:
        block = {}
    if not isinstance(block, dict):
        raise ConfigError(f"config.experiment: expected a mapping, got {block!r}")
    for key in block:
        if key not in EXPERIMENT_KEYS:
            raise ConfigError(f"config.experiment.{key}: unknown field")
    flags = {"seed": args.seed, "shots": args.shots}
    merged = STUDY_PRESETS[loaded.study] | block
    merged |= {key: value for key, value in flags.items() if value is not None}
    if args.override_step_budget:
        merged["override_step_budget"] = True
    noise = args.noise if args.noise is not None else loaded.raw.get("noise")
    merged["noise"] = _resolve_noise(noise, loaded.config_dir)
    try:
        return ExperimentConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"experiment: {exc}") from None


def _resolve_noise(token, config_dir: Path) -> NoiseModel | None:
    if token in (None, "none", ""):
        return None
    if token == "aria":
        return aria_noise_model()
    if isinstance(token, str) and token.startswith("custom:"):
        path = (config_dir / token[len("custom:"):]).resolve()
        try:
            raw = yaml.safe_load(path.read_text())
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigError(f"noise: cannot read noise file {path}: {exc}") from None
        try:
            return NoiseModel(**raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"noise file {path}: {exc}") from None
    raise ConfigError(f"noise: expected none|aria|custom:<path>, got {token!r}")


@dataclass
class LoadedConfig:
    study: str
    raw: dict
    config_dir: Path


def load_config(path: Path) -> LoadedConfig:
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ConfigError(f"--config: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    study = _require(raw, "study", "config")
    if not isinstance(study, str) or study not in STUDIES:
        raise ConfigError(f"config.study: expected 'ising' or 'molecule', got {study!r}")
    return LoadedConfig(study, raw, path.parent.resolve())


def _load_hamiltonian(path: Path, fmt: str) -> QubitHamiltonian:
    """A qubit or fermion Hamiltonian file, mapped to qubits and checked
    against the oracle limit of the exact benchmark."""
    if fmt == "fermion":
        h = jordan_wigner(load_fermion_hamiltonian(path))
    else:
        h = load_qubit_hamiltonian(path)
    check_oracle_size(h.num_qubits)
    return h


# --- study points -------------------------------------------------------------
#
# A point is (result fields, h, h0, observable, prep): the fields open the
# point's entry in result.json, and prep=None lets the pipeline infer the
# starting superposition from h0.


def _ising_points(raw: dict, config_dir: Path) -> list[tuple]:
    geometry = raw.get("geometry", "chain")
    if geometry == "chain":
        keys = ("length",)
    elif geometry == "lattice":
        keys = ("rows", "cols")
    else:
        raise ConfigError(f"config.geometry: expected chain|lattice, got {geometry!r}")
    dims = {key: _require(raw, key, "config") for key in keys}
    for key, value in dims.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config.{key}: expected an integer, got {value!r}")
    j1 = _number(raw.get("j1", 1.0), "config.j1")
    if j1 == 0.0:
        raise ConfigError("config.j1: must be nonzero; h3 = ratio * j1 leaves no term at j1 = 0")
    sweep = _require(raw, "sweep", "config")
    if not isinstance(sweep, list) or not sweep:
        raise ConfigError("config.sweep: expected a non-empty list of h3/J1 values")
    points = []
    for idx, value in enumerate(sweep):
        ratio = _number(value, f"config.sweep[{idx}]")
        try:
            spec = IsingSpec(geometry, j1, ratio * j1, **dims)
            check_oracle_size(spec.num_sites)
        except ValueError as exc:
            raise ConfigError(f"config: {exc}") from None
        h = build_ising(spec)
        if not math.isfinite(h.coeff_one_norm()):
            raise ConfigError(f"config.sweep[{idx}]: {ratio!r} overflows H's coefficient 1-norm")
        observable = ising_observable(spec.num_sites)
        entry = {"label": f"{ratio:g}", "h3_over_j1": ratio, "observable": observable.word}
        points.append((entry, h, ising_auxiliary(spec), observable, None))
    return points


def _molecule_points(raw: dict, config_dir: Path) -> list[tuple]:
    inputs = _require(raw, "inputs", "config")
    if not isinstance(inputs, list) or not inputs:
        raise ConfigError("config.inputs: expected a non-empty list")
    points = []
    for idx, item in enumerate(inputs):
        where = f"config.inputs[{idx}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{where}: expected a mapping with label and path, got {item!r}")
        label = str(_require(item, "label", where))
        path = (config_dir / str(_require(item, "path", where))).resolve()
        fmt = item.get("format", "qubit")
        if fmt not in ("qubit", "fermion"):
            raise ConfigError(f"{where}.format: expected qubit|fermion, got {fmt!r}")
        try:
            h = _load_hamiltonian(path, fmt)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{where}.path: {exc}") from None
        h0 = diagonal_part(h)
        a, b = select_aux_pair(h0)
        observable = xstring_observable(a, b)
        entry = {"label": label, "input": str(path), "aux_pair": [a, b],
                 "observable": observable.word}
        points.append((entry, h, h0, observable, prepare_sgs0_basis_pair(a, b)))
    return points


# study -> (point reader, first column of sweep.csv, the config list of points)
STUDIES = {
    "ising": (_ising_points, "h3_over_J1", "sweep"),
    "molecule": (_molecule_points, "bond_label", "inputs"),
}


def _batches(points: list[tuple], cfg: ExperimentConfig, parts: int) -> list[list[int]]:
    """The point indices of each batch: at most ``parts`` contiguous runs
    of the points, one per worker, each split by ``batch_key`` in order of
    first appearance."""
    size = -(-len(points) // parts)
    batches = []
    for lo in range(0, len(points), size):
        groups: dict[tuple, list[int]] = {}
        for i in range(lo, min(lo + size, len(points))):
            _, h, h0, observable, prep = points[i]
            groups.setdefault(batch_key(h, h0, observable, cfg, prep), []).append(i)
        batches += groups.values()
    return batches


def _fit(series: TimeSeries, hint: float | None):
    """``fit_gap`` from ``hint``, or the message of its ``FitError``."""
    try:
        return fit_gap(series, freq_hint=hint)
    except FitError as exc:
        return str(exc)


def _run_batch(job) -> list[tuple[dict, TimeSeries | None]]:
    """Run and fit the points of one batch (``_batches``); returns each
    point's result.json entry and its series (None when the fit failed).

    Each stage is one kernel call for the whole batch. The noiseless
    states are prepared once, for the window pilot and the noiseless
    series. A noisy point first fits the noiseless series and starts the
    noisy fit from that gap; a point whose noiseless fit failed reports
    that failure.
    """
    study, cfg, points = job
    entries, hs, h0s, observables, preps = zip(*points)
    o, prep = observables[0], preps[0]
    clean_cfg = replace(cfg, noise=None)
    states = prepare_states(hs, h0s, clean_cfg, prep)
    if cfg.time_window is None:
        windows = auto_time_windows(hs, h0s, o, cfg, initial_states=states)
    else:
        windows = [cfg.time_window] * len(hs)
    series = run_experiments(hs, h0s, o, clean_cfg, initial_states=states, windows=windows)
    fits = [_fit(s, None) for s in series]
    clean_fits = [None] * len(hs)
    if cfg.noise is not None:
        clean_fits = fits
        series = run_experiments(hs, h0s, o, cfg, prep, windows=windows)
        fits = [
            clean if isinstance(clean, str) else _fit(s, clean.gap)
            for s, clean in zip(series, clean_fits)
        ]
    return [
        _point_result(study, *point)
        for point in zip(entries, hs, fits, series, clean_fits)
    ]


def _point_result(study, entry, h, fit, series, clean_fit) -> tuple[dict, TimeSeries | None]:
    if isinstance(fit, str):
        return entry | {"fit_error": fit}, None
    gap_exact = benchmark_gap(h, 0, 1)
    rel = abs(fit.gap - gap_exact) / abs(gap_exact) if gap_exact != 0 else float("inf")
    point = entry | {
        "fit": fit.to_dict(),
        "benchmark": {"gap_exact": gap_exact, "gap_fitted": fit.gap, "relative_error": rel},
        "time_window": [float(series.times.min()), float(series.times.max())],
    }
    if study == "molecule":
        point["rho_flagged"] = not fit.rho_significant
    if clean_fit is not None:
        point["noiseless_reference"] = clean_fit.to_dict()
    return point, series


def _sweep_csv(rows: list[dict], key_column: str) -> str:
    lines = [f"{key_column},gap_fit,gap_err,gap_exact,rel_error"]
    lines += [
        f"{row['label']},{row['fit']['gap']:.17g},{row['fit']['gap_err']:.17g},"
        f"{row['benchmark']['gap_exact']:.17g},{row['benchmark']['relative_error']:.17g}"
        for row in rows if "fit" in row
    ]
    return "\n".join(lines) + "\n"


# --- subcommands -------------------------------------------------------------


def cmd_study(args) -> int:
    """Run every point of an ``ising`` or ``molecule`` config, batch by
    batch (``_batches``), and write the outputs; returns 1 when any point
    failed to fit."""
    if args.workers < 1:
        raise ConfigError(f"--workers: expected an integer >= 1, got {args.workers}")
    loaded = load_config(Path(args.config))
    if loaded.study != args.command:
        raise ConfigError(f"config.study: expected {args.command!r} for this command")
    read_points, key_column, field = STUDIES[loaded.study]
    points = read_points(loaded.raw, loaded.config_dir)
    cfg = _experiment_config(loaded, args)
    if cfg.time_window is None:
        for idx, point in enumerate(points):
            try:
                pilot_times(point[1], cfg)
            except ValueError as exc:
                raise ConfigError(f"config.{field}[{idx}]: {exc}") from None
    batches = _batches(points, cfg, args.workers)
    jobs = [(loaded.study, cfg, [points[i] for i in batch]) for batch in batches]
    out_dir = _out_dir(args)
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=min(args.workers, len(jobs))) as pool:
            outcomes = list(pool.map(_run_batch, jobs))
    else:
        outcomes = [_run_batch(job) for job in jobs]
    placed = {i: out for batch, outcome in zip(batches, outcomes) for i, out in zip(batch, outcome)}
    results = [placed[i] for i in range(len(points))]

    rows = [row for row, _ in results]
    for row, series in results:
        if series is not None:
            series.to_csv(out_dir / f"series_{row['label'].replace('/', '_')}.csv")
    _write_atomic(out_dir / "sweep.csv", _sweep_csv(rows, key_column))
    _write_atomic(out_dir / "result.json", _json_text({"study": loaded.study, "points": rows}))
    snapshot = {"file": loaded.raw, "resolved_experiment": asdict(cfg)}
    inputs = [Path(entry["input"]) for entry, *_ in points if "input" in entry]
    write_manifest(out_dir, args.argv, snapshot, cfg.seed, inputs)
    return 1 if any("fit_error" in row for row in rows) else 0


def _args_snapshot(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("fn", "argv")}


def _hamiltonian_from_args(args) -> tuple[QubitHamiltonian, list[Path]]:
    """The Hamiltonian the flags name and its input files; also checks the
    oracle limit and the --levels pair."""
    if not (args.hamiltonian or args.chain is not None or args.lattice is not None):
        raise ConfigError("provide --hamiltonian, --chain or --lattice")
    paths = [Path(args.hamiltonian).resolve()] if args.hamiltonian else []
    _number(args.j1, "--j1")
    _number(args.h3, "--h3")
    try:
        if paths:
            flag = "--hamiltonian"
            h = _load_hamiltonian(paths[0], args.format)
        elif args.chain is not None:
            flag = "--chain"
            h = build_ising(IsingSpec.chain(args.chain, args.j1, args.h3))
        else:
            flag = "--lattice"
            h = build_ising(IsingSpec.lattice(*args.lattice, args.j1, args.h3))
        check_oracle_size(h.num_qubits)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    # a gap needs I < J; a search ranks |<J|O|I>| for any two distinct levels
    i, j = args.levels
    lo, hi = (i, j) if args.command == "benchmark" else sorted(args.levels)
    if not 0 <= lo < hi < 1 << h.num_qubits:
        order = "I < J" if args.command == "benchmark" else "I != J"
        raise ConfigError(f"--levels: need 0 <= I, J < {1 << h.num_qubits}, {order}; got {i} {j}")
    return h, paths


def cmd_search(args) -> int:
    h, paths = _hamiltonian_from_args(args)
    try:
        records = observable_search(h, args.levels[0], args.levels[1], family=args.family)
    except SearchCeilingError as exc:
        raise ConfigError(f"--family: {exc}") from None
    except DegenerateLevelsError as exc:
        raise ConfigError(f"--levels: {exc}") from None
    out_dir = _out_dir(args)
    _write_atomic(out_dir / "search.csv", search_report_csv(records))
    write_manifest(out_dir, args.argv, _args_snapshot(args) | {"tool": "search"}, 0, paths)
    best = records[0]
    print(f"top observable: {best.word} (rho = {best.rho:.6g})")
    return 0


def cmd_benchmark(args) -> int:
    h, paths = _hamiltonian_from_args(args)
    gap = benchmark_gap(h, args.levels[0], args.levels[1])
    out_dir = _out_dir(args)
    payload = {"levels": list(args.levels), "gap_exact": gap}
    _write_atomic(out_dir / "result.json", _json_text(payload))
    write_manifest(out_dir, args.argv, _args_snapshot(args) | {"tool": "benchmark"}, 0, paths)
    print(f"gap E{args.levels[1]} - E{args.levels[0]} = {gap:.12g}")
    return 0


def cmd_fit(args) -> int:
    path = Path(args.series).resolve()
    try:
        series = TimeSeries.from_csv(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"series {path}: {exc}") from None
    if len(series) < MIN_FIT_POINTS:
        raise ConfigError(
            f"series {path}: {len(series)} rows, the 4-parameter fit needs at least "
            f"{MIN_FIT_POINTS}"
        )
    if args.freq_hint is not None and not 0.0 < args.freq_hint < math.inf:
        raise ConfigError(f"--freq-hint: expected a finite number > 0, got {args.freq_hint!r}")
    fit = fit_gap(series, freq_hint=args.freq_hint)
    out_dir = _out_dir(args)
    _write_atomic(out_dir / "result.json", _json_text({"fit": fit.to_dict()}))
    write_manifest(out_dir, args.argv, {"series": str(path)}, 0, [path])
    print(f"gap = {fit.gap:.9g} +- {fit.gap_err:.3g} (rho = {fit.rho:.4g})")
    return 0


# --- argument plumbing -------------------------------------------------------


def _check_environment() -> None:
    try:
        oracle_limit()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgslab",
        description="Spectral gap estimation from eigenstate-superposition dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="output directory")

    for name in STUDIES:
        p = sub.add_parser(name, help=f"run the {name} study")
        p.add_argument("--config", required=True, help="YAML config file")
        common(p)
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--shots", type=int, default=None, help="override config shots")
        p.add_argument(
            "--noise", default=None, help="none|aria|custom:<path> (overrides config)"
        )
        p.add_argument(
            "--workers", type=int, default=1,
            help="worker processes; the points split into at most this many contiguous batches",
        )
        p.add_argument("--override-step-budget", action="store_true")
        p.set_defaults(fn=cmd_study)

    for name, fn in (("search", cmd_search), ("benchmark", cmd_benchmark)):
        p = sub.add_parser(name, help=f"{name} from an exact diagonalization")
        p.add_argument("--hamiltonian", help="qubit or fermion Hamiltonian file")
        p.add_argument("--format", choices=("qubit", "fermion"), default="qubit")
        p.add_argument("--chain", type=int, help="Ising chain length")
        p.add_argument("--lattice", type=int, nargs=2, metavar=("ROWS", "COLS"))
        p.add_argument("--j1", type=float, default=1.0)
        p.add_argument("--h3", type=float, default=1.0)
        p.add_argument("--levels", type=int, nargs=2, default=(0, 1))
        if name == "search":
            p.add_argument("--family", choices=("all", "structured"), default="all")
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("fit", help="fit a measured t,mean,sigma series")
    p.add_argument("series", help="CSV file with header t,mean,sigma")
    p.add_argument("--freq-hint", type=float, default=None)
    common(p)
    p.set_defaults(fn=cmd_fit)
    return parser


# Built once per process: a parser is a web of reference cycles, so one per
# call would leave it to the cyclic collector after every in-process run.
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    args.argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        _check_environment()
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
