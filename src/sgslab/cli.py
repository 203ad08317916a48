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
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
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
from .pauli_core import PauliString, QubitHamiltonian, diagonal_part, oracle_limit
from .sgs_pipeline import (
    DEFAULT_ISING_TAU,
    DEFAULT_MOLECULE_TAU,
    ExperimentConfig,
    FitError,
    TimeSeries,
    fit_gap,
    prepare_sgs0_basis_pair,
    run_experiment,
    select_aux_pair,
)
from .spectra_oracle import benchmark_gap, observable_search, search_report_csv


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

    def to_dict(self) -> dict:
        return {
            "tool": self.tool,
            "version": self.version,
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "input_digests": self.input_digests,
            "created_utc": self.created_utc,
        }


def write_manifest(out_dir: Path, command: list[str], config: dict, seed: int,
                   input_paths: list[Path]) -> None:
    manifest = RunManifest(
        command=list(command),
        config=config,
        seed=seed,
        input_digests={str(p): _sha256(p) for p in sorted(set(input_paths))},
        created_utc=datetime.now(timezone.utc).isoformat(),
    )
    _write_atomic(out_dir / "manifest.json", _json_text(manifest.to_dict()))


# --- config loading ---------------------------------------------------------


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}.{key}: missing required field")
    return mapping[key]


def _experiment_config(
    raw: dict, defaults: dict, where: str, force_override: bool = False
) -> ExperimentConfig:
    merged = dict(defaults)
    known = {
        "tau", "therm_steps", "evo_steps", "shots", "seed", "time_window",
        "native_mode", "step_allocation", "independent_points",
        "target_periods", "max_step_norm", "override_step_budget",
        "max_total_steps",
    }
    for key, value in (raw or {}).items():
        if key not in known:
            raise ConfigError(f"{where}.{key}: unknown field")
        merged[key] = value
    if force_override:
        merged["override_step_budget"] = True
    if merged.get("time_window") is not None:
        tw = merged["time_window"]
        if not (isinstance(tw, (list, tuple)) and len(tw) == 2):
            raise ConfigError(f"{where}.time_window: expected [t_min, t_max]")
        merged["time_window"] = (float(tw[0]), float(tw[1]))
    try:
        return ExperimentConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


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
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    study = _require(raw, "study", "config")
    if study not in ("ising", "molecule"):
        raise ConfigError(f"config.study: expected 'ising' or 'molecule', got {study!r}")
    return LoadedConfig(study, raw, path.parent.resolve())


# --- shared run helpers ------------------------------------------------------


def _fit_point(h, h0, observable, cfg, prep):
    """Run and fit one sweep point; returns (fit, noiseless fit or None, series)."""
    if cfg.noise is None:
        series = run_experiment(h, h0, observable, cfg, prep=prep)
        return fit_gap(series), None, series
    clean_cfg = replace(cfg, noise=None)
    clean_fit = fit_gap(run_experiment(h, h0, observable, clean_cfg, prep=prep))
    series = run_experiment(h, h0, observable, cfg, prep=prep)
    return fit_gap(series, freq_hint=clean_fit.gap), clean_fit, series


def _benchmark_block(gap_exact: float, gap_fitted: float) -> dict:
    rel = abs(gap_fitted - gap_exact) / abs(gap_exact) if gap_exact != 0 else float("inf")
    return {
        "gap_exact": gap_exact,
        "gap_fitted": gap_fitted,
        "relative_error": rel,
    }


def _ising_point(args):
    (spec_kind, dims, j1, ratio, cfg) = args
    if spec_kind == "chain":
        spec = IsingSpec.chain(dims[0], j1, ratio * j1)
    else:
        spec = IsingSpec.lattice(dims[0], dims[1], j1, ratio * j1)
    h = build_ising(spec)
    h0 = ising_auxiliary(spec)
    observable = ising_observable(spec.num_sites)
    point = {
        "label": f"{ratio:g}",
        "h3_over_j1": ratio,
        "observable": observable.word,
    }
    try:
        fit, clean_fit, series = _fit_point(h, h0, observable, cfg, prep=None)
    except FitError as exc:
        point["fit_error"] = str(exc)
        return point, None
    gap_exact = benchmark_gap(h, 0, 1)
    point["fit"] = fit.to_dict()
    point["benchmark"] = _benchmark_block(gap_exact, fit.gap)
    point["time_window"] = [float(series.times.min()), float(series.times.max())]
    if clean_fit is not None:
        point["noiseless_reference"] = clean_fit.to_dict()
    return point, series


def _molecule_point(args):
    (label, path, fmt, cfg) = args
    if fmt == "fermion":
        h = jordan_wigner(load_fermion_hamiltonian(path))
    else:
        h = load_qubit_hamiltonian(path)
    h0 = diagonal_part(h)
    a, b = select_aux_pair(h0)
    observable = xstring_observable(a, b)
    prep = prepare_sgs0_basis_pair(a, b)
    point = {
        "label": label,
        "input": str(path),
        "aux_pair": [a, b],
        "observable": observable.word,
    }
    try:
        fit, clean_fit, series = _fit_point(h, h0, observable, cfg, prep=prep)
    except FitError as exc:
        point["fit_error"] = str(exc)
        return point, None
    gap_exact = benchmark_gap(h, 0, 1)
    point["fit"] = fit.to_dict()
    point["benchmark"] = _benchmark_block(gap_exact, fit.gap)
    point["rho_flagged"] = not fit.rho_significant
    point["time_window"] = [float(series.times.min()), float(series.times.max())]
    if clean_fit is not None:
        point["noiseless_reference"] = clean_fit.to_dict()
    return point, series


def _run_points(worker, jobs, workers: int):
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, jobs))
    return [worker(job) for job in jobs]


def _sweep_csv(rows: list[dict], key_column: str) -> str:
    lines = [f"{key_column},gap_fit,gap_err,gap_exact,rel_error"]
    for row in rows:
        if "fit" not in row:
            continue
        lines.append(
            f"{row['label']},{row['fit']['gap']:.17g},{row['fit']['gap_err']:.17g},"
            f"{row['benchmark']['gap_exact']:.17g},{row['benchmark']['relative_error']:.17g}"
        )
    return "\n".join(lines) + "\n"


def _emit_outputs(out_dir: Path, study: str, points, series_list, key_column: str) -> int:
    """Write all outputs; returns 1 when any point failed to fit."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for point, series in zip(points, series_list):
        if series is not None:
            series.to_csv(out_dir / f"series_{point['label'].replace('/', '_')}.csv")
    _write_atomic(out_dir / "sweep.csv", _sweep_csv(points, key_column))
    _write_atomic(out_dir / "result.json", _json_text({"study": study, "points": points}))
    return 1 if any("fit_error" in p for p in points) else 0


# --- subcommands -------------------------------------------------------------


def cmd_ising(args) -> int:
    loaded = load_config(Path(args.config))
    if loaded.study != "ising":
        raise ConfigError("config.study: expected 'ising' for this command")
    raw = loaded.raw
    geometry = raw.get("geometry", "chain")
    if geometry == "chain":
        dims = (int(_require(raw, "length", "config")),)
    elif geometry == "lattice":
        dims = (int(_require(raw, "rows", "config")), int(_require(raw, "cols", "config")))
    else:
        raise ConfigError(f"config.geometry: expected chain|lattice, got {geometry!r}")
    j1 = float(raw.get("j1", 1.0))
    sweep = _require(raw, "sweep", "config")
    if not isinstance(sweep, list) or not sweep:
        raise ConfigError("config.sweep: expected a non-empty list of h3/J1 values")
    sweep = [float(x) for x in sweep]

    defaults = dict(
        tau=DEFAULT_ISING_TAU, therm_steps=15, evo_steps=25,
        step_allocation="per_point",
    )
    cfg = _experiment_config(
        raw.get("experiment"), defaults, "config.experiment",
        force_override=args.override_step_budget,
    )
    cfg = _apply_overrides(cfg, args)
    noise = _resolve_noise(
        args.noise if args.noise is not None else raw.get("noise"), loaded.config_dir
    )
    if noise is not None:
        cfg = replace(cfg, noise=noise)

    jobs = [(geometry, dims, j1, ratio, cfg) for ratio in sweep]
    results = _run_points(_ising_point, jobs, args.workers)
    points = [p for p, _ in results]
    series_list = [s for _, s in results]
    out_dir = Path(args.out)
    status = _emit_outputs(out_dir, "ising", points, series_list, "h3_over_J1")
    write_manifest(out_dir, args.argv, _config_snapshot(raw, cfg), cfg.seed, [])
    return status


def cmd_molecule(args) -> int:
    loaded = load_config(Path(args.config))
    if loaded.study != "molecule":
        raise ConfigError("config.study: expected 'molecule' for this command")
    raw = loaded.raw
    inputs = _require(raw, "inputs", "config")
    if not isinstance(inputs, list) or not inputs:
        raise ConfigError("config.inputs: expected a non-empty list")
    jobs = []
    paths = []
    for idx, item in enumerate(inputs):
        where = f"config.inputs[{idx}]"
        label = str(_require(item, "label", where))
        path = (loaded.config_dir / str(_require(item, "path", where))).resolve()
        if not path.exists():
            raise ConfigError(f"{where}.path: {path} does not exist")
        fmt = item.get("format", "qubit")
        if fmt not in ("qubit", "fermion"):
            raise ConfigError(f"{where}.format: expected qubit|fermion, got {fmt!r}")
        paths.append(path)
        jobs.append((label, path, fmt))

    defaults = dict(
        tau=DEFAULT_MOLECULE_TAU, therm_steps=5, evo_steps=35,
        step_allocation="per_point",
    )
    cfg = _experiment_config(
        raw.get("experiment"), defaults, "config.experiment",
        force_override=args.override_step_budget,
    )
    cfg = _apply_overrides(cfg, args)
    noise = _resolve_noise(
        args.noise if args.noise is not None else raw.get("noise"), loaded.config_dir
    )
    if noise is not None:
        cfg = replace(cfg, noise=noise)

    results = _run_points(_molecule_point, [j + (cfg,) for j in jobs], args.workers)
    points = [p for p, _ in results]
    series_list = [s for _, s in results]
    out_dir = Path(args.out)
    status = _emit_outputs(out_dir, "molecule", points, series_list, "bond_label")
    write_manifest(out_dir, args.argv, _config_snapshot(raw, cfg), cfg.seed, paths)
    return status


def _args_snapshot(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("fn", "argv")}


def _hamiltonian_from_args(args) -> tuple[QubitHamiltonian, list[Path]]:
    if args.hamiltonian:
        path = Path(args.hamiltonian).resolve()
        if args.format == "fermion":
            return jordan_wigner(load_fermion_hamiltonian(path)), [path]
        return load_qubit_hamiltonian(path), [path]
    if args.chain:
        spec = IsingSpec.chain(args.chain, args.j1, args.h3)
    elif args.lattice:
        spec = IsingSpec.lattice(args.lattice[0], args.lattice[1], args.j1, args.h3)
    else:
        raise ConfigError("provide --hamiltonian, --chain or --lattice")
    return build_ising(spec), []


def cmd_search(args) -> int:
    h, paths = _hamiltonian_from_args(args)
    records = observable_search(h, args.levels[0], args.levels[1], family=args.family)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_dir / "search.csv", search_report_csv(records))
    write_manifest(out_dir, args.argv, _args_snapshot(args) | {"tool": "search"}, 0, paths)
    best = records[0]
    print(f"top observable: {best.word} (rho = {best.rho:.6g})")
    return 0


def cmd_benchmark(args) -> int:
    h, paths = _hamiltonian_from_args(args)
    gap = benchmark_gap(h, args.levels[0], args.levels[1])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    fit = fit_gap(series, freq_hint=args.freq_hint)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_dir / "result.json", _json_text({"fit": fit.to_dict()}))
    write_manifest(out_dir, args.argv, {"series": str(path)}, 0, [path])
    print(f"gap = {fit.gap:.9g} +- {fit.gap_err:.3g} (rho = {fit.rho:.4g})")
    return 0


# --- argument plumbing -------------------------------------------------------


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "shots", None) is not None:
        updates["shots"] = args.shots
    try:
        return replace(cfg, **updates)
    except ValueError as exc:
        raise ConfigError(f"command line: {exc}") from None


def _check_environment() -> None:
    try:
        oracle_limit()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _config_snapshot(raw: dict, cfg: ExperimentConfig) -> dict:
    resolved = {
        "tau": cfg.tau,
        "therm_steps": cfg.therm_steps,
        "evo_steps": cfg.evo_steps,
        "shots": cfg.shots,
        "seed": cfg.seed,
        "time_window": list(cfg.time_window) if cfg.time_window else None,
        "native_mode": cfg.native_mode,
        "step_allocation": cfg.step_allocation,
        "independent_points": cfg.independent_points,
        "target_periods": cfg.target_periods,
        "max_step_norm": cfg.max_step_norm,
        "override_step_budget": cfg.override_step_budget,
        "noise": cfg.noise.to_dict() if cfg.noise else None,
    }
    return {"file": raw, "resolved_experiment": resolved}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgslab",
        description="Spectral gap estimation from eigenstate-superposition dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="output directory")

    for name, fn in (("ising", cmd_ising), ("molecule", cmd_molecule)):
        p = sub.add_parser(name, help=f"run the {name} study")
        p.add_argument("--config", required=True, help="YAML config file")
        common(p)
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--shots", type=int, default=None, help="override config shots")
        p.add_argument(
            "--noise", default=None, help="none|aria|custom:<path> (overrides config)"
        )
        p.add_argument("--workers", type=int, default=1, help="parallel sweep points")
        p.add_argument("--override-step-budget", action="store_true")
        p.set_defaults(fn=fn)

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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
