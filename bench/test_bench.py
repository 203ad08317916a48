"""Self-test of the benchmark: output checks, layer wrappers, self times,
and agreement of the printed metrics with ``BENCHMARK.json``.

Run from the checkout root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import layers  # noqa: E402
from checks import Checker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def ising_rep(tmp_path_factory):
    """One genuine ising_sweep repetition, run through the CLI."""
    from sgslab import cli

    rep_dir = tmp_path_factory.mktemp("ising") / "rep000"
    (label, argv), = WORKLOADS["ising_sweep"].invocations(rep_dir, 7)
    assert cli.main(argv) == 0
    return rep_dir


@pytest.fixture(scope="module")
def ising_checker():
    return Checker(WORKLOADS["ising_sweep"], ROOT)


def _tampered(rep_dir: Path, tmp_path: Path, edit) -> Path:
    copy = tmp_path / "rep"
    shutil.copytree(rep_dir, copy)
    result = copy / "study" / "result.json"
    payload = json.loads(result.read_text())
    edit(payload["points"])
    result.write_text(json.dumps(payload))
    return copy


def test_genuine_outputs_pass(ising_rep, ising_checker):
    outcome = ising_checker.check(ising_rep, {"study": 0})
    assert (outcome.attempted, outcome.failed) == (5, 0), outcome.problems
    assert len(outcome.gaps) == 5


def test_nan_gap_err_counts_as_failed(ising_rep, ising_checker, tmp_path):
    def edit(points):
        points[1]["fit"]["gap_err"] = math.nan

    outcome = ising_checker.check(_tampered(ising_rep, tmp_path, edit), {"study": 0})
    assert (outcome.attempted, outcome.failed) == (5, 1)
    assert "non-finite" in outcome.problems[0]


def test_gap_exact_off_by_1e6_counts_as_failed(ising_rep, ising_checker, tmp_path):
    def edit(points):
        points[3]["benchmark"]["gap_exact"] += 1e-6

    outcome = ising_checker.check(_tampered(ising_rep, tmp_path, edit), {"study": 0})
    assert (outcome.attempted, outcome.failed) == (5, 1)
    assert "gap_exact" in outcome.problems[0]


def test_fit_error_and_unexplained_exit_count_as_failed(ising_rep, ising_checker, tmp_path):
    def edit(points):
        points[0] = {"label": points[0]["label"], "fit_error": "no convergence"}

    copy = _tampered(ising_rep, tmp_path, edit)
    assert ising_checker.check(copy, {"study": 1}).failed == 1
    assert ising_checker.check(ising_rep, {"study": 2}).failed == 5
    assert ising_checker.check(tmp_path / "absent", {"study": None}).failed == 5


def test_tampered_search_counts_as_failed(tmp_path):
    from sgslab import cli

    checker = Checker(WORKLOADS["oracle_search"], ROOT)
    (_, search), _ = WORKLOADS["oracle_search"].invocations(tmp_path, 0)
    assert cli.main(search) == 0
    out = tmp_path / "search" / "search.csv"
    good = out.read_text().splitlines()
    assert checker._search_problem(out) is None
    word, rho, theta = good[1].split(",")
    out.write_text("\n".join([good[0], f"{word},{float(rho) + 1e-6!r},{theta}"] + good[2:]))
    assert "oracle" in checker._search_problem(out)
    out.write_text("\n".join(good[:-1]))
    assert "rows" in checker._search_problem(out)


def test_oracle_matches_sgslab_convention():
    from sgslab.hamiltonians import IsingSpec, build_ising
    from sgslab.spectra_oracle import benchmark_gap

    h = build_ising(IsingSpec.chain(5, 1.3, 2.1))
    assert checks.exact_gap(checks.ising_chain_terms(5, 1.3, 2.1)) == pytest.approx(
        benchmark_gap(h), rel=1e-12)


def test_wrappers_see_calls_through_importing_modules(tmp_path):
    import sgslab.cli as cli
    import sgslab.sgs_pipeline as pipeline
    from sgslab import (IsingSpec, build_ising, ising_auxiliary,
                        ising_experiment_config)
    from sgslab.pauli_core import PauliString

    original_fit_gap = pipeline.fit_gap
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert cli.fit_gap is not original_fit_gap
        assert pipeline.run_circuit.__wrapped__ is not None
        spec = IsingSpec.chain(3, 1.0, 2.5)
        cfg = ising_experiment_config(time_window=(0.0, 4.0), shots=64, seed=1)
        series = pipeline.run_experiment(
            build_ising(spec), ising_auxiliary(spec), PauliString.from_word("XII"), cfg)
        csv = tmp_path / "series.csv"
        series.to_csv(csv)
        assert cli.main(["fit", str(csv), "--out", str(tmp_path / "fit")]) == 0
    finally:
        tracer.uninstall()
    assert cli.fit_gap is original_fit_gap
    seen = Counter(tracer.names[i] for i in tracer.name)
    # run_circuit is reached through sgs_pipeline's name, fit_gap through cli's
    assert seen["circuit_engine.series"] == cfg.evo_steps ** 2  # per_point: a circuit per step
    assert seen["circuit_engine.prefix"] == 1
    assert seen["sgs_pipeline.fit_gap"] == 1
    assert seen["sgs_pipeline.frequency_grid_search"] == 1
    assert seen["cli.main"] == 1
    assert tracer.counts[0]["sgs_pipeline.curve_fit.calls"] >= 1


def test_self_time_excludes_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    tracer = layers.Tracer(clock=lambda: next(ticks))
    root = tracer.open(layers.ROOT_SPAN)            # 0 .. 10
    a = tracer.open("cli.main")                    # 1 .. 4
    b = tracer.open("sgs_pipeline.fit_gap")        # 2 .. 3
    tracer.close(b)
    tracer.close(a)
    c = tracer.open("sgs_pipeline.fit_gap")        # 5 .. 6
    tracer.close(c)
    tracer.close(root)
    arrays = tracer.arrays()
    own = layers.self_times(arrays["parent"], arrays["end"] - arrays["start"])
    np.testing.assert_allclose(own, [6.0, 2.0, 1.0, 1.0])
    (rep,) = layers.summarize(tracer)
    assert rep["cli.main.self_s"] == 2.0
    assert rep["sgs_pipeline.fit_gap.self_s"] == 2.0
    assert rep["trace.self_share"] == pytest.approx(0.2)  # root and cli.main self left out


@pytest.mark.parametrize("driver", layers.DRIVERS)
def test_unwrapped_work_in_a_driver_lowers_self_share(driver):
    def share(unwrapped_s):
        ticks = iter([0.0, 0.0, 0.0, 1.0, 1.0 + unwrapped_s, 1.0 + unwrapped_s])
        tracer = layers.Tracer(clock=lambda: next(ticks))
        root = tracer.open(layers.ROOT_SPAN)
        outer = tracer.open(driver)
        work = tracer.open("circuit_engine.series")
        tracer.close(work)
        tracer.close(outer)  # after unwrapped_s of work no span names
        tracer.close(root)
        (rep,) = layers.summarize(tracer)
        return rep["trace.self_share"]

    assert share(0.0) == 1.0
    assert share(1.0) == pytest.approx(0.5)


def test_reference_kernel_does_not_load_the_program():
    # study_norm_s divides by the kernel's time, so no program change may move it
    code = ("import sys, reference; reference.gauge(); "
            "print(any(m.startswith('sgslab') for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = _run_bench("--workload", "ising_sweep", "--seed", "3",
                      "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench("--workload", "ising_sweep", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
