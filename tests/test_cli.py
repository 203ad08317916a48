import json
import math
import subprocess
import sys

import numpy as np
import pytest
import yaml

from conftest import DATA_DIR, REPO_ROOT

from sgslab.cli import main, xstring_observable, ising_observable
from sgslab.sgs_pipeline import TimeSeries, chebyshev_times


def write_yaml(path, payload):
    path.write_text(yaml.safe_dump(payload))


def small_ising_config(tmp_path, **extra):
    cfg = {
        "study": "ising",
        "geometry": "chain",
        "length": 3,
        "j1": 1.0,
        "sweep": [2.5],
        "experiment": {
            "tau": 3.0,
            "therm_steps": 5,
            "evo_steps": 10,
            "shots": 1024,
            "seed": 4,
        },
        "noise": "none",
    }
    cfg.update(extra)
    path = tmp_path / "config.yaml"
    write_yaml(path, cfg)
    return path


class TestObservableHelpers:
    def test_xstring(self):
        o = xstring_observable("0101", "0110")
        assert o.word == "IIXX"

    def test_xstring_connects_exactly(self):
        o = xstring_observable("110", "011")
        amps = np.zeros(8, dtype=complex)
        amps[int("110", 2)] = 1.0
        from sgslab.pauli_core import apply_pauli

        out = apply_pauli(o, amps)
        assert out[int("011", 2)] == 1.0 + 0j

    def test_ising_observable(self):
        assert ising_observable(4).word == "XIII"
        assert ising_observable(4, 2).word == "IIXI"


class TestIsingCommand:
    def test_end_to_end(self, tmp_path):
        cfg = small_ising_config(tmp_path)
        out = tmp_path / "out"
        assert main(["ising", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()
        assert (out / "series_2.5.csv").exists()
        result = json.loads((out / "result.json").read_text())
        assert result["study"] == "ising"
        point = result["points"][0]
        assert point["observable"] == "XII"
        assert point["benchmark"]["relative_error"] < 0.2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "sgslab"
        assert manifest["seed"] == 4

    def test_determinism_across_runs_and_workers(self, tmp_path):
        cfg = small_ising_config(tmp_path, sweep=[2.0, 3.0])
        outs = []
        for tag, workers in (("a", 1), ("b", 1), ("c", 2)):
            out = tmp_path / tag
            assert main([
                "ising", "--config", str(cfg), "--out", str(out),
                "--workers", str(workers),
            ]) == 0
            outs.append(out)
        for name in ("sweep.csv", "result.json", "series_2.csv", "series_3.csv"):
            ref = (outs[0] / name).read_bytes()
            assert (outs[1] / name).read_bytes() == ref
            assert (outs[2] / name).read_bytes() == ref
        m0 = json.loads((outs[0] / "manifest.json").read_text())
        m1 = json.loads((outs[1] / "manifest.json").read_text())
        for m in (m0, m1):
            m.pop("created_utc")   # the only run-varying field
            m.pop("command")       # differs only in --out/--workers here
        assert m0 == m1

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = small_ising_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["ising", "--config", str(cfg), "--out", str(out_a)])
        main(["ising", "--config", str(cfg), "--out", str(out_b), "--seed", "99"])
        assert (out_a / "series_2.5.csv").read_bytes() != (
            out_b / "series_2.5.csv"
        ).read_bytes()

    def test_step_budget_rejected_without_override(self, tmp_path, capsys):
        cfg = small_ising_config(tmp_path)
        raw = yaml.safe_load(cfg.read_text())
        raw["experiment"]["therm_steps"] = 20
        raw["experiment"]["evo_steps"] = 25
        write_yaml(cfg, raw)
        assert main(["ising", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "budget" in capsys.readouterr().err

    def test_step_budget_override_flag(self, tmp_path):
        cfg = small_ising_config(tmp_path)
        raw = yaml.safe_load(cfg.read_text())
        raw["experiment"]["therm_steps"] = 20
        raw["experiment"]["evo_steps"] = 25
        raw["experiment"]["shots"] = 64
        write_yaml(cfg, raw)
        out = tmp_path / "x"
        assert main([
            "ising", "--config", str(cfg), "--out", str(out),
            "--override-step-budget",
        ]) == 0

    def test_missing_field_reports_path(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        write_yaml(path, {"study": "ising", "geometry": "chain", "length": 3})
        assert main(["ising", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "config.sweep" in capsys.readouterr().err

    def test_unknown_experiment_field(self, tmp_path, capsys):
        cfg = small_ising_config(tmp_path)
        raw = yaml.safe_load(cfg.read_text())
        raw["experiment"]["bogus_knob"] = 1
        write_yaml(cfg, raw)
        assert main(["ising", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_custom_noise_file(self, tmp_path):
        noise_path = tmp_path / "noise.yaml"
        write_yaml(noise_path, {
            "fidelity_1q": 0.999, "fidelity_2q": 0.985,
        })
        cfg = small_ising_config(tmp_path, noise=f"custom:{noise_path.name}",
                                 sweep=[2.5])
        out = tmp_path / "out"
        assert main(["ising", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert "noiseless_reference" in result["points"][0]

    def test_lattice_geometry(self, tmp_path):
        cfg = small_ising_config(
            tmp_path, geometry="lattice", rows=2, cols=2, length=None
        )
        raw = yaml.safe_load(cfg.read_text())
        del raw["length"]
        write_yaml(cfg, raw)
        out = tmp_path / "out"
        assert main(["ising", "--config", str(cfg), "--out", str(out)]) == 0
        point = json.loads((out / "result.json").read_text())["points"][0]
        assert point["observable"] == "XIII"

    def test_noisy_point_runs_one_pilot(self, tmp_path, monkeypatch):
        import sgslab.cli as cli_mod
        import sgslab.sgs_pipeline as pipeline

        calls = []
        original = pipeline.auto_time_windows

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "auto_time_windows", counted)
        monkeypatch.setattr(pipeline, "auto_time_windows", counted)
        cfg = small_ising_config(tmp_path, sweep=[2.2, 2.5], noise="aria")
        assert main(["ising", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        # one pilot for the batch of both points
        assert calls == [2]

    @pytest.mark.parametrize("noise", ["none", "aria"])
    def test_point_prepares_noiseless_state_once(self, tmp_path, monkeypatch, noise):
        # the window pilot and the noiseless series start from one prepared
        # batch of states, whose shared start circuit runs once; a noisy
        # point prepares its own state under noise
        import sgslab.sgs_pipeline as pipeline

        calls = []
        original = pipeline.run_circuit

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_circuit", counted)
        cfg = small_ising_config(tmp_path, sweep=[2.2, 2.5], noise=noise)
        assert main(["ising", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("noise", ["none", "aria"])
    def test_each_stage_compiles_a_step_once(self, tmp_path, monkeypatch, noise):
        # the window pilot and the noiseless series each compile every
        # point's noiseless step once for their batch; a noisy series
        # compiles every point's native step once more
        import sgslab.sgs_pipeline as pipeline

        calls = []
        original = pipeline.compile_step

        def counted(h, native=False, noise=None):
            calls.append(native)
            return original(h, native, noise)

        monkeypatch.setattr(pipeline, "compile_step", counted)
        cfg = small_ising_config(tmp_path, sweep=[2.2, 2.5], noise=noise)
        assert main(["ising", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert calls.count(False) == 4
        assert calls.count(True) == (2 if noise == "aria" else 0)

    def test_large_sweep_value_is_a_fit_error(self, tmp_path, capsys):
        # 1e300 is large, but its pilot times stay normal numbers: the point
        # fails to fit, with no traceback (1e308 is refused, see
        # TestInputErrors' sweep-pilot-underflow)
        path = tmp_path / "c.yaml"
        write_yaml(path, {"study": "ising", "geometry": "chain", "length": 3, "sweep": [1e300]})
        assert main(["ising", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert "fit_error" in json.loads((tmp_path / "o" / "result.json").read_text())["points"][0]


class TestBatches:
    """Points that share their words run as one batch, and every point of
    a batch gets the bytes it gets alone."""

    @staticmethod
    def outputs(out):
        points = json.loads((out / "result.json").read_text())["points"]
        return [
            (json.dumps(p, sort_keys=True), (out / f"series_{p['label']}.csv").read_bytes())
            for p in points
        ]

    @pytest.mark.parametrize("case", ["chain", "chain-aria", "molecules"])
    def test_batch_equals_points_run_alone(self, tmp_path, monkeypatch, case):
        import sgslab.cli as cli_mod

        if case == "molecules":
            # 4-, 8- and 4-qubit inputs: two batches, the first of points 0
            # and 2 (the H2 bond lengths differ in their basis pair, so one
            # file twice)
            names = [("0.735", "h2_r0735"), ("1.00", "he2_r100"), ("0.735b", "h2_r0735")]
            raw = {
                "study": "molecule",
                "inputs": [
                    {"label": label, "path": str(DATA_DIR / "molecules" / f"{name}.qubits.txt")}
                    for label, name in names
                ],
                "experiment": {"tau": 2.0, "therm_steps": 5, "evo_steps": 35, "shots": 256},
            }
            key, sizes = "inputs", [2, 1]
        else:
            sweep = [2.2, 2.5, 2.8] if case == "chain" else [2.2, 2.8]
            raw = yaml.safe_load(small_ising_config(tmp_path, sweep=sweep).read_text())
            if case == "chain-aria":
                raw["noise"] = "aria"
                raw["experiment"]["shots"] = 128
            key, sizes = "sweep", [len(sweep)]
        batches = []
        original = cli_mod._run_batch
        monkeypatch.setattr(
            cli_mod, "_run_batch", lambda job: batches.append(len(job[2])) or original(job)
        )
        path = tmp_path / "all.yaml"
        write_yaml(path, raw)
        main([raw["study"], "--config", str(path), "--out", str(tmp_path / "all")])
        assert batches == sizes
        together = self.outputs(tmp_path / "all")
        for k, item in enumerate(raw[key]):
            write_yaml(path, raw | {key: [item]})
            main([raw["study"], "--config", str(path), "--out", str(tmp_path / f"p{k}")])
            assert self.outputs(tmp_path / f"p{k}") == [together[k]]

    def test_one_kernel_call_per_stage(self, tmp_path, monkeypatch):
        # a 3-point noisy sweep, counted by wrapping the kernels wherever
        # sgslab holds them: the noisy prefix and series, the window pilot
        # and noiseless series, and the noiseless thermalization
        import sgslab.circuit_engine as circuit_engine
        import sgslab.noise_engine as noise_engine

        calls = {}
        for module, name in (
            (noise_engine, "evolve_transfer"),
            (circuit_engine, "evolve_columns"),
            (circuit_engine, "run_adiabatic"),
        ):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            for holder in [m for n, m in sys.modules.items() if n.split(".")[0] == "sgslab"]:
                if getattr(holder, name, None) is original:
                    monkeypatch.setattr(holder, name, counted)
        cfg = small_ising_config(tmp_path, sweep=[2.2, 2.5, 2.8], noise="aria")
        assert main(["ising", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert calls == {"evolve_transfer": 2, "evolve_columns": 2, "run_adiabatic": 1}

class TestMoleculeCommand:
    def test_qubit_fixture_run(self, tmp_path):
        cfg = tmp_path / "mol.yaml"
        write_yaml(cfg, {
            "study": "molecule",
            "inputs": [{
                "label": "0.735",
                "path": str(DATA_DIR / "molecules" / "h2_r0735.qubits.txt"),
            }],
            "experiment": {
                "tau": 2.0, "therm_steps": 5, "evo_steps": 35,
                "shots": 2048, "seed": 4,
            },
        })
        out = tmp_path / "out"
        assert main(["molecule", "--config", str(cfg), "--out", str(out)]) == 0
        point = json.loads((out / "result.json").read_text())["points"][0]
        assert point["benchmark"]["relative_error"] < 0.05
        assert set("".join(sorted(set(point["observable"])))) <= {"I", "X"}
        assert point["rho_flagged"] is False
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["input_digests"]) == 1

    def test_fermion_format_input(self, tmp_path):
        cfg = tmp_path / "mol.yaml"
        write_yaml(cfg, {
            "study": "molecule",
            "inputs": [{
                "label": "0.50",
                "path": str(DATA_DIR / "molecules" / "h2_r050.fermion.txt"),
                "format": "fermion",
            }],
            "experiment": {
                "tau": 2.0, "therm_steps": 5, "evo_steps": 35,
                "shots": 1024, "seed": 4,
            },
        })
        out = tmp_path / "out"
        assert main(["molecule", "--config", str(cfg), "--out", str(out)]) == 0
        point = json.loads((out / "result.json").read_text())["points"][0]
        assert point["benchmark"]["relative_error"] < 0.08

    def test_missing_input_file(self, tmp_path, capsys):
        cfg = tmp_path / "mol.yaml"
        write_yaml(cfg, {
            "study": "molecule",
            "inputs": [{"label": "x", "path": "nope.txt"}],
        })
        assert main(["molecule", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "inputs[0]" in capsys.readouterr().err

    def test_study_mismatch(self, tmp_path, capsys):
        cfg = small_ising_config(tmp_path)
        assert main(["molecule", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


class TestSearchAndBenchmark:
    def test_search_csv(self, tmp_path):
        out = tmp_path / "s"
        assert main([
            "search", "--chain", "3", "--h3", "2.0", "--out", str(out),
        ]) == 0
        lines = (out / "search.csv").read_text().splitlines()
        assert lines[0] == "pauli_word,rho,theta"
        assert len(lines) == 1 + 4**3

    def test_search_structured_family(self, tmp_path):
        out = tmp_path / "s"
        assert main([
            "search", "--chain", "4", "--h3", "2.0", "--family", "structured",
            "--out", str(out),
        ]) == 0
        assert len((out / "search.csv").read_text().splitlines()) == 1 + 8

    def test_benchmark_from_file(self, tmp_path):
        out = tmp_path / "b"
        path = DATA_DIR / "molecules" / "h2_r0735.qubits.txt"
        assert main([
            "benchmark", "--hamiltonian", str(path), "--out", str(out),
        ]) == 0
        payload = json.loads((out / "result.json").read_text())
        assert payload["gap_exact"] == pytest.approx(0.5985, abs=1e-3)

    def test_search_requires_source(self, tmp_path, capsys):
        assert main(["search", "--out", str(tmp_path / "s")]) == 2


class TestFitCommand:
    def test_recovers_planted_frequency(self, tmp_path):
        times = chebyshev_times(25, 0.0, 9.0)
        values = 0.1 + 0.45 * np.cos(1.7 * times + 0.3)
        series = TimeSeries(times, values, np.full_like(times, 0.01))
        csv_path = tmp_path / "series.csv"
        series.to_csv(csv_path)
        out = tmp_path / "fit"
        assert main(["fit", str(csv_path), "--out", str(out)]) == 0
        fit = json.loads((out / "result.json").read_text())["fit"]
        assert fit["gap"] == pytest.approx(1.7, abs=1e-3)

    def test_repeated_fits_byte_identical(self, tmp_path):
        times = chebyshev_times(25, 0.0, 9.0)
        rng = np.random.default_rng(3)
        values = 0.1 + 0.45 * np.cos(1.7 * times + 0.3) + rng.normal(0.0, 0.02, times.shape)
        csv_path = tmp_path / "series.csv"
        TimeSeries(times, values, np.full_like(times, 0.02)).to_csv(csv_path)
        outs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
        for out in outs[:2]:
            assert main(["fit", str(csv_path), "--out", str(out)]) == 0
        assert main(["fit", str(csv_path), "--freq-hint", "1.72", "--out", str(outs[2])]) == 0
        results = [(out / "result.json").read_bytes() for out in outs]
        assert results[0] == results[1]
        assert json.loads(results[2])["fit"]["gap"] == pytest.approx(
            json.loads(results[0])["fit"]["gap"], rel=1e-12)

    def test_subset_of_times_still_fits(self, tmp_path):
        # a 10-point subset of the 25 times, like a reduced hardware run
        times = chebyshev_times(25, 0.0, 9.0)[::3][:10]
        values = 0.1 + 0.45 * np.cos(1.7 * times + 0.3)
        series = TimeSeries(times, values, np.full_like(times, 0.02))
        csv_path = tmp_path / "series.csv"
        series.to_csv(csv_path)
        out = tmp_path / "fit"
        assert main(["fit", str(csv_path), "--out", str(out)]) == 0
        fit = json.loads((out / "result.json").read_text())["fit"]
        assert fit["gap"] == pytest.approx(1.7, abs=0.01)


class TestFailureHandling:
    def test_fit_failure_writes_partial_results(self, tmp_path, monkeypatch):
        import sgslab.cli as cli_mod
        from sgslab.sgs_pipeline import FitError

        def always_fails(series, freq_hint=None, **kwargs):
            raise FitError("forced failure")

        monkeypatch.setattr(cli_mod, "fit_gap", always_fails)
        cfg = small_ising_config(tmp_path)
        out = tmp_path / "out"
        assert main(["ising", "--config", str(cfg), "--out", str(out)]) == 1
        result = json.loads((out / "result.json").read_text())
        assert result["points"][0]["fit_error"] == "forced failure"
        assert (out / "sweep.csv").read_text().splitlines() == [
            "h3_over_J1,gap_fit,gap_err,gap_exact,rel_error"
        ]

    def test_noise_aria_override_switches_path(self, tmp_path):
        cfg = small_ising_config(tmp_path, sweep=[2.5])
        out = tmp_path / "out"
        assert main([
            "ising", "--config", str(cfg), "--out", str(out), "--noise", "aria",
        ]) == 0
        point = json.loads((out / "result.json").read_text())["points"][0]
        assert "noiseless_reference" in point
        assert point["fit"]["rho"] < point["noiseless_reference"]["rho"]


class TestInputErrors:
    """Bad input ends in exit code 2 and a message naming the field."""

    def run(self, argv, capsys):
        status = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return status, err

    def test_zero_shots(self, tmp_path, capsys):
        cfg = small_ising_config(tmp_path)
        status, err = self.run(
            ["ising", "--config", str(cfg), "--out", str(tmp_path / "o"), "--shots", "0"],
            capsys,
        )
        assert status == 2
        assert "shots" in err

    def test_missing_custom_noise_file(self, tmp_path, capsys):
        cfg = small_ising_config(tmp_path, noise="custom:absent.yaml")
        status, err = self.run(
            ["ising", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys
        )
        assert status == 2
        assert "noise" in err and "absent.yaml" in err

    def test_non_integer_oracle_limit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SGSLAB_ORACLE_LIMIT", "abc")
        status, err = self.run(
            ["benchmark", "--chain", "3", "--out", str(tmp_path / "o")], capsys
        )
        assert status == 2
        assert "SGSLAB_ORACLE_LIMIT" in err

    def test_nan_row_in_fit_series(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("t,mean,sigma\n0,0.1,0.01\n1,nan,0.01\n2,0.3,0.01\n")
        status, err = self.run(["fit", str(path), "--out", str(tmp_path / "o")], capsys)
        assert status == 2
        assert "series.csv" in err and "finite" in err

    @pytest.mark.parametrize("row", ["1,0.2", "1,0.2,0.01,5"], ids=["two-fields", "four-fields"])
    def test_wrong_field_count_in_fit_series(self, tmp_path, capsys, row):
        path = tmp_path / "series.csv"
        path.write_text(f"t,mean,sigma\n0,0.1,0.01\n{row}\n2,0.3,0.01\n")
        status, err = self.run(["fit", str(path), "--out", str(tmp_path / "o")], capsys)
        assert status == 2
        assert "series.csv:3: expected 3 fields" in err

    @pytest.mark.parametrize("timings, field", [
        ({"t1": float("nan")}, "t1"),
        ({"t_gate_1q": float("inf")}, "t_gate_1q"),
        ({"t1": 1e-9, "t2": 1e-9}, "t_gate_1q"),
    ], ids=["t1-nan", "t-gate-inf", "coherence-underflow"])
    def test_bad_custom_noise_timing(self, tmp_path, capsys, timings, field):
        write_yaml(tmp_path / "noise.yaml", {"fidelity_1q": 0.999, "fidelity_2q": 0.985} | timings)
        cfg = small_ising_config(tmp_path, noise="custom:noise.yaml")
        status, err = self.run(
            ["ising", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys
        )
        assert status == 2
        assert "noise.yaml" in err and field in err

    @pytest.mark.parametrize("line, field", [
        ("t1: 1e9", "t1"),
        ("fidelity_2q: true", "fidelity_2q"),
    ], ids=["yaml-string", "yaml-bool"])
    def test_non_number_in_custom_noise(self, tmp_path, capsys, line, field):
        # YAML 1.1 reads 1e9 without a decimal point as a string
        (tmp_path / "noise.yaml").write_text(f"fidelity_1q: 0.999\nfidelity_2q: 0.985\n{line}\n")
        cfg = small_ising_config(tmp_path, noise="custom:noise.yaml")
        status, err = self.run(
            ["ising", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys
        )
        assert status == 2
        assert "noise.yaml" in err and f"{field} must be a number" in err

    def test_too_few_rows_in_fit_series(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        times = chebyshev_times(4, 0.0, 3.0)
        TimeSeries(times, np.cos(times), np.full_like(times, 0.01)).to_csv(path)
        status, err = self.run(["fit", str(path), "--out", str(tmp_path / "o")], capsys)
        assert status == 2
        assert "series.csv" in err and "4 rows" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("study, changes, field", [
        ("ising", {"sweep": ["a"]}, "config.sweep[0]"),
        ("ising", {"length": "abc"}, "config.length"),
        ("ising", {"length": 0}, "length"),
        ("ising", {"experiment": [1, 2]}, "config.experiment"),
        ("ising", {"experiment": []}, "config.experiment: expected a mapping"),
        ("ising", {"experiment": 0}, "config.experiment: expected a mapping"),
        ("ising", {"experiment": ""}, "config.experiment: expected a mapping"),
        ("ising", {"experiment": False}, "config.experiment: expected a mapping"),
        ("ising", {"experiment": {"time_window": ["a", 1]}}, "time_window"),
        ("ising", {"experiment": {"time_window": [0, "1e400"]}}, "time_window"),
        ("ising", {"experiment": {"time_window": [0, math.inf]}}, "time_window"),
        ("ising", {"j1": 0}, "config.j1"),
        ("ising", {"length": 4, "sweep": [2.0, 1e308]}, "config.sweep[1]"),
        ("ising", {"length": 3, "sweep": [1e308]}, "config.sweep[0]"),
        ("ising", {"experiment": {"evo_steps": 10.5}}, "evo_steps"),
        ("ising", {"experiment": {"evo_steps": 3}}, "evo_steps must be >= 5"),
        ("ising", {"experiment": {"evo_steps": 4}}, "evo_steps must be >= 5"),
        ("ising", {"experiment": {"shots": 64.7}}, "shots"),
        ("ising", {"experiment": {"seed": 1.5}}, "seed"),
        ("ising", {"experiment": {"tau": "abc"}}, "tau"),
        ("ising", {"experiment": {"native_mode": True}},
         "config.experiment.native_mode: unknown field"),
        ("ising", {"experiment": {"independent_points": True}},
         "config.experiment.independent_points: unknown field"),
        ("ising", {"experiment": {"max_total_steps": 50}},
         "config.experiment.max_total_steps: unknown field"),
        ("ising", {"experiment": {"step_allocation": "per_point"}},
         "config.experiment.step_allocation: unknown field"),
        ("ising", {"study": ["ising"]}, "config.study"),
        ("molecule", {"inputs": ["h2.txt"]}, "config.inputs[0]"),
        ("molecule", {"inputs": [{"label": "x", "path": "."}]}, "config.inputs[0].path"),
        ("molecule", {"inputs": [{"label": "x", "path": "config.yaml"}]},
         "config.inputs[0].path"),
    ], ids=["sweep-item", "length-text", "length-zero", "experiment-list",
            "experiment-empty-list", "experiment-zero", "experiment-empty-string",
            "experiment-false",
            "time-window-item", "time-window-1e400", "time-window-inf", "j1-zero",
            "sweep-norm-overflow", "sweep-pilot-underflow", "evo-steps-float", "evo-steps-3",
            "evo-steps-4",
            "shots-float", "seed-float",
            "tau-text", "native-mode-removed", "independent-points-removed",
            "max-total-steps-removed", "step-allocation-removed", "study-list", "input-item", "input-directory",
            "input-not-hamiltonian"])
    def test_bad_config_value(self, tmp_path, capsys, study, changes, field):
        path = small_ising_config(tmp_path)
        raw = yaml.safe_load(path.read_text())
        if study == "molecule":
            raw = {"study": "molecule"}
        for key, value in changes.items():
            if isinstance(value, dict) and isinstance(raw.get(key), dict):
                raw[key].update(value)
            else:
                raw[key] = value
        write_yaml(path, raw)
        status, err = self.run(
            [study, "--config", str(path), "--out", str(tmp_path / "o")], capsys
        )
        assert status == 2
        assert field in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["benchmark", "--chain", "3", "--levels", "1", "0"], "--levels"),
        (["search", "--chain", "3", "--levels", "0", "8"], "--levels"),
        (["search", "--chain", "8"], "--family"),
        (["search", "--chain", "4", "--h3", "0"], "--levels"),
        (["benchmark", "--chain", "13"], "--chain"),
        (["benchmark", "--chain", "0"], "--chain: chain length"),
        (["benchmark", "--lattice", "0", "3"], "--lattice"),
        (["benchmark", "--hamiltonian", "absent.txt"], "--hamiltonian"),
        (["benchmark", "--chain", "4", "--h3", "nan"], "--h3: expected a finite number"),
        (["benchmark", "--chain", "4", "--j1", "inf"], "--j1: expected a finite number"),
        (["search", "--lattice", "2", "2", "--h3", "inf"], "--h3: expected a finite number"),
    ], ids=["levels-reversed", "levels-out-of-range", "search-over-ceiling",
            "degenerate-levels", "chain-over-oracle-limit", "chain-zero",
            "lattice-zero", "missing-hamiltonian", "h3-nan", "j1-inf", "lattice-h3-inf"])
    def test_bad_oracle_flag(self, tmp_path, capsys, argv, flag):
        status, err = self.run(argv + ["--out", str(tmp_path / "o")], capsys)
        assert status == 2
        assert flag in err

    def test_non_finite_coefficient_in_hamiltonian_file(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("-0.5 XX\nnan ZI\n")
        status, err = self.run(
            ["benchmark", "--hamiltonian", str(path), "--out", str(tmp_path / "o")], capsys
        )
        assert status == 2
        assert "--hamiltonian" in err and "h.txt:2: non-finite coefficient" in err
        write_yaml(tmp_path / "config.yaml",
                   {"study": "molecule", "inputs": [{"label": "x", "path": "h.txt"}]})
        status, err = self.run(
            ["molecule", "--config", str(tmp_path / "config.yaml"), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert status == 2
        assert "config.inputs[0].path" in err and "h.txt:2" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("hint", ["nan", "inf", "0", "-1.7"])
    def test_bad_freq_hint(self, tmp_path, capsys, hint):
        times = chebyshev_times(25, 0.0, 9.0)
        values = 0.1 + 0.45 * np.cos(1.7 * times + 0.3)
        csv_path = tmp_path / "series.csv"
        TimeSeries(times, values, np.full_like(times, 0.01)).to_csv(csv_path)
        status, err = self.run(
            ["fit", str(csv_path), "--freq-hint", hint, "--out", str(tmp_path / "o")], capsys
        )
        assert status == 2
        assert "--freq-hint: expected a finite number > 0" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["ising", "benchmark", "search"])
    def test_out_that_cannot_be_created(self, tmp_path, capsys, monkeypatch, command):
        import sgslab.cli as cli_mod

        def refused(job):
            raise AssertionError("batch ran before --out was checked")

        monkeypatch.setattr(cli_mod, "_run_batch", refused)
        blocker = tmp_path / "some_file.csv"
        blocker.write_text("")
        if command == "ising":
            source = ["--config", str(small_ising_config(tmp_path))]
        else:
            source = ["--chain", "3"]
        status, err = self.run([command, *source, "--out", str(blocker / "sub")], capsys)
        assert status == 2
        assert "config error: --out:" in err and "some_file.csv" in err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one(self, tmp_path, capsys, workers):
        cfg = small_ising_config(tmp_path)
        status, err = self.run(
            ["ising", "--config", str(cfg), "--workers", workers, "--out", str(tmp_path / "o")],
            capsys,
        )
        assert status == 2
        assert "--workers: expected an integer >= 1" in err
        assert not (tmp_path / "o").exists()

    def test_search_solver_error_is_not_a_flag_error(self, tmp_path, monkeypatch):
        # only the exhaustive ceiling is a --family error; anything else the
        # search raises is a fault of the program and propagates
        import sgslab.cli as cli_mod

        def broken(*args, **kwargs):
            raise ValueError("solver broke")

        monkeypatch.setattr(cli_mod, "observable_search", broken)
        with pytest.raises(ValueError, match="solver broke") as info:
            main(["search", "--chain", "3", "--out", str(tmp_path / "o")])
        assert not isinstance(info.value, cli_mod.ConfigError)

    def test_missing_config_file(self, tmp_path, capsys):
        status, err = self.run(
            ["ising", "--config", str(tmp_path / "absent.yaml"), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert status == 2
        assert "--config" in err and "absent.yaml" in err


class TestRunStudyScript:
    """scripts/run_study.py picks the subcommand from the config's study field."""

    def run(self, *args):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "run_study.py"), *args],
            capture_output=True, text=True, timeout=120,
        )
        assert "Traceback" not in proc.stderr
        return proc.returncode, proc.stderr

    @pytest.mark.parametrize("name", ["ising_1d_aria", "he2"])
    def test_dispatches_on_study(self, name, tmp_path):
        # --shots 0 fails at the experiment merge, which only the matching
        # subcommand reaches; a mismatched one stops at config.study
        status, err = self.run(name, "--shots", "0", "--out", str(tmp_path))
        assert status == 2
        assert "shots" in err and "config.study" not in err

    def test_unknown_config_name(self):
        status, err = self.run("no_such_study")
        assert status == 2
        assert "no_such_study.yaml" in err


# Recorded before the frequency scan built its rows by angle addition and
# the noiseless thermalization ran straight from the term lists: the n_plus
# count of each series time (8192 shots) and the fitted gap, seed 7, for
# h3/J1 = 2.4 of ising_1d and for he2.
NOISELESS_PINS = {
    "ising_1d": ("series_2.4.csv", "1.3953258092976686", [
        1758, 2029, 2812, 3908, 5316, 6277, 5913, 4309, 2116, 2011, 4791, 6591, 4822,
        2096, 2136, 4827, 6653, 5289, 2892, 1862, 2226, 3228, 4173, 4864, 5153,
    ]),
    "he2": ("series_1.00.csv", "0.21164027480976505", [
        7831, 7825, 7779, 7675, 7637, 7561, 7386, 7211, 6978, 6783, 6446, 6146, 5781,
        5300, 4868, 4381, 4038, 3547, 3043, 2639, 2143, 1708, 1488, 1109, 835, 650,
        487, 319, 259, 153, 117, 70, 61, 38, 32,
    ]),
}


@pytest.mark.parametrize("name", sorted(NOISELESS_PINS))
def test_noiseless_point_pinned(tmp_path, name):
    series_file, gap, n_plus = NOISELESS_PINS[name]
    config = REPO_ROOT / "configs" / f"{name}.yaml"
    if name == "ising_1d":
        text = config.read_text()
        config = tmp_path / "ising.yaml"
        config.write_text(text.replace("sweep: [2.0, 2.4, 2.8, 3.2, 3.6]", "sweep: [2.4]"))
    study = "ising" if name == "ising_1d" else "molecule"
    assert main([study, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / series_file).read_text().split()[1:]
    means = np.array([float(row.split(",")[1]) for row in rows])
    assert list(np.rint((means + 1.0) * 8192 / 2).astype(int)) == n_plus
    (point,) = json.loads((tmp_path / "out" / "result.json").read_text())["points"]
    assert repr(point["fit"]["gap"]) == gap
