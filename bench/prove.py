"""Repeat the benchmark over seeds and record how steady it is.

    python3 bench/prove.py --runs 10 --out bench/baseline.json

Runs ``bench/run.py`` once per (workload, seed) with tracing off, plus one
traced run per workload, for every workload in ``BENCHMARK.json``, one
process at a time. For every end-to-end
metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound in ``BENCHMARK.json``. ``--out`` writes
all of it, with the machine's facts and the per-layer figures, to a JSON
record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import layers  # noqa: E402
from run import THREAD_VARS  # noqa: E402  (also pins BLAS threads to 1 here)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def machine_facts() -> dict:
    import numpy as np
    import scipy
    import yaml

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "program_commit": commit,
    }


def expected_moves(name: str):
    for prefix, (metrics, on, little) in layers.EXPECTED.items():
        if name.startswith(prefix):
            return {"moves": metrics, "on": on, "little_or_none_on": little}
    return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [bench(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        entry = {
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        print(f"{workload}: {entry['failed']}/{entry['attempted']} points failed")
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in results])
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            flag = "ok" if stats["spread"] < bound / 3 else "WIDE"
            print(f"  {name:20s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
                  f"q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}  bound {bound}  {flag}")
        traced = bench(workload, seeds[0], spec["run_seconds"], 1)
        entry["per_layer"] = {
            name: {"value": m["value"], "unit": m["unit"], "expected": expected_moves(name)}
            for name, m in traced["metrics"].items()
        }
        print(f"  traced: self share {traced['metrics']['trace.self_share']['value']:.4f}, "
              f"overhead {traced['metrics']['trace.overhead_s']['value']:.3f} s")
        record["workloads"][workload] = entry
    if args.out:
        record["machine"] = machine_facts()
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
